// Distance-layer tables: the Fàbrega–Martí-Farré–Muñoz layer structure of
// de Bruijn / Kautz networks (PAPERS.md, arXiv 2203.09918) turned into an
// O(1) deflection primitive.
//
// For a fixed destination Y the vertices partition into layers by distance
// D(·,Y); in the undirected DG(d,k) every neighbor of a vertex X lies in
// layer D(X,Y)-1, D(X,Y) or D(X,Y)+1, and a deflection router needs exactly
// that trichotomy — forward (Closer), sidestep (Same) or retreat (Farther)
// — at every hop. net/adaptive.* used to recompute D(neighbor, Y) with the
// O(k) Theorem-2 scan for every candidate of every hop; a LayerTable
// instead materializes D(·,Y) once per active destination (an O(N k)
// analytic fill using the paper's distance formulas — no BFS) and answers
// classify() with two array reads.
//
// Destinations are cached lazily in direct-mapped shards behind per-shard
// mutexes (the BatchRouteEngine memo idiom), and each destination's table
// is handed out as an immutable shared View so the per-hop hot path holds
// no lock: a router pins the view for its walk and classifies neighbors
// with plain loads. Memory is one byte per vertex per cached destination;
// the max_vertices guard keeps an accidental DG(2,30) from allocating it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/contract.hpp"
#include "common/mutex.hpp"
#include "debruijn/graph.hpp"
#include "debruijn/kautz.hpp"
#include "debruijn/word.hpp"
#include "obs/metrics.hpp"

namespace dbn {

/// Where a neighbor sits relative to the current vertex's distance layer:
/// strictly nearer the destination, in the same layer, or farther away.
/// (Undirected de Bruijn: Farther always means exactly one layer out; in
/// directed graphs an out-neighbor can be arbitrarily far, and Farther
/// covers every such case.)
enum class DistanceLayer : std::uint8_t { Closer, Same, Farther };

std::string_view layer_name(DistanceLayer layer);

struct LayerTableOptions {
  /// Total cached destination tables across all shards; 0 disables caching
  /// (every view() call rebuilds — measurement/debug only).
  std::size_t cache_destinations = 64;
  /// Shard count for the cache (rounded up to at least 1).
  std::size_t cache_shards = 8;
  /// Hard cap on the vertex count: one table is one byte per vertex.
  std::uint64_t max_vertices = 1ull << 20;
};

/// Counters since construction (view() is thread-safe; so is this).
struct LayerTableStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t builds = 0;
  /// Stores that displaced a live table for a *different* destination.
  std::size_t evictions = 0;
};

class LayerTable {
 public:
  /// One destination's distance table, immutable once built. Safe to read
  /// from any number of threads; keeps itself alive past eviction.
  class View {
   public:
    std::uint64_t destination() const { return destination_; }

    /// D(rank, destination) in the table's network.
    int distance(std::uint64_t rank) const {
      DBN_ASSERT(rank < dist_.size(), "layer view rank out of range");
      return dist_[rank];
    }

    /// distance() as a call: a View is a distance source for
    /// net::adaptive_step.
    int operator()(std::uint64_t rank) const { return distance(rank); }

    /// The layer trichotomy for one neighbor of `from_rank` — the O(1)
    /// deflection decision: two loads and a compare.
    DistanceLayer classify(std::uint64_t from_rank,
                           std::uint64_t neighbor_rank) const {
      DBN_ASSERT(from_rank < dist_.size() && neighbor_rank < dist_.size(),
                 "layer classify rank out of range");
      const std::uint8_t here = dist_[from_rank];
      const std::uint8_t there = dist_[neighbor_rank];
      if (there < here) {
        return DistanceLayer::Closer;
      }
      return there == here ? DistanceLayer::Same : DistanceLayer::Farther;
    }

   private:
    friend class LayerTable;
    std::uint64_t destination_ = 0;
    std::vector<std::uint8_t> dist_;
  };

  /// Tables over DG(d,k); the orientation picks the distance function
  /// (Property 1 directed, Theorem 2 undirected).
  explicit LayerTable(const DeBruijnGraph& graph,
                      const LayerTableOptions& options = {});

  /// Tables over the Kautz digraph K(d,k) (directed distance).
  explicit LayerTable(const KautzGraph& graph,
                      const LayerTableOptions& options = {});

  LayerTable(const LayerTable&) = delete;
  LayerTable& operator=(const LayerTable&) = delete;

  std::uint64_t vertex_count() const { return n_; }

  /// The distance table for destination `y`, built on first use and cached.
  /// Thread-safe; the returned view stays valid after eviction.
  std::shared_ptr<const View> view(const Word& y);

  /// Convenience triple form of the primitive: pins y's view, classifies
  /// one neighbor of x. Routers doing one walk should hold view(y) instead.
  DistanceLayer classify(const Word& x, const Word& y, const Word& neighbor);

  LayerTableStats stats() const;

 private:
  enum class Family : std::uint8_t {
    DeBruijnDirected,
    DeBruijnUndirected,
    Kautz,
  };

  struct Shard {
    Mutex mutex;
    // Sized once by init_cache; the lock guards the slot pointers. Readers
    // copy the shared_ptr under the lock and then use the pinned immutable
    // View lock-free — the intentional pattern the header comment
    // describes, and one the analysis verifies rather than exempts
    // (no field of View is guarded; only the slot pointer is).
    std::vector<std::shared_ptr<const View>> slots DBN_GUARDED_BY(mutex);
  };

  void init_cache(const LayerTableOptions& options);
  std::uint64_t rank_of(const Word& w) const;
  std::shared_ptr<const View> build_view(std::uint64_t destination) const;

  Family family_;
  std::uint64_t n_ = 0;
  // Exactly one is engaged, per family (both graph types are a handful of
  // scalars; keeping copies makes the table self-contained).
  std::unique_ptr<DeBruijnGraph> graph_;
  std::unique_ptr<KautzGraph> kautz_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t slots_per_shard_ = 0;
  std::atomic<std::size_t> lookups_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> builds_{0};
  std::atomic<std::size_t> evictions_{0};
  // Global-registry mirrors (schema.hpp metric names); builds/evictions are
  // per-destination-rare, lookups/hits once per walk — all off the per-hop
  // path, which is pure View reads.
  obs::Counter metrics_lookups_;
  obs::Counter metrics_hits_;
  obs::Counter metrics_builds_;
  obs::Counter metrics_evictions_;
};

}  // namespace dbn
