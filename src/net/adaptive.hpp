// Adaptive routing with *local* fault knowledge.
//
// The fault-aware router (net/fault.hpp) assumes the source knows every
// failed site — global state a real network rarely has. Here each site
// knows only which of its own neighbors are dead and forwards by the
// distance-layer trichotomy (core/layer_table.hpp): neighbors one layer
// Closer to Y first, Same-layer sideways moves as an escape, and — when a
// fault cluster kills every non-worsening neighbor — a deflection fallback
// that retreats through the Farther layer, the structure
// Fàbrega/Martí-Farré/Muñoz exploit for deflection routing in DG(d,k).
// A TTL guards against livelock. Delivery is still not guaranteed, which
// is exactly what the saturation benchmark quantifies.
//
// The rule exists once, as adaptive_step: adaptive_route below and the
// simulator's Adaptive forwarding (net/simulator.hpp) both call it. It
// works on ranks over reusable scratch, so a warmed hop allocates nothing,
// and it is templated on where D(·,Y) comes from:
//   - a LayerTable::View: two byte reads per neighbor;
//   - RescoreDistance: the Theorem-2 distance recomputed per neighbor. When
//     (d,k) packs, Y is packed once per hop and each neighbor is packed
//     straight from its rank into the packed kernel of core/distance.hpp
//     (no Word built; a whole fault-free hop at k = 8, about five distance
//     calls, costs ~1.6 us in BM_AdaptiveHop/8). Other (d,k) (d > 16)
//     fall back to the scalar undirected_distance on Words.
// Both sources make bit-identical decisions with the same RNG draws.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/layer_table.hpp"
#include "debruijn/graph.hpp"
#include "debruijn/packed_word.hpp"
#include "debruijn/word.hpp"

namespace dbn::net {

struct AdaptiveResult {
  bool delivered = false;
  int hops = 0;
  int sideways_moves = 0;
  int deflections = 0;  // backward moves forced by dead neighborhoods
};

struct AdaptiveConfig {
  int ttl = 0;  // 0 = default of max(4k, 8) hops (the floor keeps k = 1
                // networks from collapsing to a 4-hop budget)
  /// Probability of taking a sideways (equal-distance) move even when an
  /// improving neighbor exists; small values help escape fault clusters.
  double jitter = 0.0;
  /// When no live neighbor improves or holds D(·,Y), fall back to the live
  /// neighbor(s) in the nearest Farther layer instead of giving up; avoids
  /// bouncing straight back when any alternative exists.
  bool deflect = true;
  /// Optional O(1) layer classifier (non-owning; must cover the same
  /// graph). nullptr = re-score every neighbor with RescoreDistance. The
  /// decisions are identical either way; only the per-hop cost differs
  /// (bench_saturation measures the gap, CI gates it).
  LayerTable* layers = nullptr;
};

/// How one adaptive move was chosen.
enum class AdaptiveMove : std::uint8_t { Improve, Sideways, Deflect };

/// One decided hop: where to, how, and D(at, Y) at the decision.
struct AdaptiveStep {
  std::uint64_t next = 0;
  AdaptiveMove move = AdaptiveMove::Improve;
  int here = 0;
};

/// Reusable buffers for adaptive_step: the neighbor list and the
/// Closer / Same / nearest-Farther pools. They are cleared, never freed,
/// between hops, so a walker that keeps one scratch allocates nothing per
/// hop once the buffers have grown to the degree.
struct AdaptiveScratch {
  std::vector<std::uint64_t> neighbors;
  std::vector<std::uint64_t> closer;
  std::vector<std::uint64_t> same;
  std::vector<std::uint64_t> farther;
};

/// D(·, Y) by recomputing Theorem 2 for each vertex asked about: the packed
/// kernel when (d, k) packs (Y packed here, once; each queried rank packed
/// with PackedWord::from_rank), the scalar undirected_distance otherwise.
/// Holds a reference to `graph`.
class RescoreDistance {
 public:
  RescoreDistance(const DeBruijnGraph& graph, std::uint64_t destination);
  int operator()(std::uint64_t rank) const;

 private:
  const DeBruijnGraph& graph_;
  std::optional<PackedWord> packed_y_;  // engaged iff (d, k) packs
  std::optional<Word> word_y_;          // engaged otherwise
};

/// The per-hop decision rule. From live site `at` (having arrived from
/// `previous`, or the vertex-count sentinel for none), classify every live
/// neighbor, in neighbors() order, by distance_to(rank) against
/// distance_to(at): Closer, Same, or — when `deflect` holds — the nearest
/// Farther layer. Then draw exactly as follows:
///   - take Same instead of Closer when Closer is empty, or when Same is
///     non-empty and rng.chance(jitter) succeeds (the draw is skipped when
///     Closer is empty or Same is empty);
///   - if the chosen pool is empty, deflect into the Farther pool, minus
///     `previous` when anything else is in it;
///   - pick rng.below(pool size).
/// nullopt when no pool has a candidate (every live neighbor is dead or
/// would worsen with `deflect` off). `distance_to` is any callable
/// int(std::uint64_t rank) giving D(rank, Y): a LayerTable::View or a
/// RescoreDistance.
template <typename DistanceTo>
std::optional<AdaptiveStep> adaptive_step(const DeBruijnGraph& graph,
                                          const std::vector<bool>& failed,
                                          std::uint64_t at,
                                          std::uint64_t previous,
                                          double jitter, bool deflect,
                                          Rng& rng, AdaptiveScratch& scratch,
                                          const DistanceTo& distance_to) {
  const int here = distance_to(at);
  graph.neighbors_into(at, scratch.neighbors);
  scratch.closer.clear();
  scratch.same.clear();
  scratch.farther.clear();
  int farther_best = 0;
  for (const std::uint64_t r : scratch.neighbors) {
    if (failed[r]) {
      continue;
    }
    const int dist = distance_to(r);
    if (dist < here) {
      scratch.closer.push_back(r);
    } else if (dist == here) {
      scratch.same.push_back(r);
    } else if (deflect) {
      // In the undirected DG every Farther neighbor sits exactly one layer
      // out (the distance is a graph metric), so this minimum is the whole
      // pool; tracking it keeps the choice well-defined for any source.
      if (scratch.farther.empty() || dist < farther_best) {
        farther_best = dist;
        scratch.farther.clear();
      }
      if (dist == farther_best) {
        scratch.farther.push_back(r);
      }
    }
  }
  const bool take_same =
      scratch.closer.empty() || (!scratch.same.empty() && rng.chance(jitter));
  std::vector<std::uint64_t>* pool =
      take_same ? &scratch.same : &scratch.closer;
  AdaptiveMove move =
      take_same ? AdaptiveMove::Sideways : AdaptiveMove::Improve;
  if (pool->empty()) {
    if (scratch.farther.empty()) {
      return std::nullopt;  // stuck
    }
    // Retreat along the nearest Farther layer, but never straight back to
    // where we came from when any other escape exists. Neighbors are
    // distinct, so `previous` is in the pool at most once.
    if (scratch.farther.size() > 1) {
      const auto back =
          std::find(scratch.farther.begin(), scratch.farther.end(), previous);
      if (back != scratch.farther.end()) {
        scratch.farther.erase(back);
      }
    }
    pool = &scratch.farther;
    move = AdaptiveMove::Deflect;
  }
  return AdaptiveStep{(*pool)[rng.below(pool->size())], move, here};
}

/// Walks from x to y over live sites only. `failed[r]` marks dead sites;
/// x and y must be live. Randomized tie-breaking via `rng` (deterministic
/// under a fixed seed; the draw sequence does not depend on config.layers).
AdaptiveResult adaptive_route(const DeBruijnGraph& graph,
                              const std::vector<bool>& failed, const Word& x,
                              const Word& y, Rng& rng,
                              const AdaptiveConfig& config = {});

}  // namespace dbn::net
