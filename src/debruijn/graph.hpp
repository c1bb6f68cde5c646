// The de Bruijn graph DG(d,k) in its directed and undirected variants
// (paper Section 1), with implicit rank-level adjacency (O(1) per neighbor,
// no materialization) plus explicit adjacency lists and a degree census for
// validation of the structural claims of the paper's introduction.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "debruijn/word.hpp"

namespace dbn {

/// Directed: edges X -> X^-(a) (moves are left shifts only).
/// Undirected: edges {X, X^-(a)} and {X, X^+(a)} (moves are both shifts).
enum class Orientation { Directed, Undirected };

/// DG(d,k). Vertices are identified by their rank in [0, d^k) (see
/// Word::rank); the graph is implicit, so construction is O(1) and any
/// (d,k) with d^k < 2^64 is representable. Methods that enumerate all
/// vertices state so explicitly.
class DeBruijnGraph {
 public:
  DeBruijnGraph(std::uint32_t radix, std::size_t k, Orientation orientation);

  std::uint32_t radix() const { return radix_; }
  std::size_t k() const { return k_; }
  Orientation orientation() const { return orientation_; }
  std::uint64_t vertex_count() const { return n_; }

  Word word(std::uint64_t rank) const { return Word::from_rank(radix_, k_, rank); }

  /// Rank of X^-(a): (rank * d + a) mod d^k.
  std::uint64_t left_shift_rank(std::uint64_t rank, Digit a) const;

  /// Rank of X^+(a): rank / d + a * d^(k-1).
  std::uint64_t right_shift_rank(std::uint64_t rank, Digit a) const;

  /// Ranks reachable in one move. Directed: the d left shifts (out-
  /// neighbors). Undirected: left and right shifts, deduplicated, with the
  /// vertex itself excluded (self-loops never shorten a path).
  std::vector<std::uint64_t> neighbors(std::uint64_t rank) const;

  /// neighbors(rank), same order, written into `out` (cleared first): a
  /// caller that reuses `out` across calls allocates nothing once warmed.
  void neighbors_into(std::uint64_t rank,
                      std::vector<std::uint64_t>& out) const;

  /// True iff a single move goes from `from` to `to`.
  bool has_edge(std::uint64_t from, std::uint64_t to) const;

  /// Explicit adjacency lists (index = rank). Enumerates all vertices;
  /// requires vertex_count() <= max_vertices (guards accidental blowups).
  std::vector<std::vector<std::uint64_t>> adjacency(
      std::uint64_t max_vertices = 1u << 22) const;

  /// Degree census after removing loops and redundant (parallel) edges, as
  /// in the paper's Section 1 discussion. Maps degree -> vertex count.
  /// Directed degree counts incident arcs (in + out); undirected degree
  /// counts distinct neighbors. Enumerates all vertices.
  std::map<std::size_t, std::uint64_t> degree_census(
      std::uint64_t max_vertices = 1u << 22) const;

 private:
  std::uint32_t radix_;
  std::size_t k_;
  Orientation orientation_;
  std::uint64_t n_;        // d^k
  std::uint64_t top_place_;  // d^(k-1)
};

}  // namespace dbn
