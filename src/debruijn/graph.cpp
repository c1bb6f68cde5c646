#include "debruijn/graph.hpp"

#include <algorithm>
#include <set>

#include "common/contract.hpp"

namespace dbn {

DeBruijnGraph::DeBruijnGraph(std::uint32_t radix, std::size_t k,
                             Orientation orientation)
    : radix_(radix),
      k_(k),
      orientation_(orientation),
      n_(Word::vertex_count(radix, k)),
      top_place_(n_ / radix) {}

std::uint64_t DeBruijnGraph::left_shift_rank(std::uint64_t rank, Digit a) const {
  DBN_REQUIRE(rank < n_ && a < radix_, "left_shift_rank: argument out of range");
  return (rank % top_place_) * radix_ + a;
}

std::uint64_t DeBruijnGraph::right_shift_rank(std::uint64_t rank, Digit a) const {
  DBN_REQUIRE(rank < n_ && a < radix_, "right_shift_rank: argument out of range");
  return rank / radix_ + static_cast<std::uint64_t>(a) * top_place_;
}

std::vector<std::uint64_t> DeBruijnGraph::neighbors(std::uint64_t rank) const {
  std::vector<std::uint64_t> out;
  neighbors_into(rank, out);
  return out;
}

void DeBruijnGraph::neighbors_into(std::uint64_t rank,
                                   std::vector<std::uint64_t>& out) const {
  out.clear();
  out.reserve(2 * radix_);
  for (Digit a = 0; a < radix_; ++a) {
    out.push_back(left_shift_rank(rank, a));
  }
  if (orientation_ == Orientation::Undirected) {
    for (Digit a = 0; a < radix_; ++a) {
      out.push_back(right_shift_rank(rank, a));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    out.erase(std::remove(out.begin(), out.end(), rank), out.end());
  }
}

bool DeBruijnGraph::has_edge(std::uint64_t from, std::uint64_t to) const {
  DBN_REQUIRE(from < n_ && to < n_, "has_edge: rank out of range");
  // `to` is a left shift of `from` iff they agree on the overlapping k-1
  // digits: from mod d^(k-1) == to div d.
  const bool left = (from % top_place_) == to / radix_;
  if (orientation_ == Orientation::Directed) {
    return left;
  }
  const bool right = (to % top_place_) == from / radix_;
  return (left || right) && from != to;
}

std::vector<std::vector<std::uint64_t>> DeBruijnGraph::adjacency(
    std::uint64_t max_vertices) const {
  DBN_REQUIRE(n_ <= max_vertices,
              "adjacency: graph too large to materialize (raise max_vertices)");
  std::vector<std::vector<std::uint64_t>> adj(n_);
  for (std::uint64_t v = 0; v < n_; ++v) {
    adj[v] = neighbors(v);
  }
  return adj;
}

std::map<std::size_t, std::uint64_t> DeBruijnGraph::degree_census(
    std::uint64_t max_vertices) const {
  DBN_REQUIRE(n_ <= max_vertices,
              "degree_census: graph too large (raise max_vertices)");
  std::map<std::size_t, std::uint64_t> census;
  for (std::uint64_t v = 0; v < n_; ++v) {
    std::size_t degree = 0;
    if (orientation_ == Orientation::Directed) {
      // Incident arcs: d out + d in, minus both endpoints of a self-loop
      // (X -> X exists iff X is a constant word).
      degree = 2 * static_cast<std::size_t>(radix_);
      if (left_shift_rank(v, static_cast<Digit>(v % radix_)) == v) {
        degree -= 2;
      }
    } else {
      degree = neighbors(v).size();  // distinct non-self neighbors
    }
    ++census[degree];
  }
  return census;
}

}  // namespace dbn
