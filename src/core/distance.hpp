// The paper's distance functions (Section 2).
#pragma once

#include <cstdint>

#include "debruijn/packed_word.hpp"
#include "debruijn/word.hpp"

namespace dbn {

/// Property 1: D(X,Y) = k - max{ s : x_{k-s+1}..x_k = y_1..y_s } in the
/// directed DG(d,k). O(k) time via the Morris–Pratt failure function.
int directed_distance(const Word& x, const Word& y);

/// Theorem 2: the undirected distance, computed with the O(k^2) matching
/// scan (Algorithms 2/3).
int undirected_distance_quadratic(const Word& x, const Word& y);

/// Theorem 2: the undirected distance min(D1, D2), cost only. Two regimes:
///   - packed (strings::packable(d, k): d <= 4 up to k = 64, d <= 16 up to
///     k = 32): both words are packed into one lane and D1, D2 come from
///     the packed offset sweeps — min_l_cost_packed, then
///     min_l_cost_packed_bounded on the reversed lanes against D1. This is
///     the route engine's packed_minima reduction without the witnesses;
///     no allocation, ~0.2 us at k = 8 and ~0.4 us at k = 16 including the
///     packing (BM_UndirectedFormula; EXPERIMENTS.md A1 has the kernels).
///   - scalar (every other (d, k)): the suffix-automaton kernel on the
///     words and on their reversals, O(k).
/// Both agree with the Algorithm 4 suffix-tree form and, at audit level,
/// with undirected_distance_quadratic on every call.
int undirected_distance(const Word& x, const Word& y);

/// The packed regime of undirected_distance on already-packed vertices:
/// hot loops that hold PackedWords (the adaptive router packs each
/// neighbor straight from its rank) skip the Word round trip.
int undirected_distance(const PackedWord& x, const PackedWord& y);

/// Equation (5) as printed in the paper:
/// delta(d,k) = k - (1 - alpha^k) * alpha / (1 - alpha), alpha = 1/d.
///
/// Reproduction note (EXPERIMENTS.md, experiment E5): the paper derives
/// this from P(D <= k-s) = alpha^s, which implicitly assumes the overlap
/// events "suffix_s(X) == prefix_s(Y)" are nested in s. They are not (the
/// maximal overlap l can exceed s while the length-s overlap fails, e.g.
/// X = Y = (0,1)), so equation (5) is an upper bound that is exact only
/// for k = 1. The exact average is directed_average_distance_exact; the
/// measured gap saturates near 0.62 for d = 2 and shrinks with d
/// (bench_eq5_directed_avg tabulates it).
double directed_average_distance_closed_form(std::uint32_t radix,
                                             std::size_t k);

/// Exact histogram of the directed distance over all ordered pairs
/// (index = distance, 0..k), computed without BFS in O(N k^2):
/// for each source X, the set of Y with overlap >= s is a union of prefix
/// cylinders C_{s'} = { Y : Y starts with the length-s' suffix of X },
/// s' >= s; two cylinders are either nested or disjoint, so the union size
/// is the sum of d^(k-s') over the cylinders not nested in an earlier one,
/// decided by the self-overlap (border) structure of X.
std::vector<std::uint64_t> directed_distance_histogram_exact(
    std::uint32_t radix, std::size_t k);

/// Exact average directed distance over all ordered pairs (self-pairs
/// included), from directed_distance_histogram_exact.
double directed_average_distance_exact(std::uint32_t radix, std::size_t k);

}  // namespace dbn
