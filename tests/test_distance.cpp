#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/rng.hpp"
#include "core/distance.hpp"
#include "debruijn/bfs.hpp"
#include "debruijn/packed_word.hpp"
#include "strings/packed.hpp"
#include "testkit/word_families.hpp"
#include "testing_util.hpp"

namespace dbn {
namespace {

using dbn::testing::DkParam;

class DistanceGrid : public ::testing::TestWithParam<DkParam> {};

TEST_P(DistanceGrid, DirectedFormulaMatchesBfsAllPairs) {
  const auto [d, k] = GetParam();
  const DeBruijnGraph g(d, k, Orientation::Directed);
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    const Word x = g.word(xr);
    const std::vector<int> dist = bfs_distances(g, xr);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      EXPECT_EQ(directed_distance(x, g.word(yr)), dist[yr])
          << "X=" << x.to_string() << " Y=" << g.word(yr).to_string();
    }
  }
}

TEST_P(DistanceGrid, UndirectedFormulaMatchesBfsAllPairs) {
  const auto [d, k] = GetParam();
  const DeBruijnGraph g(d, k, Orientation::Undirected);
  for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
    const Word x = g.word(xr);
    const std::vector<int> dist = bfs_distances(g, xr);
    for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
      const Word y = g.word(yr);
      const int quadratic = undirected_distance_quadratic(x, y);
      EXPECT_EQ(quadratic, dist[yr])
          << "Theorem 2 (O(k^2) scan) X=" << x.to_string()
          << " Y=" << y.to_string();
      EXPECT_EQ(undirected_distance(x, y), quadratic)
          << "undirected_distance X=" << x.to_string()
          << " Y=" << y.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallGrid, DistanceGrid,
                         ::testing::ValuesIn(dbn::testing::small_grid()),
                         ::testing::PrintToStringParamName());

// The degenerate corners (d=1 single-vertex networks, k=1 complete-ish
// graphs) go through the same all-pairs BFS cross-check as the interior.
INSTANTIATE_TEST_SUITE_P(DegenerateGrid, DistanceGrid,
                         ::testing::ValuesIn(dbn::testing::degenerate_grid()),
                         ::testing::PrintToStringParamName());

TEST(Distance, OneLetterAlphabetIsAlwaysAtDistanceZero) {
  // DG(1,k) has the single vertex (0,...,0); both formulas must degrade
  // gracefully instead of tripping on the empty failure-function table.
  for (std::size_t k : {1u, 2u, 7u}) {
    const Word only = Word::zero(1, k);
    EXPECT_EQ(directed_distance(only, only), 0);
    EXPECT_EQ(undirected_distance(only, only), 0);
    EXPECT_EQ(undirected_distance_quadratic(only, only), 0);
  }
}

TEST(Distance, ExplicitXEqualsYAcrossGrids) {
  for (const auto& grids :
       {dbn::testing::small_grid(), dbn::testing::degenerate_grid()}) {
    for (const auto& [d, k] : grids) {
      for (std::uint64_t r = 0; r < std::min<std::uint64_t>(
                                        Word::vertex_count(d, k), 64);
           ++r) {
        const Word x = Word::from_rank(d, k, r);
        EXPECT_EQ(directed_distance(x, x), 0) << "d=" << d << " k=" << k;
        EXPECT_EQ(undirected_distance(x, x), 0) << "d=" << d << " k=" << k;
      }
    }
  }
}

TEST(Distance, LinearAndQuadraticAgreeOnLargeRandomWords) {
  DBN_SEEDED_RNG(rng, 2024);
  for (const auto& [d, k] : dbn::testing::large_grid()) {
    for (int trial = 0; trial < 40; ++trial) {
      const Word x = testing::random_word(rng, d, k);
      const Word y = testing::random_word(rng, d, k);
      EXPECT_EQ(undirected_distance(x, y), undirected_distance_quadratic(x, y))
          << "d=" << d << " k=" << k << " X=" << x.to_string()
          << " Y=" << y.to_string();
    }
  }
}

TEST(Distance, LinearAndQuadraticAgreeAtTheLaneBoundaries) {
  // undirected_distance runs the packed sweep where strings::packable(d, k)
  // holds and the scalar suffix-automaton kernel elsewhere. Straddle each
  // edge of the 128-bit lane (2-bit cells up to k = 64, 4-bit cells up to
  // k = 32, no cells past d = 16) plus the one-letter alphabet, on uniform
  // words and on every adversarial word/pair family of the testkit.
  struct Case {
    std::uint32_t d;
    std::size_t k;
    bool packed;
  };
  const Case cases[] = {
      {2, 63, true},  {2, 64, true},   {2, 65, false}, {4, 64, true},
      {4, 65, false}, {16, 32, true},  {16, 33, false}, {17, 4, false},
      {1, 1, true},   {1, 64, true},   {1, 65, false},
  };
  DBN_SEEDED_RNG(rng, 2026);
  for (const Case& c : cases) {
    ASSERT_EQ(strings::packable(c.d, c.k), c.packed)
        << "d=" << c.d << " k=" << c.k << " sits on the wrong side of the lane";
    const auto check = [&](const Word& x, const Word& y, std::string_view how) {
      const int expected = undirected_distance_quadratic(x, y);
      EXPECT_EQ(undirected_distance(x, y), expected)
          << how << " d=" << c.d << " k=" << c.k << " X=" << x.to_string()
          << " Y=" << y.to_string();
      if (c.packed) {
        EXPECT_EQ(undirected_distance(PackedWord::from_word(x),
                                      PackedWord::from_word(y)),
                  expected)
            << how << " (PackedWord) d=" << c.d << " k=" << c.k
            << " X=" << x.to_string() << " Y=" << y.to_string();
      }
    };
    for (int trial = 0; trial < 20; ++trial) {
      check(testing::random_word(rng, c.d, c.k),
            testing::random_word(rng, c.d, c.k), "uniform");
    }
    for (const testkit::WordFamily wf : testkit::kAllWordFamilies) {
      for (const testkit::PairFamily pf : testkit::kAllPairFamilies) {
        for (int trial = 0; trial < 3; ++trial) {
          const auto [x, y] = testkit::sample_pair(rng, c.d, c.k, wf, pf);
          check(x, y, testkit::family_name(wf));
        }
      }
    }
  }
}

TEST(Distance, UndirectedSymmetryOnRandomWords) {
  DBN_SEEDED_RNG(rng, 2025);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t d = 2 + trial % 3;
    const std::size_t k = 1 + rng.below(24);
    const Word x = testing::random_word(rng, d, k);
    const Word y = testing::random_word(rng, d, k);
    EXPECT_EQ(undirected_distance(x, y), undirected_distance(y, x))
        << "X=" << x.to_string() << " Y=" << y.to_string();
  }
}

TEST(Distance, UndirectedNeverExceedsDirected) {
  DBN_SEEDED_RNG(rng, 2026);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t d = 2 + trial % 3;
    const std::size_t k = 1 + rng.below(16);
    const Word x = testing::random_word(rng, d, k);
    const Word y = testing::random_word(rng, d, k);
    EXPECT_LE(undirected_distance(x, y), directed_distance(x, y));
  }
}

TEST(Distance, ZeroIffEqual) {
  DBN_SEEDED_RNG(rng, 2027);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t d = 2 + trial % 4;
    const std::size_t k = 1 + rng.below(12);
    const Word x = testing::random_word(rng, d, k);
    const Word y = testing::random_word(rng, d, k);
    EXPECT_EQ(directed_distance(x, x), 0);
    EXPECT_EQ(undirected_distance(x, x), 0);
    if (!(x == y)) {
      EXPECT_GT(directed_distance(x, y), 0);
      EXPECT_GT(undirected_distance(x, y), 0);
    }
  }
}

TEST(Distance, PaperExampleZerosToOnes) {
  // Section 2: D((0,...,0), (1,...,1)) = k in both variants.
  for (std::size_t k : {1u, 4u, 9u}) {
    const Word zeros = Word::zero(2, k);
    const Word ones(2, std::vector<Digit>(k, 1));
    EXPECT_EQ(directed_distance(zeros, ones), static_cast<int>(k));
    EXPECT_EQ(undirected_distance(zeros, ones), static_cast<int>(k));
  }
}

TEST(Distance, ClosedFormEquation5) {
  // delta(2,k) = k - 1 + 2^-k (paper's worked special case).
  for (std::size_t k = 1; k <= 20; ++k) {
    EXPECT_NEAR(directed_average_distance_closed_form(2, k),
                static_cast<double>(k) - 1.0 + std::pow(0.5, k), 1e-12);
  }
}

TEST(Distance, ExactHistogramMatchesBfsEnumeration) {
  for (const auto& [d, k] : dbn::testing::small_grid()) {
    if (Word::vertex_count(d, k) > 300) {
      continue;
    }
    const DeBruijnGraph g(d, k, Orientation::Directed);
    std::vector<std::uint64_t> histogram(k + 1, 0);
    for (std::uint64_t xr = 0; xr < g.vertex_count(); ++xr) {
      const std::vector<int> dist = bfs_distances(g, xr);
      for (std::uint64_t yr = 0; yr < g.vertex_count(); ++yr) {
        ++histogram[static_cast<std::size_t>(dist[yr])];
      }
    }
    EXPECT_EQ(histogram, directed_distance_histogram_exact(d, k))
        << "d=" << d << " k=" << k;
  }
}

TEST(Distance, ExactAverageMatchesBfsAverage) {
  for (const auto& [d, k] : dbn::testing::small_grid()) {
    const DeBruijnGraph g(d, k, Orientation::Directed);
    EXPECT_NEAR(average_distance(g), directed_average_distance_exact(d, k),
                1e-9)
        << "d=" << d << " k=" << k;
  }
}

TEST(Distance, Equation5IsAnUpperBoundExactOnlyForK1) {
  // Reproduction finding (EXPERIMENTS.md, E5): the paper's equation (5)
  // assumes overlap events are nested and therefore slightly overestimates
  // the true average for k >= 2.
  for (std::uint32_t d : {2u, 3u, 5u}) {
    EXPECT_NEAR(directed_average_distance_exact(d, 1),
                directed_average_distance_closed_form(d, 1), 1e-12);
  }
  // Hand-checked counterexample: DG(2,2) has average 18/16 = 1.125, while
  // equation (5) gives 1.25.
  EXPECT_NEAR(directed_average_distance_exact(2, 2), 1.125, 1e-12);
  EXPECT_NEAR(directed_average_distance_closed_form(2, 2), 1.25, 1e-12);
  for (const auto& [d, k] : dbn::testing::small_grid()) {
    const double exact = directed_average_distance_exact(d, k);
    const double eq5 = directed_average_distance_closed_form(d, k);
    EXPECT_LE(exact, eq5 + 1e-12) << "d=" << d << " k=" << k;
    // Measured: the gap saturates near 0.62 for d=2 and shrinks with d
    // (~0.18 for d=3, ~0.08 for d=4); bound it by 1.4/d.
    EXPECT_LT(eq5 - exact, 1.4 / d) << "d=" << d << " k=" << k;
  }
}

}  // namespace
}  // namespace dbn
