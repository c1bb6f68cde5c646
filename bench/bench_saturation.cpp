// Saturation study for the deflection stack, in two parts.
//
// Per-decision cost — the tentpole ratio CI gates (bench_report.py
// --max-deflection-cost): BM_DeflectionRescore is the historical adaptive
// scoring, one O(k) Theorem-2 distance per neighbor per hop;
// BM_LayerTableClassify is the same decision answered by the cached
// per-destination layer table (core/layer_table.hpp), two byte loads. Both
// run the identical pair stream over DN(2,16) so the derived row
// derived/deflection_cost = classify / rescore is a like-for-like ratio.
//
// Per-hop decision — BM_AdaptiveHop times one fault-free adaptive_route
// walk per batch of iterations, charged per hop: the simulator's per-hop
// layer as its own number.
//
// Injection sweep — BM_Saturation{Greedy,Deflect,LayerTable} drive the
// discrete-event simulator on DN(2,8) with finite link queues across
// offered loads (Arg = injection rate per site, in percent). Delivered
// messages are the items/s figure; the delivered fraction and drop mix
// ride along as counters, and every run feeds the PR-4 metrics pipeline
// (net/load_stats.hpp) so a --metrics-out snapshot sees the saturation
// counters too.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/layer_table.hpp"
#include "debruijn/graph.hpp"
#include "net/adaptive.hpp"
#include "net/load_stats.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace dbn;

// One pre-sampled neighborhood decision: classify `neighbor` of `from`
// relative to a fixed destination. Both scorings consume the same stream.
struct DecisionStream {
  DeBruijnGraph graph;
  Word y;
  std::vector<std::uint64_t> from_ranks;
  std::vector<std::uint64_t> neighbor_ranks;
  std::vector<Word> neighbor_words;
  std::vector<int> here;  // D(from, y), known to the router at the hop

  DecisionStream(std::size_t k, std::size_t count)
      : graph(2, k, Orientation::Undirected), y(Word::zero(2, k)) {
    Rng rng(99);
    y = Word::from_rank(2, k, rng.below(graph.vertex_count()));
    from_ranks.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t from = rng.below(graph.vertex_count());
      const std::vector<std::uint64_t> nbrs = graph.neighbors(from);
      const std::uint64_t nbr = nbrs[rng.below(nbrs.size())];
      from_ranks.push_back(from);
      neighbor_ranks.push_back(nbr);
      neighbor_words.push_back(graph.word(nbr));
      here.push_back(undirected_distance(graph.word(from), y));
    }
  }
};

constexpr std::size_t kDecisions = 1024;

void BM_DeflectionRescore(benchmark::State& state) {
  const DecisionStream stream(static_cast<std::size_t>(state.range(0)),
                              kDecisions);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kDecisions; ++i) {
      // The old adaptive hot path: recompute D(neighbor, Y) and compare to
      // the current layer.
      const int there = undirected_distance(stream.neighbor_words[i], stream.y);
      const int here = stream.here[i];
      acc += there < here ? 0u : there == here ? 1u : 2u;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDecisions));
}
BENCHMARK(BM_DeflectionRescore)->Arg(16);

void BM_LayerTableClassify(benchmark::State& state) {
  const DecisionStream stream(static_cast<std::size_t>(state.range(0)),
                              kDecisions);
  LayerTable table(stream.graph);
  // Warm the destination's table: per-walk builds are measured by the
  // layer.builds metric, not by the per-hop loop this gates.
  const std::shared_ptr<const LayerTable::View> view = table.view(stream.y);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kDecisions; ++i) {
      acc += static_cast<std::uint64_t>(
          view->classify(stream.from_ranks[i], stream.neighbor_ranks[i]));
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDecisions));
}
BENCHMARK(BM_LayerTableClassify)->Arg(16);

// Per-hop decision — the simulator's per-hop layer as one row: fault-free
// adaptive_route walks (re-scoring, no layer table) over a fixed pair
// stream on DN(2,Arg). A fault-free walk is exact, so walk i takes
// D(x_i, y_i) hops; each walk is charged that many iterations and the
// reported time is per hop.
void BM_AdaptiveHop(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const DeBruijnGraph graph(2, k, Orientation::Undirected);
  const std::vector<bool> none(graph.vertex_count(), false);
  struct Walk {
    Word x;
    Word y;
    int hops;
  };
  std::vector<Walk> walks;
  Rng pick(98);
  while (walks.size() < kDecisions) {
    const Word x = graph.word(pick.below(graph.vertex_count()));
    const Word y = graph.word(pick.below(graph.vertex_count()));
    const int hops = undirected_distance(x, y);
    if (hops > 0) {
      walks.push_back(Walk{x, y, hops});
    }
  }
  Rng rng(5);
  std::size_t i = 0;
  std::uint64_t acc = 0;
  while (state.KeepRunningBatch(walks[i].hops)) {
    const net::AdaptiveResult r =
        net::adaptive_route(graph, none, walks[i].x, walks[i].y, rng);
    acc += static_cast<std::uint64_t>(r.hops);
    i = (i + 1) % walks.size();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AdaptiveHop)->Arg(8);

// --- Injection-rate sweep ---------------------------------------------------

constexpr std::uint32_t kSatRadix = 2;
constexpr std::size_t kSatK = 8;  // 256 sites
constexpr double kSatDuration = 60.0;

void run_saturation(benchmark::State& state, net::ForwardingMode forwarding,
                    net::AdaptiveScoring scoring) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_overflow = 0;
  std::uint64_t dropped_ttl = 0;
  for (auto _ : state) {
    net::SimConfig config;
    config.radix = kSatRadix;
    config.k = kSatK;
    config.orientation = Orientation::Undirected;
    config.link_queue_capacity = 4;  // finite queues: saturation sheds load
    config.forwarding = forwarding;
    config.adaptive_scoring = scoring;
    net::Simulator sim(config);
    Rng rng(7);
    for (const net::Injection& inj :
         net::uniform_traffic(kSatRadix, kSatK, rate, kSatDuration, rng)) {
      sim.inject(inj.time,
                 net::Message(net::ControlCode::Data,
                              Word::from_rank(kSatRadix, kSatK, inj.source),
                              Word::from_rank(kSatRadix, kSatK,
                                              inj.destination),
                              RoutingPath()));
    }
    sim.run();
    const net::SimStats& stats = sim.stats();
    injected += stats.injected;
    delivered += stats.delivered;
    dropped_overflow += stats.dropped_overflow;
    dropped_ttl += stats.dropped_ttl;
    net::record_sim_metrics(obs::MetricsRegistry::global(), sim);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
  const double runs = std::max<double>(static_cast<double>(state.iterations()), 1.0);
  state.counters["offered_rate"] = rate;
  state.counters["delivered_frac"] =
      injected == 0 ? 0.0
                    : static_cast<double>(delivered) /
                          static_cast<double>(injected);
  // Delivered throughput in messages per simulated time unit — the y axis
  // of the classic saturation figure.
  state.counters["sim_throughput"] =
      static_cast<double>(delivered) / (runs * kSatDuration);
  state.counters["overflow_drops"] =
      static_cast<double>(dropped_overflow) / runs;
  state.counters["ttl_drops"] = static_cast<double>(dropped_ttl) / runs;
}

void BM_SaturationGreedy(benchmark::State& state) {
  run_saturation(state, net::ForwardingMode::HopByHop,
                 net::AdaptiveScoring::Rescore);
}
BENCHMARK(BM_SaturationGreedy)->Arg(5)->Arg(20)->Arg(35)->Arg(50);

void BM_SaturationDeflect(benchmark::State& state) {
  run_saturation(state, net::ForwardingMode::Adaptive,
                 net::AdaptiveScoring::Rescore);
}
BENCHMARK(BM_SaturationDeflect)->Arg(5)->Arg(20)->Arg(35)->Arg(50);

void BM_SaturationLayerTable(benchmark::State& state) {
  run_saturation(state, net::ForwardingMode::Adaptive,
                 net::AdaptiveScoring::LayerTable);
}
BENCHMARK(BM_SaturationLayerTable)->Arg(5)->Arg(20)->Arg(35)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
