// sim_deflect: an in-process net::Simulator on undirected DN(2,8) with
// adaptive (deflection) forwarding, link queues capped at 4 and uniform
// traffic at 0.35 messages per site per time unit for 60 time units.
// Every other SimConfig field keeps its default, so a change of default
// (e.g. the adaptive scoring) shows here without editing the benchmark.
//
// A simulation advances in ticks of a quarter link delay (Simulator::run
// windows, which process events exactly as one unbounded run() would).
// The closed phase runs ticks back to back; the open phase paces them on
// a fixed wall-clock period, like an emulator that must keep up with real
// time, and times each tick from when it was due.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/distance.hpp"
#include "core/layer_table.hpp"
#include "debruijn/graph.hpp"
#include "net/adaptive.hpp"
#include "net/message.hpp"
#include "net/simulator.hpp"
#include "net/traffic.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dbn;

constexpr std::uint32_t kRadix = 2;
constexpr std::size_t kK = 8;
constexpr double kRate = 0.35;
constexpr double kDuration = 60.0;
constexpr double kTinyDuration = 8.0;
constexpr double kTick = 0.25;
// Open-phase tick period, fixed (about twice the mean closed-loop tick of
// the commit that introduced the benchmark), so a faster simulator shows
// as lower open_p50_us rather than as a changed offered load.
constexpr std::uint64_t kOpenTickNs = 7'000'000;
constexpr std::size_t kPairCap = 100'000;
constexpr double kReplayBudgetS = 0.6;

volatile long g_sink = 0;

net::SimConfig sim_config() {
  net::SimConfig config;
  config.radix = kRadix;
  config.k = kK;
  config.orientation = Orientation::Undirected;
  config.link_queue_capacity = 4;
  config.forwarding = net::ForwardingMode::Adaptive;
  return config;
}

struct Delivery {
  std::uint64_t source;
  std::uint64_t destination;
  std::uint64_t hops;
};

// One simulation: set up, then stepped tick by tick.
struct Run {
  std::unique_ptr<net::Simulator> sim;
  std::vector<Delivery> deliveries;
  double setup_s = 0.0;
  double next_until = kTick;

  bool finished() const {
    const net::SimStats& s = sim->stats();
    return s.delivered + s.dropped_fault + s.dropped_link +
               s.dropped_overflow + s.misdelivered + s.dropped_ttl ==
           s.injected;
  }
  void tick() {
    sim->run(next_until);
    next_until += kTick;
  }
};

std::unique_ptr<Run> set_up(const Options& options, bool record_traces) {
  auto run = std::make_unique<Run>();
  const std::uint64_t t0 = now_ns();
  net::SimConfig config = sim_config();
  config.record_traces = record_traces;
  run->sim = std::make_unique<net::Simulator>(config);
  Rng rng(options.seed);
  for (const net::Injection& inj :
       net::uniform_traffic(kRadix, kK, kRate,
                            options.tiny ? kTinyDuration : kDuration, rng)) {
    run->sim->inject(inj.time,
                     net::Message(net::ControlCode::Data,
                                  Word::from_rank(kRadix, kK, inj.source),
                                  Word::from_rank(kRadix, kK, inj.destination),
                                  RoutingPath()));
  }
  run->setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  net::Simulator* sim = run->sim.get();
  std::vector<Delivery>* log = &run->deliveries;
  // hop_counts is appended before the hook fires, so back() is this one.
  sim->set_delivery_hook([sim, log](const net::Message& m, double) {
    log->push_back(Delivery{m.source.rank(), m.destination.rank(),
                            sim->stats().hop_counts.back()});
  });
  return run;
}

bool same_stats(const net::SimStats& a, const net::SimStats& b) {
  return a.injected == b.injected && a.delivered == b.delivered &&
         a.dropped_fault == b.dropped_fault &&
         a.dropped_link == b.dropped_link &&
         a.dropped_overflow == b.dropped_overflow &&
         a.misdelivered == b.misdelivered && a.dropped_ttl == b.dropped_ttl &&
         a.adaptive_deflections == b.adaptive_deflections &&
         a.total_hops == b.total_hops && a.total_latency == b.total_latency &&
         a.max_latency == b.max_latency && a.max_queue == b.max_queue &&
         a.latencies == b.latencies && a.hop_counts == b.hop_counts;
}

// Single-threaded work runs on whichever vCPU the scheduler picked, and on
// a shared host their speeds differ (measured: 1.6x between two vCPUs at
// the same moment). Each simulation therefore runs on the next CPU of the
// process's affinity mask in turn, so the medians over simulations do not
// hinge on one vCPU. The destructor restores the mask.
class CpuRotation {
 public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof(all_), &all_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) {
      ::sched_setaffinity(0, sizeof(all_), &all_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() > 1) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[next_++ % cpus_.size()], &one);
      ::sched_setaffinity(0, sizeof(one), &one);
    }
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

struct Closed {
  net::SimStats first;                // the first simulation's stats ...
  std::vector<Delivery> deliveries;   // ... and deliveries, for the checks
  std::uint64_t delivered = 0;         // over all simulations
  // Per simulation:
  std::vector<double> qps;
  std::vector<double> run_s;
  std::vector<double> tick_p50_us;
  std::vector<double> tick_p99_us;

  // Delivered messages per second of Simulator::run, over all simulations.
  double total_qps() const {
    double seconds = 0;
    for (const double s : run_s) {
      seconds += s;
    }
    return static_cast<double>(delivered) / seconds;
  }
};

// The closed phase: whole simulations back to back until `seconds` pass
// (at least two, for the replay check). Each simulation is checked against
// the first as soon as it ends (untimed), so memory does not grow with the
// number of simulations.
Closed run_closed(const Options& options, double seconds,
                  std::vector<double>& setups, SpanLog* spans,
                  Result& result) {
  CpuRotation cpus;
  Closed closed;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t call = 0;
  while (closed.qps.size() < 2 || now_ns() < end) {
    cpus.next();
    std::unique_ptr<Run> run = set_up(options, false);
    setups.push_back(run->setup_s);
    const std::uint64_t r0 = now_ns();
    const std::uint64_t rep_id = ++call;
    std::uint64_t busy = 0;
    std::vector<double> tick_us;
    while (!run->finished()) {
      const std::uint64_t t0 = now_ns();
      run->tick();
      const std::uint64_t t1 = now_ns();
      busy += t1 - t0;
      tick_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      if (spans != nullptr) {
        spans->add(Span{"net/simulator", "tick", ++call, rep_id, t0, t1, 1});
      }
    }
    if (spans != nullptr) {
      spans->add(Span{"net/simulator", "run", rep_id, 0, r0, now_ns(), 1});
    }
    const net::SimStats& s = run->sim->stats();
    const double run_s = static_cast<double>(busy) * 1e-9;
    closed.run_s.push_back(run_s);
    closed.qps.push_back(static_cast<double>(s.delivered) / run_s);
    closed.delivered += s.delivered;
    closed.tick_p50_us.push_back(quantile(tick_us, 0.5));
    closed.tick_p99_us.push_back(quantile(tick_us, 0.99));
    std::fprintf(stderr, "perfbench: simulation %zu: %.0f delivered/s\n",
                 closed.qps.size(), closed.qps.back());
    result.attempted += s.injected;
    if (s.delivered + s.dropped_fault + s.dropped_link + s.dropped_overflow +
            s.misdelivered + s.dropped_ttl !=
        s.injected) {
      result.fail("injected != delivered + drops");
    }
    if (closed.qps.size() == 1) {
      closed.first = s;
      closed.deliveries = std::move(run->deliveries);
    } else if (!same_stats(s, closed.first) ||
               run->deliveries.size() != closed.deliveries.size()) {
      result.fail("two replays of one seed gave different SimStats");
    }
  }
  return closed;
}

// The open phase: whole simulations with ticks paced at kOpenTickNs, each
// tick timed from its due time; no simulation starts after `seconds`.
// Returns each simulation's median tick.
std::vector<double> run_open(const Options& options, double seconds,
                             std::vector<double>& setups) {
  CpuRotation cpus;
  std::vector<double> p50_us;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  while (p50_us.empty() || now_ns() < end) {
    cpus.next();
    std::unique_ptr<Run> run = set_up(options, false);
    setups.push_back(run->setup_s);
    std::vector<double> from_due_us;
    const std::uint64_t start = now_ns();
    for (std::uint64_t i = 0; !run->finished(); ++i) {
      const std::uint64_t due = start + i * kOpenTickNs;
      const std::uint64_t now = now_ns();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      run->tick();
      from_due_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
    }
    p50_us.push_back(quantile(from_due_us, 0.5));
  }
  return p50_us;
}

// Every delivered message took at least D(src, dst) hops.
void check_hops(const Options& options, const Closed& closed,
                Result& result) {
  bool corrupt = options.corrupt;
  for (Delivery d : closed.deliveries) {
    if (corrupt) {
      corrupt = false;  // self-test: one impossible hop count
      d.hops = 0;
      d.destination = d.source ^ 1u;
    }
    const int bound = undirected_distance_quadratic(
        Word::from_rank(kRadix, kK, d.source),
        Word::from_rank(kRadix, kK, d.destination));
    if (d.hops < static_cast<std::uint64_t>(bound)) {
      result.fail("delivered in " + std::to_string(d.hops) +
                  " hops < D(src,dst) " + std::to_string(bound));
    }
  }
}

// --- per-layer replays ------------------------------------------------------

struct Scored {
  std::uint64_t at;
  std::uint64_t neighbor;
  std::uint64_t destination;
};

// The (site, neighbour, destination) triples the adaptive hops scored, from
// one recorded run: every visit short of the destination scores each
// neighbour of the site against the message's destination.
std::vector<Scored> scored_pairs(const Options& options,
                                 std::vector<net::Injection>& injections) {
  std::unique_ptr<Run> run = set_up(options, true);
  run->sim->run();
  Rng rng(options.seed);
  injections = net::uniform_traffic(
      kRadix, kK, kRate, options.tiny ? kTinyDuration : kDuration, rng);
  const DeBruijnGraph& graph = run->sim->graph();
  std::vector<Scored> out;
  const auto& traces = run->sim->traces();
  for (std::size_t f = 0; f < traces.size() && out.size() < kPairCap; ++f) {
    const std::uint64_t dst = injections[f].destination;
    for (const auto& [time, at] : traces[f].visits) {
      if (at == dst) {
        continue;
      }
      for (const std::uint64_t nbr : graph.neighbors(at)) {
        out.push_back(Scored{at, nbr, dst});
      }
    }
  }
  return out;
}

// Per-call cost of `body(i)` over i in [0, n), with a span per chunk of
// 1024 calls on the first pass.
template <typename Body>
double chunked_ns(std::size_t n, const char* layer, const char* name,
                  SpanLog& spans, Body body) {
  constexpr std::size_t kChunk = 1024;
  std::uint64_t call = 0;
  return median_pass_ns(kReplayBudgetS, [&](bool first) {
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::uint64_t c0 = now_ns();
      const std::size_t end = std::min(n, base + kChunk);
      for (std::size_t i = base; i < end; ++i) {
        body(i);
      }
      if (first) {
        spans.add(Span{layer, name, ++call, 0, c0, now_ns(), end - base});
      }
    }
    return n;
  });
}

}  // namespace

Result run_sim(const Options& options) {
  Result result;
  SpanLog spans(options.trace);
  std::vector<double> setups;
  // Two thirds of the time closed (where qps and both tick percentiles
  // come from), one third open.
  const double closed_s = options.seconds * 2.0 / 3.0;
  const Closed closed = run_closed(options, closed_s, setups, nullptr, result);
  check_hops(options, closed, result);
  const double qps = closed.total_qps();

  if (!options.trace) {
    const std::vector<double> open_p50 =
        run_open(options, options.seconds - closed_s, setups);
    result.add("qps", qps, "1/s");
    result.add("closed_p50_us", median(closed.tick_p50_us), "us");
    result.add("closed_p99_us", lower_quartile(closed.tick_p99_us), "us");
    result.add("open_p50_us", median(open_p50), "us");
    result.add("setup_s", median(setups), "s");
    result.add("peak_rss_mb", peak_rss_mb(::getpid()), "MiB");
    std::fprintf(stderr,
                 "perfbench: %zu closed and %zu open simulations\n",
                 closed.qps.size(), open_p50.size());
    return result;
  }

  // Traced run: the same closed phase again with a span per tick and run.
  const Closed traced = run_closed(options, closed_s, setups, &spans, result);
  result.add("trace.overhead", traced.total_qps() / qps, "ratio");

  const net::SimStats& s = closed.first;
  const std::vector<double>& run_s = closed.run_s;
  result.add("sim.hop_ns",
             median(run_s) * 1e9 / static_cast<double>(s.total_hops), "ns");
  result.add("sim.hops", static_cast<double>(s.total_hops), "count");
  result.add("sim.deflections", static_cast<double>(s.adaptive_deflections),
             "count");
  result.add("sim.dropped_overflow", static_cast<double>(s.dropped_overflow),
             "count");
  result.add("sim.delivered_frac",
             static_cast<double>(s.delivered) / static_cast<double>(s.injected),
             "ratio");

  std::vector<net::Injection> injections;
  const std::vector<Scored> pairs = scored_pairs(options, injections);
  const DeBruijnGraph graph(kRadix, kK, Orientation::Undirected);
  std::vector<Word> words;
  for (std::uint64_t r = 0; r < graph.vertex_count(); ++r) {
    words.push_back(graph.word(r));
  }

  // core/distance: the O(k) undirected distance each adaptive hop calls.
  long sink = 0;
  result.add("distance.undirected_ns",
             chunked_ns(pairs.size(), "core/distance", "undirected_distance",
                        spans,
                        [&](std::size_t i) {
                          sink += undirected_distance(
                              words[pairs[i].neighbor],
                              words[pairs[i].destination]);
                        }),
             "ns");

  // net/adaptive: whole adaptive walks over the workload's (src, dst)
  // pairs, charged per hop taken.
  {
    const std::vector<bool> failed(graph.vertex_count(), false);
    Rng rng(options.seed);
    std::uint64_t busy = 0;
    std::uint64_t hops = 0;
    std::uint64_t call = 0;
    const std::uint64_t budget_end =
        now_ns() + static_cast<std::uint64_t>(kReplayBudgetS * 1e9);
    for (std::size_t i = 0; now_ns() < budget_end || hops == 0; ++i) {
      const net::Injection& inj = injections[i % injections.size()];
      const std::uint64_t t0 = now_ns();
      const net::AdaptiveResult r = net::adaptive_route(
          graph, failed, words[inj.source], words[inj.destination], rng);
      const std::uint64_t t1 = now_ns();
      spans.add(Span{"net/adaptive", "adaptive_route", ++call, 0, t0, t1,
                     static_cast<std::uint64_t>(r.hops)});
      if (!r.delivered) {
        result.fail("adaptive_route failed on a fault-free network");
      }
      busy += t1 - t0;
      hops += static_cast<std::uint64_t>(r.hops);
    }
    result.add("adaptive.hop_ns",
               static_cast<double>(busy) / static_cast<double>(hops), "ns");
  }

  // core/layer_table: cold builds (first view of each destination), then
  // the per-neighbour classification over the scored triples.
  {
    LayerTable table(graph);
    std::vector<std::shared_ptr<const LayerTable::View>> views(
        graph.vertex_count());
    std::vector<double> build_us;
    std::uint64_t call = 0;
    for (const net::Injection& inj : injections) {
      if (views[inj.destination] != nullptr) {
        continue;
      }
      const std::uint64_t t0 = now_ns();
      views[inj.destination] = table.view(words[inj.destination]);
      const std::uint64_t t1 = now_ns();
      spans.add(Span{"core/layer_table", "view_cold", ++call, 0, t0, t1, 1});
      build_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    result.add("layer.build_us", median(build_us), "us");
    result.add("layer.classify_ns",
               chunked_ns(pairs.size(), "core/layer_table", "classify", spans,
                          [&](std::size_t i) {
                            sink += static_cast<long>(
                                views[pairs[i].destination]->classify(
                                    pairs[i].at, pairs[i].neighbor));
                          }),
               "ns");
  }
  g_sink = sink;  // keeps the replayed calls from being optimised away

  const std::string trace_path =
      options.workdir + "/trace-" + options.workload + ".csv";
  if (!spans.write(trace_path)) {
    result.fail("cannot write " + trace_path);
  }
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
               trace_path.c_str());
  return result;
}

}  // namespace perfbench
