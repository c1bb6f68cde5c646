// perfbench — runs one benchmark workload and prints its result as one
// JSON line (the last line of stdout). perfbench/run.py builds this binary
// and the daemon, then calls
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//                    --dbn PATH --workdir DIR [--tiny] [--corrupt]
//
// Exit status 0 only when every correctness check held.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (--trace 0) and the per-layer metrics (--trace 1),
// in BENCHMARK.json order. Every workload prints every name; a per-layer
// metric the workload does not measure reads 0, which is not an
// observation (perfbench/README.md says which layers each workload
// reaches and why).
constexpr MetricDef kEndToEnd[] = {
    {"qps", "1/s"},          {"closed_p50_us", "us"}, {"closed_p99_us", "us"},
    {"open_p50_us", "us"},   {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"protocol.decode_ns", "ns"},
    {"protocol.encode_ns", "ns"},
    {"engine.route_ns", "ns"},
    {"engine.distance_ns", "ns"},
    {"engine.share", "ratio"},
    {"server.batch_mean", "count"},
    {"server.p50_us", "us"},
    {"server.p99_us", "us"},
    {"server.shed", "count"},
    {"io.wire_p50_us", "us"},
    {"io.stalls", "count"},
    {"client.lateness_p99_us", "us"},
    {"distance.undirected_ns", "ns"},
    {"adaptive.hop_ns", "ns"},
    {"layer.build_us", "us"},
    {"layer.classify_ns", "ns"},
    {"sim.hop_ns", "ns"},
    {"sim.hops", "count"},
    {"sim.deflections", "count"},
    {"sim.dropped_overflow", "count"},
    {"sim.delivered_frac", "ratio"},
    {"trace.overhead", "ratio"},
};

int usage() {
  std::cerr << "usage: perfbench --workload serve_k16|serve_k128|"
               "sim_deflect --seed N --seconds S --trace 0|1 --dbn PATH "
               "--workdir DIR [--tiny] [--corrupt]\n";
  return 2;
}

// Keeps exactly the metric set of the run's mode, in canonical order.
template <std::size_t N>
bool select(Result& result, const MetricDef (&defs)[N], bool fill_zero) {
  std::vector<Metric> out;
  for (const MetricDef& def : defs) {
    const Metric* found = nullptr;
    for (const Metric& m : result.metrics) {
      if (m.name == def.name) {
        found = &m;
      }
    }
    if (found != nullptr) {
      out.push_back(*found);
    } else if (fill_zero) {
      out.push_back(Metric{def.name, 0.0, def.unit});
    } else {
      return false;
    }
  }
  result.metrics = std::move(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view a = args[i];
    const bool has_value = i + 1 < args.size();
    if (a == "--tiny") {
      options.tiny = true;
    } else if (a == "--corrupt") {
      options.corrupt = true;
    } else if (!has_value) {
      return usage();
    } else if (a == "--workload") {
      options.workload = std::string(args[++i]);
    } else if (a == "--seed") {
      options.seed = std::strtoull(std::string(args[++i]).c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      options.seconds = std::atof(std::string(args[++i]).c_str());
    } else if (a == "--trace") {
      options.trace = args[++i] == "1";
    } else if (a == "--dbn") {
      options.dbn_path = std::string(args[++i]);
    } else if (a == "--workdir") {
      options.workdir = std::string(args[++i]);
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0 || options.workdir.empty()) {
    return usage();
  }

  Result result;
  try {
    if (options.workload == "serve_k16") {
      result = perfbench::run_serve(options, 16, 20'000.0);
    } else if (options.workload == "serve_k128") {
      result = perfbench::run_serve(options, 128, 400.0);
    } else if (options.workload == "sim_deflect") {
      result = perfbench::run_sim(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  if (result.attempted == 0) {
    result.fail("no operation was attempted");
  }
  const bool complete = options.trace
                            ? select(result, kPerLayer, /*fill_zero=*/true)
                            : select(result, kEndToEnd, /*fill_zero=*/false);
  if (!complete) {
    result.fail("an end-to-end metric was not measured");
  }
  perfbench::print_result(result);
  return result.correct ? 0 : 1;
}
