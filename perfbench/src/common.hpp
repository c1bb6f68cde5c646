// Shared pieces of the benchmark binary: options, the result line, order
// statistics, the in-memory span recorder and /proc probes.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test knobs: a tiny run (short simulated duration, fewer set-ups)
  // and a deliberately corrupted answer that the correctness gate must
  // catch.
  bool tiny = false;
  bool corrupt = false;
  std::string dbn_path;  // the daemon binary (serve workloads)
  std::string workdir;   // port files, daemon logs, trace output
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // first few correctness failures

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records one failed correctness check (counted, and kept for the log).
  void fail(const std::string& what);
};

/// Prints the per-metric log lines to stderr and the JSON result as the
/// last line of stdout.
void print_result(const Result& result);

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics; sorts `values`. 0 for an empty sample.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// The lower quartile of repeated measurements of one lower-is-better
/// quantity: a p99 latency per round. A host slowdown or a burst of
/// stalls puts a round's p99 at several ms instead of ~250 us; the median
/// over rounds does not survive such rounds once they are half of a run
/// (closed p99 on serve_k16 then spread 40-280 % across ten runs), the
/// lower quartile survives three quarters. A change in the program moves
/// every round, this quartile with them.
double lower_quartile(std::vector<double> values);

/// One traced call into a layer. `id` ties the spans of one request
/// together (the wire id for client requests, a call counter otherwise);
/// `parent` is the enclosing span's id, 0 for none.
struct Span {
  const char* layer = "";
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t items = 1;  // calls folded into this span (replay chunks)
};

/// Spans are kept in memory while the workload runs and written out as
/// CSV (times in ns from the first span) once it ends, so recording costs one append per span (a deque:
/// no append ever copies the spans already recorded).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  void add(const Span& span) {
    if (enabled_) {
      spans_.push_back(span);
    }
  }
  std::size_t size() const { return spans_.size(); }
  /// Writes every span to `path`, one CSV row each.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::deque<Span> spans_;
};

/// Times `pass` over and over for `budget_s` (at least once) and returns the
/// median per-item time in ns. `pass(first)` handles a fixed list of items,
/// returns how many, and records its spans only when `first` is true (later
/// passes repeat the first for timing).
template <typename Pass>
double median_pass_ns(double budget_s, Pass pass) {
  std::vector<double> per_item;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  do {
    const std::uint64_t t0 = now_ns();
    const std::size_t items = pass(per_item.empty());
    per_item.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(items == 0 ? 1 : items));
  } while (now_ns() < end);
  return median(per_item);
}

/// VmHWM of a live process in MiB (0 when /proc has no such entry).
double peak_rss_mb(pid_t pid);

}  // namespace perfbench
