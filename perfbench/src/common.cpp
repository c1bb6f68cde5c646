#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

// Shortest round-trip form: every digit that was measured, nothing more.
std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

}  // namespace

void Result::fail(const std::string& what) {
  correct = false;
  ++failed;
  if (errors.size() < 8) {
    errors.push_back(what);
  }
}

void print_result(const Result& result) {
  for (const std::string& error : result.errors) {
    std::cerr << "perfbench: FAILED " << error << "\n";
  }
  for (const Metric& m : result.metrics) {
    std::cerr << "perfbench: " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::cerr.flush();
  std::cout << out.str() << std::endl;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double lower_quartile(std::vector<double> values) {
  return quantile(values, 0.25);
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::uint64_t base = ~0ull;
  for (const Span& s : spans_) {
    base = std::min(base, s.start_ns);
  }
  std::fprintf(f, "layer,name,id,parent,start_ns,end_ns,items\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%s,%llu,%llu,%llu,%llu,%llu\n", s.layer, s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns - base),
                 static_cast<unsigned long long>(s.end_ns - base),
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(f) == 0;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
