// The benchmark's workloads. Each returns its metrics, its attempted and
// failed operation counts, and whether every correctness check held.
#pragma once

#include <cstddef>

#include "common.hpp"

namespace perfbench {

/// `dbn serve 2 <k> --threads=1` over loopback TCP: a closed phase, then an
/// open phase at `open_rate` requests/s in total.
Result run_serve(const Options& options, std::size_t k, double open_rate);

/// The in-process deflection-routing simulator on DN(2,8).
Result run_sim(const Options& options);

}  // namespace perfbench
