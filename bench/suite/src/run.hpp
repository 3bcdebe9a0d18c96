// One benchmark run of one workload: set-up samples, a closed loop of
// launches for a fixed time, the oracle check of every launch, and the
// metrics derived from what the head observed.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

namespace ompcbench {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Run length, fixed (BENCHMARK.json's run_seconds declares the same);
  /// launches stop once the next would overrun it.
  double seconds = 8.0;
  /// Traced run: launches alternate in pairs between tracing off and on;
  /// per-layer metrics come from the traced ones, the tracer's overhead
  /// from comparing the two.
  bool trace = false;
  std::string trace_file;  ///< Chrome trace of the first traced waves
  int setup_samples = 200;
  int probe_samples = 2000;
  int heft_calls = 20;
};

Result run_workload(const Workload& w, const RunConfig& cfg);

}  // namespace ompcbench
