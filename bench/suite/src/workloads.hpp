// The four benchmark workloads. Each launch is one core::launch() (a fresh
// simulated cluster) driven by a closed loop with a single client: the
// head_main thread records a wave, waits for it, and only then records the
// next one. Everything is observed from outside the runtime, through its
// public entry points; every launch is checked against its oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "spans.hpp"
#include "taskbench/spec.hpp"

namespace ompcbench {

namespace core = ompc::core;
namespace taskbench = ompc::taskbench;

enum class Episode { None, WorkerRecovery, HeadFailover };

/// One wave as the head saw it.
struct WaveSample {
  std::int64_t start_ns = 0;  ///< recording starts
  std::int64_t wait_ns = 0;   ///< wait_all entered (== start when unknown)
  std::int64_t end_ns = 0;    ///< wait_all returned
  std::int64_t tasks = 0;     ///< target tasks in the wave
  Episode episode = Episode::None;
  /// RuntimeStats::recovery_latency_ns accrued during this wave.
  std::int64_t program_recovery_ns = 0;
  double estimate_s = 0.0;  ///< HEFT's makespan estimate (0 = unknown)
  bool attributed = false;  ///< partition known (traced Task Bench waves)
  Partition parts;
  std::int64_t kernel_ns = 0;  ///< summed kernel span durations
  std::int64_t spans = 0;      ///< spans the wave recorded

  std::int64_t duration() const { return end_ns - start_ns; }
};

struct LaunchSample {
  bool ok = false;  ///< returned normally and matched the oracle
  bool traced = false;
  std::int64_t planned_waves = 0;
  std::int64_t main_ns = 0;      ///< head_main started
  std::int64_t main_end_ns = 0;  ///< head_main returned (last wave end for halo)
  std::int64_t return_ns = 0;    ///< launch() returned
  core::RuntimeStats stats;
  std::vector<WaveSample> waves;
};

/// Spans of the first traced waves of a run, for the Chrome trace.
struct TraceExport {
  static constexpr std::int64_t kWaves = 200;
  std::vector<Span> spans;
  std::int64_t waves = 0;
};

struct LaunchContext {
  int index = 0;  ///< launch number within the run
  bool traced = false;
  std::mt19937_64* rng = nullptr;   ///< the run's seeded input generator
  TraceExport* exported = nullptr;  ///< nullable
};

struct Workload {
  std::string name;
  core::ClusterOptions options;  ///< launch options, no fault injection
  taskbench::TaskBenchSpec spec;  ///< the graph (Task Bench workloads)
  int warmup_waves = 2;          ///< leading waves of a launch left out
  std::function<LaunchSample(LaunchContext&)> launch;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

}  // namespace ompcbench
