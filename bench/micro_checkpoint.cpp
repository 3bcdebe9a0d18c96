// Checkpoint-locality microbenchmark: what the §5 snapshot data plane
// costs the *head node*, as machine-checkable JSON (BENCH_checkpoint.json).
//
// The workload is dirty-heavy on purpose — a stepwise Task Bench stencil
// writes every buffer every wave, so with checkpoint_period = 1 each
// boundary must re-snapshot the whole working set. Under
// CheckpointLocality::Head that volume crosses the head NIC at every
// boundary (the Fig. 7a-style bottleneck); under Buddy the workers
// snapshot in place (plus a worker->worker buddy replica) and the head
// ships O(metadata) commands.
//
// Asserted invariants (exit 1 on violation):
//  - Head mode moves the dirty volume through the head (sanity: the
//    workload really is head-bound in the baseline);
//  - Buddy mode moves < 1% of that through the head per boundary —
//    metadata only — while taking the same logical snapshots;
//  - recovery after killing a snapshot owner under Buddy mode reproduces
//    bitwise-identical results (restored from the buddy replicas).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <vector>

#include "bench_util.hpp"
#include "taskbench/kernel.hpp"

namespace {

using namespace ompc;
using namespace ompc::taskbench;

const char* locality_name(core::CheckpointLocality l) {
  switch (l) {
    case core::CheckpointLocality::Head: return "Head";
    case core::CheckpointLocality::Buddy: return "Buddy";
  }
  return "?";
}

}  // namespace

int main() {
  using core::CheckpointLocality;
  using core::RuntimeStats;

  const int reps = ompc::bench::repetitions();

  // Dirty-heavy: every buffer written every wave, 128 KiB each.
  TaskBenchSpec spec;
  spec.pattern = Pattern::Stencil1D;
  spec.steps = 8;
  spec.width = 8;
  spec.iterations = 0;
  spec.mode = KernelMode::Sleep;
  spec.output_bytes = 128 * 1024;

  core::ClusterOptions base;
  base.num_workers = 3;
  base.checkpoint_period = 1;

  const std::uint64_t expect = expected_checksum(spec);

  std::printf(
      "=== micro_checkpoint: §5 snapshot locality vs head traffic "
      "(%dx%d steps, %zu KiB buffers, %d reps) ===\n",
      spec.steps, spec.width, spec.output_bytes / 1024, reps);

  struct ModeResult {
    std::int64_t head_bytes = 0;
    std::int64_t dirty_bytes = 0;
    std::int64_t logical_bytes = 0;
    std::int64_t checkpoints = 0;
    std::int64_t replicas = 0;
    std::int64_t cache_hits = 0;
    double capture_ms = 0.0;
  };
  ModeResult results[2];
  const CheckpointLocality modes[] = {CheckpointLocality::Head,
                                      CheckpointLocality::Buddy};
  for (int m = 0; m < 2; ++m) {
    core::ClusterOptions opts = base;
    opts.checkpoint_locality = modes[m];
    for (int rep = 0; rep < reps; ++rep) {
      const RunResult r = run_ompc_stepwise(spec, opts);
      if (r.checksum != expect) {
        std::fprintf(stderr, "VALIDATION FAILED in %s mode\n",
                     locality_name(modes[m]));
        return 1;
      }
      results[m].head_bytes = r.stats.checkpoint_head_bytes;
      results[m].dirty_bytes = r.stats.checkpoint_dirty_bytes;
      results[m].logical_bytes = r.stats.checkpoint_bytes;
      results[m].checkpoints = r.stats.checkpoints;
      results[m].replicas = r.stats.snapshot_replicas;
      results[m].cache_hits = r.stats.schedule_cache_hits;
      results[m].capture_ms = ns_to_ms(r.stats.checkpoint_ns);
    }
    const ModeResult& mr = results[m];
    std::printf(
        "%-12s: %8.1f KiB through head (%.1f KiB/boundary), "
        "%.1f KiB dirty/boundary, %lld replicas, capture %.2f ms\n",
        locality_name(modes[m]), static_cast<double>(mr.head_bytes) / 1024,
        static_cast<double>(mr.head_bytes) /
            static_cast<double>(mr.checkpoints) / 1024,
        static_cast<double>(mr.dirty_bytes) /
            static_cast<double>(mr.checkpoints) / 1024,
        static_cast<long long>(mr.replicas), mr.capture_ms);
  }
  const double ratio =
      results[0].head_bytes == 0
          ? 1.0
          : static_cast<double>(results[1].head_bytes) /
                static_cast<double>(results[0].head_bytes);

  // --- recovery: kill a snapshot owner under Buddy mode ------------------
  TaskBenchSpec kspec = spec;
  kspec.iterations = 2'000'000;  // 10 ms sleep tasks: the kill lands mid-wave
  core::ClusterOptions kopts = base;
  kopts.checkpoint_locality = CheckpointLocality::Buddy;
  kopts.heartbeat_period_ms = 5;
  kopts.heartbeat_timeout_ms = 50;
  kopts.kills.push_back({2, 60'000'000});
  const std::uint64_t kexpect = expected_checksum(kspec);
  std::int64_t recoveries = 0;
  bool recovery_ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult r = run_ompc_stepwise(kspec, kopts);
    recovery_ok = recovery_ok && r.checksum == kexpect &&
                  r.stats.recoveries >= 1 && r.stats.workers_lost == 1;
    recoveries += r.stats.recoveries;
  }
  std::printf(
      "recovery (owner killed, Buddy): %s, %.1f recoveries/run\n",
      recovery_ok ? "bitwise-identical" : "DIVERGED",
      static_cast<double>(recoveries) / reps);

  {
    std::ofstream json("BENCH_checkpoint.json");
    json << "{\n"
         << "  \"bench\": \"micro_checkpoint\",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"steps\": " << spec.steps << ",\n"
         << "  \"width\": " << spec.width << ",\n"
         << "  \"workers\": " << base.num_workers << ",\n"
         << "  \"buffer_bytes\": " << spec.output_bytes << ",\n"
         << "  \"checkpoints\": " << results[0].checkpoints << ",\n"
         << "  \"checkpoint_logical_bytes\": " << results[0].logical_bytes
         << ",\n"
         << "  \"head_mode_head_bytes\": " << results[0].head_bytes << ",\n"
         << "  \"buddy_mode_head_bytes\": " << results[1].head_bytes << ",\n"
         << "  \"buddy_over_head_ratio\": " << ratio << ",\n"
         << "  \"buddy_snapshot_replicas\": " << results[1].replicas << ",\n"
         << "  \"schedule_cache_hits\": " << results[1].cache_hits << ",\n"
         << "  \"recovery_bitwise_identical\": "
         << (recovery_ok ? "true" : "false") << "\n"
         << "}\n";
  }
  std::printf("wrote BENCH_checkpoint.json\n");

  // --- hard gates (CI fails on regression) -------------------------------
  int status = 0;
  if (results[0].head_bytes <
      results[0].dirty_bytes / 2) {  // boundary 0 is head-resident
    std::fprintf(stderr,
                 "FAIL: Head mode moved only %lld B through the head for "
                 "%lld dirty B — the baseline is no longer head-bound and "
                 "the comparison is vacuous\n",
                 static_cast<long long>(results[0].head_bytes),
                 static_cast<long long>(results[0].dirty_bytes));
    status = 1;
  }
  if (ratio >= 0.01) {
    std::fprintf(stderr,
                 "FAIL: Buddy mode moved %.2f%% of the Head-mode volume "
                 "through the head (want < 1%%: metadata only) — snapshot "
                 "bytes are crossing the head NIC again\n",
                 ratio * 100.0);
    status = 1;
  }
  if (results[1].logical_bytes != results[0].logical_bytes ||
      results[1].checkpoints != results[0].checkpoints) {
    std::fprintf(stderr,
                 "FAIL: Buddy mode took different snapshots (%lld B / %lld "
                 "captures) than Head mode (%lld B / %lld) — the modes are "
                 "no longer comparable\n",
                 static_cast<long long>(results[1].logical_bytes),
                 static_cast<long long>(results[1].checkpoints),
                 static_cast<long long>(results[0].logical_bytes),
                 static_cast<long long>(results[0].checkpoints));
    status = 1;
  }
  if (results[1].replicas == 0) {
    std::fprintf(stderr, "FAIL: Buddy mode shipped zero buddy replicas\n");
    status = 1;
  }
  if (!recovery_ok) {
    std::fprintf(stderr,
                 "FAIL: recovery after killing the snapshot owner did not "
                 "reproduce bitwise-identical results from the buddy "
                 "replicas\n");
    status = 1;
  }
  return status;
}
