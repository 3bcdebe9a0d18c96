// Ablation: head failover vs worker recovery (paper §5, extended to the
// head node) — what a head death costs relative to the worker deaths the
// paper's protocol was designed around, and what continuous head-state
// replication costs in steady state.
//
// The workload is Task Bench stencil executed stepwise with per-wave
// checkpoints under Buddy locality, so both failure classes recover from
// the same committed boundary. Three measurements:
//   1. failure-free wall time, with and without head replication (the
//      replication tax: one metadata delta to the shadow rank per wave);
//   2. one worker killed mid-run — detection -> rollback -> replay
//      latency (RuntimeStats::recovery_latency_ns), the baseline episode;
//   3. the head killed mid-run — detection -> election -> replica
//      adoption -> replay latency, same counter, same workload.
// The gate: failover latency must stay within 5x the worker-recovery
// latency. Election and replica adoption add work, but both episodes are
// dominated by the same heartbeat timeout and wave replay, so an order-of-
// magnitude gap means the failover path regressed.
//
// Head locality (the default) keeps every snapshot's bytes on the head, so
// replication must carry them to the shadow. Two more runs cover it: a
// failure-free one, whose replication bytes per wave may exceed the
// checkpoint's dirty bytes per wave by at most kMetadataAllowance (each
// snapshot blob travels once; re-sending both retained generations every
// wave would cost about four times the dirty bytes), and a head kill that
// must stay bitwise-identical.
#include <fstream>

#include "bench_util.hpp"
#include "common/time.hpp"
#include "taskbench/kernel.hpp"

using namespace ompc;
using namespace ompc::taskbench;

namespace {

/// Per-wave replication bytes above the dirty bytes that Head locality may
/// spend: the stats block, rosters, ownership registry, per-entry
/// checkpoint records and the wave's graph (~4.4 KB on this shape).
constexpr double kMetadataAllowance = 8 * 1024;

}  // namespace

int main() {
  const mpi::NetworkModel net = bench::bench_network();
  const int reps = bench::repetitions();

  TaskBenchSpec spec;
  spec.pattern = Pattern::Stencil1D;
  spec.steps = 12;
  spec.width = 8;
  spec.iterations = 1'000'000;  // 5 ms per task -> ~10 ms waves on 4 nodes
  spec.mode = KernelMode::Sleep;
  spec.output_bytes = 4096;
  const std::uint64_t expect = expected_checksum(spec);

  std::printf("=== Ablation: head failover vs worker recovery — stencil, "
              "4 nodes, %dx%d stepwise, 5 ms tasks, %d reps ===\n",
              spec.steps, spec.width, reps);

  core::ClusterOptions base;
  base.num_workers = 4;
  base.network = net;
  base.heartbeat_period_ms = 5;
  base.heartbeat_timeout_ms = 60;
  base.checkpoint_period = 1;
  base.checkpoint_locality = core::CheckpointLocality::Buddy;

  // Both corpses drop roughly mid-run (waves are ~10-15 ms each), so the
  // two episodes replay a comparable log tail.
  const std::int64_t kill_at_ns = 80'000'000;

  // --- 1. steady state: the replication tax ------------------------------
  core::ClusterOptions norep = base;
  norep.head_replication = false;
  const RunningStats healthy_norep = bench::timed_runs(
      spec, [&] { return run_ompc_stepwise(spec, norep); });

  RunningStats healthy;
  std::int64_t repl_updates = 0;
  std::int64_t repl_bytes = 0;
  std::int64_t waves = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult r = run_ompc_stepwise(spec, base);
    if (r.checksum != expect) {
      std::fprintf(stderr, "VALIDATION FAILED (failure-free)\n");
      return 1;
    }
    healthy.add(r.wall_s);
    repl_updates += r.stats.replication_updates;
    repl_bytes += r.stats.replication_bytes;
    waves += r.stats.waves;
  }
  const double bytes_per_wave =
      waves > 0 ? static_cast<double>(repl_bytes) / static_cast<double>(waves)
                : 0.0;

  // --- 1b. Head locality: snapshot bytes ride the replication ------------
  core::ClusterOptions head_mode = base;
  head_mode.checkpoint_locality = core::CheckpointLocality::Head;
  RunningStats head_healthy;
  std::int64_t head_repl_bytes = 0;
  std::int64_t head_dirty_bytes = 0;
  std::int64_t head_waves = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult r = run_ompc_stepwise(spec, head_mode);
    if (r.checksum != expect) {
      std::fprintf(stderr, "VALIDATION FAILED (Head locality, failure-free)\n");
      return 1;
    }
    head_healthy.add(r.wall_s);
    head_repl_bytes += r.stats.replication_bytes;
    head_dirty_bytes += r.stats.checkpoint_dirty_bytes;
    head_waves += r.stats.waves;
  }
  const double head_bytes_per_wave =
      head_waves > 0 ? static_cast<double>(head_repl_bytes) /
                           static_cast<double>(head_waves)
                     : 0.0;
  const double head_dirty_per_wave =
      head_waves > 0 ? static_cast<double>(head_dirty_bytes) /
                           static_cast<double>(head_waves)
                     : 0.0;

  // --- 2. baseline episode: one worker killed ----------------------------
  core::ClusterOptions wkill = base;
  wkill.kills.push_back({2, kill_at_ns});
  RunningStats worker_wall;
  RunningStats worker_latency_ms;
  bool worker_ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult r = run_ompc_stepwise(spec, wkill);
    worker_ok = worker_ok && r.checksum == expect && r.stats.recoveries >= 1 &&
                r.stats.workers_lost >= 1;
    worker_wall.add(r.wall_s);
    worker_latency_ms.add(ns_to_ms(r.stats.recovery_latency_ns));
  }

  // --- 3. the head killed: election + replica adoption + replay ----------
  core::ClusterOptions hkill = base;
  hkill.kills.push_back({0, kill_at_ns});
  RunningStats failover_wall;
  RunningStats failover_latency_ms;
  bool failover_ok = true;
  std::int64_t failovers = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult r = run_ompc_stepwise(spec, hkill);
    failover_ok = failover_ok && r.checksum == expect &&
                  r.stats.failovers >= 1 && r.stats.recoveries >= 1;
    failover_wall.add(r.wall_s);
    failover_latency_ms.add(ns_to_ms(r.stats.recovery_latency_ns));
    failovers += r.stats.failovers;
  }

  // --- 3b. the head killed under Head locality ---------------------------
  core::ClusterOptions head_hkill = head_mode;
  head_hkill.kills.push_back({0, kill_at_ns});
  RunningStats head_failover_wall;
  RunningStats head_failover_latency_ms;
  bool head_failover_ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    const RunResult r = run_ompc_stepwise(spec, head_hkill);
    head_failover_ok = head_failover_ok && r.checksum == expect &&
                       r.stats.failovers >= 1 && r.stats.recoveries >= 1;
    head_failover_wall.add(r.wall_s);
    head_failover_latency_ms.add(ns_to_ms(r.stats.recovery_latency_ns));
  }

  Table table({"episode", "wall (s)", "latency (ms)", "bitwise"});
  table.add_row({"none (replication off)", bench::mean_pm_dev(healthy_norep),
                 "-", "yes"});
  table.add_row({"none (replication on)", bench::mean_pm_dev(healthy), "-",
                 "yes"});
  table.add_row({"worker killed", bench::mean_pm_dev(worker_wall),
                 bench::mean_pm_dev(worker_latency_ms, 1),
                 worker_ok ? "yes" : "DIVERGED"});
  table.add_row({"head killed", bench::mean_pm_dev(failover_wall),
                 bench::mean_pm_dev(failover_latency_ms, 1),
                 failover_ok ? "yes" : "DIVERGED"});
  table.add_row({"none (Head locality)", bench::mean_pm_dev(head_healthy),
                 "-", "yes"});
  table.add_row({"head killed (Head locality)",
                 bench::mean_pm_dev(head_failover_wall),
                 bench::mean_pm_dev(head_failover_latency_ms, 1),
                 head_failover_ok ? "yes" : "DIVERGED"});
  table.print(std::cout);

  const double ratio =
      worker_latency_ms.mean() > 0.0
          ? failover_latency_ms.mean() / worker_latency_ms.mean()
          : 0.0;
  std::printf(
      "\nreplication: %.1f bytes/wave to the shadow rank "
      "(%.1f updates/run); failover/worker latency ratio %.2fx "
      "(%.1f failovers across %d runs)\n",
      bytes_per_wave, static_cast<double>(repl_updates) / reps, ratio,
      static_cast<double>(failovers) / reps, reps);
  std::printf(
      "Head locality: %.1f replication bytes/wave for %.1f dirty "
      "bytes/wave (allowance %.0f)\n",
      head_bytes_per_wave, head_dirty_per_wave, kMetadataAllowance);

  {
    std::ofstream json("BENCH_failover.json");
    json << "{\n"
         << "  \"bench\": \"ablation_failover\",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"steps\": " << spec.steps << ",\n"
         << "  \"width\": " << spec.width << ",\n"
         << "  \"workers\": " << base.num_workers << ",\n"
         << "  \"checkpoint_period\": " << base.checkpoint_period << ",\n"
         << "  \"healthy_noreplication_s\": " << healthy_norep.mean() << ",\n"
         << "  \"healthy_replication_s\": " << healthy.mean() << ",\n"
         << "  \"replication_bytes_per_wave\": " << bytes_per_wave << ",\n"
         << "  \"replication_updates_per_run\": "
         << static_cast<double>(repl_updates) / reps << ",\n"
         << "  \"head_mode_replication_bytes_per_wave\": "
         << head_bytes_per_wave << ",\n"
         << "  \"head_mode_dirty_bytes_per_wave\": " << head_dirty_per_wave
         << ",\n"
         << "  \"head_mode_failover_latency_ms\": "
         << head_failover_latency_ms.mean() << ",\n"
         << "  \"worker_recovery_latency_ms\": " << worker_latency_ms.mean()
         << ",\n"
         << "  \"head_failover_latency_ms\": " << failover_latency_ms.mean()
         << ",\n"
         << "  \"failover_over_worker_ratio\": " << ratio << ",\n"
         << "  \"worker_recovery_bitwise_identical\": "
         << (worker_ok ? "true" : "false") << ",\n"
         << "  \"head_failover_bitwise_identical\": "
         << (failover_ok ? "true" : "false") << ",\n"
         << "  \"head_mode_failover_bitwise_identical\": "
         << (head_failover_ok ? "true" : "false") << "\n"
         << "}\n";
  }
  std::printf("wrote BENCH_failover.json\n");

  // --- hard gates (CI fails on regression) -------------------------------
  int status = 0;
  if (!worker_ok) {
    std::fprintf(stderr, "GATE: worker recovery diverged or never fired\n");
    status = 1;
  }
  if (!failover_ok) {
    std::fprintf(stderr, "GATE: head failover diverged or never fired\n");
    status = 1;
  }
  if (ratio > 5.0) {
    std::fprintf(stderr,
                 "GATE: failover latency %.2fx worker recovery (limit 5x)\n",
                 ratio);
    status = 1;
  }
  if (!head_failover_ok) {
    std::fprintf(stderr,
                 "GATE: Head-locality head failover diverged or never fired\n");
    status = 1;
  }
  if (head_bytes_per_wave > head_dirty_per_wave + kMetadataAllowance) {
    std::fprintf(stderr,
                 "GATE: Head-locality replication %.1f bytes/wave exceeds "
                 "%.1f dirty bytes/wave by more than %.0f\n",
                 head_bytes_per_wave, head_dirty_per_wave, kMetadataAllowance);
    status = 1;
  }
  if (repl_updates == 0) {
    std::fprintf(stderr, "GATE: head replication never shipped an update\n");
    status = 1;
  }
  return status;
}
