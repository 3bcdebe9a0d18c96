// Fault-tolerant wave execution (paper §5): deterministic fault injection
// kills a worker mid-wave; the heartbeat ring detects it, the head rolls
// the cluster back to the last wave-boundary checkpoint, re-ranks the
// survivors and re-executes the lost sub-graph — and the results are
// bitwise identical to a failure-free run. With checkpointing disabled the
// same failure must surface as a clean RecoveryError, never a hang. The
// replay log's generations and its failover merge are unit-tested here too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/runtime.hpp"
#include "core/wave_log.hpp"
#include "minimpi/mpi.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc {
namespace {

using core::AsyncMode;
using core::ClusterOptions;
using core::RecoveryError;
using taskbench::expected_checksum;
using taskbench::KernelMode;
using taskbench::Pattern;
using taskbench::run_ompc;
using taskbench::TaskBenchSpec;

// --- minimpi-level fault injection --------------------------------------

TEST(FaultInjection, KilledRankUnblocksAndItsTrafficIsDropped) {
  mpi::UniverseOptions o;
  o.ranks = 2;
  o.kills.push_back({1, 10'000'000});  // rank 1 dies at 10 ms
  std::atomic<bool> victim_unblocked{false};

  mpi::Universe u(o);
  u.run([&](mpi::RankContext& ctx) {
    if (ctx.rank() == 1) {
      // Blocked receive that no one will ever satisfy: the kill must
      // unwind it (RankKilledError is swallowed by Universe::run).
      std::uint64_t v = 0;
      ctx.world().recv(&v, sizeof v, 0, /*tag=*/3);
      victim_unblocked.store(true);  // unreachable
    } else {
      precise_sleep_ns(40'000'000);
      EXPECT_TRUE(u.is_dead(1));
      // Sends to a corpse vanish instead of erroring (fire and forget).
      const std::uint64_t v = 42;
      ctx.world().send(&v, sizeof v, 1, /*tag=*/4);
    }
  });
  EXPECT_FALSE(victim_unblocked.load());
}

TEST(FaultInjection, KillIsIdempotentAndQueryable) {
  mpi::UniverseOptions o;
  o.ranks = 2;
  mpi::Universe u(o);
  u.run([&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      u.kill_rank(1, 0);
      u.kill_rank(1, 0);  // double kill is a no-op
      precise_sleep_ns(20'000'000);
      EXPECT_TRUE(u.is_dead(1));
      EXPECT_FALSE(u.is_dead(0));
    } else {
      // Spin until poisoned; iprobe on a dead rank stays quiet (nullopt)
      // rather than throwing, so detection-style polling loops survive.
      while (!u.is_dead(1)) precise_sleep_ns(1'000'000);
      EXPECT_FALSE(ctx.world().iprobe(0, 5).has_value());
    }
  });
}

// --- end-to-end recovery over Task Bench --------------------------------

// ThreadSanitizer slows the control plane roughly an order of magnitude
// while sleep-based kernels keep real-time pace. Stretch both the task
// lengths and the fault-injection instants by the same factor so every
// kill still lands mid-wave.
#if defined(__SANITIZE_THREAD__)
#define OMPC_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OMPC_TEST_TSAN 1
#endif
#endif
#ifdef OMPC_TEST_TSAN
constexpr std::int64_t kTimeScale = 8;
#else
constexpr std::int64_t kTimeScale = 1;
#endif

/// Fault-injection instant in ns, dilated for sanitized builds.
constexpr std::int64_t at_ms(std::int64_t ms) {
  return ms * 1'000'000 * kTimeScale;
}

ClusterOptions recovery_opts(int workers) {
  ClusterOptions o;
  o.num_workers = workers;
  o.heartbeat_period_ms = 5;
  o.heartbeat_timeout_ms = 60;
  o.checkpoint_period = 1;
  return o;
}

TaskBenchSpec recovery_spec(Pattern p) {
  TaskBenchSpec s;
  s.pattern = p;
  s.steps = 4;
  s.width = 8;
  // Sleep-mode compute long enough that the wave is still executing when
  // the kill fires and the ring detects it (kill 30 ms + timeout 60 ms).
  s.iterations = 4'000'000 * kTimeScale;  // 20 ms per task
  s.output_bytes = 32;
  s.mode = KernelMode::Sleep;
  return s;
}

class RecoveryAcrossPatterns : public ::testing::TestWithParam<Pattern> {};

TEST_P(RecoveryAcrossPatterns, KilledWorkerMidWaveChecksumStillMatches) {
  const TaskBenchSpec spec = recovery_spec(GetParam());
  ClusterOptions opts = recovery_opts(3);
  opts.kills.push_back({2, at_ms(30)});  // worker rank 2 dies at 30 ms

  const auto r = run_ompc(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec))
      << "recovered run diverged on " << pattern_name(spec.pattern);
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
  EXPECT_GE(r.stats.checkpoints, 1);
  EXPECT_GE(r.stats.replayed_tasks, 1);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, RecoveryAcrossPatterns,
                         ::testing::Values(Pattern::Trivial,
                                           Pattern::Stencil1D, Pattern::Fft,
                                           Pattern::Tree),
                         [](const auto& info) {
                           return std::string(pattern_name(info.param));
                         });

TEST(Recovery, CheckpointingDisabledRaisesRecoveryErrorNotHang) {
  TaskBenchSpec spec = recovery_spec(Pattern::Stencil1D);
  // 40 ms per task: outlive detection for sure.
  spec.iterations = 8'000'000 * kTimeScale;
  ClusterOptions opts = recovery_opts(2);
  opts.checkpoint_period = 0;  // fault tolerance off
  opts.kills.push_back({1, at_ms(20)});

  EXPECT_THROW(run_ompc(spec, opts), RecoveryError);
}

TEST(Recovery, SurvivorsAreReRankedOntoRemainingWorkers) {
  const TaskBenchSpec spec = recovery_spec(Pattern::Stencil1D);
  ClusterOptions opts = recovery_opts(3);
  opts.kills.push_back({1, at_ms(30)});  // kill the FIRST worker rank

  const auto r = run_ompc(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.recoveries, 1);
}

TEST(Recovery, HeadDetectsItsOwnRingPredecessorDying) {
  // The last rank is the head's ring predecessor: its death is detected by
  // the ring of the head's own membership agent rather than via a worker
  // report.
  const TaskBenchSpec spec = recovery_spec(Pattern::Tree);
  ClusterOptions opts = recovery_opts(3);
  opts.kills.push_back({3, at_ms(30)});  // rank 3 = last worker

  const auto r = run_ompc(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
}

TEST(Recovery, CascadingFailureWithDeadRingSuccessorStillRecovers) {
  // Kill rank 3 first, then rank 2 — whose ring successor (3) is already a
  // corpse, so no ring member can flag it. The head's membership agent
  // must catch it through the post-failure liveness fallback; the run
  // finishes on the sole survivor with correct results.
  TaskBenchSpec spec = recovery_spec(Pattern::Stencil1D);
  // 30 ms tasks: outlive both detections.
  spec.iterations = 6'000'000 * kTimeScale;
  ClusterOptions opts = recovery_opts(3);
  opts.kills.push_back({3, at_ms(30)});
  opts.kills.push_back({2, at_ms(150)});

  const auto r = run_ompc(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.recoveries, 2);
  EXPECT_EQ(r.stats.workers_lost, 2);
}

TEST(Recovery, TwoStepDispatchKilledWorkerMidWaveStillRecovers) {
  // ROADMAP "TwoStep × recovery" gap: under AsyncMode::TwoStep the
  // in-flight pool scales with the cluster, widening the abort window when
  // a worker dies mid-wave — many more helper jobs unwind with
  // WorkerDiedError at once. Recovery must still converge to the
  // sequential oracle's checksums.
  const TaskBenchSpec spec = recovery_spec(Pattern::Stencil1D);
  ClusterOptions opts = recovery_opts(3);
  opts.async_mode = AsyncMode::TwoStep;
  opts.kills.push_back({2, at_ms(30)});

  const auto r = run_ompc(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
  EXPECT_GE(r.stats.replayed_tasks, 1);
}

TEST(Recovery, TwoStepWideTrivialWaveRecoversAcrossLargeInFlightPool) {
  // Wide independent wave (width 16 over 3 workers) so the TwoStep pool
  // genuinely holds many regions in flight at the moment of death.
  TaskBenchSpec spec = recovery_spec(Pattern::Trivial);
  spec.width = 16;
  ClusterOptions opts = recovery_opts(3);
  opts.async_mode = AsyncMode::TwoStep;
  opts.kills.push_back({1, at_ms(30)});

  const auto r = run_ompc(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.recoveries, 1);
}

TEST(Recovery, FailureFreeRunWithFaultToleranceOnIsUnaffected) {
  // Checkpointing on, nobody dies: results identical, zero recoveries, and
  // the checkpoint actually captured the program's buffers.
  TaskBenchSpec spec = recovery_spec(Pattern::Fft);
  spec.iterations = 0;  // no need for long waves here
  const ClusterOptions opts = recovery_opts(2);

  const auto r = run_ompc(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_EQ(r.stats.recoveries, 0);
  EXPECT_EQ(r.stats.workers_lost, 0);
  EXPECT_EQ(r.stats.checkpoints, 1);  // one wave, one boundary snapshot
  // 2 rows x 8 columns x 32 B
  EXPECT_EQ(r.stats.checkpoint_bytes, 2 * 8 * 32);
}

// --- WaveLog: two generations, merged by wave number on failover ----------

/// A one-task wave told apart by its cost hint, which survives the
/// serialization round trip.
core::ClusterGraph marked_wave(double marker) {
  core::ClusterGraph g;
  core::ClusterTask t;
  t.cost_s = marker;
  g.add_task(std::move(t));
  return g;
}

Bytes blob_of(double marker) { return core::serialize_graph(marked_wave(marker)); }

std::vector<std::int64_t> seqs(const core::WaveGeneration& gen) {
  std::vector<std::int64_t> out;
  for (const core::LoggedWave& w : gen) {
    // Each entry runs the wave its number names.
    EXPECT_EQ(w.graph.task(0).cost_s, static_cast<double>(w.seq));
    out.push_back(w.seq);
  }
  return out;
}

std::size_t no_sizes(const void*) { return 0; }

using Seqs = std::vector<std::int64_t>;

TEST(WaveLogUnit, AppendCutAndSplice) {
  core::WaveLog log;
  log.append(marked_wave(0), 0);
  log.append(marked_wave(1), 1);
  EXPECT_EQ(seqs(log.current()), (Seqs{0, 1}));
  EXPECT_EQ(log.current()[1].blob, blob_of(1));
  EXPECT_EQ(log.find(1), &log.current()[1]);
  EXPECT_EQ(log.find(2), nullptr);
  log.set_shipped(2);

  log.cut();
  EXPECT_TRUE(log.current().empty());
  EXPECT_EQ(seqs(log.previous()), (Seqs{0, 1}));
  EXPECT_EQ(log.shipped(), 0u);

  log.append(marked_wave(2), 2);
  log.splice_previous();  // a degraded restore replays from boundary 0
  EXPECT_EQ(seqs(log.current()), (Seqs{0, 1, 2}));
  EXPECT_TRUE(log.previous().empty());
}

TEST(WaveLogUnit, AdoptKeepsTheCurrentWaveWhenTheLogsAreOneBoundaryApart) {
  // Period 1: the head cut at boundary 5 and started wave 5, then died
  // before the shadow acknowledged that update. The replica still holds
  // boundary 4's period {4} (prev {3}); the head's own log is {5} (prev
  // {4}): equal lengths, one boundary apart. Splicing by position would
  // drop wave 5, the one the client is waiting on.
  core::WaveLog log;
  log.append(marked_wave(3), 3);
  log.cut();
  log.append(marked_wave(4), 4);
  log.cut();
  log.append(marked_wave(5), 5);
  log.adopt({blob_of(3)}, {blob_of(4)}, /*base=*/4, no_sizes);
  EXPECT_EQ(seqs(log.current()), (Seqs{4, 5}));
  EXPECT_EQ(seqs(log.previous()), (Seqs{3}));
  ASSERT_NE(log.find(5), nullptr);
  EXPECT_EQ(log.shipped(), 0u);
}

TEST(WaveLogUnit, AdoptPromotesLocalPreviousWavesNewerThanTheBase) {
  // The replica's period starts at boundary 4 but holds no wave yet; the
  // head cut again at 5, so wave 4 sits in its previous generation.
  core::WaveLog log;
  log.append(marked_wave(4), 4);
  log.cut();
  log.append(marked_wave(5), 5);
  log.adopt({blob_of(2), blob_of(3)}, {}, /*base=*/4, no_sizes);
  EXPECT_EQ(seqs(log.current()), (Seqs{4, 5}));
  EXPECT_EQ(seqs(log.previous()), (Seqs{2, 3}));
}

TEST(WaveLogUnit, AdoptGapThrowsRecoveryErrorNamingTheMissingWave) {
  core::WaveLog log;
  log.append(marked_wave(7), 7);
  try {
    log.adopt({}, {blob_of(4)}, /*base=*/4, no_sizes);
    ADD_FAILURE() << "adopted a log with waves 5 and 6 missing";
  } catch (const RecoveryError& e) {
    EXPECT_NE(std::string(e.what()).find("reconstruct wave 5"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ompc
