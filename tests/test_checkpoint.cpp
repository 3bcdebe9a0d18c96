// CheckpointStore behaviour at wave boundaries: snapshot cadence follows
// checkpoint_period, rollback restores the last boundary (not the initial
// state), and multi-wave programs recover losing only the waves since the
// last checkpoint — re-executed with bit-identical results. Head-locality
// captures take over the retrieves a wave started at each buffer's last
// write, never one started too early or during a replay. A wave that maps
// a buffer is a capture boundary on both recording surfaces.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/runtime.hpp"
#include "offload/kernel_registry.hpp"
#include "recording_surfaces.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"
#include "taskbench/spec.hpp"

namespace ompc::core {
namespace {

// ThreadSanitizer slows the control plane roughly an order of magnitude
// while sleep kernels keep real time: stretch task lengths and kill
// instants by the same factor so a kill still lands in the wave it aims at.
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

/// buffers[0]: u64 cell. scalars: (sleep_ns). Adds 1 to the cell, burning
/// `sleep_ns` first so waves are long enough for mid-wave kills.
const offload::KernelId kIncrement =
    offload::KernelRegistry::instance().register_kernel(
        "test_checkpoint_increment", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const auto sleep_ns = r.get<std::int64_t>();
          precise_sleep_ns(sleep_ns);
          *ctx.buffer<std::uint64_t>(0) += 1;
        });

/// Runs `waves` waves over `cells` u64 buffers; each wave increments every
/// cell once. Returns the final host values.
std::vector<std::uint64_t> run_increments(const ClusterOptions& opts,
                                          int waves, int cells,
                                          std::int64_t sleep_ns,
                                          RuntimeStats* stats_out = nullptr) {
  std::vector<std::uint64_t> data(static_cast<std::size_t>(cells), 0);
  const RuntimeStats stats = launch(opts, [&](Runtime& rt) {
    for (auto& c : data) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < waves; ++w) {
      for (auto& c : data) {
        Args args;
        args.buf(&c).scalar(sleep_ns);
        rt.target({omp::inout(&c)}, kIncrement, std::move(args),
                  static_cast<double>(sleep_ns) / 1e9);
      }
      rt.wait_all();
    }
    for (auto& c : data) rt.exit_data(&c);
  });
  if (stats_out != nullptr) *stats_out = stats;
  return data;
}

TEST(Checkpoint, CadenceFollowsCheckpointPeriod) {
  ClusterOptions opts;
  opts.num_workers = 2;
  opts.checkpoint_period = 2;

  RuntimeStats stats;
  const auto vals = run_increments(opts, /*waves=*/5, /*cells=*/4,
                                   /*sleep_ns=*/0, &stats);
  for (const auto v : vals) EXPECT_EQ(v, 5u);
  // Boundaries before waves 0, 2, 4 (the exit wave, index 5, is captured
  // at neither: 5 % 2 != 0).
  EXPECT_EQ(stats.checkpoints, 3);
  EXPECT_EQ(stats.recoveries, 0);
}

TEST(Checkpoint, DisabledPeriodTakesNoSnapshots) {
  ClusterOptions opts;
  opts.num_workers = 2;
  opts.checkpoint_period = 0;

  RuntimeStats stats;
  const auto vals =
      run_increments(opts, /*waves=*/3, /*cells=*/4, /*sleep_ns=*/0, &stats);
  for (const auto v : vals) EXPECT_EQ(v, 3u);
  EXPECT_EQ(stats.checkpoints, 0);
  EXPECT_EQ(stats.checkpoint_bytes, 0);
}

TEST(Checkpoint, AdoptStateResolvesBlobIdsAndNamesAMissingOne) {
  // serialize_state() names head-resident snapshot bytes by replication id;
  // adopt_state() takes them from the blobs a replica holds. One missing
  // is a RecoveryError naming it, never a store with a hole in it.
  ClusterOptions opts;
  opts.num_workers = 2;
  opts.checkpoint_period = 1;  // Head locality: every entry has head bytes
  std::vector<std::uint64_t> cells(3, 0);
  launch(opts, [&](Runtime& rt) {
    for (auto& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < 2; ++w) {
      for (auto& c : cells) {
        Args args;
        args.buf(&c).scalar<std::int64_t>(0);
        rt.target({omp::inout(&c)}, kIncrement, std::move(args), 0.0);
      }
      rt.wait_all();
    }
    const CheckpointStore& store = rt.checkpoints();
    const Bytes state = store.serialize_state();
    SnapshotBlobs blobs = store.blobs();
    ASSERT_FALSE(blobs.empty());

    CheckpointStore adopted;
    adopted.adopt_state(state, blobs);
    EXPECT_EQ(adopted.wave(), store.wave());
    EXPECT_EQ(adopted.blobs(), blobs);

    const std::uint64_t missing = blobs.rbegin()->first;
    blobs.erase(missing);
    CheckpointStore broken;
    try {
      broken.adopt_state(state, blobs);
      ADD_FAILURE() << "adopted a state whose blob " << missing
                    << " was missing";
    } catch (const RecoveryError& e) {
      EXPECT_NE(std::string(e.what()).find("blob id " +
                                           std::to_string(missing)),
                std::string::npos)
          << e.what();
    }
    for (auto& c : cells) rt.exit_data(&c);
  });
  for (const auto v : cells) EXPECT_EQ(v, 2u);
}

TEST(Checkpoint, FailureAfterResultsDeliveredReplaysInsteadOfRegressing) {
  // Both waves complete and wave 1's exit_data delivers the results (2) to
  // the host; the worker then dies while the head idles, so the repair
  // runs at the final *empty* implicit barrier. Rollback rewrites the
  // exited buffers with the wave-0 snapshot (zeros) — replay of the logged
  // waves must then regenerate and re-deliver the results. Restoring
  // without replaying would silently hand the user zeros.
  ClusterOptions opts;
  opts.num_workers = 2;
  opts.heartbeat_period_ms = 5;
  opts.heartbeat_timeout_ms = 40;
  opts.checkpoint_period = 4;  // one boundary, before wave 0
  opts.kills.push_back({1, 40'000'000});

  std::vector<std::uint64_t> data(4, 0);
  RuntimeStats stats = launch(opts, [&](Runtime& rt) {
    for (int w = 0; w < 2; ++w) {
      for (auto& c : data) {
        if (w == 0) rt.enter_data(&c, sizeof c);
        Args args;
        args.buf(&c).scalar<std::int64_t>(0);
        rt.target({omp::inout(&c)}, kIncrement, std::move(args));
        if (w == 1) rt.exit_data(&c);
      }
      rt.wait_all();  // both waves done within a few ms
    }
    for (const auto v : data) EXPECT_EQ(v, 2u);  // results delivered
    // Idle past the kill (40 ms) and its detection (~80 ms): the failure
    // lands with nothing recorded, so the final implicit barrier sees an
    // empty graph and must still repair + replay.
    precise_sleep_ns(150'000'000);
  });
  for (const auto v : data) EXPECT_EQ(v, 2u);
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_EQ(stats.workers_lost, 1);
  EXPECT_GE(stats.replayed_tasks, 1);
}

// --- Head locality: fetches started at each buffer's last write ----------

/// buffers[0]: u64 cell. scalars: (sleep_ns, mul, add). Burns sleep_ns,
/// then cell = cell * mul + add.
const offload::KernelId kAffine =
    offload::KernelRegistry::instance().register_kernel(
        "test_checkpoint_affine", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const auto sleep_ns = r.get<std::int64_t>();
          const auto mul = r.get<std::uint64_t>();
          const auto add = r.get<std::uint64_t>();
          precise_sleep_ns(sleep_ns);
          std::uint64_t& cell = *ctx.buffer<std::uint64_t>(0);
          cell = cell * mul + add;
        });

struct ChainRun {
  std::uint64_t chained = 0;
  std::uint64_t single = 0;
  std::int64_t host_runs = 0;
  std::int64_t prefetches = 0;  ///< DataManager head prefetches
  RuntimeStats stats;
};

/// Every wave writes `chained` through two chained targets (x3+1, then
/// x5+2) and then a host task that declares inout on it — the wave's last
/// writer of `chained`, so neither target may start its head fetch — and
/// writes `single` with one target (x7+3), its last writer.
ChainRun run_chain(const ClusterOptions& opts, int waves,
                   std::int64_t task_ns) {
  ChainRun out;
  out.stats = launch(opts, [&](Runtime& rt) {
    rt.enter_data(&out.chained, sizeof out.chained);
    rt.enter_data(&out.single, sizeof out.single);
    const auto affine = [&](std::uint64_t* cell, std::uint64_t mul,
                            std::uint64_t add) {
      Args args;
      args.buf(cell).scalar(task_ns).scalar(mul).scalar(add);
      rt.target({omp::inout(cell)}, kAffine, std::move(args),
                static_cast<double>(task_ns) * 1e-9);
    };
    for (int w = 0; w < waves; ++w) {
      affine(&out.chained, 3, 1);
      affine(&out.chained, 5, 2);
      rt.host_task([&out] { ++out.host_runs; }, {omp::inout(&out.chained)});
      affine(&out.single, 7, 3);
      rt.wait_all();
    }
    out.prefetches = rt.data_manager().stats().head_prefetches.load();
    rt.exit_data(&out.chained);
    rt.exit_data(&out.single);
  });
  return out;
}

class LastWritePrefetch : public ::testing::TestWithParam<int> {};

TEST_P(LastWritePrefetch, WorkerKilledMidRunChecksumMatches) {
  // Six waves of ~100 ms (two chained 50 ms targets); worker rank 2 dies at
  // 350 ms, mid wave 3, so recovery replays wave 3 (period 1) or waves 2
  // and 3 (period 2). A head fetch started after a writer that is not the
  // buffer's last one — the first target, or the second with the host task
  // still to come — trips the fail-fast write check, and so does one
  // started while replaying wave 2, which wave 3 writes again.
  const int period = GetParam();
  ClusterOptions opts;
  opts.num_workers = 3;
  opts.heartbeat_period_ms = 5;
  opts.heartbeat_timeout_ms = 60;
  opts.checkpoint_period = period;
  opts.checkpoint_locality = CheckpointLocality::Head;
  opts.kills.push_back({2, 350'000'000 * kTimeScale});

  constexpr int kWaves = 6;
  const ChainRun r = run_chain(opts, kWaves, 50'000'000 * kTimeScale);
  std::uint64_t chained = 0;
  std::uint64_t single = 0;
  for (int w = 0; w < kWaves; ++w) {
    chained = (chained * 3 + 1) * 5 + 2;
    single = single * 7 + 3;
  }
  EXPECT_EQ(r.chained, chained);
  EXPECT_EQ(r.single, single);
  EXPECT_GE(r.host_runs, kWaves);
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
  // Only `single` is ever prefetched, at most once per wave whose first
  // run precedes a capturing boundary (every wave at period 1, every
  // second one at period 2).
  EXPECT_GT(r.prefetches, 0);
  EXPECT_LE(r.prefetches, kWaves / period);
}

INSTANTIATE_TEST_SUITE_P(Periods, LastWritePrefetch, ::testing::Values(1, 2),
                         [](const auto& info) {
                           return "Period" + std::to_string(info.param);
                         });

TEST(Checkpoint, RetrievesPerCaptureEqualTheDirtyBuffersOnTbFtShape) {
  // ompcbench's tb_ft shape without kills: each capture retrieves every
  // dirty buffer exactly once, whether the retrieve started at the
  // buffer's last write or at the boundary. Differencing two run lengths
  // cancels the first capture (all 16 buffers dirty and still on the
  // head) and the exit wave.
  taskbench::TaskBenchSpec spec;
  spec.pattern = taskbench::Pattern::Stencil1D;
  spec.width = 8;
  spec.iterations = 200'000;  // 1 ms Sleep tasks
  spec.mode = taskbench::KernelMode::Sleep;
  spec.output_bytes = 4096;
  ClusterOptions opts;
  opts.num_workers = 3;
  opts.network = {20'000, 100.0e6, 8};
  opts.checkpoint_period = 1;

  spec.steps = 4;
  const auto short_run = taskbench::run_ompc_stepwise(spec, opts);
  spec.steps = 12;
  const auto long_run = taskbench::run_ompc_stepwise(spec, opts);
  ASSERT_EQ(long_run.checksum, taskbench::expected_checksum(spec));

  ASSERT_EQ(long_run.stats.checkpoints - short_run.stats.checkpoints, 8);
  const std::int64_t dirty_buffers = (long_run.stats.checkpoint_dirty_bytes -
                                      short_run.stats.checkpoint_dirty_bytes) /
                                     4096;
  EXPECT_EQ(dirty_buffers, 8 * 8);
  EXPECT_EQ(long_run.stats.retrieves - short_run.stats.retrieves,
            dirty_buffers);
}

// --- a wave that maps a buffer is a capture boundary ----------------------

class MappingWave
    : public ::testing::TestWithParam<std::tuple<surfaces::Surface, int>> {};

TEST_P(MappingWave, ReplayReentersTheCheckpointedBytes) {
  // Wave 1 enters `a` = 10, applies a = 3a + 1 and exits `a` with copy in
  // its first milliseconds, while a 300 ms task runs on every worker.
  // Worker rank 1 dies 150 ms in, after the exit wrote 31 into the host
  // copy. The replay must re-enter `a` from the checkpointed 10 — so wave 1
  // has to be a capture boundary even where the period skips it, on both
  // recording surfaces — or `a` ends as 3 * 31 + 1 = 94.
  const auto [surface, period] = GetParam();
  ClusterOptions opts;
  opts.num_workers = 2;
  opts.heartbeat_period_ms = 5;
  opts.heartbeat_timeout_ms = 60;
  opts.checkpoint_period = period;
  opts.kills.push_back({1, 150'000'000 * kTimeScale});

  std::uint64_t a = 10;
  std::vector<std::uint64_t> cells(2, 0);
  const RuntimeStats stats = surfaces::run_on(
      surface, opts, [&](auto& rec, const auto& barrier) {
        const auto affine = [&](std::uint64_t* cell, std::int64_t task_ns,
                                std::uint64_t mul, std::uint64_t add) {
          Args args;
          args.buf(cell).scalar(task_ns).scalar(mul).scalar(add);
          rec.target({omp::inout(cell)}, kAffine, std::move(args),
                     static_cast<double>(task_ns) * 1e-9);
        };
        for (auto& c : cells) {
          rec.enter_data(&c, sizeof c);
          affine(&c, 0, 1, 1);
        }
        barrier();
        rec.enter_data(&a, sizeof a);
        affine(&a, 0, 3, 1);
        rec.exit_data(&a);
        for (auto& c : cells) affine(&c, 300'000'000 * kTimeScale, 1, 1);
        barrier();
        for (auto& c : cells) rec.exit_data(&c);
        barrier();
      });
  EXPECT_EQ(a, 31u);
  for (const auto c : cells) EXPECT_EQ(c, 2u);
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_EQ(stats.workers_lost, 1);
  EXPECT_GE(stats.replayed_tasks, 1);
  EXPECT_EQ(stats.target_tasks, 5);  // replayed tasks do not count again
}

INSTANTIATE_TEST_SUITE_P(
    SurfacesAndPeriods, MappingWave,
    ::testing::Combine(::testing::Values(surfaces::Surface::Runtime,
                                         surfaces::Surface::Session),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return surfaces::surface_name(std::get<0>(info.param)) + "Period" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Checkpoint, MultiWaveRecoveryReplaysOnlySinceLastBoundary) {
  // 4 compute waves of ~60 ms each (4 cells over 2 workers x 2 handlers);
  // worker rank 1 dies at 100 ms, mid wave 2. Recovery must roll back to
  // the wave-2 boundary checkpoint and replay only the lost waves, ending
  // with every cell incremented exactly 4x.
  ClusterOptions opts;
  opts.num_workers = 2;
  opts.heartbeat_period_ms = 5;
  opts.heartbeat_timeout_ms = 50;
  opts.checkpoint_period = 2;
  opts.kills.push_back({1, 100'000'000});

  RuntimeStats stats;
  const auto vals = run_increments(opts, /*waves=*/4, /*cells=*/4,
                                   /*sleep_ns=*/60'000'000, &stats);
  for (const auto v : vals) EXPECT_EQ(v, 4u);
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_EQ(stats.workers_lost, 1);
  EXPECT_GE(stats.replayed_tasks, 1);
}

}  // namespace
}  // namespace ompc::core
