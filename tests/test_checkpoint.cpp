// CheckpointStore behaviour at wave boundaries: snapshot cadence follows
// checkpoint_period, rollback restores the last boundary (not the initial
// state), and multi-wave programs recover losing only the waves since the
// last checkpoint — re-executed with bit-identical results.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "offload/kernel_registry.hpp"
#include "taskbench/spec.hpp"

namespace ompc::core {
namespace {

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
