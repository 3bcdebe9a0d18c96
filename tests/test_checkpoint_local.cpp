// Worker-local buddy checkpoints (§5 + CheckpointLocality): the snapshot
// data plane lives on the workers, the head keeps metadata — and recovery
// still reproduces bitwise-identical results when the snapshot owner dies
// (restored from its buddy replica), degrades to a clean RecoveryError
// when owner AND buddy die in one checkpoint period, and a death mid-
// capture leaves the previous snapshot generation intact (two-phase
// commit). Also covers composition with Forwarding::ViaHead.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fault.hpp"
#include "core/runtime.hpp"
#include "minimpi/mpi.hpp"
#include "offload/kernel_registry.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc {
namespace {

using core::CheckpointLocality;
using core::CheckpointStore;
using core::ClusterOptions;
using core::DataManager;
using core::EventSystem;
using core::RecoveryError;
using core::WorkerMemory;
using taskbench::expected_checksum;
using taskbench::KernelMode;
using taskbench::Pattern;
using taskbench::read_digest;
using taskbench::TaskBenchSpec;

ClusterOptions buddy_opts(int workers) {
  ClusterOptions o;
  o.num_workers = workers;
  o.heartbeat_period_ms = 5;
  o.heartbeat_timeout_ms = 60;
  o.checkpoint_period = 1;
  o.checkpoint_locality = CheckpointLocality::Buddy;
  return o;
}

TaskBenchSpec stepwise_spec(Pattern p) {
  TaskBenchSpec s;
  s.pattern = p;
  s.steps = 4;
  s.width = 8;
  s.iterations = 4'000'000;  // 20 ms sleep tasks: waves outlive detection
  s.output_bytes = 32;
  s.mode = KernelMode::Sleep;
  return s;
}

// --- failure-free: the head sees metadata, not bytes ----------------------

TEST(WorkerLocalCheckpoint, BuddyModeKeepsCaptureBytesOffTheHead) {
  TaskBenchSpec spec = stepwise_spec(Pattern::Stencil1D);
  spec.iterations = 0;  // no compute needed without kills
  spec.output_bytes = 4096;

  ClusterOptions head = buddy_opts(3);
  head.heartbeat_period_ms = 0;
  head.checkpoint_locality = CheckpointLocality::Head;
  ClusterOptions buddy = head;
  buddy.checkpoint_locality = CheckpointLocality::Buddy;

  const auto rh = taskbench::run_ompc_stepwise(spec, head);
  const auto rb = taskbench::run_ompc_stepwise(spec, buddy);
  ASSERT_EQ(rh.checksum, expected_checksum(spec));
  ASSERT_EQ(rb.checksum, expected_checksum(spec));

  // Head mode pulls every worker-resident dirty buffer home per boundary;
  // Buddy mode ships commands only (plus replicas worker->worker).
  EXPECT_GT(rh.stats.checkpoint_head_bytes, 0);
  EXPECT_GT(rb.stats.snapshot_replicas, 0);
  EXPECT_LT(rb.stats.checkpoint_head_bytes,
            rh.stats.checkpoint_head_bytes / 10);
  // Same logical snapshots were taken in both modes.
  EXPECT_EQ(rb.stats.checkpoint_bytes, rh.stats.checkpoint_bytes);
}

// --- owner dies: restore from the buddy, all 4 patterns -------------------

class BuddyRecoveryAcrossPatterns : public ::testing::TestWithParam<Pattern> {
};

TEST_P(BuddyRecoveryAcrossPatterns, KilledSnapshotOwnerChecksumStillMatches) {
  const TaskBenchSpec spec = stepwise_spec(GetParam());
  ClusterOptions opts = buddy_opts(3);
  opts.kills.push_back({2, 30'000'000});  // worker rank 2 dies at 30 ms

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec))
      << "buddy-restored run diverged on " << pattern_name(spec.pattern);
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
  EXPECT_GE(r.stats.snapshot_replicas, 1);
  EXPECT_GE(r.stats.replayed_tasks, 1);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, BuddyRecoveryAcrossPatterns,
                         ::testing::Values(Pattern::Trivial,
                                           Pattern::Stencil1D, Pattern::Fft,
                                           Pattern::Tree),
                         [](const auto& info) {
                           return std::string(pattern_name(info.param));
                         });

// --- owner AND buddy die in one period: clean degradation -----------------

/// buffers[0]: u64 cell. scalars: (sleep_ns). Burns sleep_ns, then += 1.
const offload::KernelId kIncrement =
    offload::KernelRegistry::instance().register_kernel(
        "test_ckpt_local_increment", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const auto sleep_ns = r.get<std::int64_t>();
          precise_sleep_ns(sleep_ns);
          *ctx.buffer<std::uint64_t>(0) += 1;
        });

TEST(WorkerLocalCheckpoint, OwnerAndBuddyDyingInOnePeriodIsRecoveryError) {
  // One buffer, one 30 ms task per wave: HEFT pins the task to the first
  // worker (rank 1), whose ring buddy is rank 2. Both die at the same
  // instant — any gap between the kills is a race, because recovery from
  // the owner's death fetches the buddy's shadow to the head and the now
  // head-resident entry would survive the buddy's later death. With no
  // window for that hoist, the latest snapshot's owner and buddy are both
  // gone and so is the prior generation's (same pinned placement):
  // recovery must surface a clean RecoveryError — the sole survivor
  // (rank 3) holds no copy.
  ClusterOptions opts = buddy_opts(3);
  opts.kills.push_back({1, 100'000'000});
  opts.kills.push_back({2, 100'000'000});

  std::uint64_t cell = 0;
  const auto body = [&](core::Runtime& rt) {
    rt.enter_data(&cell, sizeof cell);
    for (int w = 0; w < 16; ++w) {
      core::Args args;
      args.buf(&cell).scalar<std::int64_t>(30'000'000);
      rt.target({omp::inout(&cell)}, kIncrement, std::move(args), 30e-3);
      rt.wait_all();
    }
    rt.exit_data(&cell);
  };
  EXPECT_THROW(core::launch(opts, body), RecoveryError);
}

// --- two-phase commit at the unit level -----------------------------------

/// Head-side fixture with direct access to the universe's fault injection:
/// a head rank driving DataManager/CheckpointStore by hand plus `workers`
/// event-system-only worker ranks, whose device heaps body() may inspect.
struct MiniCluster {
  explicit MiniCluster(int workers) {
    opts.num_workers = workers;
    opts.network = {};
    opts.checkpoint_locality = CheckpointLocality::Buddy;
  }

  void run(const std::function<void(DataManager&, EventSystem&,
                                    mpi::Universe&)>& body) {
    mpi::UniverseOptions uopts;
    uopts.ranks = opts.ranks();
    uopts.comms = 1 + opts.vci;
    mpi::Universe universe(uopts);
    universe.run([&](mpi::RankContext& ctx) {
      if (ctx.rank() == 0) {
        EventSystem events(ctx, opts, nullptr, nullptr);
        DataManager dm(events, opts);
        {
          std::unique_lock<std::mutex> lock(mutex_);
          cv_.wait(lock, [this] {
            return memories_.size() ==
                   static_cast<std::size_t>(opts.num_workers);
          });
        }
        body(dm, events, universe);
        try {
          dm.cleanup_all();
        } catch (const core::WorkerDiedError&) {
          // Cleanup against an injected corpse: its memory dies with it.
        }
        events.shutdown_cluster();
      } else {
        WorkerMemory memory(&ctx.universe(), ctx.rank());
        omp::TaskRuntime pool(1);
        EventSystem events(ctx, opts, &memory, &pool);
        {
          std::lock_guard<std::mutex> lock(mutex_);
          memories_[ctx.rank()] = &memory;
        }
        cv_.notify_all();
        events.wait_until_stopped();
      }
    });
  }

  /// Worker `rank`'s device heap; valid inside body().
  const WorkerMemory& memory(mpi::Rank rank) {
    std::lock_guard<std::mutex> lock(mutex_);
    return *memories_.at(rank);
  }

  ClusterOptions opts;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<mpi::Rank, const WorkerMemory*> memories_;
};

/// buffers[0]: u64 cell. scalars: (value). Overwrites the cell.
const offload::KernelId kSet =
    offload::KernelRegistry::instance().register_kernel(
        "test_ckpt_local_set", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          *ctx.buffer<std::uint64_t>(0) = r.get<std::uint64_t>();
        });

/// Runs kSet(value) on `worker`'s replica of `cell` and applies the write
/// invalidation, so the worker owns the only (dirty) copy.
void write_on_worker(DataManager& dm, EventSystem& events, mpi::Rank worker,
                     std::uint64_t* cell, std::uint64_t value) {
  const void* args[] = {cell};
  const std::vector<offload::TargetPtr> addrs = dm.prepare_args(worker, args);
  core::ExecuteHeader h;
  h.kernel = kSet;
  h.buffers = {addrs[0]};
  ArchiveWriter w;
  w.put(value);
  h.scalars = w.take();
  events.run(worker, core::EventKind::Execute, h.serialize());
  dm.after_write(worker, {omp::inout(cell)});
}

void kill_and_wait(mpi::Universe& u, mpi::Rank r) {
  u.kill_rank(r, 0);
  while (!u.is_dead(r)) precise_sleep_ns(1'000'000);
}

TEST(WorkerLocalCheckpoint, DeathMidCaptureLeavesPreviousGenerationIntact) {
  // Generation 1 snapshots value 1 (owner rank 1, buddy rank 2). The buddy
  // then dies, so the generation-2 capture aborts mid-snapshot — and the
  // committed generation must still restore value 1 from the owner.
  MiniCluster c(2);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};

    write_on_worker(dm, events, 1, &cell, 1);
    ckpt.capture(dm, 0, live);
    EXPECT_EQ(ckpt.generation(), 1u);
    EXPECT_EQ(ckpt.worker_resident_entries(), 1u);
    EXPECT_EQ(ckpt.stats().snapshot_replicas, 1);

    write_on_worker(dm, events, 1, &cell, 2);
    kill_and_wait(u, 2);  // the buddy dies before the boundary
    EXPECT_THROW(ckpt.capture(dm, 1, live), core::WorkerDiedError);
    EXPECT_EQ(ckpt.generation(), 1u);  // previous generation committed
    EXPECT_EQ(ckpt.wave(), 0);

    dm.purge_rank(2);
    dm.reset_all_to_host();
    ckpt.restore(dm);
    EXPECT_EQ(cell, 1u);  // generation 1, not the aborted generation 2
  });
}

TEST(WorkerLocalCheckpoint, RetiredShadowsOutliveTheCommitUntilReleased) {
  // Generation 1 (owner rank 1, buddy rank 2) drops out of both retained
  // generations when generation 3 commits. A replica of the head state
  // serialized before that commit still names it, and a head promoted from
  // that replica may restore from it, so the commit only retires its
  // shadows: they stay allocated, and fetchable, until released.
  MiniCluster c(3);
  c.run([&c](DataManager& dm, EventSystem& events, mpi::Universe&) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2, 3};

    write_on_worker(dm, events, 1, &cell, 1);
    ckpt.capture(dm, 0, live);
    const std::vector<offload::TargetPtr> gen1_on_r1 = ckpt.shadows_on(1);
    ASSERT_EQ(gen1_on_r1.size(), 1u);
    write_on_worker(dm, events, 3, &cell, 2);
    ckpt.capture(dm, 1, live);  // owner rank 3, buddy rank 1
    write_on_worker(dm, events, 2, &cell, 3);
    const std::size_t r1_blocks = c.memory(1).live();
    const std::size_t r2_blocks = c.memory(2).live();

    ckpt.capture(dm, 2, live);  // owner rank 2, buddy rank 3
    EXPECT_EQ(ckpt.num_retired(), 2u);
    ASSERT_EQ(c.memory(1).live(), r1_blocks) << "generation 1 freed at commit";
    EXPECT_EQ(c.memory(2).live(), r2_blocks + 1);  // + generation 3's owner
    std::uint64_t fetched = 0;
    events
        .start_retrieve(1, gen1_on_r1[0], &fetched, sizeof fetched,
                        core::EventKind::SnapshotFetch)
        ->wait();
    EXPECT_EQ(fetched, 1u);

    const std::int64_t drops = ckpt.stats().snapshot_drops;
    ckpt.release_retired(ckpt.num_retired());
    EXPECT_EQ(ckpt.num_retired(), 0u);
    EXPECT_EQ(ckpt.stats().snapshot_drops, drops + 2);
    EXPECT_EQ(c.memory(1).live(), r1_blocks - 1);
    EXPECT_EQ(c.memory(2).live(), r2_blocks);
  });
}

TEST(WorkerLocalCheckpoint, RestoreFallsBackToBuddyWhenOwnerDies) {
  MiniCluster c(2);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};

    write_on_worker(dm, events, 1, &cell, 7);
    ckpt.capture(dm, 0, live);
    EXPECT_EQ(ckpt.worker_resident_entries(), 1u);

    kill_and_wait(u, 1);  // the snapshot owner dies
    dm.purge_rank(1);
    dm.reset_all_to_host();
    ckpt.restore(dm);
    EXPECT_EQ(cell, 7u);  // bitwise-identical, served by the buddy replica

    // The restored entry became head-resident: another restore (or a
    // capture reusing it) no longer depends on any worker.
    EXPECT_EQ(ckpt.worker_resident_entries(), 0u);
    cell = 0;
    ckpt.restore(dm);
    EXPECT_EQ(cell, 7u);
  });
}

TEST(WorkerLocalCheckpoint, SnapshotLostWhenEveryHolderDies) {
  MiniCluster c(2);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};

    write_on_worker(dm, events, 1, &cell, 9);
    ckpt.capture(dm, 0, live);

    kill_and_wait(u, 1);
    kill_and_wait(u, 2);
    dm.purge_rank(1);
    dm.purge_rank(2);
    dm.reset_all_to_host();
    EXPECT_THROW(ckpt.restore(dm), RecoveryError);
  });
}

TEST(WorkerLocalCheckpoint, DoubleKillFallsBackToPriorGeneration) {
  // Generation 1 snapshots value 1 (owner rank 1, buddy rank 2); the write
  // then moves to rank 3, so generation 2 snapshots value 2 with owner
  // rank 3, buddy rank 1. Killing ranks 3 AND 1 voids generation 2 — but
  // generation 1 still has a live holder (the buddy, rank 2), so restore
  // degrades one period instead of failing the launch: value 1 comes
  // back, flagged so the caller replays from the earlier boundary.
  MiniCluster c(3);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2, 3};

    write_on_worker(dm, events, 1, &cell, 1);
    ckpt.capture(dm, 0, live);
    write_on_worker(dm, events, 3, &cell, 2);
    ckpt.capture(dm, 1, live);
    EXPECT_EQ(ckpt.generation(), 2u);

    kill_and_wait(u, 3);  // generation 2's owner...
    kill_and_wait(u, 1);  // ...and its buddy
    dm.purge_rank(3);
    dm.purge_rank(1);
    dm.reset_all_to_host();

    ckpt.restore(dm);
    EXPECT_EQ(cell, 1u);  // the prior generation's value
    EXPECT_TRUE(ckpt.last_restore_degraded());
    EXPECT_EQ(ckpt.wave(), 0);  // caller must replay from this boundary
    EXPECT_EQ(ckpt.stats().degraded_restores, 1);
  });
}

TEST(WorkerLocalCheckpoint, SnapshotLossNamesTheUnrecoverableBuffers) {
  // When no generation survives, the error must say exactly which buffers
  // are gone and who held them — the difference between a debuggable
  // failure report and a shrug.
  MiniCluster c(2);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2};

    write_on_worker(dm, events, 1, &cell, 9);
    ckpt.capture(dm, 0, live);

    kill_and_wait(u, 1);
    kill_and_wait(u, 2);
    dm.purge_rank(1);
    dm.purge_rank(2);
    dm.reset_all_to_host();
    try {
      ckpt.restore(dm);
      FAIL() << "restore with every holder dead must throw";
    } catch (const RecoveryError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unrecoverable buffers"), std::string::npos) << msg;
      EXPECT_NE(msg.find("owner=r1"), std::string::npos) << msg;
      EXPECT_NE(msg.find("buddy=r2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("size=8"), std::string::npos) << msg;
    }
  });
}

TEST(WorkerLocalCheckpoint, CleanEntryWithDeadHoldersIsRecaptured) {
  // A clean buffer's entry normally rides along by reference — but when
  // every holder of its shadow died, reuse would checkpoint a promise
  // nobody can keep. Capture must re-snapshot it from the current freshest
  // copy (the head, after recovery) even though the buffer is clean.
  MiniCluster c(3);
  c.run([](DataManager& dm, EventSystem& events, mpi::Universe& u) {
    std::uint64_t cell = 0;
    dm.register_buffer(&cell, sizeof cell);
    CheckpointStore ckpt(&events, CheckpointLocality::Buddy);
    const mpi::Rank live[] = {1, 2, 3};

    write_on_worker(dm, events, 1, &cell, 5);
    ckpt.capture(dm, 0, live);
    EXPECT_EQ(ckpt.worker_resident_entries(), 1u);
    EXPECT_EQ(ckpt.stats().snapshot_replicas, 1);

    // The owner (rank 1) and its buddy (rank 2) die together: the snapshot
    // is stranded...
    kill_and_wait(u, 1);
    kill_and_wait(u, 2);
    dm.purge_rank(1);
    dm.purge_rank(2);
    dm.reset_all_to_host();
    EXPECT_THROW(ckpt.restore(dm), RecoveryError);

    // ...but the next boundary self-heals: the clean entry is re-captured
    // from the head copy instead of reused, and restore works again.
    const mpi::Rank survivors[] = {3};
    cell = 5;  // pretend replay regenerated the value on the head
    ckpt.capture(dm, 1, survivors);
    EXPECT_EQ(ckpt.worker_resident_entries(), 0u);
    cell = 0;
    ckpt.restore(dm);
    EXPECT_EQ(cell, 5u);
  });
}

// --- composition with the ViaHead forwarding ablation ---------------------

TEST(WorkerLocalCheckpoint, BuddyComposesWithViaHeadForwarding) {
  const TaskBenchSpec spec = stepwise_spec(Pattern::Stencil1D);
  ClusterOptions opts = buddy_opts(3);
  opts.forwarding = core::Forwarding::ViaHead;
  opts.kills.push_back({2, 30'000'000});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
}

}  // namespace
}  // namespace ompc
