// Head failover + elastic membership (§5 extension): the head's recording
// state (wave log, ownership map, checkpoint metadata) is replicated to a
// shadow worker at every wave boundary, so killing the HEAD mid-run elects
// the freshest replica holder, re-homes the control plane onto it, and
// resumes from the last committed wave — with results bitwise identical to
// a failure-free run. Workers also join (from the spare pool) and leave at
// wave boundaries while the computation runs; churn composes with buddy
// checkpointing and worker recovery. The _shm ctest rerun exercises the
// same suite over the shared-memory conduit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/membership.hpp"
#include "core/runtime.hpp"
#include "minimpi/mpi.hpp"
#include "offload/kernel_registry.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc {
namespace {

using core::CheckpointLocality;
using core::ClusterOptions;
using core::RecoveryError;
using core::ReplicaStore;
using core::SnapshotBlobs;
using taskbench::expected_checksum;
using taskbench::KernelMode;
using taskbench::Pattern;
using taskbench::TaskBenchSpec;

// ThreadSanitizer slows the control plane (scheduling, events, elections)
// roughly an order of magnitude while sleep-based kernels keep real-time
// pace. Stretch both the task lengths and the fault-injection instants by
// the same factor so every kill still lands in the phase the test aims at
// (e.g. "after the first replication round, mid-wave").
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

ClusterOptions failover_opts(int workers) {
  ClusterOptions o;
  o.num_workers = workers;
  o.heartbeat_period_ms = 5;
  o.heartbeat_timeout_ms = 60;
  o.checkpoint_period = 1;
  o.checkpoint_locality = CheckpointLocality::Buddy;
  return o;
}

/// Head locality (the default): every snapshot's bytes live on the head, so
/// replication carries them to the shadow.
ClusterOptions head_locality_opts(int workers) {
  ClusterOptions o = failover_opts(workers);
  o.checkpoint_locality = CheckpointLocality::Head;
  return o;
}

TaskBenchSpec failover_spec(Pattern p) {
  TaskBenchSpec s;
  s.pattern = p;
  s.steps = 4;
  s.width = 8;
  s.iterations = 4'000'000 * kTimeScale;  // 20 ms sleep tasks: waves
                                          // outlive detection windows
  s.output_bytes = 32;
  s.mode = KernelMode::Sleep;
  return s;
}

// --- the head dies: elected successor resumes, results identical ----------

class HeadFailoverAcrossPatterns : public ::testing::TestWithParam<Pattern> {
};

TEST_P(HeadFailoverAcrossPatterns, HeadKilledMidWaveChecksumStillMatches) {
  const TaskBenchSpec spec = failover_spec(GetParam());
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({0, at_ms(30)});  // the HEAD dies mid-wave

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec))
      << "failover run diverged on " << pattern_name(spec.pattern);
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_GE(r.stats.replication_updates, 1);
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, HeadFailoverAcrossPatterns,
                         ::testing::Values(Pattern::Trivial,
                                           Pattern::Stencil1D, Pattern::Fft,
                                           Pattern::Tree),
                         [](const auto& info) {
                           return std::string(pattern_name(info.param));
                         });

TEST(HeadFailover, HeadKilledNearLaterBoundaryStillMatches) {
  // A later kill time lands around the wave-2 boundary (capture +
  // replication in flight) rather than mid-execution — the replica must be
  // consistent wherever the cut falls.
  const TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({0, at_ms(130)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
}

TEST(HeadFailover, HeadAndWorkerKilledInOneWindow) {
  // The head AND a worker die a few milliseconds apart. The survivors
  // elect the shadow (rank 1, untouched); its post-adoption liveness sweep
  // picks up the worker corpse nobody reported (its ring successor was the
  // dead head), and one recovery replays around both.
  const TaskBenchSpec spec = failover_spec(Pattern::Tree);
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({0, at_ms(30)});
  opts.kills.push_back({3, at_ms(34)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_GE(r.stats.workers_lost, 1);
}

TEST(HeadFailover, WorkerKilledAfterCompletedFailoverIsFound) {
  // The head dies at 30 ms; rank 1 (the shadow) is promoted and the waves
  // run on over ranks 2 and 3. Then rank 3 dies mid-wave. Its ring monitor
  // was the dead head, so no ring flags it: only the promoted head's
  // liveness sweep, armed by the head it replaced, can find it.
  TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  spec.steps = 10;  // waves still run at the second kill
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({0, at_ms(30)});
  opts.kills.push_back({3, at_ms(250)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_EQ(r.stats.workers_lost, 1);
}

TEST(HeadFailover, HeadKilledDuringWorkerRecoveryStillMatches) {
  // Worker 2 dies first; the head dies ~70 ms later, which lands inside
  // the detection/rollback window for worker 2 on a loaded box (snapshot
  // fetches in flight). The promoted head must finish BOTH recoveries.
  const TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({2, at_ms(30)});
  opts.kills.push_back({0, at_ms(100)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_GE(r.stats.workers_lost, 1);
}

TEST(HeadFailover, HeadAndShadowDyingTogetherIsCleanRecoveryError) {
  // The only replica holder dies with the head: no candidate can win the
  // election, so the surviving control thread must give up with a clean
  // RecoveryError once its hand-off wait times out — never a hang.
  const TaskBenchSpec spec = failover_spec(Pattern::Trivial);
  ClusterOptions opts = failover_opts(3);
  opts.kills.push_back({1, at_ms(30)});  // the shadow (first live worker)
  opts.kills.push_back({0, at_ms(34)});  // then the head

  EXPECT_THROW(taskbench::run_ompc_stepwise(spec, opts), RecoveryError);
}

TEST(HeadFailover, ReplicationOffMakesHeadDeathACleanError) {
  const TaskBenchSpec spec = failover_spec(Pattern::Trivial);
  ClusterOptions opts = failover_opts(2);
  opts.head_replication = false;
  opts.kills.push_back({0, at_ms(30)});

  EXPECT_THROW(taskbench::run_ompc_stepwise(spec, opts), RecoveryError);
}

TEST(HeadFailover, CountersSurviveTheHandoff) {
  // Wave/task/checkpoint counters are part of the replicated head state:
  // a run that loses its head must report the same totals as one that
  // does not (each wait_all counted exactly once, adopted not reset).
  const TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  const ClusterOptions clean_opts = failover_opts(3);
  ClusterOptions kill_opts = clean_opts;
  kill_opts.kills.push_back({0, at_ms(30)});

  const auto clean = taskbench::run_ompc_stepwise(spec, clean_opts);
  const auto killed = taskbench::run_ompc_stepwise(spec, kill_opts);
  ASSERT_EQ(killed.checksum, expected_checksum(spec));
  EXPECT_GE(killed.stats.failovers, 1);
  EXPECT_EQ(killed.stats.waves, clean.stats.waves);
  EXPECT_EQ(killed.stats.target_tasks, clean.stats.target_tasks);
  // Checkpoint counters ride in the replicated store metadata: the killed
  // run re-captures during replay, so it can only see MORE boundaries.
  EXPECT_GE(killed.stats.checkpoints, clean.stats.checkpoints);
}

// --- Head locality: snapshot blobs replicate once each --------------------

TEST(HeadLocalityFailover, HeadKilledAfterDeltaUpdatesChecksumMatches) {
  // Waves take ~40 ms here (60 ms at most on a loaded box) and the shadow
  // gets one update before each, so by 230 ms it has applied a Full update
  // and at least three delta updates. The adopted checkpoint then
  // references blobs from several of them: clean entries keep the ids of
  // earlier captures, and any id the replica pruned too eagerly fails
  // adoption.
  TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  spec.steps = 8;
  ClusterOptions opts = head_locality_opts(3);
  opts.kills.push_back({0, at_ms(230)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_GE(r.stats.replication_updates, 4);
}

TEST(HeadLocalityFailover, ShadowKilledThenHeadKilledAfterFullResync) {
  // The shadow (rank 1, the first live worker) dies mid-wave 0. After the
  // rollback the next boundary resyncs rank 2 with a Full update, which
  // must carry every blob the checkpoint references: the shadow's delta
  // bookkeeping is void. Then the head dies, and rank 2 adopts from what
  // that resync and the updates after it delivered.
  TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  spec.steps = 8;
  ClusterOptions opts = head_locality_opts(3);
  opts.kills.push_back({1, at_ms(30)});
  opts.kills.push_back({0, at_ms(300)});

  const auto r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, expected_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
  EXPECT_GE(r.stats.workers_lost, 1);
}

TEST(HeadLocalityReplication, SteadyUpdateShipsOnlyTheWavesDirtyBytes) {
  // One update per wave. Its steady-state size is the difference between
  // two run lengths (the first, Full update and the teardown cancel out).
  // It must not exceed the bytes the wave's checkpoint newly captured plus
  // the metadata: stats block, rosters, ownership registry, per-entry
  // checkpoint records and the wave's graph — about 4.3 KB on this shape.
  // Re-sending both generations' snapshot bytes at every boundary (the
  // ~128 KiB of this shape) cannot fit.
  constexpr std::int64_t kMetadataAllowance = 8 * 1024;
  TaskBenchSpec spec = failover_spec(Pattern::Stencil1D);
  spec.iterations = 0;
  spec.output_bytes = 4096;  // 8 × 4 KiB written per wave
  const ClusterOptions opts = head_locality_opts(3);

  spec.steps = 4;
  const auto short_run = taskbench::run_ompc_stepwise(spec, opts);
  spec.steps = 12;
  const auto long_run = taskbench::run_ompc_stepwise(spec, opts);
  ASSERT_EQ(long_run.checksum, expected_checksum(spec));

  const std::int64_t updates = long_run.stats.replication_updates -
                               short_run.stats.replication_updates;
  const std::int64_t captures =
      long_run.stats.checkpoints - short_run.stats.checkpoints;
  ASSERT_EQ(updates, 8);
  ASSERT_EQ(captures, 8);
  const std::int64_t bytes_per_update =
      (long_run.stats.replication_bytes - short_run.stats.replication_bytes) /
      updates;
  const std::int64_t dirty_per_wave = (long_run.stats.checkpoint_dirty_bytes -
                                       short_run.stats.checkpoint_dirty_bytes) /
                                      captures;
  EXPECT_EQ(dirty_per_wave, 8 * 4096);
  EXPECT_LE(bytes_per_update, dirty_per_wave + kMetadataAllowance)
      << "replication re-sends snapshot bytes the shadow already holds";
}

// --- ReplicaStore: blobs by replication id --------------------------------

std::shared_ptr<const Bytes> blob_of(std::uint8_t fill) {
  return std::make_shared<const Bytes>(16, std::byte{fill});
}

/// One update with a one-wave delta, carrying `carried` and listing `ids`.
Bytes replica_update(ReplicaStore::Update kind, const SnapshotBlobs& carried,
                     const std::vector<std::uint64_t>& ids) {
  const Bytes metadata(8, std::byte{0x11});
  core::WaveGeneration waves(1);
  waves[0].blob = Bytes(4, std::byte{0x22});
  return ReplicaStore::encode(kind, metadata, {}, waves, 0, carried, ids);
}

std::vector<std::uint64_t> held_ids(const ReplicaStore& store) {
  std::vector<std::uint64_t> ids;
  for (const auto& [id, bytes] : store.snapshot().blobs) ids.push_back(id);
  return ids;
}

using Ids = std::vector<std::uint64_t>;

TEST(ReplicaStoreBlobs, HoldsExactlyTheListedIdsAfterEveryUpdate) {
  ReplicaStore store;
  store.apply(ReplicaStore::Update::Full, 1,
              replica_update(ReplicaStore::Update::Full,
                             {{1, blob_of(1)}, {2, blob_of(2)}, {3, blob_of(3)}},
                             {1, 2, 3}));
  EXPECT_EQ(held_ids(store), (Ids{1, 2, 3}));

  // A boundary: blob 4 is new, 1 dropped out of both generations, 2 and 3
  // are referenced again and travel as ids only.
  store.apply(ReplicaStore::Update::Reset, 2,
              replica_update(ReplicaStore::Update::Reset, {{4, blob_of(4)}},
                             {2, 3, 4}));
  EXPECT_EQ(held_ids(store), (Ids{2, 3, 4}));
  EXPECT_EQ(*store.snapshot().blobs.at(2), *blob_of(2));

  store.apply(ReplicaStore::Update::Append, 3,
              replica_update(ReplicaStore::Update::Append, {{5, blob_of(5)}},
                             {4, 5}));
  const ReplicaStore::Snapshot snap = store.snapshot();
  EXPECT_EQ(held_ids(store), (Ids{4, 5}));
  EXPECT_EQ(*snap.blobs.at(4), *blob_of(4));
  EXPECT_EQ(*snap.blobs.at(5), *blob_of(5));
  EXPECT_EQ(snap.generation, 3u);
  EXPECT_EQ(snap.prev_waves.size(), 1u);  // the Full update's wave
  EXPECT_EQ(snap.waves.size(), 2u);       // Reset's, then Append's
}

TEST(ReplicaStoreBlobs, FullUpdateDropsEveryBlobItDoesNotResend) {
  ReplicaStore store;
  store.apply(ReplicaStore::Update::Full, 1,
              replica_update(ReplicaStore::Update::Full,
                             {{1, blob_of(1)}, {2, blob_of(2)}}, {1, 2}));
  store.apply(ReplicaStore::Update::Full, 2,
              replica_update(ReplicaStore::Update::Full, {{2, blob_of(7)}},
                             {2}));
  EXPECT_EQ(held_ids(store), (Ids{2}));
  EXPECT_EQ(*store.snapshot().blobs.at(2), *blob_of(7));

  // A Full update must carry what it lists: what the store already holds
  // does not count.
  EXPECT_THROW(store.apply(ReplicaStore::Update::Full, 3,
                           replica_update(ReplicaStore::Update::Full, {}, {2})),
               CheckError);
  EXPECT_EQ(store.generation(), 2u);
}

TEST(ReplicaStoreBlobs, ListedIdNeitherCarriedNorHeldFailsNamingIt) {
  ReplicaStore store;
  store.apply(ReplicaStore::Update::Full, 1,
              replica_update(ReplicaStore::Update::Full, {{1, blob_of(1)}},
                             {1}));
  try {
    store.apply(ReplicaStore::Update::Append, 2,
                replica_update(ReplicaStore::Update::Append, {{2, blob_of(2)}},
                               {1, 2, 99}));
    FAIL() << "an update listing an unknown blob id was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("blob id 99"), std::string::npos)
        << e.what();
  }
  // The rejected update left the replica as it was.
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_EQ(held_ids(store), (Ids{1}));
  EXPECT_EQ(store.snapshot().waves.size(), 1u);
}

// --- tick waves: the programs of the sections below -----------------------

/// buffers[0]: u64 cell. scalars: (sleep_ns). Burns sleep_ns, then += 1.
const offload::KernelId kTick =
    offload::KernelRegistry::instance().register_kernel(
        "test_membership_tick", [](offload::KernelContext& ctx) {
          auto r = ctx.scalars();
          const auto sleep_ns = r.get<std::int64_t>();
          precise_sleep_ns(sleep_ns);
          *ctx.buffer<std::uint64_t>(0) += 1;
        });

/// One wave: every cell gets one tick task of `task_ns`.
void tick_wave(core::Runtime& rt, std::vector<std::uint64_t>& cells,
               std::int64_t task_ns) {
  for (std::uint64_t& c : cells) {
    core::Args args;
    args.buf(&c).scalar<std::int64_t>(task_ns);
    rt.target({omp::inout(&c)}, kTick, std::move(args),
              static_cast<double>(task_ns) * 1e-9);
  }
  rt.wait_all();
}

// --- a HeadState update still on the wire when the head or shadow dies ---

/// Host-side state no target touches: its freshest copy never leaves the
/// head, so the head snapshots its bytes in both localities and every
/// update carries them (a host task rewrites it each wave).
constexpr std::size_t kHostStateWords = (1u << 20) / sizeof(std::uint64_t);

/// 20 MB/s links (dilated with the tasks under TSan): each wave's update,
/// the 1 MiB host state plus metadata, spends ~52 ms on the wire while the
/// wave's tasks take 10 ms, so the update is in flight through every wave
/// and the head then waits for it. Only the capture between two updates
/// (microseconds of metadata plus a 1 MiB copy) has none in flight.
ClusterOptions slow_update_opts(ClusterOptions o) {
  o.network = mpi::NetworkModel{50'000, 20.0e6, 8}.dilated(kTimeScale);
  return o;
}

struct HostStateRun {
  std::vector<std::uint64_t> cells;
  std::vector<std::uint64_t> host_state;
  core::RuntimeStats stats;
};

/// `waves` waves, each ticking 4 worker cells (10 ms tasks) and adding 1
/// to every word of the host state on the head.
HostStateRun run_with_host_state(const ClusterOptions& opts, int waves) {
  HostStateRun out;
  out.cells.assign(4, 0);
  out.host_state.assign(kHostStateWords, 0);
  out.stats = core::launch(opts, [&](core::Runtime& rt) {
    std::vector<std::uint64_t>& hs = out.host_state;
    for (std::uint64_t& c : out.cells) rt.enter_data(&c, sizeof c);
    rt.enter_data(hs.data(), hs.size() * sizeof(std::uint64_t),
                  /*copy=*/false);
    for (int w = 0; w < waves; ++w) {
      rt.host_task([&hs] { for (std::uint64_t& v : hs) v += 1; },
                   {omp::inout(hs.data())});
      tick_wave(rt, out.cells, 10'000'000 * kTimeScale);
    }
    for (std::uint64_t& c : out.cells) rt.exit_data(&c);
    rt.exit_data(hs.data());
  });
  return out;
}

void expect_every_wave_applied(const HostStateRun& r, int waves) {
  const auto expected = static_cast<std::uint64_t>(waves);
  for (const std::uint64_t c : r.cells) EXPECT_EQ(c, expected);
  std::size_t wrong = 0;
  for (const std::uint64_t v : r.host_state)
    if (v != expected) ++wrong;
  EXPECT_EQ(wrong, 0u) << "host-state words not advanced exactly " << waves
                       << " times";
}

class HeadKilledWithUpdateInFlight
    : public ::testing::TestWithParam<CheckpointLocality> {};

TEST_P(HeadKilledWithUpdateInFlight, ChecksumMatches) {
  // The head dies 150 ms in, about three updates into the run and while
  // one is on the wire. The shadow may or may not have applied it; either
  // way the promoted head resumes from the replica it holds plus the
  // client's wave cache, which covers the wave in flight.
  constexpr int kWaves = 8;
  ClusterOptions opts = slow_update_opts(failover_opts(3));
  opts.checkpoint_locality = GetParam();
  opts.kills.push_back({0, at_ms(150)});

  const HostStateRun r = run_with_host_state(opts, kWaves);
  expect_every_wave_applied(r, kWaves);
  EXPECT_GE(r.stats.failovers, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Localities, HeadKilledWithUpdateInFlight,
    ::testing::Values(CheckpointLocality::Head, CheckpointLocality::Buddy),
    [](const auto& info) {
      return std::string(info.param == CheckpointLocality::Head ? "Head"
                                                                : "Buddy");
    });

TEST(HeadLocalityReplication, ShadowKilledWithItsUpdateInFlightResyncsFull) {
  // The shadow (rank 1, the first live worker) dies 150 ms in, with an
  // update on the wire to it. The update fails, so the next boundary must
  // resync rank 2 with a Full update: rank 2 holds no blobs yet, and a
  // delta listing blob ids it never received would be rejected by its
  // replica store (a CheckError on its handler thread). Every later update
  // builds on that resync.
  constexpr int kWaves = 8;
  ClusterOptions opts = slow_update_opts(head_locality_opts(3));
  opts.kills.push_back({1, at_ms(150)});

  const HostStateRun r = run_with_host_state(opts, kWaves);
  expect_every_wave_applied(r, kWaves);
  EXPECT_EQ(r.stats.failovers, 0);
  EXPECT_EQ(r.stats.workers_lost, 1);
  EXPECT_GE(r.stats.recoveries, 1);
}

// --- elastic membership: join/leave at wave boundaries --------------------

TEST(ElasticMembership, SpareJoinsRunsTasksAndSurvivesOwnerKill) {
  // A spare rank joins at a wave boundary, receives a slice of the
  // buffers (migrated worker->worker), executes tasks from the next HEFT
  // pass on — and then DIES. Its buffers must come back through the buddy
  // snapshot like any other owner's, so every cell still reaches kWaves.
  ClusterOptions opts = failover_opts(3);
  opts.spare_workers = 1;
  opts.kills.push_back({4, 250'000'000});  // the joiner, well after joining

  constexpr int kWaves = 16;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      if (w == 2) EXPECT_EQ(rt.request_join(), 4);
      tick_wave(rt, cells, 15'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_GE(stats.recoveries, 1);
  EXPECT_GE(stats.workers_lost, 1);
}

TEST(ElasticMembership, JoinAndWorkerKillInTheSameWindowBothApply) {
  // The join request and a worker death race within one wave: whichever
  // boundary processes first, the joined rank must end up schedulable and
  // the corpse recovered around.
  ClusterOptions opts = failover_opts(3);
  opts.spare_workers = 1;
  opts.kills.push_back({2, 90'000'000});

  constexpr int kWaves = 8;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      if (w == 1) EXPECT_EQ(rt.request_join(), 4);
      tick_wave(rt, cells, 15'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_GE(stats.recoveries, 1);
}

TEST(ElasticMembership, LeaveRetiresWorkerAndItCanRejoin) {
  // request_leave() drains a worker back to the spare pool at the next
  // boundary; a later request_join() hands the same rank back. Both
  // transitions happen mid-computation with correct results.
  ClusterOptions opts = failover_opts(3);

  constexpr int kWaves = 6;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      if (w == 1) EXPECT_TRUE(rt.request_leave(2));
      if (w == 3) EXPECT_EQ(rt.request_join(), 2);
      tick_wave(rt, cells, 5'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_retired, 1);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_EQ(stats.recoveries, 0);
}

TEST(ElasticMembership, LeaveRefusesUnknownAndLastWorker) {
  ClusterOptions opts = failover_opts(1);
  opts.spare_workers = 1;
  std::vector<std::uint64_t> cells(2, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    EXPECT_FALSE(rt.request_leave(1));   // sole live worker
    EXPECT_FALSE(rt.request_leave(2));   // a spare, not live
    EXPECT_FALSE(rt.request_leave(99));  // nonsense
    tick_wave(rt, cells, 1'000'000);
    EXPECT_EQ(rt.request_join(), 2);
    tick_wave(rt, cells, 1'000'000);
    EXPECT_TRUE(rt.request_leave(1));  // now there are two
    tick_wave(rt, cells, 1'000'000);
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });
  for (const std::uint64_t c : cells) EXPECT_EQ(c, 3u);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_EQ(stats.workers_retired, 1);
}

TEST(ElasticMembership, ChurnSoakFiftyWaves) {
  // 50 waves of sustained join/leave churn — including retiring rank 1,
  // the replication shadow, which forces a full replica resync — with
  // buddy checkpoints at every boundary and zero failures injected.
  ClusterOptions opts = failover_opts(3);
  opts.spare_workers = 1;

  constexpr int kWaves = 50;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      switch (w) {
        case 5:
          EXPECT_EQ(rt.request_join(), 4);
          break;
        case 10:
          EXPECT_TRUE(rt.request_leave(1));  // the shadow retires
          break;
        case 20:
          EXPECT_EQ(rt.request_join(), 1);
          break;
        case 30:
          EXPECT_TRUE(rt.request_leave(2));
          break;
        case 40:
          EXPECT_TRUE(rt.request_leave(4));
          break;
        default:
          break;
      }
      tick_wave(rt, cells, 2'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_joined, 2);
  EXPECT_EQ(stats.workers_retired, 3);
  EXPECT_EQ(stats.recoveries, 0);
  EXPECT_EQ(stats.workers_lost, 0);
}

TEST(ElasticMembership, JoinComposesWithHeadFailover) {
  // The joined worker is part of the replicated membership table: when the
  // head later dies, the promoted head must keep scheduling on it.
  ClusterOptions opts = failover_opts(3);
  opts.spare_workers = 1;
  opts.kills.push_back({0, 200'000'000});  // the head, after the join

  constexpr int kWaves = 16;
  std::vector<std::uint64_t> cells(8, 0);
  const auto stats = core::launch(opts, [&](core::Runtime& rt) {
    for (std::uint64_t& c : cells) rt.enter_data(&c, sizeof c);
    for (int w = 0; w < kWaves; ++w) {
      if (w == 1) EXPECT_EQ(rt.request_join(), 4);
      tick_wave(rt, cells, 15'000'000);
    }
    for (std::uint64_t& c : cells) rt.exit_data(&c);
  });

  for (const std::uint64_t c : cells) EXPECT_EQ(c, kWaves);
  EXPECT_EQ(stats.workers_joined, 1);
  EXPECT_GE(stats.failovers, 1);
}

}  // namespace
}  // namespace ompc
