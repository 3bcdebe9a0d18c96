// ChannelPlan acceptance on the 3D halo-exchange workload (src/halo): a
// steady-state iterative app must arm the plan and re-use its device
// allocations, produce results bitwise-identical to the serial oracle, and
// survive every event that invalidates the plan — worker death + rollback,
// head failover, and runtime join/leave — without diverging.
// The _shm ctest rerun runs the same suite over the shared-memory conduit.
#include <gtest/gtest.h>

#include <cstdint>

#include "halo/halo3d.hpp"

namespace ompc::halo {
namespace {

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

constexpr std::int64_t at_ms(std::int64_t ms) {
  return ms * 1'000'000 * kTimeScale;
}

HaloSpec small_spec(int iters) {
  HaloSpec s;
  s.nx = 2;
  s.ny = 2;
  s.nz = 1;
  s.cells = 6;
  s.iters = iters;
  return s;
}

core::ClusterOptions base_opts() {
  core::ClusterOptions o;
  o.num_workers = 3;
  return o;
}

core::ClusterOptions fault_opts() {
  core::ClusterOptions o = base_opts();
  o.heartbeat_period_ms = 5;
  o.heartbeat_timeout_ms = 60;
  o.checkpoint_period = 1;
  o.checkpoint_locality = core::CheckpointLocality::Buddy;
  return o;
}

TEST(Halo3D, SteadyStateArmsChannelsAndMatchesSerial) {
  const HaloSpec spec = small_spec(6);
  const HaloResult r = run_halo3d(base_opts(), spec);
  EXPECT_EQ(r.checksum, serial_checksum(spec));
  // Identical waves: everything past the warmup runs armed and re-uses
  // the previous iteration's device allocations.
  EXPECT_GT(r.stats.schedule_cache_hits, 0);
  EXPECT_GT(r.stats.channels_armed, 0);
  EXPECT_GT(r.stats.persistent_reuses, 0);
}

TEST(Halo3D, WorkerDeathRollbackInvalidatesArmedChannels) {
  // A worker dies while the plan is armed: rollback disarms, recovery
  // replays, steady state re-arms — result bitwise-identical.
  const HaloSpec spec = small_spec(15);
  core::ClusterOptions opts = fault_opts();
  opts.kills.push_back({2, at_ms(25)});
  const HaloResult r = run_halo3d(opts, spec);
  EXPECT_EQ(r.checksum, serial_checksum(spec));
  EXPECT_GE(r.stats.recoveries, 1);
  EXPECT_GT(r.stats.channels_armed, 0);
}

TEST(Halo3D, HeadFailoverWithChannelsArmedStaysBitwise) {
  // The head dies mid-run: the promoted head starts with no armed plan, and
  // workers match its events' data on its own rank, so the dead head's
  // orphaned payloads can never match.
  const HaloSpec spec = small_spec(15);
  core::ClusterOptions opts = fault_opts();
  opts.kills.push_back({0, at_ms(25)});
  const HaloResult r = run_halo3d(opts, spec);
  EXPECT_EQ(r.checksum, serial_checksum(spec));
  EXPECT_GE(r.stats.failovers, 1);
}

TEST(Halo3D, JoinAndLeaveInvalidateWhileIterating) {
  // Membership churn mid-run: a spare joins (the schedule re-spreads, the
  // plan disarms and re-arms around the new shape), then a worker leaves.
  const HaloSpec spec = small_spec(12);
  core::ClusterOptions opts = fault_opts();
  opts.spare_workers = 1;
  const HaloResult r = run_halo3d(
      opts, spec, [](core::Runtime& rt, int it) {
        if (it == 4) EXPECT_EQ(rt.request_join(), 4);
        if (it == 8) EXPECT_TRUE(rt.request_leave(2));
      });
  EXPECT_EQ(r.checksum, serial_checksum(spec));
  EXPECT_EQ(r.stats.workers_joined, 1);
  EXPECT_EQ(r.stats.workers_retired, 1);
  EXPECT_GT(r.stats.channels_armed, 0);
}

}  // namespace
}  // namespace ompc::halo
