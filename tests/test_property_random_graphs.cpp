// Property-based sweep: randomly shaped Task Bench specs (seeded, so
// reproducible) must validate on every runtime — the broadest end-to-end
// invariant in the suite: for any (pattern, steps, width, nodes, bytes),
// checksum(runner) == checksum(sequential reference).
//
// The second half is the randomized tenancy soak: N random DAG streams
// driven from N threads through the multi-tenant serve loop, with a
// randomized kill schedule (none / a worker / the head) and checkpoint
// locality (Head / Buddy) layered on top.
// The invariant is absolute: the run either completes with every tenant's
// checksum bitwise equal to its solo oracle, or fails with a clean
// RecoveryError — never wrong data, never a hang. Failures print the RNG
// seed; rerun a single case with OMPC_TEST_SEED=<seed>.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/fault.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc::taskbench {
namespace {

struct RandomCase {
  TaskBenchSpec spec;
  int nodes;
};

RandomCase make_case(std::uint64_t seed) {
  XorShift64 rng(seed);
  RandomCase c;
  c.spec.pattern =
      all_patterns()[static_cast<std::size_t>(rng.next_below(4))];
  c.spec.steps = 1 + static_cast<int>(rng.next_below(9));
  c.spec.width = 1 + static_cast<int>(rng.next_below(12));
  c.spec.iterations = 0;
  c.spec.output_bytes = 16 + rng.next_below(200);
  c.nodes = 1 + static_cast<int>(rng.next_below(5));
  return c;
}

class RandomGraphs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphs, AllRuntimesAgreeWithReference) {
  const RandomCase c = make_case(GetParam());
  const std::uint64_t expect = expected_checksum(c.spec);
  SCOPED_TRACE(std::string("pattern=") + pattern_name(c.spec.pattern) +
               " steps=" + std::to_string(c.spec.steps) +
               " width=" + std::to_string(c.spec.width) +
               " nodes=" + std::to_string(c.nodes) +
               " bytes=" + std::to_string(c.spec.output_bytes));
  for (const char* rt : {"ompc", "mpi", "starpu", "charm"}) {
    EXPECT_EQ(run_named(rt, c.spec, c.nodes, {}).checksum, expect) << rt;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphs,
                         ::testing::Range<std::uint64_t>(1, 25));

// --- randomized tenancy soak ----------------------------------------------

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

/// The soak seed: the suite's parameter, unless OMPC_TEST_SEED overrides it
/// (every instantiation then replays that one case — the reproduction knob
/// the failure message advertises).
std::uint64_t soak_seed(std::uint64_t param) {
  if (const char* env = std::getenv("OMPC_TEST_SEED"))
    return std::strtoull(env, nullptr, 10);
  return param;
}

class TenancySoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TenancySoak, RandomStreamsRandomKillsNeverYieldWrongData) {
  const std::uint64_t seed = soak_seed(GetParam());
  XorShift64 rng(seed);

  const int tenants = 2 + static_cast<int>(rng.next_below(3));  // 2..4
  std::vector<TenantStream> streams;
  for (int n = 0; n < tenants; ++n) {
    TenantStream st;
    st.spec.pattern =
        all_patterns()[static_cast<std::size_t>(rng.next_below(4))];
    st.spec.steps = 2 + static_cast<int>(rng.next_below(4));   // 2..5
    st.spec.width = 1 + static_cast<int>(rng.next_below(5));   // 1..5
    // Sleep tasks of 1..10 ms: long enough that kills land mid-wave.
    st.spec.iterations =
        (200'000 + static_cast<std::int64_t>(rng.next_below(1'800'001))) *
        kTimeScale;
    st.spec.output_bytes = 16 + rng.next_below(113);
    st.spec.mode = KernelMode::Sleep;
    st.weight = 0.5 + 0.5 * static_cast<double>(rng.next_below(4));  // 0.5..2
    streams.push_back(st);
  }

  core::ClusterOptions opts;
  opts.num_workers = 3;
  opts.heartbeat_period_ms = 5;
  opts.heartbeat_timeout_ms = 60;
  opts.checkpoint_period = 1;
  opts.max_pending_waves = 4;

  // Kill schedule: nothing, one worker, or the head — at a random instant
  // early enough to land while waves are still streaming.
  const std::uint64_t fate = rng.next_below(3);
  const std::int64_t kill_ns =
      (20 + static_cast<std::int64_t>(rng.next_below(61))) * 1'000'000 *
      kTimeScale;
  if (fate == 1) {
    opts.kills.push_back(
        {1 + static_cast<mpi::Rank>(rng.next_below(3)), kill_ns});
  } else if (fate == 2) {
    opts.kills.push_back({0, kill_ns});  // the head
  }
  // Head locality replicates every snapshot's bytes to the shadow; Buddy
  // keeps them on the workers. Drawn last, so earlier draws per seed hold.
  const bool buddy = rng.next_below(2) == 0;
  opts.checkpoint_locality =
      buddy ? core::CheckpointLocality::Buddy : core::CheckpointLocality::Head;
  SCOPED_TRACE("tenancy soak seed=" + std::to_string(seed) + " locality=" +
               (buddy ? "Buddy" : "Head") + " fate=" + std::to_string(fate) +
               " — rerun just this case with OMPC_TEST_SEED=" +
               std::to_string(seed));

  try {
    run_multi_tenant(opts, streams);
  } catch (const core::RecoveryError&) {
    // Tolerated: an unrecoverable cascade must surface cleanly. Anything
    // else (wrong checksum below, another exception type, a hang caught by
    // the ctest timeout) is a failure.
    return;
  }
  for (const TenantStream& st : streams) {
    SCOPED_TRACE(std::string("pattern=") + pattern_name(st.spec.pattern) +
                 " steps=" + std::to_string(st.spec.steps) +
                 " width=" + std::to_string(st.spec.width) +
                 " weight=" + std::to_string(st.weight));
    EXPECT_EQ(st.checksum, expected_checksum(st.spec));
    EXPECT_EQ(st.stats.completed_waves, st.spec.steps + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TenancySoak,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace ompc::taskbench
