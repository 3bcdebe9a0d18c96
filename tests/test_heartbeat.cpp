// Heartbeat ring tests (§3.1's fault-detection mechanism): healthy rings
// stay quiet, a silenced node is flagged by its successor, recovery
// detection hooks fire exactly once, and a dead rank's ring flags nobody.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "core/heartbeat.hpp"
#include "minimpi/mpi.hpp"

namespace ompc::core {
namespace {

mpi::UniverseOptions instant(int ranks) {
  mpi::UniverseOptions o;
  o.ranks = ranks;
  return o;
}

TEST(Heartbeat, RingTopologyIndices) {
  mpi::Universe::launch(instant(4), [](mpi::RankContext& ctx) {
    HeartbeatRing ring(ctx.world().dup(), {}, nullptr);
    const int n = 4;
    EXPECT_EQ(ring.successor(), (ctx.rank() + 1) % n);
    EXPECT_EQ(ring.predecessor(), (ctx.rank() - 1 + n) % n);
    ring.stop();
  });
}

TEST(Heartbeat, HealthyRingReportsNoFailures) {
  std::atomic<int> failures{0};
  mpi::Universe::launch(instant(3), [&](mpi::RankContext& ctx) {
    HeartbeatRing::Options opts;
    opts.period_ms = 5;
    opts.timeout_ms = 60;
    HeartbeatRing ring(ctx.world().dup(), opts,
                       [&](mpi::Rank) { failures.fetch_add(1); });
    precise_sleep_ns(150'000'000);  // 150 ms of healthy pinging
    EXPECT_FALSE(ring.predecessor_failed());
    ring.stop();
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Heartbeat, SilencedNodeIsDetectedByItsSuccessor) {
  std::atomic<int> flagged_rank{-1};
  std::atomic<int> failures{0};
  mpi::Universe::launch(instant(3), [&](mpi::RankContext& ctx) {
    HeartbeatRing::Options opts;
    opts.period_ms = 5;
    opts.timeout_ms = 50;
    // pause() silences the rank without killing it — disable the
    // liveness confirmation to test the bare ring protocol.
    opts.verify_liveness = false;
    HeartbeatRing ring(ctx.world().dup(), opts, [&](mpi::Rank dead) {
      failures.fetch_add(1);
      flagged_rank.store(dead);
    });
    if (ctx.rank() == 1) {
      precise_sleep_ns(20'000'000);
      ring.pause();  // rank 1 goes silent
    }
    precise_sleep_ns(200'000'000);
    if (ctx.rank() == 2) {
      // Rank 2 monitors rank 1 and must have flagged it.
      EXPECT_TRUE(ring.predecessor_failed());
    }
    // Stop together: rank 1 sleeps 20 ms longer, and with liveness
    // verification off its ring would flag rank 0's stopped ring once the
    // silence outlasts the 4-period threshold floor.
    ctx.world().barrier();
    ring.stop();
  });
  EXPECT_EQ(failures.load(), 1);  // fired exactly once, by rank 2
  EXPECT_EQ(flagged_rank.load(), 1);
}

TEST(Heartbeat, AdaptiveThresholdTightensOnAQuietRing) {
  // A healthy, punctual ring converges its EWMA-derived miss threshold
  // well below the fixed worst-case timeout — detection speed becomes a
  // property of measured behaviour, not static configuration.
  mpi::Universe::launch(instant(2), [](mpi::RankContext& ctx) {
    HeartbeatRing::Options opts;
    opts.period_ms = 2;
    opts.timeout_ms = 200;
    HeartbeatRing ring(ctx.world().dup(), opts, nullptr);
    precise_sleep_ns(250'000'000);  // ~125 punctual pings
    const std::int64_t threshold = ring.current_threshold_ns();
    EXPECT_LT(threshold, opts.timeout_ms * 1'000'000 / 2)
        << "threshold never tightened below half the fixed timeout";
    // The auto floor (4 periods) holds: no hair-trigger detection.
    EXPECT_GE(threshold, 4 * opts.period_ms * 1'000'000);
    EXPECT_FALSE(ring.predecessor_failed());
    ring.stop();
  });
}

TEST(Heartbeat, AdaptiveRingStillDetectsARealDeath) {
  // Tight adaptive thresholds must not change the outcome that matters:
  // an actually-dead neighbour (universe-level kill, liveness confirmed)
  // is flagged, and faster than the fixed timeout would allow.
  std::atomic<int> flagged_rank{-1};
  mpi::UniverseOptions uo = instant(3);
  uo.kills.push_back({1, 60'000'000});  // rank 1 dies at 60 ms
  mpi::Universe u(uo);
  u.run([&](mpi::RankContext& ctx) {
    HeartbeatRing::Options opts;
    opts.period_ms = 5;
    opts.timeout_ms = 100;
    HeartbeatRing ring(ctx.world().dup(), opts, [&](mpi::Rank dead) {
      flagged_rank.store(dead);
    });
    precise_sleep_ns(250'000'000);
    ring.stop();
  });
  EXPECT_EQ(flagged_rank.load(), 1);
}

TEST(Heartbeat, DeadRanksRingFlagsNothing) {
  // Rank 0 dies at 20 ms, then rank 2, its ring predecessor, at 80 ms.
  // Rank 1 flags rank 0. Rank 2's only monitor is rank 0's ring, which
  // must have gone silent with its rank instead of flagging rank 2.
  std::mutex mutex;
  std::vector<std::pair<mpi::Rank, mpi::Rank>> flags;  // {monitor, dead}
  mpi::UniverseOptions uo = instant(3);
  uo.kills.push_back({0, 20'000'000});
  uo.kills.push_back({2, 80'000'000});
  mpi::Universe u(uo);
  u.run([&](mpi::RankContext& ctx) {
    HeartbeatRing::Options opts;
    opts.period_ms = 5;
    opts.timeout_ms = 60;
    const mpi::Rank me = ctx.rank();
    HeartbeatRing ring(ctx.world().dup(), opts, [&, me](mpi::Rank dead) {
      std::lock_guard<std::mutex> lock(mutex);
      flags.emplace_back(me, dead);
    });
    precise_sleep_ns(300'000'000);
    ring.stop();
  });
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0], (std::pair<mpi::Rank, mpi::Rank>{1, 0}));
}

TEST(Heartbeat, StarvedRingThreadDoesNotDeclareALivePeer) {
  // The false-alarm guard: a rank that goes SILENT (paused) while still
  // alive in the universe is NOT declared dead when liveness verification
  // is on — the miss is treated as scheduler starvation and the threshold
  // widens instead.
  std::atomic<int> failures{0};
  mpi::Universe::launch(instant(3), [&](mpi::RankContext& ctx) {
    HeartbeatRing::Options opts;
    opts.period_ms = 5;
    opts.timeout_ms = 40;
    HeartbeatRing ring(ctx.world().dup(), opts,
                       [&](mpi::Rank) { failures.fetch_add(1); });
    if (ctx.rank() == 1) {
      precise_sleep_ns(20'000'000);
      ring.pause();  // silent but alive
    }
    precise_sleep_ns(200'000'000);
    EXPECT_FALSE(ring.predecessor_failed());
    ring.stop();
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Heartbeat, SingleRankRingIsNoop) {
  mpi::Universe::launch(instant(1), [](mpi::RankContext& ctx) {
    HeartbeatRing ring(ctx.world().dup(), {}, nullptr);
    precise_sleep_ns(30'000'000);
    EXPECT_FALSE(ring.predecessor_failed());
    ring.stop();
  });
}

TEST(Heartbeat, StopDoesNotWaitOutThePeriod) {
  // stop() wakes the ring thread mid-period: every agent stop and the
  // head's shutdown would otherwise wait up to one period per ring.
  mpi::Universe::launch(instant(2), [](mpi::RankContext& ctx) {
    HeartbeatRing::Options opts;
    opts.period_ms = 2'000;
    opts.timeout_ms = 20'000;
    HeartbeatRing ring(ctx.world().dup(), opts, nullptr);
    precise_sleep_ns(20'000'000);  // the ring thread is mid-period now
    const Stopwatch stopping;
    ring.stop();
    EXPECT_LT(stopping.elapsed_ms(), 200.0);
  });
}

TEST(Heartbeat, StopIsIdempotent) {
  mpi::Universe::launch(instant(2), [](mpi::RankContext& ctx) {
    HeartbeatRing ring(ctx.world().dup(), {}, nullptr);
    ring.stop();
    ring.stop();  // second stop must be a no-op, destructor a third
  });
  SUCCEED();
}

}  // namespace
}  // namespace ompc::core
