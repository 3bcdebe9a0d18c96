// One-sided (RMA) window tests: put/get landing semantics, flush ordering,
// registration validation (duplicates, overlap), unknown-window behaviour,
// and fault injection against pending one-sided operations — on both
// transport conduits.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include "minimpi/mpi.hpp"

namespace ompc::mpi {
namespace {

class WindowConduit : public ::testing::TestWithParam<ConduitKind> {
 protected:
  void SetUp() override {
    if (resolve_conduit_kind(GetParam()) != GetParam())
      GTEST_SKIP() << "OMPC_CONDUIT overrides this parameterization";
  }

  UniverseOptions opts(int ranks) const {
    UniverseOptions o;
    o.ranks = ranks;
    o.conduit = GetParam();
    return o;
  }
};

TEST_P(WindowConduit, PutLandsBytesInTargetWindow) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      std::array<int, 8> region{};
      Window win = comm.win_create(42, region.data(), sizeof region);
      comm.send(nullptr, 0, 0, 1);  // window is up
      comm.recv(nullptr, 0, 0, 2);  // put has been flushed
      for (int i = 0; i < 8; ++i) EXPECT_EQ(region[static_cast<std::size_t>(i)], i * 3);
    } else {
      comm.recv(nullptr, 0, 1, 1);
      std::array<int, 8> vals{};
      for (int i = 0; i < 8; ++i) vals[static_cast<std::size_t>(i)] = i * 3;
      comm.put(1, 42, 0, Payload::copy_of(vals.data(), sizeof vals)).wait();
      comm.send(nullptr, 0, 1, 2);
    }
  });
}

TEST_P(WindowConduit, PutAtOffsetWritesOnlyThatRange) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      std::array<std::byte, 16> region;
      region.fill(std::byte{0xAA});
      Window win = comm.win_create(7, region.data(), region.size());
      comm.send(nullptr, 0, 0, 1);
      comm.recv(nullptr, 0, 0, 2);
      for (std::size_t i = 0; i < 16; ++i) {
        const std::byte want = (i >= 4 && i < 8) ? std::byte{0x55}
                                                 : std::byte{0xAA};
        EXPECT_EQ(region[i], want) << "byte " << i;
      }
    } else {
      comm.recv(nullptr, 0, 1, 1);
      std::array<std::byte, 4> patch;
      patch.fill(std::byte{0x55});
      comm.put(1, 7, 4, Payload::copy_of(patch.data(), patch.size())).wait();
      comm.send(nullptr, 0, 1, 2);
    }
  });
}

TEST_P(WindowConduit, GetRoundTripReadsRemoteWindow) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      std::array<double, 4> region{1.0, 2.0, 4.0, 8.0};
      Window win = comm.win_create(3, region.data(), sizeof region);
      comm.send(nullptr, 0, 0, 1);
      comm.recv(nullptr, 0, 0, 2);  // reader is done
    } else {
      comm.recv(nullptr, 0, 1, 1);
      std::array<double, 4> out{};
      const Status st =
          comm.get(1, 3, 0, out.data(), sizeof out).wait();
      EXPECT_EQ(st.count, sizeof out);
      EXPECT_DOUBLE_EQ(out[0], 1.0);
      EXPECT_DOUBLE_EQ(out[3], 8.0);
      comm.send(nullptr, 0, 1, 2);
    }
  });
}

TEST_P(WindowConduit, FlushOrdersPutsBeforeSubsequentGet) {
  // On a network with real latency: issue several puts, flush (which must
  // wait for every landing ack), then get the region back — the get must
  // observe all the flushed bytes.
  UniverseOptions o = opts(2);
  o.network.latency_ns = 2'000'000;  // 2 ms
  Universe::launch(o, [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      std::array<int, 4> region{};
      Window win = comm.win_create(9, region.data(), sizeof region);
      comm.send(nullptr, 0, 0, 1);
      comm.recv(nullptr, 0, 0, 2);
    } else {
      comm.recv(nullptr, 0, 1, 1);
      for (int i = 0; i < 4; ++i) {
        const int v = 100 + i;
        comm.put(1, 9, static_cast<std::uint64_t>(i) * sizeof(int),
                 Payload::copy_of(&v, sizeof v));
      }
      comm.flush(1);  // all four landings acked
      std::array<int, 4> out{};
      comm.get(1, 9, 0, out.data(), sizeof out).wait();
      for (int i = 0; i < 4; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], 100 + i);
      comm.send(nullptr, 0, 1, 2);
    }
  });
}

TEST_P(WindowConduit, DuplicateAndOverlappingWindowsRejected) {
  Universe::launch(opts(1), [](RankContext& ctx) {
    Comm comm = ctx.world();
    std::array<std::byte, 64> region{};
    Window a = comm.win_create(1, region.data(), 32);
    // Same id again: rejected.
    EXPECT_THROW(comm.win_create(1, region.data() + 32, 32), WindowError);
    // Different id, overlapping bytes: rejected.
    EXPECT_THROW(comm.win_create(2, region.data() + 16, 32), WindowError);
    // Disjoint region under a fresh id: fine.
    Window b = comm.win_create(3, region.data() + 32, 32);
    // Releasing frees the region for re-registration.
    a.release();
    Window c = comm.win_create(4, region.data(), 32);
  });
}

TEST_P(WindowConduit, PutToUnknownWindowIsDroppedButAcked) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      const int v = 13;
      // No such window on rank 1: the bytes are dropped at delivery, but
      // the operation still completes (like a payload for a cancelled
      // receive) — it must not hang the origin.
      const Status st =
          comm.put(1, 777, 0, Payload::copy_of(&v, sizeof v)).wait();
      EXPECT_EQ(st.source, 1);
    }
    comm.barrier();
  });
}

TEST_P(WindowConduit, GetFromUnknownWindowReadsShort) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      std::uint64_t sentinel = 0xDEADBEEF;
      const Status st = comm.get(1, 777, 0, &sentinel, sizeof sentinel).wait();
      EXPECT_EQ(st.count, 0u);                 // short read: nothing exposed
      EXPECT_EQ(sentinel, 0xDEADBEEF);         // buffer untouched
    }
    comm.barrier();
  });
}

TEST_P(WindowConduit, SelfPutIsLocalAndImmediate) {
  Universe::launch(opts(1), [](RankContext& ctx) {
    Comm comm = ctx.world();
    std::array<int, 2> region{};
    Window win = comm.win_create(5, region.data(), sizeof region);
    const std::array<int, 2> vals{21, 34};
    comm.put(0, 5, 0, Payload::copy_of(vals.data(), sizeof vals)).wait();
    EXPECT_EQ(region[0], 21);
    EXPECT_EQ(region[1], 34);
  });
}

TEST_P(WindowConduit, KilledRankFailsItsPendingPuts) {
  // A put toward a corpse must complete exceptionally, not hang; and the
  // target's memory keeps its previous generation — the killed origin's
  // bytes never land.
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      ctx.universe().kill_rank(1, 0);
      while (!ctx.universe().is_dead(1))
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      const int v = 1;
      try {
        comm.put(1, 11, 0, Payload::copy_of(&v, sizeof v)).wait();
        FAIL() << "put toward a dead rank must not complete";
      } catch (const RankKilledError& e) {
        EXPECT_EQ(e.rank(), 1);
      }
    }
    // Rank 1's thread unwinds via its poisoned mailbox.
  });
}

TEST_P(WindowConduit, OriginDeathLeavesTargetGenerationIntact) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      std::array<int, 4> region{7, 7, 7, 7};  // the committed generation
      Window win = comm.win_create(6, region.data(), sizeof region);
      ctx.universe().kill_rank(0, 0);
      while (!ctx.universe().is_dead(0))
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      // Give a (dropped) posthumous put every chance to arrive, then check
      // nothing overwrote the committed bytes.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      for (int i = 0; i < 4; ++i) EXPECT_EQ(region[static_cast<std::size_t>(i)], 7);
    } else {
      // Rank 0 tries to put after its own death: the post is dropped and
      // the operation fails locally.
      while (!ctx.universe().is_dead(0))
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      const std::array<int, 4> vals{9, 9, 9, 9};
      EXPECT_THROW(
          comm.put(1, 6, 0, Payload::copy_of(vals.data(), sizeof vals)).wait(),
          RankKilledError);
    }
  });
}

TEST_P(WindowConduit, WindowCountTracksRegistrations) {
  Universe::launch(opts(1), [](RankContext& ctx) {
    Comm comm = ctx.world();
    auto& reg = ctx.universe().windows();
    EXPECT_EQ(reg.count(0), 0u);
    std::array<std::byte, 8> a{}, b{};
    {
      Window wa = comm.win_create(1, a.data(), a.size());
      Window wb = comm.win_create(2, b.data(), b.size());
      EXPECT_EQ(reg.count(0), 2u);
    }
    EXPECT_EQ(reg.count(0), 0u);  // RAII released both
  });
}

INSTANTIATE_TEST_SUITE_P(Conduits, WindowConduit,
                         ::testing::Values(ConduitKind::InProcess,
                                           ConduitKind::Shm),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace ompc::mpi
