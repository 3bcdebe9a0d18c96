// minimpi substrate tests: MPI matching semantics, wildcards, ordering,
// nonblocking ops, collectives, and the simulated network's timing and
// link-serialization behaviour.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/time.hpp"
#include "minimpi/mpi.hpp"

namespace ompc::mpi {
namespace {

UniverseOptions instant(int ranks, int comms = 1) {
  UniverseOptions o;
  o.ranks = ranks;
  o.comms = comms;
  return o;
}

TEST(MiniMpiBasic, SendRecvRoundTrip) {
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      const int v = 42;
      comm.send(&v, sizeof v, 1, 7);
    } else {
      int v = 0;
      const Status st = comm.recv(&v, sizeof v, 0, 7);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count, sizeof v);
    }
  });
}

TEST(MiniMpiBasic, SelfSendWorks) {
  Universe::launch(instant(1), [](RankContext& ctx) {
    Comm comm = ctx.world();
    const double v = 3.14;
    comm.isend(&v, sizeof v, 0, 1);
    double out = 0.0;
    comm.recv(&out, sizeof out, 0, 1);
    EXPECT_DOUBLE_EQ(out, 3.14);
  });
}

TEST(MiniMpiBasic, ZeroByteMessages) {
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      comm.send(nullptr, 0, 1, 9);
    } else {
      const Status st = comm.recv(nullptr, 0, 0, 9);
      EXPECT_EQ(st.count, 0u);
    }
  });
}

TEST(MiniMpiMatching, TagsSelectMessages) {
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      const int a = 1, b = 2;
      comm.send(&a, sizeof a, 1, 10);
      comm.send(&b, sizeof b, 1, 20);
    } else {
      int v = 0;
      comm.recv(&v, sizeof v, 0, 20);  // out of arrival order, by tag
      EXPECT_EQ(v, 2);
      comm.recv(&v, sizeof v, 0, 10);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(MiniMpiMatching, AnySourceAndAnyTagWildcards) {
  Universe::launch(instant(3), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() != 0) {
      const int v = ctx.rank() * 100;
      comm.send(&v, sizeof v, 0, ctx.rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        const Status st = comm.recv(&v, sizeof v, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        seen += st.source;
      }
      EXPECT_EQ(seen, 3);  // both ranks delivered exactly once
    }
  });
}

TEST(MiniMpiMatching, NonOvertakingSameSourceSameTag) {
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      for (int i = 0; i < 100; ++i) comm.send(&i, sizeof i, 1, 5);
    } else {
      for (int i = 0; i < 100; ++i) {
        int v = -1;
        comm.recv(&v, sizeof v, 0, 5);
        EXPECT_EQ(v, i);  // FIFO per (source, tag)
      }
    }
  });
}

TEST(MiniMpiMatching, CommunicatorContextsIsolateTraffic) {
  Universe::launch(instant(2, 2), [](RankContext& ctx) {
    Comm c0 = ctx.comm(0);
    Comm c1 = ctx.comm(1);
    if (ctx.rank() == 0) {
      const int a = 10, b = 20;
      c1.send(&b, sizeof b, 1, 3);  // same tag, different context
      c0.send(&a, sizeof a, 1, 3);
    } else {
      int v = 0;
      c0.recv(&v, sizeof v, 0, 3);
      EXPECT_EQ(v, 10);
      c1.recv(&v, sizeof v, 0, 3);
      EXPECT_EQ(v, 20);
    }
  });
}

TEST(MiniMpiMatching, DupCreatesIsolatedContext) {
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm world = ctx.world();
    Comm dup = world.dup();
    EXPECT_NE(world.context(), dup.context());
    if (ctx.rank() == 0) {
      const int v = 7;
      dup.send(&v, sizeof v, 1, 1);
    } else {
      EXPECT_FALSE(world.iprobe(0, 1).has_value() &&
                   dup.iprobe(0, 1).has_value());
      int v = 0;
      dup.recv(&v, sizeof v, 0, 1);
      EXPECT_EQ(v, 7);
    }
  });
}

TEST(MiniMpiNonblocking, IrecvBeforeSendCompletes) {
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      int v = 0;
      Request r = comm.irecv(&v, sizeof v, 0, 2);
      EXPECT_TRUE(r.valid());
      comm.send(nullptr, 0, 0, 3);  // signal: receiver is ready
      const Status st = r.wait();
      EXPECT_EQ(v, 99);
      EXPECT_EQ(st.count, sizeof v);
    } else {
      comm.recv(nullptr, 0, 1, 3);
      const int v = 99;
      comm.send(&v, sizeof v, 1, 2);
    }
  });
}

TEST(MiniMpiNonblocking, TestPollsWithoutBlocking) {
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      int v = 0;
      Request r = comm.irecv(&v, sizeof v, 0, 4);
      EXPECT_FALSE(r.test());  // nothing sent yet
      comm.send(nullptr, 0, 0, 5);
      r.wait();
      EXPECT_TRUE(r.test());
      EXPECT_EQ(v, 31);
    } else {
      comm.recv(nullptr, 0, 1, 5);
      const int v = 31;
      comm.send(&v, sizeof v, 1, 4);
    }
  });
}

TEST(MiniMpiProbe, ProbeReportsSizeWithoutConsuming) {
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      std::vector<int> vals{1, 2, 3, 4, 5};
      comm.send(vals.data(), vals.size() * sizeof(int), 1, 8);
    } else {
      const Status st = comm.probe(0, 8);
      EXPECT_EQ(st.count, 5 * sizeof(int));
      // Probe again: the message is still there.
      EXPECT_TRUE(comm.iprobe(0, 8).has_value());
      const Bytes payload = comm.recv_bytes(0, 8);
      EXPECT_EQ(payload.size(), 5 * sizeof(int));
      EXPECT_FALSE(comm.iprobe(0, 8).has_value());  // now consumed
    }
  });
}

TEST(MiniMpiCollectives, BarrierSynchronizes) {
  std::atomic<int> phase{0};
  Universe::launch(instant(4), [&](RankContext& ctx) {
    Comm comm = ctx.world();
    phase.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all 4 arrivals.
    EXPECT_EQ(phase.load(), 4);
    comm.barrier();
  });
}

TEST(MiniMpiCollectives, BcastFromEveryRoot) {
  for (int root = 0; root < 4; ++root) {
    Universe::launch(instant(4), [&](RankContext& ctx) {
      Comm comm = ctx.world();
      std::array<double, 3> buf{};
      if (ctx.rank() == root) buf = {1.5, 2.5, static_cast<double>(root)};
      comm.bcast(buf.data(), sizeof buf, root);
      EXPECT_DOUBLE_EQ(buf[0], 1.5);
      EXPECT_DOUBLE_EQ(buf[2], static_cast<double>(root));
    });
  }
}

TEST(MiniMpiCollectives, GatherCollectsPerRankBlobs) {
  Universe::launch(instant(3), [](RankContext& ctx) {
    Comm comm = ctx.world();
    // Rank r contributes r+1 bytes of value r.
    Bytes mine(static_cast<std::size_t>(ctx.rank() + 1),
               static_cast<std::byte>(ctx.rank()));
    const auto all = comm.gather_bytes(mine, 0);
    if (ctx.rank() == 0) {
      ASSERT_EQ(all.size(), 3u);
      for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r + 1));
        EXPECT_EQ(all[static_cast<std::size_t>(r)][0],
                  static_cast<std::byte>(r));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(MiniMpiCollectives, AllReduceSumMatchesOnAllRanks) {
  Universe::launch(instant(5), [](RankContext& ctx) {
    Comm comm = ctx.world();
    const std::uint64_t total =
        comm.allreduce_sum(static_cast<std::uint64_t>(ctx.rank() + 1));
    EXPECT_EQ(total, 15u);  // 1+2+3+4+5
  });
}

TEST(MiniMpiNetwork, LatencyDelaysDelivery) {
  UniverseOptions o;
  o.ranks = 2;
  o.network.latency_ns = 5'000'000;  // 5 ms
  Universe::launch(o, [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      comm.recv(nullptr, 0, 1, 1);  // handshake: both sides ready
      const Stopwatch timer;
      const int v = 1;
      comm.send(&v, sizeof v, 1, 2);
      int r = 0;
      comm.recv(&r, sizeof r, 1, 3);
      // Round trip >= 2x latency.
      EXPECT_GE(timer.elapsed_ms(), 9.0);
    } else {
      comm.send(nullptr, 0, 0, 1);
      int v = 0;
      comm.recv(&v, sizeof v, 0, 2);
      comm.send(&v, sizeof v, 0, 3);
    }
  });
}

TEST(MiniMpiNetwork, BandwidthScalesWithSize) {
  UniverseOptions o;
  o.ranks = 2;
  o.network.bandwidth_Bps = 10.0e6;  // 10 MB/s
  Universe::launch(o, [](RankContext& ctx) {
    Comm comm = ctx.world();
    const std::size_t big = 100'000;  // 10 ms on the wire
    if (ctx.rank() == 0) {
      comm.recv(nullptr, 0, 1, 1);
      Bytes payload(big);
      const Stopwatch timer;
      comm.isend(payload.data(), big, 1, 2);
      comm.recv(nullptr, 0, 1, 3);
      EXPECT_GE(timer.elapsed_ms(), 9.0);
      EXPECT_LE(timer.elapsed_ms(), 200.0);
    } else {
      comm.send(nullptr, 0, 0, 1);
      Bytes sink(big);
      comm.recv(sink.data(), big, 0, 2);
      comm.send(nullptr, 0, 0, 3);
    }
  });
}

TEST(MiniMpiNetwork, SameLinkSerializesDifferentLinksDoNot) {
  UniverseOptions o;
  o.ranks = 3;
  o.network.bandwidth_Bps = 10.0e6;  // 10 MB/s => 10 ms per 100 KB
  o.network.channels = 1;
  Universe::launch(o, [](RankContext& ctx) {
    Comm comm = ctx.world();
    const std::size_t big = 100'000;
    if (ctx.rank() == 0) {
      // Handshake, then two messages down the SAME link back to back.
      comm.recv(nullptr, 0, 1, 1);
      Bytes payload(big);
      comm.isend(payload.data(), big, 1, 2);
      comm.isend(payload.data(), big, 1, 3);
    } else if (ctx.rank() == 1) {
      comm.send(nullptr, 0, 0, 1);
      Bytes sink(big);
      const Stopwatch timer;
      comm.recv(sink.data(), big, 0, 2);
      comm.recv(sink.data(), big, 0, 3);
      // Serialized: ~20 ms total, not ~10.
      EXPECT_GE(timer.elapsed_ms(), 18.0);
    }
  });
}

TEST(MiniMpiNetwork, SelfSendBypassesTheWire) {
  UniverseOptions o;
  o.ranks = 2;
  o.network.latency_ns = 50'000'000;  // 50 ms: wire traffic is slow
  Universe::launch(o, [](RankContext& ctx) {
    if (ctx.rank() != 0) return;
    Comm comm = ctx.world();
    const Stopwatch timer;
    const int v = 5;
    comm.isend(&v, sizeof v, 0, 1);
    int r = 0;
    comm.recv(&r, sizeof r, 0, 1);
    EXPECT_EQ(r, 5);
    EXPECT_LT(timer.elapsed_ms(), 10.0);  // local queue, not the NIC
  });
}

TEST(MiniMpiStress, ManyConcurrentPairsAllDeliver) {
  const int ranks = 8;
  const int msgs = 200;
  std::atomic<std::int64_t> received{0};
  Universe::launch(instant(ranks), [&](RankContext& ctx) {
    Comm comm = ctx.world();
    const int me = ctx.rank();
    const int peer = me ^ 1;  // pairs (0,1) (2,3) ...
    std::vector<Request> sends;
    for (int i = 0; i < msgs; ++i) {
      const std::uint64_t v =
          (static_cast<std::uint64_t>(me) << 32) | static_cast<unsigned>(i);
      sends.push_back(comm.isend(&v, sizeof v, peer, i));
    }
    for (int i = 0; i < msgs; ++i) {
      std::uint64_t v = 0;
      comm.recv(&v, sizeof v, peer, i);
      EXPECT_EQ(v >> 32, static_cast<std::uint64_t>(peer));
      EXPECT_EQ(v & 0xffffffffu, static_cast<unsigned>(i));
      received.fetch_add(1);
    }
    wait_all(sends);
  });
  EXPECT_EQ(received.load(), ranks * msgs);
}

TEST(MiniMpiStress, MultiThreadedRank) {
  // MPI_THREAD_MULTIPLE semantics: several threads of one rank send and
  // receive concurrently on distinct tags.
  Universe::launch(instant(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    constexpr int kThreads = 4;
    constexpr int kMsgs = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const int base = 1000 * (t + 1);
        if (ctx.rank() == 0) {
          for (int i = 0; i < kMsgs; ++i) {
            const int v = base + i;
            comm.send(&v, sizeof v, 1, base + i);
          }
        } else {
          for (int i = 0; i < kMsgs; ++i) {
            int v = 0;
            comm.recv(&v, sizeof v, 0, base + i);
            EXPECT_EQ(v, base + i);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  });
}

TEST(MiniMpiErrors, RankExceptionPropagates) {
  EXPECT_THROW(Universe::launch(instant(1),
                                [](RankContext&) {
                                  throw std::runtime_error("rank failed");
                                }),
               std::runtime_error);
}

TEST(MiniMpiErrors, RankErrorAbortsPeersBlockedOnIt) {
  // Rank 2 fails while every other rank waits for a message that only it
  // could have sent: the error must kill the waiters (MPI_Abort), and
  // launch() must rethrow that error, not a peer's consequent kill.
  try {
    Universe::launch(instant(4), [](RankContext& ctx) {
      if (ctx.rank() == 2) throw std::runtime_error("rank 2 failed");
      int v = 0;
      ctx.world().recv(&v, sizeof v, kAnySource, 3);
    });
    FAIL() << "launch() returned although rank 2 threw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2 failed");
  }
}

TEST(MiniMpiErrors, UserTagRangeEnforced) {
  Universe::launch(instant(1), [](RankContext& ctx) {
    Comm comm = ctx.world();
    const int v = 1;
    EXPECT_THROW(comm.send(&v, sizeof v, 0, kCollectiveTagBase), CheckError);
    EXPECT_THROW(comm.send(&v, sizeof v, 0, -3), CheckError);
  });
}

TEST(MiniMpiErrors, TruncationIsFatal) {
  Universe::launch(instant(1), [](RankContext& ctx) {
    Comm comm = ctx.world();
    const std::uint64_t v = 1;
    comm.isend(&v, sizeof v, 0, 1);
    std::uint32_t small = 0;
    EXPECT_THROW(comm.recv(&small, sizeof small, 0, 1), CheckError);
  });
}

// --- conduit-parameterized transport behaviour ---------------------------
//
// The same protocol-level guarantees must hold on every transport: these
// run the core matching/collective/probe paths on both the in-process
// conduit and the shared-memory ring conduit. (When OMPC_CONDUIT forces a
// specific conduit process-wide, the mismatched parameterization skips —
// the forced conduit is already covered by its own instantiation.)

class MiniMpiConduit : public ::testing::TestWithParam<ConduitKind> {
 protected:
  void SetUp() override {
    if (resolve_conduit_kind(GetParam()) != GetParam())
      GTEST_SKIP() << "OMPC_CONDUIT overrides this parameterization";
  }

  UniverseOptions opts(int ranks, int comms = 1) const {
    UniverseOptions o = instant(ranks, comms);
    o.conduit = GetParam();
    return o;
  }
};

TEST_P(MiniMpiConduit, PointToPointWithWildcards) {
  Universe::launch(opts(3), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() != 0) {
      const int v = ctx.rank() * 11;
      comm.send(&v, sizeof v, 0, ctx.rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        const Status st = comm.recv(&v, sizeof v, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 11);
        seen += st.source;
      }
      EXPECT_EQ(seen, 3);
    }
  });
}

TEST_P(MiniMpiConduit, NonOvertakingPerSourceTag) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      for (int i = 0; i < 200; ++i) comm.send(&i, sizeof i, 1, 5);
    } else {
      for (int i = 0; i < 200; ++i) {
        int v = -1;
        comm.recv(&v, sizeof v, 0, 5);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST_P(MiniMpiConduit, CollectivesAgree) {
  Universe::launch(opts(4), [](RankContext& ctx) {
    Comm comm = ctx.world();
    comm.barrier();
    std::uint64_t v = ctx.rank() == 2 ? 77u : 0u;
    comm.bcast(&v, sizeof v, 2);
    EXPECT_EQ(v, 77u);
    const std::uint64_t total =
        comm.allreduce_sum(static_cast<std::uint64_t>(ctx.rank() + 1));
    EXPECT_EQ(total, 10u);
  });
}

TEST_P(MiniMpiConduit, ProbeAndCancel) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 0) {
      std::vector<int> vals{9, 8, 7};
      comm.send(vals.data(), vals.size() * sizeof(int), 1, 6);
    } else {
      const Status st = comm.probe(0, 6);
      EXPECT_EQ(st.count, 3 * sizeof(int));
      const Bytes payload = comm.recv_bytes(0, 6);
      EXPECT_EQ(payload.size(), 3 * sizeof(int));
      // A posted receive that never matches can be cancelled cleanly.
      int v = 0;
      Request r = comm.irecv(&v, sizeof v, 0, 999);
      comm.cancel(r);
    }
  });
}

TEST_P(MiniMpiConduit, LargePayloadsSurviveChunking) {
  // 1 MiB payloads: far beyond the shm ring capacity (64 KiB), so the shm
  // conduit must chunk the record through the ring without corruption.
  Universe::launch(opts(2), [](RankContext& ctx) {
    Comm comm = ctx.world();
    const std::size_t big = 1 << 20;
    if (ctx.rank() == 0) {
      Bytes payload(big);
      for (std::size_t i = 0; i < big; ++i)
        payload[i] = static_cast<std::byte>(i * 31 + 7);
      comm.send(payload.data(), big, 1, 12);
    } else {
      Bytes sink(big);
      const Status st = comm.recv(sink.data(), big, 0, 12);
      EXPECT_EQ(st.count, big);
      std::size_t bad = 0;
      for (std::size_t i = 0; i < big; ++i)
        if (sink[i] != static_cast<std::byte>(i * 31 + 7)) ++bad;
      EXPECT_EQ(bad, 0u);
    }
  });
}

TEST_P(MiniMpiConduit, ConduitNameMatchesSelection) {
  Universe u(opts(1));
  EXPECT_EQ(u.conduit_kind(), GetParam());
  EXPECT_STREQ(u.conduit_name(), to_string(GetParam()));
}

// --- completion hooks ----------------------------------------------------
//
// Hooks fire on the delivering thread, after waiters were released, so the
// counts are checked once Universe::launch has joined every thread.

TEST_P(MiniMpiConduit, CompletionHookFiresOnceOnComplete) {
  std::atomic<int> fired{0};
  Universe::launch(opts(2), [&](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      int v = 0;
      Request r = comm.irecv(&v, sizeof v, 0, 3);
      r.state()->on_complete([&] { fired.fetch_add(1); });
      comm.send(nullptr, 0, 0, 4);  // hook registered: send the payload
      r.wait();
      EXPECT_EQ(v, 5);
    } else {
      comm.recv(nullptr, 0, 1, 4);
      const int v = 5;
      comm.send(&v, sizeof v, 1, 3);
    }
  });
  EXPECT_EQ(fired.load(), 1);
}

TEST_P(MiniMpiConduit, CompletionHookFiresOnceOnKill) {
  std::atomic<int> fired{0};
  Universe::launch(opts(2), [&](RankContext& ctx) {
    if (ctx.rank() != 1) return;
    int v = 0;
    Request r = ctx.world().irecv(&v, sizeof v, 0, 3);  // never sent
    r.state()->on_complete([&] { fired.fetch_add(1); });
    ctx.universe().kill_rank(1, 0);
    EXPECT_THROW(r.wait(), RankKilledError);
  });
  EXPECT_EQ(fired.load(), 1);
}

TEST_P(MiniMpiConduit, CompletionHookRunsInlineWhenAlreadyDone) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    if (ctx.rank() != 0) return;
    Request r = ctx.world().isend(nullptr, 0, 1, 3);  // eager: done at once
    int fired = 0;
    std::thread::id ran_on;
    r.state()->on_complete([&] {
      ++fired;
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
  });
}

TEST_P(MiniMpiConduit, CompletionHookNeverFiresAfterCancel) {
  std::atomic<int> fired{0};
  Universe::launch(opts(2), [&](RankContext& ctx) {
    Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      int v = 0;
      Request r = comm.irecv(&v, sizeof v, 0, 3);
      r.state()->on_complete([&] { fired.fetch_add(1); });
      comm.cancel(r);
      comm.send(nullptr, 0, 0, 4);  // cancelled: now send the payload
      comm.recv(nullptr, 0, 0, 5);  // it has landed (unexpected queue)
      EXPECT_EQ(v, 0);
    } else {
      comm.recv(nullptr, 0, 1, 4);
      const int v = 5;
      comm.send(&v, sizeof v, 1, 3);
      comm.send(nullptr, 0, 1, 5);  // same link, so it lands after tag 3
    }
  });
  EXPECT_EQ(fired.load(), 0);
}

TEST_P(MiniMpiConduit, CompletionHookFiresOnceWhenCompleteRacesKill) {
  Universe::launch(opts(2), [](RankContext& ctx) {
    if (ctx.rank() != 1) return;
    Comm comm = ctx.world();
    for (int round = 0; round < 200; ++round) {
      int v = 0;
      Request r = comm.irecv(&v, sizeof v, 0, 3);
      comm.cancel(r);  // unposted: only the two racers below finish it
      std::atomic<int> fired{0};
      r.state()->on_complete([&] { fired.fetch_add(1); });
      const auto state = r.state();
      std::thread completer([&] { state->complete(Status{0, 3, 0}); });
      std::thread killer([&] { state->kill(0); });
      completer.join();
      killer.join();
      EXPECT_EQ(fired.load(), 1) << "round " << round;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Conduits, MiniMpiConduit,
                         ::testing::Values(ConduitKind::InProcess,
                                           ConduitKind::Shm),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(MiniMpiConduitEnv, UnknownConduitNameIsRejected) {
  // Validated at Universe construction with a clear error (satellite of
  // the conduit redesign): a typo'd OMPC_CONDUIT must not silently fall
  // back to the default transport.
  EXPECT_THROW(parse_conduit_name("gasnet"), ConduitError);
  EXPECT_EQ(parse_conduit_name("shm"), ConduitKind::Shm);
  EXPECT_EQ(parse_conduit_name("pshm"), ConduitKind::Shm);
  EXPECT_EQ(parse_conduit_name("inprocess"), ConduitKind::InProcess);
}

class MiniMpiRankCount : public ::testing::TestWithParam<int> {};

TEST_P(MiniMpiRankCount, RingPassesTokenThroughAllRanks) {
  const int n = GetParam();
  Universe::launch(instant(n), [&](RankContext& ctx) {
    Comm comm = ctx.world();
    const int me = ctx.rank();
    if (n == 1) return;
    if (me == 0) {
      int token = 1;
      comm.send(&token, sizeof token, 1, 0);
      comm.recv(&token, sizeof token, n - 1, 0);
      EXPECT_EQ(token, n);  // incremented once per hop
    } else {
      int token = 0;
      comm.recv(&token, sizeof token, me - 1, 0);
      ++token;
      comm.send(&token, sizeof token, (me + 1) % n, 0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Rings, MiniMpiRankCount,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33));

}  // namespace
}  // namespace ompc::mpi
