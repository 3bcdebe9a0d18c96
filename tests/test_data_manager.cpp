// Data Manager tests against §4.3's rules: placement, forwarding source
// selection, read-only replication, write invalidation, exit retrieval and
// cluster-wide cleanup — observed through snapshots and worker memory.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/data_manager.hpp"

namespace ompc::core {
namespace {

struct Cluster {
  explicit Cluster(int workers, Forwarding fw = Forwarding::Direct) {
    opts.num_workers = workers;
    opts.network = {};
    opts.forwarding = fw;
  }

  void run(const std::function<void(DataManager&, EventSystem&)>& body) {
    mpi::UniverseOptions uopts;
    uopts.ranks = opts.ranks();
    uopts.comms = 1 + opts.vci;
    mpi::Universe universe(uopts);
    universe.run([&](mpi::RankContext& ctx) {
      if (ctx.rank() == 0) {
        EventSystem events(ctx, opts, nullptr, nullptr);
        DataManager dm(events, opts);
        body(dm, events);
        dm.cleanup_all();
        events.shutdown_cluster();
      } else {
        WorkerMemory memory(&ctx.universe(), ctx.rank());
        omp::TaskRuntime pool(1);
        EventSystem events(ctx, opts, &memory, &pool);
        events.wait_until_stopped();
        EXPECT_EQ(memory.live(), 0u) << "rank " << ctx.rank() << " leaked";
      }
    });
  }

  ClusterOptions opts;
};

TEST(DataManager, RegisterAndSizeLookup) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    double buf[4] = {};
    dm.register_buffer(buf, sizeof buf);
    EXPECT_TRUE(dm.is_registered(buf));
    EXPECT_EQ(dm.buffer_size(buf), sizeof buf);
    EXPECT_FALSE(dm.is_registered(buf + 1));
    EXPECT_EQ(dm.num_buffers(), 1u);
  });
}

TEST(DataManager, DoubleRegisterFails) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    int x = 0;
    dm.register_buffer(&x, sizeof x);
    EXPECT_THROW(dm.register_buffer(&x, sizeof x), CheckError);
  });
}

TEST(DataManager, EnterPlacesBufferOnWorker) {
  Cluster c(2);
  c.run([](DataManager& dm, EventSystem&) {
    int buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    dm.register_buffer(buf, sizeof buf);
    dm.enter_to_worker(1, buf, /*copy=*/true);
    const auto s = dm.snapshot(buf);
    EXPECT_TRUE(s.valid_on_head);  // head copy stays fresh after enter
    EXPECT_TRUE(s.valid_workers.contains(1));
    EXPECT_FALSE(s.valid_workers.contains(2));
    EXPECT_TRUE(s.allocated_workers.contains(1));
  });
}

TEST(DataManager, AllocOnlyEnterAllocatesWithoutValidating) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    int buf[4] = {};
    dm.register_buffer(buf, sizeof buf);
    dm.enter_to_worker(1, buf, /*copy=*/false);
    const auto s = dm.snapshot(buf);
    EXPECT_TRUE(s.allocated_workers.contains(1));
    EXPECT_TRUE(s.valid_workers.empty());
  });
}

TEST(DataManager, PrepareArgsSubmitsFromHeadOnFirstUse) {
  Cluster c(2);
  c.run([](DataManager& dm, EventSystem&) {
    std::uint64_t buf = 0xABCD;
    dm.register_buffer(&buf, sizeof buf);
    const void* args[] = {&buf};
    const auto addrs = dm.prepare_args(2, args);
    ASSERT_EQ(addrs.size(), 1u);
    EXPECT_NE(addrs[0], 0u);
    EXPECT_EQ(dm.stats().submits.load(), 1);
    EXPECT_TRUE(dm.snapshot(&buf).valid_workers.contains(2));
  });
}

TEST(DataManager, ReadOnlyUseReplicatesAcrossWorkers) {
  Cluster c(3);
  c.run([](DataManager& dm, EventSystem&) {
    int buf[16] = {};
    dm.register_buffer(buf, sizeof buf);
    const void* args[] = {buf};
    dm.prepare_args(1, args);
    dm.prepare_args(2, args);
    dm.prepare_args(3, args);
    const auto s = dm.snapshot(buf);
    // §4.3: read-only data kept in all previous locations.
    EXPECT_EQ(s.valid_workers.size(), 3u);
  });
}

TEST(DataManager, SecondUseOnSameWorkerIsFree) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    int buf[4] = {};
    dm.register_buffer(buf, sizeof buf);
    const void* args[] = {buf};
    dm.prepare_args(1, args);
    const auto submits = dm.stats().submits.load();
    const auto allocs = dm.stats().allocs.load();
    dm.prepare_args(1, args);  // already valid: no transfer, no alloc
    EXPECT_EQ(dm.stats().submits.load(), submits);
    EXPECT_EQ(dm.stats().allocs.load(), allocs);
  });
}

TEST(DataManager, WriteInvalidatesOtherReplicas) {
  Cluster c(3);
  c.run([](DataManager& dm, EventSystem&) {
    int buf[16] = {};
    dm.register_buffer(buf, sizeof buf);
    const void* args[] = {buf};
    dm.prepare_args(1, args);
    dm.prepare_args(2, args);
    dm.prepare_args(3, args);

    dm.after_write(2, {omp::inout(buf)});
    const auto s = dm.snapshot(buf);
    // §4.3: writer keeps the only copy; stale replicas removed.
    EXPECT_EQ(s.valid_workers, std::set<mpi::Rank>{2});
    EXPECT_EQ(s.allocated_workers, std::set<mpi::Rank>{2});
    EXPECT_FALSE(s.valid_on_head);
    EXPECT_EQ(dm.stats().deletes.load(), 2);
  });
}

TEST(DataManager, ReadDependenceDoesNotInvalidate) {
  Cluster c(2);
  c.run([](DataManager& dm, EventSystem&) {
    int buf[4] = {};
    dm.register_buffer(buf, sizeof buf);
    const void* args[] = {buf};
    dm.prepare_args(1, args);
    dm.prepare_args(2, args);
    dm.after_write(2, {omp::in(buf)});  // in-dep: not a write
    EXPECT_EQ(dm.snapshot(buf).valid_workers.size(), 2u);
  });
}

TEST(DataManager, ForwardingUsesWorkerToWorkerExchange) {
  Cluster c(2);
  c.run([](DataManager& dm, EventSystem&) {
    std::uint64_t buf = 42;
    dm.register_buffer(&buf, sizeof buf);
    const void* args[] = {&buf};
    dm.prepare_args(1, args);
    dm.after_write(1, {omp::inout(&buf)});  // worker 1 owns the only copy

    dm.prepare_args(2, args);  // must forward 1 -> 2 directly
    EXPECT_EQ(dm.stats().exchanges.load(), 1);
    EXPECT_EQ(dm.stats().retrieves.load(), 0);  // head never staged it
    EXPECT_TRUE(dm.snapshot(&buf).valid_workers.contains(2));
  });
}

TEST(DataManager, ViaHeadForwardingStagesThroughHost) {
  Cluster c(2, Forwarding::ViaHead);
  c.run([](DataManager& dm, EventSystem&) {
    std::uint64_t buf = 42;
    dm.register_buffer(&buf, sizeof buf);
    const void* args[] = {&buf};
    dm.prepare_args(1, args);
    dm.after_write(1, {omp::inout(&buf)});
    dm.prepare_args(2, args);
    EXPECT_EQ(dm.stats().exchanges.load(), 0);
    EXPECT_EQ(dm.stats().retrieves.load(), 1);  // bounced via the head
    EXPECT_GE(dm.stats().submits.load(), 2);
  });
}

TEST(DataManager, ExitRetrievesFreshestCopyAndRemovesAll) {
  Cluster c(2);
  c.run([](DataManager& dm, EventSystem& es) {
    std::uint64_t buf = 7;
    dm.register_buffer(&buf, sizeof buf);
    const void* args[] = {&buf};
    const auto addrs = dm.prepare_args(1, args);

    // Worker 1 mutates its device copy; the head copy is now stale.
    const std::uint64_t updated = 1234;
    ArchiveWriter sh;
    sh.put(SubmitHeader{addrs[0], sizeof updated});
    Bytes payload(sizeof updated);
    std::memcpy(payload.data(), &updated, sizeof updated);
    es.run(1, EventKind::Submit, sh.take(), std::move(payload));
    dm.after_write(1, {omp::inout(&buf)});

    dm.exit_to_head(&buf, /*copy=*/true);
    EXPECT_EQ(buf, 1234u);                // retrieved from worker 1
    EXPECT_FALSE(dm.is_registered(&buf));  // unmapped
  });
}

TEST(DataManager, ExitWithoutCopySkipsRetrieve) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    std::uint64_t buf = 7;
    dm.register_buffer(&buf, sizeof buf);
    const void* args[] = {&buf};
    dm.prepare_args(1, args);
    dm.after_write(1, {omp::inout(&buf)});
    dm.exit_to_head(&buf, /*copy=*/false);
    EXPECT_EQ(buf, 7u);  // host value untouched
    EXPECT_EQ(dm.stats().retrieves.load(), 0);
  });
}

TEST(DataManager, ConcurrentFanOutFromOneSource) {
  Cluster c(4);
  c.run([](DataManager& dm, EventSystem&) {
    std::vector<std::uint64_t> buf(64, 9);
    dm.register_buffer(buf.data(), buf.size() * sizeof(std::uint64_t));
    const void* args[] = {buf.data()};
    dm.prepare_args(1, args);
    dm.after_write(1, {omp::inout(buf.data())});

    // Three threads replicate from worker 1 concurrently.
    std::vector<std::thread> threads;
    for (mpi::Rank w = 2; w <= 4; ++w) {
      threads.emplace_back([&dm, &buf, w] {
        const void* a[] = {buf.data()};
        dm.prepare_args(w, a);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(dm.snapshot(buf.data()).valid_workers.size(), 4u);
    EXPECT_EQ(dm.stats().exchanges.load(), 3);
  });
}

TEST(DataManager, ConcurrentRequestsForSameWorkerCoalesce) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    std::vector<std::uint64_t> buf(64, 3);
    dm.register_buffer(buf.data(), buf.size() * sizeof(std::uint64_t));
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&] {
        const void* a[] = {buf.data()};
        dm.prepare_args(1, a);
      });
    }
    for (auto& t : threads) t.join();
    // Exactly one alloc + one submit despite four concurrent requests.
    EXPECT_EQ(dm.stats().allocs.load(), 1);
    EXPECT_EQ(dm.stats().submits.load(), 1);
  });
}

// --- prefetch_to_head: a head fetch started at the buffer's last write ------

/// Leaves `buf` valid on worker 1 only, holding `value` there (the head
/// copy keeps its old contents).
void write_on_worker_1(DataManager& dm, EventSystem& es, std::uint64_t* buf,
                       std::uint64_t value) {
  const void* args[] = {buf};
  const auto addrs = dm.prepare_args(1, args);
  ArchiveWriter sh;
  sh.put(SubmitHeader{addrs[0], sizeof value});
  Bytes payload(sizeof value);
  std::memcpy(payload.data(), &value, sizeof value);
  es.run(1, EventKind::Submit, sh.take(), std::move(payload));
  dm.after_write(1, {omp::inout(buf)});
}

std::string address_of(const void* p) {
  std::ostringstream os;
  os << p;
  return os.str();
}

TEST(DataManager, CaptureFetchTakesOverAPendingPrefetch) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem& es) {
    std::uint64_t buf = 7;
    dm.register_buffer(&buf, sizeof buf);
    write_on_worker_1(dm, es, &buf, 1234);

    const std::int64_t events_before = es.stats().originated.load();
    dm.prefetch_to_head(&buf);
    dm.prefetch_to_head(&buf);  // already in flight: not a second retrieve
    EXPECT_TRUE(dm.snapshot(&buf).head_fetch_pending);
    EXPECT_EQ(es.stats().originated.load(), events_before + 1);

    // The capture's fan-out finds the retrieve in flight and waits for it.
    const void* hosts[] = {&buf};
    EXPECT_EQ(dm.refresh_head_many(hosts),
              static_cast<std::int64_t>(sizeof buf));
    EXPECT_EQ(es.stats().originated.load(), events_before + 1);
    EXPECT_EQ(dm.stats().head_prefetches.load(), 1);
    EXPECT_EQ(dm.stats().retrieves.load(), 1);
    EXPECT_EQ(buf, 1234u);
    const auto s = dm.snapshot(&buf);
    EXPECT_TRUE(s.valid_on_head);
    EXPECT_FALSE(s.head_fetch_pending);
    EXPECT_TRUE(s.valid_workers.contains(1));  // a read: placement stays
  });
}

TEST(DataManager, ResetAllToHostDropsAPendingPrefetch) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem& es) {
    std::uint64_t buf = 7;
    dm.register_buffer(&buf, sizeof buf);
    write_on_worker_1(dm, es, &buf, 1234);

    dm.prefetch_to_head(&buf);
    es.quiesce();  // rollback's order: quiesce, then reset
    dm.reset_all_to_host();
    const auto s = dm.snapshot(&buf);
    EXPECT_FALSE(s.head_fetch_pending);
    EXPECT_TRUE(s.valid_on_head);
    EXPECT_TRUE(s.valid_workers.empty());
    EXPECT_EQ(dm.stats().retrieves.load(), 0);  // dropped, not taken over

    // Nothing of the dropped retrieve lands after the restore, and the head
    // copy needs no further fetch.
    const std::uint64_t restored = 99;
    dm.restore_buffer(&buf, sizeof buf,
                      std::as_bytes(std::span(&restored, 1)));
    const std::int64_t events_before = es.stats().originated.load();
    dm.refresh_head(&buf);
    es.quiesce();
    EXPECT_EQ(es.stats().originated.load(), events_before);
    EXPECT_EQ(buf, 99u);
  });
}

TEST(DataManager, WriteWhileAHeadFetchIsInFlightFailsNamingTheBuffer) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem& es) {
    std::uint64_t buf = 7;
    dm.register_buffer(&buf, sizeof buf);
    write_on_worker_1(dm, es, &buf, 1234);
    dm.prefetch_to_head(&buf);

    const auto expect_named = [&buf](const std::function<void()>& write) {
      try {
        write();
        FAIL() << "a write raced an in-flight head fetch unnoticed";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(address_of(&buf)),
                  std::string::npos)
            << e.what();
      }
    };
    expect_named([&] { dm.after_write(1, {omp::inout(&buf)}); });
    expect_named([&] { dm.after_host_write({omp::out(&buf)}); });

    dm.refresh_head(&buf);  // settle the fetch; writes are fine again
    EXPECT_EQ(buf, 1234u);
    dm.after_host_write({omp::inout(&buf)});
  });
}

TEST(DataManager, PrepareUnregisteredBufferFails) {
  Cluster c(1);
  c.run([](DataManager& dm, EventSystem&) {
    int x = 0;
    const void* args[] = {&x};
    EXPECT_THROW(dm.prepare_args(1, args), CheckError);
  });
}

TEST(DataManager, CleanupReleasesEverything) {
  Cluster c(2);
  c.run([](DataManager& dm, EventSystem&) {
    int a = 0, b = 0;
    dm.register_buffer(&a, sizeof a);
    dm.register_buffer(&b, sizeof b);
    const void* args_a[] = {&a};
    const void* args_b[] = {&b};
    dm.prepare_args(1, args_a);
    dm.prepare_args(2, args_b);
    dm.cleanup_all();
    EXPECT_EQ(dm.num_buffers(), 0u);
    // Worker-side leak assertions run in Cluster::run at shutdown.
  });
}

}  // namespace
}  // namespace ompc::core
