// End-to-end tests of the OMPC runtime facade: offload round trips, depend
// chains, write invalidation and multi-wave execution. The recording rules
// and host-task coherence are checked on both recording surfaces (the
// Runtime's verbs and a TenantSession on its own thread).
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include "core/runtime.hpp"
#include "recording_surfaces.hpp"

namespace ompc::core {
namespace {

using offload::KernelContext;
using offload::KernelRegistry;

// Kernels used across the runtime tests. Registered once; ids are stable
// within the process.
const offload::KernelId kScaleAdd = KernelRegistry::instance().register_kernel(
    "test_scale_add", [](KernelContext& ctx) {
      auto* data = ctx.buffer<double>(0);
      auto r = ctx.scalars();
      const auto n = r.get<std::uint64_t>();
      const auto scale = r.get<double>();
      const auto add = r.get<double>();
      for (std::uint64_t i = 0; i < n; ++i) data[i] = data[i] * scale + add;
    });

const offload::KernelId kSum = KernelRegistry::instance().register_kernel(
    "test_sum", [](KernelContext& ctx) {
      const auto* src = ctx.buffer<double>(0);
      auto* dst = ctx.buffer<double>(1);
      auto r = ctx.scalars();
      const auto n = r.get<std::uint64_t>();
      double total = 0.0;
      for (std::uint64_t i = 0; i < n; ++i) total += src[i];
      dst[0] = total;
    });

ClusterOptions small_cluster(int workers) {
  ClusterOptions o;
  o.num_workers = workers;
  o.helper_threads = 8;
  o.network = {};  // instant network: unit tests run at memory speed
  return o;
}

TEST(RuntimeBasic, RoundTripSingleTarget) {
  std::vector<double> a(128);
  std::iota(a.begin(), a.end(), 0.0);

  launch(small_cluster(2), [&](Runtime& rt) {
    rt.enter_data(a.data(), a.size() * sizeof(double));
    rt.target({omp::inout(a.data())}, kScaleAdd,
              Args().buf(a.data()).scalar<std::uint64_t>(a.size())
                  .scalar(2.0).scalar(1.0));
    rt.exit_data(a.data());
  });

  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], static_cast<double>(i) * 2.0 + 1.0) << "i=" << i;
  }
}

TEST(RuntimeBasic, ChainOfDependentTargets) {
  std::vector<double> a(64, 1.0);

  launch(small_cluster(3), [&](Runtime& rt) {
    rt.enter_data(a.data(), a.size() * sizeof(double));
    for (int step = 0; step < 5; ++step) {
      rt.target({omp::inout(a.data())}, kScaleAdd,
                Args().buf(a.data()).scalar<std::uint64_t>(a.size())
                    .scalar(2.0).scalar(0.0));
    }
    rt.exit_data(a.data());
  });

  for (double v : a) EXPECT_DOUBLE_EQ(v, 32.0);  // 1 * 2^5
}

TEST(RuntimeBasic, ProducerConsumerAcrossBuffers) {
  std::vector<double> src(100);
  std::iota(src.begin(), src.end(), 1.0);
  std::vector<double> dst(1, 0.0);
  const double expect = std::accumulate(src.begin(), src.end(), 0.0);

  launch(small_cluster(2), [&](Runtime& rt) {
    rt.enter_data(src.data(), src.size() * sizeof(double));
    rt.enter_data(dst.data(), sizeof(double));
    rt.target({omp::inout(src.data())}, kScaleAdd,
              Args().buf(src.data()).scalar<std::uint64_t>(src.size())
                  .scalar(1.0).scalar(0.0));
    rt.target({omp::in(src.data()), omp::inout(dst.data())}, kSum,
              Args().buf(src.data()).buf(dst.data())
                  .scalar<std::uint64_t>(src.size()));
    rt.exit_data(dst.data());
    rt.exit_data(src.data());
  });

  EXPECT_DOUBLE_EQ(dst[0], expect);
}

TEST(RuntimeBasic, MultipleWavesReuseBuffers) {
  std::vector<double> a(32, 1.0);

  launch(small_cluster(2), [&](Runtime& rt) {
    rt.enter_data(a.data(), a.size() * sizeof(double));
    rt.target({omp::inout(a.data())}, kScaleAdd,
              Args().buf(a.data()).scalar<std::uint64_t>(a.size())
                  .scalar(3.0).scalar(0.0));
    rt.wait_all();  // wave 1

    rt.target({omp::inout(a.data())}, kScaleAdd,
              Args().buf(a.data()).scalar<std::uint64_t>(a.size())
                  .scalar(0.0).scalar(7.0));
    rt.exit_data(a.data());
    rt.wait_all();  // wave 2

    EXPECT_EQ(rt.stats().waves, 2);
  });

  for (double v : a) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(RuntimeBasic, HostTaskRunsOnHeadAndOrders) {
  std::vector<double> a(16, 2.0);
  bool host_ran = false;

  launch(small_cluster(2), [&](Runtime& rt) {
    rt.enter_data(a.data(), a.size() * sizeof(double));
    rt.target({omp::inout(a.data())}, kScaleAdd,
              Args().buf(a.data()).scalar<std::uint64_t>(a.size())
                  .scalar(2.0).scalar(0.0));
    rt.exit_data(a.data());
    // Host task ordered after the exit-data by its dependence.
    rt.host_task([&] { host_ran = a[0] == 4.0; }, {omp::in(a.data())});
  });

  EXPECT_TRUE(host_ran);
}

TEST(RuntimeBasic, ManyIndependentTasksAllExecute) {
  constexpr int kTasks = 40;
  std::vector<std::vector<double>> bufs(kTasks, std::vector<double>(8, 1.0));

  const RuntimeStats stats = launch(small_cluster(4), [&](Runtime& rt) {
    for (auto& b : bufs) {
      rt.enter_data(b.data(), b.size() * sizeof(double));
      rt.target({omp::inout(b.data())}, kScaleAdd,
                Args().buf(b.data()).scalar<std::uint64_t>(b.size())
                    .scalar(5.0).scalar(0.0));
      rt.exit_data(b.data());
    }
  });

  EXPECT_EQ(stats.target_tasks, kTasks);
  for (const auto& b : bufs) {
    for (double v : b) EXPECT_DOUBLE_EQ(v, 5.0);
  }
}

TEST(RuntimeBasic, StatsAreCoherent) {
  std::vector<double> a(16, 1.0);
  const RuntimeStats stats = launch(small_cluster(2), [&](Runtime& rt) {
    rt.enter_data(a.data(), a.size() * sizeof(double));
    rt.target({omp::inout(a.data())}, kScaleAdd,
              Args().buf(a.data()).scalar<std::uint64_t>(a.size())
                  .scalar(1.0).scalar(1.0));
    rt.exit_data(a.data());
  });

  EXPECT_EQ(stats.waves, 1);
  EXPECT_EQ(stats.target_tasks, 1);
  EXPECT_EQ(stats.data_tasks, 2);
  EXPECT_GT(stats.events_originated, 0);
  EXPECT_GT(stats.bytes_moved, 0);
  EXPECT_GT(stats.wall_ns, 0);
  EXPECT_GE(stats.startup_ns, 0);
  EXPECT_GT(stats.messages_sent, 0);
}

TEST(RuntimeBasic, TargetWithoutEnterFails) {
  std::vector<double> a(4, 0.0);
  EXPECT_THROW(
      launch(small_cluster(1),
             [&](Runtime& rt) {
               rt.target({omp::inout(a.data())}, kScaleAdd,
                         Args().buf(a.data()).scalar<std::uint64_t>(4)
                             .scalar(1.0).scalar(0.0));
             }),
      CheckError);
}

TEST(RuntimeBasic, BufferArgMissingFromDependsFails) {
  std::vector<double> a(4, 0.0);
  EXPECT_THROW(
      launch(small_cluster(1),
             [&](Runtime& rt) {
               rt.enter_data(a.data(), a.size() * sizeof(double));
               rt.target({}, kScaleAdd,
                         Args().buf(a.data()).scalar<std::uint64_t>(4)
                             .scalar(1.0).scalar(0.0));
             }),
      CheckError);
}

// --- one recording surface ------------------------------------------------

using surfaces::run_on;
using surfaces::Surface;

/// buffers[0]: u64 cell. scalars: (mul, add). cell = cell * mul + add.
const offload::KernelId kAffine = KernelRegistry::instance().register_kernel(
    "test_basic_affine", [](KernelContext& ctx) {
      auto r = ctx.scalars();
      const auto mul = r.get<std::uint64_t>();
      const auto add = r.get<std::uint64_t>();
      std::uint64_t& cell = *ctx.buffer<std::uint64_t>(0);
      cell = cell * mul + add;
    });

Args affine_args(std::uint64_t* cell, std::uint64_t mul, std::uint64_t add) {
  Args args;
  args.buf(cell).scalar(mul).scalar(add);
  return args;
}

class RecordingParity : public ::testing::TestWithParam<Surface> {};

TEST_P(RecordingParity, RejectsTheSameErrorsAtRecordTime) {
  std::uint64_t a = 1;
  std::uint64_t never = 0;
  run_on(GetParam(), small_cluster(1), [&](auto& rec, const auto& barrier) {
    EXPECT_THROW(rec.target({omp::inout(&a)}, kAffine, affine_args(&a, 1, 1)),
                 CheckError)
        << "target on a buffer never entered";
    rec.enter_data(&a, sizeof a);
    EXPECT_THROW(rec.enter_data(&a, sizeof a), CheckError) << "double enter";
    EXPECT_THROW(rec.target({}, kAffine, affine_args(&a, 1, 1)), CheckError)
        << "buffer argument missing from the dependences";
    EXPECT_THROW(rec.exit_data(&never), CheckError)
        << "exit of a buffer never entered";
    rec.target({omp::inout(&a)}, kAffine, affine_args(&a, 2, 0));
    rec.exit_data(&a);
    EXPECT_THROW(rec.exit_data(&a), CheckError) << "second exit in one wave";
    barrier();
    // The exit unmapped it: a later wave may map it again.
    rec.enter_data(&a, sizeof a);
    rec.target({omp::inout(&a)}, kAffine, affine_args(&a, 1, 3));
    rec.exit_data(&a);
    barrier();
  });
  EXPECT_EQ(a, 5u);  // only the accepted tasks ran: 1 * 2, then + 3
}

TEST_P(RecordingParity, AcceptsADependenceOnUnmappedStorage) {
  // `flag` is ordinary host storage no enter mapped: it still orders the
  // host task before the target, and its edge weighs 0 bytes.
  std::uint64_t a = 1;
  int flag = 0;
  run_on(GetParam(), small_cluster(2), [&](auto& rec, const auto& barrier) {
    rec.enter_data(&a, sizeof a);
    rec.host_task([&flag] { flag = 1; }, {omp::out(&flag)});
    rec.target({omp::inout(&a), omp::in(&flag)}, kAffine,
               affine_args(&a, 3, 0));
    rec.exit_data(&a);
    barrier();
  });
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(flag, 1);
}

TEST_P(RecordingParity, CountsTheTaskMixOncePerWave) {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  const RuntimeStats stats =
      run_on(GetParam(), small_cluster(2), [&](auto& rec, const auto& barrier) {
        rec.enter_data(&a, sizeof a);
        rec.enter_data(&b, sizeof b);
        rec.target({omp::inout(&a)}, kAffine, affine_args(&a, 1, 1));
        rec.target({omp::inout(&b)}, kAffine, affine_args(&b, 1, 2));
        barrier();
        rec.host_task([] {}, {omp::in(&a)});
        rec.target({omp::inout(&a)}, kAffine, affine_args(&a, 1, 1));
        rec.exit_data(&a);
        rec.exit_data(&b);
        barrier();
      });
  EXPECT_EQ(stats.target_tasks, 3);
  EXPECT_EQ(stats.data_tasks, 4);
  EXPECT_EQ(stats.host_tasks, 1);
  EXPECT_EQ(stats.waves, 2);
  EXPECT_EQ(a, 2u);
  EXPECT_EQ(b, 2u);
}

INSTANTIATE_TEST_SUITE_P(Surfaces, RecordingParity,
                         ::testing::Values(Surface::Runtime, Surface::Session),
                         [](const auto& info) {
                           return surfaces::surface_name(info.param);
                         });

// --- host tasks run on the freshest copy ----------------------------------

class HostTaskCoherence
    : public ::testing::TestWithParam<std::tuple<Surface, int>> {};

TEST_P(HostTaskCoherence, ReadsAndPublishesTheFreshestCopy) {
  // A target sets the cell to 5 on a worker; the host task must read 5 and
  // its +100 must reach the next target and the exit.
  const auto [surface, period] = GetParam();
  ClusterOptions opts = small_cluster(1);
  opts.checkpoint_period = period;
  std::uint64_t cell = 0;
  std::uint64_t seen = 0;
  run_on(surface, opts, [&](auto& rec, const auto& barrier) {
    rec.enter_data(&cell, sizeof cell);
    rec.target({omp::inout(&cell)}, kAffine, affine_args(&cell, 0, 5));
    rec.host_task(
        [&] {
          seen = cell;
          cell += 100;
        },
        {omp::inout(&cell)});
    rec.target({omp::inout(&cell)}, kAffine, affine_args(&cell, 2, 0));
    rec.exit_data(&cell);
    barrier();
  });
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(cell, 210u);
}

INSTANTIATE_TEST_SUITE_P(
    SurfacesAndPeriods, HostTaskCoherence,
    ::testing::Combine(::testing::Values(Surface::Runtime, Surface::Session),
                       ::testing::Values(0, 1)),
    [](const auto& info) {
      return surfaces::surface_name(std::get<0>(info.param)) + "Period" +
             std::to_string(std::get<1>(info.param));
    });

TEST(HostTask, InOnlyDependenceLeavesTheWorkerReplicaValid) {
  std::uint64_t cell = 0;
  std::uint64_t seen = 0;
  launch(small_cluster(1), [&](Runtime& rt) {
    rt.enter_data(&cell, sizeof cell);
    rt.target({omp::inout(&cell)}, kAffine, affine_args(&cell, 0, 5));
    rt.host_task([&] { seen = cell; }, {omp::in(&cell)});
    rt.wait_all();
    const DataManager::Snapshot snap = rt.data_manager().snapshot(&cell);
    EXPECT_TRUE(snap.valid_on_head);
    EXPECT_EQ(snap.valid_workers, (std::set<mpi::Rank>{1}));
    rt.exit_data(&cell);
  });
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(cell, 5u);
}

}  // namespace
}  // namespace ompc::core
