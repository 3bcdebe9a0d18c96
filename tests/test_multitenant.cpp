// Multi-tenant runtime: N concurrent task graphs share one cluster through
// per-tenant submission queues, weighted-deficit-round-robin fair-share
// over ready waves, and admission control with backpressure. The acceptance
// bar: per-tenant results are bitwise identical to solo runs (the
// expected_checksum oracle IS the solo value), under worker AND head kills
// mid-stream, on both conduits (see the _shm ctest rerun). The elastic
// helper pool's reserve-driven growth and the TenantStats percentile math
// are unit-tested here too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/time.hpp"
#include "core/helper_pool.hpp"
#include "core/runtime.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc {
namespace {

using core::ClusterOptions;
using core::HelperPool;
using core::TenantStats;
using taskbench::all_patterns;
using taskbench::expected_checksum;
using taskbench::KernelMode;
using taskbench::Pattern;
using taskbench::pattern_name;
using taskbench::run_multi_tenant;
using taskbench::TaskBenchSpec;
using taskbench::TenantStream;

// ThreadSanitizer slows the control plane ~an order of magnitude while
// sleep-based kernels keep real-time pace; dilate task lengths and kill
// instants together so kills land in the phase they aim at.
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

// --- TenantStats percentile math ------------------------------------------

TEST(TenantStatsUnit, NearestRankPercentiles) {
  TenantStats ts;
  EXPECT_EQ(ts.latency_percentile_ns(99), 0);  // empty: no samples yet
  for (std::int64_t v : {70, 10, 50, 30, 90, 20, 100, 40, 80, 60})
    ts.wave_latency_ns.push_back(v);
  EXPECT_EQ(ts.latency_percentile_ns(50), 50);
  EXPECT_EQ(ts.latency_percentile_ns(95), 100);
  EXPECT_EQ(ts.latency_percentile_ns(99), 100);
  EXPECT_EQ(ts.latency_percentile_ns(10), 10);
}

// --- elastic helper pool --------------------------------------------------

TEST(HelperPoolElastic, ReserveGrowsToTheCeiling) {
  HelperPool pool(/*min=*/1, /*max=*/4, "el");
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.threads_spawned(), 1);

  pool.reserve(2);
  EXPECT_EQ(pool.num_threads(), 2);
  pool.reserve(8);  // announced demand is capped at the ceiling
  EXPECT_EQ(pool.num_threads(), 4);
  EXPECT_EQ(pool.threads_spawned(), 4);
  EXPECT_EQ(pool.peak_threads(), 4);
  pool.reserve(2);  // never shrinks
  EXPECT_EQ(pool.num_threads(), 4);

  // Jobs actually run on the grown threads.
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) pool.submit([&ran] { ++ran; });
  for (int i = 0; i < 500 && pool.jobs_run() < 4; ++i)
    precise_sleep_ns(1'000'000);
  EXPECT_EQ(ran.load(), 4);
}

// --- concurrent tenants, no faults ----------------------------------------

TEST(MultiTenant, FourTenantsAllPatternsBitwiseMatchSolo) {
  // One tenant per Task Bench pattern, all four streams in flight at once,
  // with a tight queue bound so the submitter threads exercise the
  // blocking backpressure path (submit_wait) rather than racing ahead.
  std::vector<TenantStream> streams;
  for (Pattern p : all_patterns()) {
    TaskBenchSpec s;
    s.pattern = p;
    s.steps = 5;
    s.width = 4;
    s.iterations = 0;
    s.output_bytes = 48;
    streams.push_back({s});
  }
  ClusterOptions opts;
  opts.num_workers = 4;
  opts.max_pending_waves = 2;

  const core::RuntimeStats stats = run_multi_tenant(opts, streams);

  for (const TenantStream& st : streams) {
    SCOPED_TRACE(pattern_name(st.spec.pattern));
    // expected_checksum is the solo oracle: equality means the mixed run
    // is bitwise identical to running this tenant alone.
    EXPECT_EQ(st.checksum, expected_checksum(st.spec));
    // steps waves (wave 0 carries the enters) + the exit wave.
    EXPECT_EQ(st.stats.completed_waves, st.spec.steps + 1);
    EXPECT_EQ(st.stats.submitted_waves, st.spec.steps + 1);
    EXPECT_EQ(st.stats.rejected_waves, 0);
    // The ping-pong recording repeats with period 2, so steady-state waves
    // hit the schedule cache — per tenant, since the hash covers the
    // tenant's own buffer addresses.
    EXPECT_GE(st.stats.schedule_cache_hits, 1);
    // Tail-latency accounting: one sample per wave, ordered percentiles.
    EXPECT_EQ(st.stats.wave_latency_ns.size(),
              static_cast<std::size_t>(st.spec.steps + 1));
    EXPECT_GT(st.stats.latency_percentile_ns(50), 0);
    EXPECT_LE(st.stats.latency_percentile_ns(50),
              st.stats.latency_percentile_ns(99));
  }
  EXPECT_EQ(stats.tenants, 4);
  EXPECT_EQ(stats.tenant_waves, 4 * 6);
  EXPECT_GE(stats.schedule_cache_hits, 4);
  EXPECT_GT(stats.pool_threads_peak, 0);
}

// --- admission control ----------------------------------------------------

TEST(MultiTenant, AdmissionRejectsWithoutConsumingTheWave) {
  ClusterOptions opts;
  opts.num_workers = 1;
  opts.max_pending_waves = 2;

  std::atomic<int> a_runs{0};
  std::atomic<int> b_runs{0};
  const core::RuntimeStats stats = core::launch(opts, [&](core::Runtime& rt) {
    const core::TenantId ta = rt.create_tenant();
    const core::TenantId tb = rt.create_tenant();
    core::TenantSession sa(rt, ta);
    core::TenantSession sb(rt, tb);

    sa.host_task([&a_runs] { ++a_runs; });
    sa.submit();
    sa.host_task([&a_runs] { ++a_runs; });
    sa.submit();
    sa.host_task([&a_runs] { ++a_runs; });
    try {
      sa.submit();
      FAIL() << "third submit should exceed max_pending_waves=2";
    } catch (const core::AdmissionError& e) {
      EXPECT_EQ(e.tenant(), ta);
    }
    // The rejected wave was NOT consumed: it stays recorded for a retry.
    EXPECT_TRUE(sa.has_recorded());

    // The other tenant is unaffected by A's backpressure.
    sb.host_task([&b_runs] { ++b_runs; });
    sb.submit();

    sa.close();  // discards the still-recorded third wave
    sb.close();
    rt.serve_tenants();

    EXPECT_EQ(rt.tenant_stats(ta).rejected_waves, 1);
    EXPECT_EQ(rt.tenant_stats(ta).completed_waves, 2);
    EXPECT_EQ(rt.tenant_stats(tb).rejected_waves, 0);
    EXPECT_EQ(rt.tenant_stats(tb).completed_waves, 1);
  });

  EXPECT_EQ(a_runs.load(), 2);  // the rejected wave never ran
  EXPECT_EQ(b_runs.load(), 1);
  EXPECT_EQ(stats.admission_rejections, 1);
  EXPECT_EQ(stats.tenants, 2);
  EXPECT_EQ(stats.tenant_waves, 3);
}

// --- weighted fair-share --------------------------------------------------

TEST(MultiTenant, WeightedDeficitRoundRobinServesProportionally) {
  // Pre-queue every wave before serving, then observe the exact service
  // order. Quantum = 4 tasks x weight per token arrival, and the token
  // keeps spending its deficit before advancing: tenant A (weight 2)
  // affords 8 one-task waves per visit, B (weight 1) affords 4.
  ClusterOptions opts;
  opts.num_workers = 1;
  opts.max_pending_waves = 0;  // unbounded: pre-queueing must not reject

  std::mutex order_mutex;
  std::vector<int> order;
  core::launch(opts, [&](core::Runtime& rt) {
    const core::TenantId ta = rt.create_tenant(2.0);
    const core::TenantId tb = rt.create_tenant(1.0);
    core::TenantSession sa(rt, ta);
    core::TenantSession sb(rt, tb);
    const auto enqueue = [&](core::TenantSession& s, int tag, int waves) {
      for (int i = 0; i < waves; ++i) {
        s.host_task([&order_mutex, &order, tag] {
          std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(tag);
        });
        s.submit();
      }
    };
    enqueue(sa, 0, 12);
    enqueue(sb, 1, 6);
    sa.close();
    sb.close();
    rt.serve_tenants();
  });

  const std::vector<int> expect = {0, 0, 0, 0, 0, 0, 0, 0,  // A: 8 = 4 x 2.0
                                   1, 1, 1, 1,              // B: 4 = 4 x 1.0
                                   0, 0, 0, 0,              // A: remaining 4
                                   1, 1};                   // B: remaining 2
  EXPECT_EQ(order, expect);
}

// --- faults mid-stream ----------------------------------------------------

ClusterOptions tenant_ft_opts(int workers) {
  ClusterOptions o;
  o.num_workers = workers;
  o.heartbeat_period_ms = 5;
  o.heartbeat_timeout_ms = 60;
  o.checkpoint_period = 1;
  return o;
}

TaskBenchSpec tenant_ft_spec(Pattern p) {
  TaskBenchSpec s;
  s.pattern = p;
  s.steps = 3;
  s.width = 6;
  // Sleep tasks long enough that waves are still executing when the kill
  // fires and the ring detects it (kill 30 ms + timeout 60 ms).
  s.iterations = 4'000'000 * kTimeScale;  // 20 ms per task
  s.output_bytes = 32;
  s.mode = KernelMode::Sleep;
  return s;
}

TEST(MultiTenantFaults, WorkerKilledMidStreamEveryTenantRecovers) {
  std::vector<TenantStream> streams;
  for (Pattern p : all_patterns()) streams.push_back({tenant_ft_spec(p)});
  ClusterOptions opts = tenant_ft_opts(3);
  opts.kills.push_back({2, at_ms(30)});  // worker rank 2 dies mid-stream

  const core::RuntimeStats stats = run_multi_tenant(opts, streams);

  for (const TenantStream& st : streams) {
    SCOPED_TRACE(pattern_name(st.spec.pattern));
    EXPECT_EQ(st.checksum, expected_checksum(st.spec));
    EXPECT_EQ(st.stats.completed_waves, st.spec.steps + 1);
  }
  EXPECT_EQ(stats.workers_lost, 1);
  EXPECT_GE(stats.recoveries, 1);
  // The recovery episode is charged to the tenants whose waves replayed
  // (at checkpoint_period=1 that is the tenant(s) in the current log).
  std::int64_t charged = 0;
  std::int64_t charged_latency = 0;
  for (const TenantStream& st : streams) {
    charged += st.stats.recoveries;
    charged_latency += st.stats.recovery_latency_ns;
  }
  EXPECT_GE(charged, 1);
  EXPECT_GT(charged_latency, 0);
}

TEST(MultiTenantFaults, HeadKilledMidStreamElectedSuccessorFinishes) {
  std::vector<TenantStream> streams;
  for (Pattern p : all_patterns()) streams.push_back({tenant_ft_spec(p)});
  ClusterOptions opts = tenant_ft_opts(3);
  opts.checkpoint_locality = core::CheckpointLocality::Buddy;
  opts.kills.push_back({0, at_ms(30)});  // the HEAD dies mid-stream

  const core::RuntimeStats stats = run_multi_tenant(opts, streams);

  for (const TenantStream& st : streams) {
    SCOPED_TRACE(pattern_name(st.spec.pattern));
    EXPECT_EQ(st.checksum, expected_checksum(st.spec));
    EXPECT_EQ(st.stats.completed_waves, st.spec.steps + 1);
  }
  EXPECT_GE(stats.failovers, 1);
  EXPECT_GE(stats.recoveries, 1);
}

}  // namespace
}  // namespace ompc
