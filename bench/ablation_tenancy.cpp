// Ablation: multi-tenant fair-share vs solo tail latency.
//
// A latency-sensitive NARROW tenant (2-wide stencil waves of short tasks,
// WDRR weight 2) shares the cluster with a WIDE throughput tenant (10-wide
// trivial waves) and a mid-size stencil tenant (both weight 1). Waves are
// non-preemptive, so the narrow tenant's tail latency is bounded by how
// often the deficit-round-robin token comes back around — the fairness
// property the scheduler exists to provide. Three measurements:
//   1. the narrow tenant alone (solo): the per-wave latency baseline
//      (submit -> wave complete, through the same tenant queue machinery);
//   2. the narrow tenant under mixed load: p50/p95/p99 of the same metric,
//      plus every tenant's checksum against its solo oracle;
//   3. elastic pool + admission counters across the mixed runs.
// The gate: narrow-tenant p99 under mixed load stays within 3x its solo
// p99, and every tenant's result is bitwise identical to running alone.
#include <fstream>

#include "bench_util.hpp"
#include "common/time.hpp"
#include "taskbench/kernel.hpp"

using namespace ompc;
using namespace ompc::taskbench;

namespace {

TaskBenchSpec narrow_spec() {
  TaskBenchSpec s;
  s.pattern = Pattern::Stencil1D;
  s.steps = 30;
  s.width = 2;
  s.iterations = 600'000;  // 3 ms per task
  s.output_bytes = 1024;
  s.mode = KernelMode::Sleep;
  return s;
}

TaskBenchSpec wide_spec() {
  TaskBenchSpec s;
  s.pattern = Pattern::Trivial;
  s.steps = 30;
  s.width = 10;
  s.iterations = 600'000;
  s.output_bytes = 1024;
  s.mode = KernelMode::Sleep;
  return s;
}

TaskBenchSpec stencil_spec() {
  TaskBenchSpec s;
  s.pattern = Pattern::Stencil1D;
  s.steps = 30;
  s.width = 6;
  s.iterations = 600'000;
  s.output_bytes = 1024;
  s.mode = KernelMode::Sleep;
  return s;
}

/// Appends one run's per-wave latencies (ms) to `out`.
void collect_latencies(const core::TenantStats& ts, SampleStats& out) {
  for (std::int64_t ns : ts.wave_latency_ns) out.add(ns_to_ms(ns));
}

}  // namespace

int main() {
  const int reps = bench::repetitions();

  core::ClusterOptions opts;
  opts.num_workers = 6;
  opts.network = bench::bench_network();

  std::printf("=== Ablation: tenancy — narrow (w=2, weight 2) vs wide "
              "(w=10) + stencil (w=6), 6 nodes, 30 steps, 3 ms tasks, "
              "%d reps ===\n", reps);

  // --- 1. solo baseline: the narrow tenant alone -------------------------
  SampleStats solo_lat_ms;
  RunningStats solo_wall;
  bool ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<TenantStream> streams{{narrow_spec(), 2.0}};
    const core::RuntimeStats rs = run_multi_tenant(opts, streams);
    ok = ok && streams[0].checksum == expected_checksum(streams[0].spec);
    collect_latencies(streams[0].stats, solo_lat_ms);
    solo_wall.add(ns_to_s(rs.wall_ns));
  }

  // --- 2. mixed load: narrow + wide + stencil -----------------------------
  SampleStats mixed_lat_ms;
  RunningStats mixed_wall;
  std::int64_t cache_hits = 0;
  std::int64_t rejections = 0;
  std::int64_t pool_peak = 0;
  std::int64_t tenant_waves = 0;
  SampleStats wide_lat_ms;
  SampleStats stencil_lat_ms;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<TenantStream> streams{{narrow_spec(), 2.0},
                                      {wide_spec(), 1.0},
                                      {stencil_spec(), 1.0}};
    const core::RuntimeStats rs = run_multi_tenant(opts, streams);
    for (const TenantStream& st : streams) {
      if (st.checksum != expected_checksum(st.spec)) {
        std::fprintf(stderr, "VALIDATION FAILED (%s under mixed load)\n",
                     pattern_name(st.spec.pattern));
        ok = false;
      }
      rejections += st.stats.rejected_waves;
    }
    collect_latencies(streams[0].stats, mixed_lat_ms);
    collect_latencies(streams[1].stats, wide_lat_ms);
    collect_latencies(streams[2].stats, stencil_lat_ms);
    cache_hits += streams[0].stats.schedule_cache_hits;
    pool_peak = std::max(pool_peak, rs.pool_threads_peak);
    tenant_waves += rs.tenant_waves;
    mixed_wall.add(ns_to_s(rs.wall_ns));
  }

  const double solo_p99 = solo_lat_ms.percentile(0.99);
  const double mixed_p99 = mixed_lat_ms.percentile(0.99);
  const double ratio = solo_p99 > 0.0 ? mixed_p99 / solo_p99 : 0.0;

  Table table({"tenant", "load", "p50 (ms)", "p95 (ms)", "p99 (ms)"});
  table.add_row({"narrow w=2 (weight 2)", "solo",
                 Table::num(solo_lat_ms.percentile(0.50), 2),
                 Table::num(solo_lat_ms.percentile(0.95), 2),
                 Table::num(solo_p99, 2)});
  table.add_row({"narrow w=2 (weight 2)", "mixed",
                 Table::num(mixed_lat_ms.percentile(0.50), 2),
                 Table::num(mixed_lat_ms.percentile(0.95), 2),
                 Table::num(mixed_p99, 2)});
  table.add_row({"wide w=10 (weight 1)", "mixed",
                 Table::num(wide_lat_ms.percentile(0.50), 2),
                 Table::num(wide_lat_ms.percentile(0.95), 2),
                 Table::num(wide_lat_ms.percentile(0.99), 2)});
  table.add_row({"stencil w=6 (weight 1)", "mixed",
                 Table::num(stencil_lat_ms.percentile(0.50), 2),
                 Table::num(stencil_lat_ms.percentile(0.95), 2),
                 Table::num(stencil_lat_ms.percentile(0.99), 2)});
  table.print(std::cout);

  std::printf(
      "\nnarrow p99 mixed/solo ratio %.2fx (limit 3x); schedule cache hits "
      "%lld; admission rejections %lld; pool peak %lld threads; %lld "
      "tenant waves across %d mixed runs\n",
      ratio, static_cast<long long>(cache_hits),
      static_cast<long long>(rejections), static_cast<long long>(pool_peak),
      static_cast<long long>(tenant_waves), reps);

  {
    std::ofstream json("BENCH_tenancy.json");
    json << "{\n"
         << "  \"bench\": \"ablation_tenancy\",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"workers\": " << opts.num_workers << ",\n"
         << "  \"narrow_solo_p50_ms\": " << solo_lat_ms.percentile(0.50)
         << ",\n"
         << "  \"narrow_solo_p95_ms\": " << solo_lat_ms.percentile(0.95)
         << ",\n"
         << "  \"narrow_solo_p99_ms\": " << solo_p99 << ",\n"
         << "  \"narrow_mixed_p50_ms\": " << mixed_lat_ms.percentile(0.50)
         << ",\n"
         << "  \"narrow_mixed_p95_ms\": " << mixed_lat_ms.percentile(0.95)
         << ",\n"
         << "  \"narrow_mixed_p99_ms\": " << mixed_p99 << ",\n"
         << "  \"wide_mixed_p99_ms\": " << wide_lat_ms.percentile(0.99)
         << ",\n"
         << "  \"stencil_mixed_p99_ms\": " << stencil_lat_ms.percentile(0.99)
         << ",\n"
         << "  \"narrow_p99_mixed_over_solo\": " << ratio << ",\n"
         << "  \"solo_wall_s\": " << solo_wall.mean() << ",\n"
         << "  \"mixed_wall_s\": " << mixed_wall.mean() << ",\n"
         << "  \"schedule_cache_hits_narrow\": " << cache_hits << ",\n"
         << "  \"admission_rejections\": " << rejections << ",\n"
         << "  \"pool_threads_peak\": " << pool_peak << ",\n"
         << "  \"tenant_waves\": " << tenant_waves << ",\n"
         << "  \"bitwise_identical\": " << (ok ? "true" : "false") << "\n"
         << "}\n";
  }
  std::printf("wrote BENCH_tenancy.json\n");

  // --- hard gates (CI fails on regression) -------------------------------
  int status = 0;
  if (!ok) {
    std::fprintf(stderr, "GATE: a tenant diverged from its solo result\n");
    status = 1;
  }
  if (ratio > 3.0) {
    std::fprintf(stderr,
                 "GATE: narrow-tenant p99 %.2fx solo under mixed load "
                 "(limit 3x)\n",
                 ratio);
    status = 1;
  }
  if (cache_hits < 1) {
    std::fprintf(stderr,
                 "GATE: steady-state tenant waves never hit the schedule "
                 "cache\n");
    status = 1;
  }
  return status;
}
