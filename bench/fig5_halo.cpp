// Allocation-reuse gate on the 3D halo-exchange workload (src/halo): the
// steady-state iteration re-records the same wave every step, so the
// schedule cache hits and the ChannelPlan arms: stale replicas keep their
// device blocks and the next wave re-fills them. Three measurements, gated
// in CI (exit 1, BENCH_persistent.json):
//   1. wire envelopes per steady-state iteration on BOTH transport
//      conduits — exactly kEnvelopesPerIter (armed waves send no
//      Delete/Alloc round trips);
//   2. iteration latency p50/p99 (reported), and the runs must report
//      channels_armed and persistent_reuses > 0 (the plan is live);
//   3. a worker killed while the plan is armed: rollback invalidates the
//      plan and the recovered result stays bitwise-identical to the serial
//      oracle.
#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "halo/halo3d.hpp"

using namespace ompc;

namespace {

halo::HaloSpec spec_of(int iters) {
  halo::HaloSpec s;
  s.nx = 2;
  s.ny = 2;
  s.nz = 2;
  s.cells = 6;
  s.iters = iters;
  return s;
}

core::ClusterOptions base_opts() {
  core::ClusterOptions o;
  o.num_workers = 4;
  return o;
}

/// Wire envelopes per steady-state iteration of spec_of() on base_opts()
/// with the plan armed. A change to the count is a protocol change and
/// must update this constant (and BENCH_persistent.json) on purpose.
constexpr double kEnvelopesPerIter = 160;

struct EnvelopeCount {
  double per_iter = 0.0;
  bool valid = false;
};

/// Steady-state envelopes per iteration: two runs differing only in
/// iteration count, so launch/teardown and cache-warmup traffic cancel.
EnvelopeCount envelopes_per_iter(mpi::ConduitKind conduit) {
  constexpr int kShort = 4, kLong = 10;
  core::ClusterOptions opts = base_opts();
  opts.conduit = conduit;
  const halo::HaloResult a = halo::run_halo3d(opts, spec_of(kShort));
  const halo::HaloResult b = halo::run_halo3d(opts, spec_of(kLong));
  EnvelopeCount e;
  e.per_iter = static_cast<double>(b.stats.messages_sent -
                                   a.stats.messages_sent) /
               static_cast<double>(kLong - kShort);
  e.valid = a.checksum == halo::serial_checksum(spec_of(kShort)) &&
            b.checksum == halo::serial_checksum(spec_of(kLong));
  return e;
}

}  // namespace

int main() {
  const int reps = bench::repetitions();
  const halo::HaloSpec spec = spec_of(12);
  const std::uint64_t oracle = halo::serial_checksum(spec);
  bool ok = true;
  int status = 0;

  std::printf("=== fig5_halo: allocation reuse on 2x2x2 x %d^3 halo "
              "exchange, 4 workers, %d reps ===\n",
              spec.cells, reps);

  // --- 1. wire envelopes per steady-state iteration, both conduits -------
  struct ConduitRow {
    const char* name;
    mpi::ConduitKind kind;
    EnvelopeCount count;
  };
  std::vector<ConduitRow> conduits{
      {"inprocess", mpi::ConduitKind::InProcess, {}},
      {"shm", mpi::ConduitKind::Shm, {}}};
  for (ConduitRow& row : conduits) {
    row.count = envelopes_per_iter(row.kind);
    ok = ok && row.count.valid;
    std::printf("envelopes/iteration (%s): %.1f\n", row.name,
                row.count.per_iter);
    if (row.count.per_iter != kEnvelopesPerIter) {
      std::fprintf(stderr,
                   "GATE: %.1f steady-state envelopes per iteration on the "
                   "%s conduit (want exactly %.0f)\n",
                   row.count.per_iter, row.name, kEnvelopesPerIter);
      status = 1;
    }
  }

  // --- 2. iteration latency p50/p99 ---------------------------------------
  constexpr int kWarmup = 2;  // cache-miss iterations before the plan arms
  SampleStats lat_ms;
  std::int64_t armed = 0, reuses = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const halo::HaloResult r = halo::run_halo3d(base_opts(), spec);
    ok = ok && r.checksum == oracle;
    for (std::size_t i = kWarmup; i < r.iter_ns.size(); ++i)
      lat_ms.add(ns_to_ms(r.iter_ns[i]));
    armed += r.stats.channels_armed;
    reuses += r.stats.persistent_reuses;
  }
  const double p50 = lat_ms.percentile(0.50);
  const double p99 = lat_ms.percentile(0.99);
  std::printf("iteration latency: p50 %.2f / p99 %.2f ms\n", p50, p99);
  std::printf("channel plan: %lld waves armed, %lld allocation re-uses "
              "across %d runs\n",
              static_cast<long long>(armed), static_cast<long long>(reuses),
              reps);
  if (armed <= 0 || reuses <= 0) {
    std::fprintf(stderr,
                 "GATE: the runs never armed (%lld) or never re-used "
                 "(%lld) — the plan is dead weight\n",
                 static_cast<long long>(armed),
                 static_cast<long long>(reuses));
    status = 1;
  }

  // --- 3. kill a worker while channels are armed --------------------------
  halo::HaloSpec kill_spec = spec_of(20);
  core::ClusterOptions kopts = base_opts();
  kopts.heartbeat_period_ms = 5;
  kopts.heartbeat_timeout_ms = 60;
  kopts.checkpoint_period = 1;
  kopts.kills.push_back({2, 30'000'000});  // worker rank 2 dies at 30 ms
  const halo::HaloResult killed = halo::run_halo3d(kopts, kill_spec);
  const bool kill_bitwise =
      killed.checksum == halo::serial_checksum(kill_spec);
  std::printf("kill-mid-armed: %lld recoveries, %lld waves armed, checksum "
              "%s\n",
              static_cast<long long>(killed.stats.recoveries),
              static_cast<long long>(killed.stats.channels_armed),
              kill_bitwise ? "bitwise-identical" : "DIVERGED");
  if (killed.stats.recoveries < 1) {
    std::fprintf(stderr, "GATE: the kill run never recovered\n");
    status = 1;
  }
  if (killed.stats.channels_armed < 1) {
    std::fprintf(stderr, "GATE: the kill run never armed its channels\n");
    status = 1;
  }
  if (!kill_bitwise) {
    std::fprintf(stderr,
                 "GATE: recovery with channels armed diverged from the "
                 "serial oracle\n");
    status = 1;
  }
  if (!ok) {
    std::fprintf(stderr, "GATE: a measured run diverged from the oracle\n");
    status = 1;
  }

  {
    std::ofstream json("BENCH_persistent.json");
    json << "{\n"
         << "  \"bench\": \"fig5_halo\",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"workers\": 4,\n"
         << "  \"subdomains\": " << spec.subdomains() << ",\n"
         << "  \"cells\": " << spec.cells << ",\n";
    for (const ConduitRow& row : conduits)
      json << "  \"envelopes_per_iter_" << row.name
           << "_persistent\": " << row.count.per_iter << ",\n";
    json << "  \"iter_p50_persistent_ms\": " << p50 << ",\n"
         << "  \"iter_p99_persistent_ms\": " << p99 << ",\n"
         << "  \"channels_armed\": " << armed << ",\n"
         << "  \"persistent_reuses\": " << reuses << ",\n"
         << "  \"kill_recoveries\": " << killed.stats.recoveries << ",\n"
         << "  \"kill_channels_armed\": " << killed.stats.channels_armed
         << ",\n"
         << "  \"bitwise_identical\": "
         << (ok && kill_bitwise ? "true" : "false") << "\n"
         << "}\n";
  }
  std::printf("wrote BENCH_persistent.json\n");
  return status;
}
