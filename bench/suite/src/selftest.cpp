// ompcbench --selftest: the benchmark's own arithmetic on synthetic input,
// then a 1 s untraced and traced run of every workload against its oracle,
// checking that each layer does its work where the workload table says.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>

#include "run.hpp"

namespace ompcbench {
namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("selftest %-52s %s\n", what.c_str(), ok ? "ok" : "FAIL");
  if (!ok) ++failures;
}

double metric(const Result& r, const std::string& name) {
  for (const Metric& m : r.metrics)
    if (m.name == name) return m.value;
  check(false, "metric " + name + " reported");
  return 0.0;
}

void arithmetic() {
  const std::vector<double> v{15, 20, 35, 40, 50};
  check(percentile(v, 5) == 15 && percentile(v, 30) == 20 &&
            percentile(v, 40) == 20 && percentile(v, 50) == 35 &&
            percentile(v, 100) == 50 && percentile({}, 50) == 0,
        "nearest-rank percentile");
  check(union_length({{0, 10}, {5, 15}, {20, 25}}) == 20 &&
            union_length({{20, 25}, {0, 10}, {2, 4}}) == 15 &&
            union_length({{3, 3}}) == 0 && union_length({}) == 0,
        "interval union");

  // Wave [-5, 40], wait_all at 0, kernels busy over [0, 15] and [20, 25].
  const Partition p = partition_wave(-5, 0, 40, {{0, 10}, {5, 15}, {20, 25}});
  check(p.record == 5 && p.dispatch == 0 && p.busy == 20 && p.bubble == 5 &&
            p.complete == 15,
        "bubble arithmetic");
  const Partition idle = partition_wave(0, 10, 30, {});
  check(idle.record == 10 && idle.dispatch == 20 && idle.sum() == 30,
        "wave without kernels");

  // The identity must hold exactly for any spans, including kernel time
  // that strays outside the wave.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> d(0, 1000);
  bool exact = true;
  for (int c = 0; c < 10000 && exact; ++c) {
    const std::int64_t start = d(rng), wait = start + d(rng), end = wait + d(rng);
    std::vector<Interval> ks(static_cast<std::size_t>(d(rng) % 6));
    for (Interval& k : ks) {
      k.start = start - 50 + d(rng);
      k.end = k.start + d(rng) / 4;
    }
    const Partition q = partition_wave(start, wait, end, ks);
    exact = q.sum() == end - start && q.record >= 0 && q.dispatch >= 0 &&
            q.busy >= 0 && q.bubble >= 0 && q.complete >= 0;
  }
  check(exact, "partition identity (10,000 random waves)");
}

}  // namespace

int selftest() {
  arithmetic();

  RunConfig cfg;
  cfg.seconds = 1.0;
  cfg.setup_samples = 5;
  cfg.probe_samples = 50;
  cfg.heft_calls = 2;
  std::vector<std::pair<std::string, Result>> traced;
  for (const Workload& w : workloads()) {
    cfg.trace = false;
    const Result u = run_workload(w, cfg);
    check(u.correct && u.attempted > 0 && u.failed == 0, w.name + " untraced oracle");
    cfg.trace = true;
    const Result t = run_workload(w, cfg);
    check(t.correct && t.failed == 0, w.name + " traced oracle");
    traced.emplace_back(w.name, t);
  }

  // Each layer does its work in its named workload.
  double heft_ccr = 0.0, heft_other = 0.0;
  for (const auto& [name, r] : traced) {
    check((metric(r, "checkpoint.dirty_bytes_per_wave") > 0.0) == (name == "tb_ft"),
          name + " checkpoint bytes only on tb_ft");
    check((metric(r, "recovery.episodes_per_launch") > 0.0) == (name == "tb_ft"),
          name + " recovery episodes only on tb_ft");
    const double heft = metric(r, "heft.in_run_ms_per_launch");
    (name == "tb_ccr" ? heft_ccr : heft_other) =
        std::max(name == "tb_ccr" ? heft_ccr : heft_other, heft);
  }
  check(heft_ccr > 10.0 * heft_other, "HEFT time concentrated on tb_ccr");

  std::printf("selftest %s (%d failed)\n", failures == 0 ? "passed" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace ompcbench
