#include "run.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/time.hpp"
#include "probes.hpp"

namespace ompcbench {
namespace {

using namespace ompc;
using Launches = std::vector<const LaunchSample*>;

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// A ratio that reads 0 (not NaN) when its base is empty.
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Time from the launch() call until head_main runs, for an empty launch.
///
/// head_main then idles 1 ms, after the sample has been taken. Without it
/// about one empty launch in 8,000 never returns: EventSystem::stop_local
/// sets stop_ and notifies queue_cv_ without holding queue_mutex_, so a
/// worker handler thread that is still starting (it has checked its wait
/// predicate but not yet blocked) misses the wakeup and cannot be joined.
/// By the time an idle millisecond has passed the handlers are parked.
double setup_sample_s(const core::ClusterOptions& opts) {
  std::int64_t started = 0;
  const std::int64_t t0 = now_ns();
  core::launch(opts, [&](core::Runtime&) {
    started = now_ns();
    precise_sleep_ns(1'000'000);
  });
  return static_cast<double>(started - t0) / 1e9;
}

/// The process's peak resident set (VmHWM). Not getrusage's ru_maxrss:
/// that one keeps the high-water mark of whatever image exec'd into this
/// process (run.sh execs ompcbench).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Waves past the warm-up of every launch in `ls`.
std::vector<const WaveSample*> steady_waves(const Launches& ls, int warmup) {
  std::vector<const WaveSample*> out;
  for (const LaunchSample* l : ls)
    for (std::size_t k = static_cast<std::size_t>(warmup); k < l->waves.size(); ++k)
      out.push_back(&l->waves[k]);
  return out;
}

std::vector<double> durations_ms(const std::vector<const WaveSample*>& waves) {
  std::vector<double> out;
  out.reserve(waves.size());
  for (const WaveSample* w : waves) out.push_back(ms(w->duration()));
  return out;
}

template <typename Field>
double sum_stat(const Launches& ls, Field field) {
  double total = 0.0;
  for (const LaunchSample* l : ls) total += static_cast<double>(l->stats.*field);
  return total;
}

void end_to_end(const Workload& w, const Launches& ls,
                const std::vector<double>& setup, Result& r) {
  const auto waves = steady_waves(ls, w.warmup_waves);
  const auto n_waves = static_cast<std::int64_t>(waves.size());
  const auto n_launches = static_cast<std::int64_t>(ls.size());
  double tasks = 0.0, busy_s = 0.0;
  for (const WaveSample* s : waves) {
    tasks += static_cast<double>(s->tasks);
    busy_s += static_cast<double>(s->duration()) / 1e9;
  }
  std::vector<double> makespan, cold, teardown;
  for (const LaunchSample* l : ls) {
    makespan.push_back(ms(l->waves.back().end_ns - l->main_ns));
    cold.push_back(ms(l->waves.front().duration()));
    teardown.push_back(ms(l->return_ns - l->main_end_ns));
  }
  const std::vector<double> dur = durations_ms(waves);
  r.metrics = {
      {"setup_s", median(setup), "s", static_cast<std::int64_t>(setup.size())},
      {"tasks_per_s", ratio(tasks, busy_s), "1/s", n_waves},
      {"wave_p50_ms", percentile(dur, 50), "ms", n_waves},
      {"wave_p99_ms", percentile(dur, 99), "ms", n_waves},
      {"makespan_p50_ms", median(makespan), "ms", n_launches},
      {"cold_wave_ms", median(cold), "ms", n_launches},
      {"teardown_ms", median(teardown), "ms", n_launches},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };
}

struct Probes {
  std::vector<double> pingpong[2], put[2], heft;
};

void per_layer(const Workload& w, const Launches& traced,
               const Launches& untraced, const Probes& probes, Result& r) {
  using S = core::RuntimeStats;
  const auto waves = steady_waves(traced, w.warmup_waves);
  const auto n_launches = static_cast<std::int64_t>(traced.size());
  const double launches = static_cast<double>(traced.size());

  // Outside partition of the attributed (Task Bench) waves.
  double wave_ns = 0, unattributed = 0, attributed_tasks = 0;
  double spans = 0, kernel_ns = 0;
  Partition total;
  std::vector<double> dispatch_us, bubble_us, complete_us;
  std::vector<double> estimate_ratio;
  std::int64_t attributed = 0;
  for (const WaveSample* s : waves) {
    const double d = static_cast<double>(s->duration());
    wave_ns += d;
    spans += static_cast<double>(s->spans);
    if (s->estimate_s > 0.0)
      estimate_ratio.push_back(s->estimate_s * 1e9 /
                               static_cast<double>(s->end_ns - s->wait_ns));
    if (!s->attributed) {
      unattributed += d;
      continue;
    }
    ++attributed;
    attributed_tasks += static_cast<double>(s->tasks);
    kernel_ns += static_cast<double>(s->kernel_ns);
    total.record += s->parts.record;
    total.dispatch += s->parts.dispatch;
    total.busy += s->parts.busy;
    total.bubble += s->parts.bubble;
    total.complete += s->parts.complete;
    dispatch_us.push_back(us(s->parts.dispatch));
    bubble_us.push_back(us(s->parts.bubble));
    complete_us.push_back(us(s->parts.complete));
  }
  const auto n_waves = static_cast<std::int64_t>(waves.size());
  const double slots =
      static_cast<double>(w.options.num_workers * w.options.handler_threads);

  // Recovery episodes: the wave whose wait_all absorbed the failure, less
  // the launch's median healthy wave.
  std::vector<double> worker_waves, head_waves, worker_ms, head_ms, program_ms;
  double excess_ns = 0, program_ns = 0, episodes = 0;
  for (const LaunchSample* l : traced) {
    std::vector<double> healthy;
    for (std::size_t k = static_cast<std::size_t>(w.warmup_waves); k < l->waves.size(); ++k)
      if (l->waves[k].episode == Episode::None)
        healthy.push_back(static_cast<double>(l->waves[k].duration()));
    const double h = median(healthy);
    for (const WaveSample& s : l->waves) {
      if (s.episode == Episode::None || h <= 0.0) continue;
      const double excess = static_cast<double>(s.duration()) - h;
      ++episodes;
      excess_ns += excess;
      program_ns += static_cast<double>(s.program_recovery_ns);
      program_ms.push_back(ms(s.program_recovery_ns));
      auto& in_waves = s.episode == Episode::HeadFailover ? head_waves : worker_waves;
      auto& in_ms = s.episode == Episode::HeadFailover ? head_ms : worker_ms;
      in_waves.push_back(excess / h);
      in_ms.push_back(excess / 1e6);
    }
  }

  double makespan_ns = 0;
  for (const LaunchSample* l : traced)
    makespan_ns += static_cast<double>(l->waves.back().end_ns - l->main_ns);
  const double targets = sum_stat(traced, &S::target_tasks);
  const double all_waves = sum_stat(traced, &S::waves);
  const double messages = sum_stat(traced, &S::messages_sent);
  const double transfers = sum_stat(traced, &S::submits) +
                           sum_stat(traced, &S::retrieves) +
                           sum_stat(traced, &S::exchanges);
  const double bytes = sum_stat(traced, &S::bytes_moved);
  const mpi::NetworkModel& net = w.options.network;
  const double wire_ns =
      messages * static_cast<double>(net.latency_ns) +
      (net.bandwidth_Bps > 0.0 ? bytes / net.bandwidth_Bps * 1e9 : 0.0);

  // Tracer overhead: steady-wave medians of the interleaved launches.
  const double p50_on = median(durations_ms(waves));
  const double p50_off = median(durations_ms(steady_waves(untraced, w.warmup_waves)));

  const auto n_probe = static_cast<std::int64_t>(probes.pingpong[0].size());
  r.metrics = {
      {"runtime.record_share", ratio(total.record, wave_ns), "ratio", attributed},
      {"runtime.dispatch_share", ratio(total.dispatch, wave_ns), "ratio", attributed},
      {"runtime.bubble_share", ratio(total.bubble, wave_ns), "ratio", attributed},
      {"runtime.complete_share", ratio(total.complete, wave_ns), "ratio", attributed},
      {"runtime.unattributed_share", ratio(unattributed, wave_ns), "ratio", n_waves},
      {"runtime.schedule_cache_hit_ratio",
       ratio(sum_stat(traced, &S::schedule_cache_hits), all_waves), "ratio", n_launches},
      {"runtime.replayed_tasks_per_episode",
       ratio(sum_stat(traced, &S::replayed_tasks), sum_stat(traced, &S::recoveries)),
       "count", n_launches},
      {"kernel.busy_share", ratio(total.busy, wave_ns), "ratio", attributed},
      {"kernel.slot_utilization", ratio(kernel_ns, wave_ns * slots), "ratio", attributed},
      {"heft.probe_us_per_task", median(probes.heft), "us",
       static_cast<std::int64_t>(probes.heft.size())},
      {"heft.in_run_ms_per_launch", ratio(sum_stat(traced, &S::schedule_ns) / 1e6, launches),
       "ms", n_launches},
      {"heft.estimate_over_measured", median(estimate_ratio), "ratio",
       static_cast<std::int64_t>(estimate_ratio.size())},
      {"helper_pool.threads_spawned_per_launch",
       ratio(sum_stat(traced, &S::threads_spawned), launches), "count", n_launches},
      {"data_manager.transfers_per_task", ratio(transfers, targets), "count", n_launches},
      {"data_manager.bytes_per_task", ratio(bytes, targets), "B", n_launches},
      {"data_manager.copies_per_transfer",
       ratio(sum_stat(traced, &S::payload_copies), transfers), "ratio", n_launches},
      {"data_manager.persistent_reuses_per_wave",
       ratio(sum_stat(traced, &S::persistent_reuses), all_waves), "count", n_launches},
      {"event_system.events_per_task",
       ratio(sum_stat(traced, &S::events_originated), targets), "count", n_launches},
      {"event_system.channels_armed_ratio",
       ratio(sum_stat(traced, &S::channels_armed), all_waves), "ratio", n_launches},
      {"minimpi.messages_per_task", ratio(messages, targets), "count", n_launches},
      {"minimpi.computed_wire_over_makespan", ratio(wire_ns, makespan_ns), "ratio",
       n_launches},
      {"minimpi.inprocess.pingpong_us", median(probes.pingpong[0]), "us", n_probe},
      {"minimpi.shm.pingpong_us", median(probes.pingpong[1]), "us", n_probe},
      {"minimpi.inprocess.put_us", median(probes.put[0]), "us", n_probe},
      {"minimpi.shm.put_us", median(probes.put[1]), "us", n_probe},
      {"checkpoint.capture_share", ratio(sum_stat(traced, &S::checkpoint_ns), makespan_ns),
       "ratio", n_launches},
      {"checkpoint.dirty_bytes_per_wave",
       ratio(sum_stat(traced, &S::checkpoint_dirty_bytes), all_waves), "B", n_launches},
      {"checkpoint.head_bytes_per_wave",
       ratio(sum_stat(traced, &S::checkpoint_head_bytes), all_waves), "B", n_launches},
      {"membership.replication_bytes_per_wave",
       ratio(sum_stat(traced, &S::replication_bytes), all_waves), "B", n_launches},
      {"recovery.episodes_per_launch", ratio(episodes, launches), "count", n_launches},
      {"recovery.worker_waves", median(worker_waves), "waves",
       static_cast<std::int64_t>(worker_waves.size())},
      {"recovery.failover_waves", median(head_waves), "waves",
       static_cast<std::int64_t>(head_waves.size())},
      {"recovery.program_over_outside", ratio(program_ns, excess_ns), "ratio",
       static_cast<std::int64_t>(episodes)},
      {"trace.overhead_pct", p50_off > 0.0 ? (p50_on / p50_off - 1.0) * 100.0 : 0.0, "%",
       n_waves},
      {"trace.spans_per_wave", ratio(spans, static_cast<double>(n_waves)), "count", n_waves},
  };
  // Absolute layer times, printed for reading; the declared metrics above
  // are shares and counts so that they exist on every workload.
  r.details = {
      {"runtime.record_us_per_task", ratio(total.record / 1e3, attributed_tasks), "us",
       attributed},
      {"runtime.dispatch_us", median(dispatch_us), "us", attributed},
      {"runtime.bubble_us", median(bubble_us), "us", attributed},
      {"runtime.complete_us", median(complete_us), "us", attributed},
      {"kernel.us_per_task", ratio(kernel_ns / 1e3, attributed_tasks), "us", attributed},
      {"recovery_ms", median(worker_ms), "ms", static_cast<std::int64_t>(worker_ms.size())},
      {"failover_ms", median(head_ms), "ms", static_cast<std::int64_t>(head_ms.size())},
      {"runtime.program_recovery_ms", median(program_ms), "ms",
       static_cast<std::int64_t>(program_ms.size())},
      {"trace.spans_dropped", static_cast<double>(SpanRecorder::global().dropped()),
       "count", 1},
  };
}

}  // namespace

Result run_workload(const Workload& w, const RunConfig& cfg) {
  Result r;
  std::mt19937_64 rng(cfg.seed);
  std::vector<LaunchSample> launches;
  std::vector<double> setup;
  TraceExport exported;
  SpanRecorder& rec = SpanRecorder::global();
  const auto budget_ns = static_cast<std::int64_t>(cfg.seconds * 1e9);
  const int min_launches = cfg.trace ? 4 : 2;  // both kill kinds, both modes
  // The budget counts measured launches only. Set-up samples (untraced
  // runs) are spread over the run in step with it, so that they see the
  // same machine as the waves instead of only its first second.
  std::int64_t measured_ns = 0;
  const auto sample_setup = [&](double share) {
    const auto want = static_cast<std::size_t>(
        std::ceil(cfg.setup_samples * std::min(1.0, share)));
    while (!cfg.trace && setup.size() < want) setup.push_back(setup_sample_s(w.options));
  };
  for (int i = 0;; ++i) {
    LaunchContext ctx;
    ctx.index = i;
    ctx.traced = cfg.trace && (i / 2) % 2 == 1;
    ctx.rng = &rng;
    if (!cfg.trace_file.empty()) ctx.exported = &exported;
    rec.enable(ctx.traced);
    const std::int64_t l0 = now_ns();
    launches.push_back(w.launch(ctx));
    const std::int64_t last = now_ns() - l0;
    measured_ns += last;
    sample_setup(static_cast<double>(measured_ns) / static_cast<double>(budget_ns));
    if (i + 1 >= min_launches && measured_ns + last > budget_ns) break;
  }
  rec.enable(false);
  sample_setup(1.0);

  Launches ok_traced, ok_untraced;
  for (const LaunchSample& l : launches) {
    r.attempted += l.planned_waves;
    if (!l.ok || l.waves.empty()) {
      r.failed += l.planned_waves;
      continue;
    }
    (l.traced ? ok_traced : ok_untraced).push_back(&l);
  }
  r.correct = r.failed == 0;
  // The failed launches hold the waves that went wrong (a recovery that
  // threw, say); timings of the survivors alone would read as a gain.
  if (!r.correct) return r;

  if (!cfg.trace) {
    end_to_end(w, ok_untraced, setup, r);
    return r;
  }
  Probes probes;
  const mpi::ConduitKind kinds[] = {mpi::ConduitKind::InProcess, mpi::ConduitKind::Shm};
  for (int k = 0; k < 2; ++k) {
    probes.pingpong[k] = pingpong_us(kinds[k], cfg.probe_samples);
    probes.put[k] = put_flush_us(kinds[k], cfg.probe_samples);
  }
  const Workload* ccr = find_workload("tb_ccr");
  probes.heft = heft_us_per_task(ccr->spec, ccr->options, cfg.heft_calls);
  if (probes.heft.empty()) r.correct = false;
  per_layer(w, ok_traced, ok_untraced, probes, r);
  if (!cfg.trace_file.empty() && !write_chrome_trace(cfg.trace_file, exported.spans)) {
    std::fprintf(stderr, "ompcbench: cannot write %s\n", cfg.trace_file.c_str());
    r.correct = false;
  }
  return r;
}

}  // namespace ompcbench
