#include "workloads.hpp"

#include <cstdio>
#include <exception>

#include "common/time.hpp"
#include "halo/halo3d.hpp"
#include "offload/kernel_registry.hpp"
#include "taskbench/kernel.hpp"

namespace ompcbench {
namespace {

using namespace ompc;
using taskbench::KernelMode;
using taskbench::Pattern;
using taskbench::TaskBenchSpec;

constexpr const char* kKernelSpan = "kernel";

/// The Task Bench point kernel, run through the library's public
/// point_compute so outputs (and the expected_checksum oracle) are the
/// library's own; the wrapper adds only the kernel span. Buffers: [0] own
/// output, [1..] dependency inputs. Scalars: t, i, mode, iterations,
/// output bytes, wave tag, task id.
const offload::KernelId kPointKernel =
    offload::KernelRegistry::instance().register_kernel(
        "ompcbench_point", [](offload::KernelContext& ctx) {
          SpanRecorder& rec = SpanRecorder::global();
          const bool traced = rec.on();
          const std::int64_t t0 = traced ? now_ns() : 0;
          auto r = ctx.scalars();
          const int t = r.get<int>();
          const int i = r.get<int>();
          TaskBenchSpec k;
          k.mode = r.get<KernelMode>();
          k.iterations = r.get<std::int64_t>();
          k.output_bytes = r.get<std::uint64_t>();
          const auto wave = r.get<std::int64_t>();
          const auto task = r.get<std::int64_t>();
          std::vector<std::uint64_t> ins;
          ins.reserve(ctx.num_buffers() - 1);
          for (std::size_t b = 1; b < ctx.num_buffers(); ++b)
            ins.push_back(taskbench::read_digest(
                std::span<const std::byte>(ctx.buffer<std::byte>(b), 8)));
          taskbench::point_compute(
              k, t, i, ins,
              std::span<std::byte>(ctx.buffer<std::byte>(0), k.output_bytes));
          if (traced)
            rec.record({kKernelSpan, task, wave, ctx.device(), t0, now_ns()});
        });

/// The figure benches' dilated interconnect (bench/bench_util.hpp): 20 us
/// latency, 100 MB/s per link, 8 hardware channels.
constexpr mpi::NetworkModel kBenchNetwork{20'000, 100.0e6, 8};

/// Closes a wave: wait_all, then the episode and estimate read from the
/// live RuntimeStats, then (traced) the partition from the drained spans.
void finish_wave(core::Runtime& rt, WaveSample& wave, std::int64_t tag,
                 LaunchContext& ctx, std::size_t* cursor) {
  const core::RuntimeStats before = rt.stats();
  wave.wait_ns = now_ns();
  rt.wait_all();
  wave.end_ns = now_ns();
  const core::RuntimeStats& after = rt.stats();
  if (after.failovers > before.failovers)
    wave.episode = Episode::HeadFailover;
  else if (after.recoveries > before.recoveries)
    wave.episode = Episode::WorkerRecovery;
  wave.program_recovery_ns =
      after.recovery_latency_ns - before.recovery_latency_ns;
  wave.estimate_s = after.makespan_estimate_s;
  if (!ctx.traced) return;

  std::vector<Span> spans = SpanRecorder::global().drain(cursor);
  std::vector<Interval> kernels;
  for (const Span& s : spans) {
    if (s.name != kKernelSpan || s.parent != tag) continue;
    kernels.push_back({s.start_ns, s.end_ns});
    wave.kernel_ns += s.end_ns - s.start_ns;
  }
  wave.parts = partition_wave(wave.start_ns, wave.wait_ns, wave.end_ns,
                              std::move(kernels));
  wave.attributed = true;
  const std::int64_t launch_tag = tag >> 32 << 32;
  spans.push_back({"record", tag, launch_tag, 0, wave.start_ns, wave.wait_ns});
  spans.push_back({"wait_all", tag, launch_tag, 0, wave.wait_ns, wave.end_ns});
  spans.push_back({"wave", tag, launch_tag, 0, wave.start_ns, wave.end_ns});
  wave.spans = static_cast<std::int64_t>(spans.size());
  if (ctx.exported != nullptr && ctx.exported->waves < TraceExport::kWaves) {
    ctx.exported->spans.insert(ctx.exported->spans.end(), spans.begin(), spans.end());
    ++ctx.exported->waves;
  }
}

/// One launch of a Task Bench graph with the runner's ping-pong buffer
/// scheme (taskbench/ompc_runner.cpp): one wave per step when `stepwise`,
/// else the whole graph as a single wave.
LaunchSample taskbench_launch(const TaskBenchSpec& spec, bool stepwise,
                              const core::ClusterOptions& opts,
                              std::uint64_t expect, LaunchContext& ctx) {
  const auto w = static_cast<std::size_t>(spec.width);
  const std::size_t out_bytes = std::max<std::size_t>(16, spec.output_bytes);
  std::vector<std::vector<Bytes>> rows(2, std::vector<Bytes>(w));
  for (auto& row : rows)
    for (auto& b : row) b.assign(out_bytes, std::byte{0});

  SpanRecorder::global().reset();  // the previous launch's ranks are joined
  std::size_t cursor = 0;
  const std::int64_t launch_tag = static_cast<std::int64_t>(ctx.index) << 32;

  LaunchSample s;
  s.traced = ctx.traced;
  s.planned_waves = stepwise ? spec.steps : 1;
  s.waves.reserve(static_cast<std::size_t>(s.planned_waves));
  try {
    s.stats = core::launch(opts, [&](core::Runtime& rt) {
      s.main_ns = now_ns();
      for (auto& row : rows)
        for (auto& b : row) rt.enter_data(b.data(), b.size());
      WaveSample wave;
      wave.start_ns = s.main_ns;
      for (int t = 0; t < spec.steps; ++t) {
        const std::int64_t tag = launch_tag | (stepwise ? t : 0);
        auto& cur = rows[static_cast<std::size_t>(t % 2)];
        auto& prev = rows[static_cast<std::size_t>((t + 1) % 2)];
        for (int i = 0; i < spec.width; ++i) {
          core::Args args;
          omp::DepList deps;
          Bytes& out = cur[static_cast<std::size_t>(i)];
          args.buf(out.data());
          deps.push_back(omp::inout(out.data()));
          for (int j : taskbench::dependencies(spec, t, i)) {
            Bytes& in = prev[static_cast<std::size_t>(j)];
            args.buf(in.data());
            deps.push_back(omp::in(in.data()));
          }
          args.scalar(t).scalar(i).scalar(spec.mode).scalar(spec.iterations)
              .scalar<std::uint64_t>(out_bytes).scalar(tag)
              .scalar<std::int64_t>(static_cast<std::int64_t>(t) * spec.width + i);
          rt.target(std::move(deps), kPointKernel, std::move(args),
                    spec.task_seconds());
        }
        wave.tasks += spec.width;
        if (!stepwise && t + 1 < spec.steps) continue;
        finish_wave(rt, wave, tag, ctx, &cursor);
        s.waves.push_back(wave);
        wave = WaveSample{};
        wave.start_ns = s.waves.back().end_ns;
      }
      const auto final_row = static_cast<std::size_t>((spec.steps - 1) % 2);
      for (std::size_t p = 0; p < 2; ++p)
        for (auto& b : rows[p]) rt.exit_data(b.data(), p == final_row);
      s.main_end_ns = now_ns();
    });
    s.return_ns = now_ns();
    std::vector<std::uint64_t> digests;
    for (const Bytes& b : rows[static_cast<std::size_t>((spec.steps - 1) % 2)])
      digests.push_back(taskbench::read_digest(b));
    s.ok = taskbench::combine_digests(digests) == expect;
    if (!s.ok) std::fprintf(stderr, "ompcbench: launch %d checksum mismatch\n", ctx.index);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ompcbench: launch %d failed: %s\n", ctx.index, e.what());
    s.ok = false;
  }
  return s;
}

LaunchSample halo_launch(const halo::HaloSpec& spec,
                         const core::ClusterOptions& opts,
                         std::uint64_t expect, LaunchContext& ctx) {
  LaunchSample s;
  s.traced = ctx.traced;
  s.planned_waves = spec.iters;
  // run_halo3d records internally: from outside, an iteration starts at its
  // before_iter hook and lasts its reported iter_ns. The hook also reads
  // the previous iteration's HEFT estimate off the live stats.
  std::vector<std::int64_t> begin_ns;
  std::vector<double> estimates;
  begin_ns.reserve(static_cast<std::size_t>(spec.iters));
  estimates.reserve(static_cast<std::size_t>(spec.iters));
  try {
    const halo::HaloResult res =
        halo::run_halo3d(opts, spec, [&](core::Runtime& rt, int) {
          begin_ns.push_back(now_ns());
          estimates.push_back(rt.stats().makespan_estimate_s);
        });
    s.return_ns = now_ns();
    s.stats = res.stats;
    s.ok = res.checksum == expect && res.iter_ns.size() == begin_ns.size() &&
           !begin_ns.empty();
    if (!s.ok) {
      std::fprintf(stderr, "ompcbench: launch %d checksum mismatch\n", ctx.index);
      return s;
    }
    for (std::size_t k = 0; k < begin_ns.size(); ++k) {
      WaveSample w;
      w.start_ns = w.wait_ns = begin_ns[k];
      w.end_ns = begin_ns[k] + res.iter_ns[k];
      w.tasks = 2 * spec.subdomains();
      w.estimate_s = k + 1 < estimates.size() ? estimates[k + 1] : 0.0;
      if (ctx.traced && ctx.exported != nullptr &&
          ctx.exported->waves < TraceExport::kWaves) {
        const std::int64_t launch_tag = static_cast<std::int64_t>(ctx.index) << 32;
        ctx.exported->spans.push_back({"wave", launch_tag | static_cast<std::int64_t>(k),
                                       launch_tag, 0, w.start_ns, w.end_ns});
        ++ctx.exported->waves;
      }
      s.waves.push_back(w);
    }
    s.main_ns = begin_ns.front();
    s.main_end_ns = s.waves.back().end_ns;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ompcbench: launch %d failed: %s\n", ctx.index, e.what());
    s.ok = false;
  }
  return s;
}

std::vector<Workload> build_workloads() {
  std::vector<Workload> list;

  // tb_overhead: zero-work kernels on an instant in-process network, so the
  // wave time is runtime software (record, schedule-cache hit, helper-pool
  // dispatch, Data Manager, event system, mailbox) and nothing else.
  {
    TaskBenchSpec spec;
    spec.pattern = Pattern::Stencil1D;
    spec.width = 16;
    spec.steps = 500;
    spec.iterations = 0;
    spec.output_bytes = 64;
    Workload w;
    w.name = "tb_overhead";
    w.spec = spec;
    w.options.num_workers = 2;
    w.options.network = mpi::NetworkModel{};
    const std::uint64_t expect = taskbench::expected_checksum(spec);
    const core::ClusterOptions opts = w.options;
    w.launch = [spec, opts, expect](LaunchContext& ctx) {
      return taskbench_launch(spec, true, opts, expect, ctx);
    };
    list.push_back(std::move(w));
  }

  // tb_ccr: the paper's Fig. 6 setup at CCR 1 on the bench network. One
  // graph per launch, so HEFT places the whole graph (the schedule cache
  // never hits) and time goes to kernels, paced wire and placement.
  {
    TaskBenchSpec spec;
    spec.pattern = Pattern::Fft;
    spec.width = 16;
    spec.steps = 128;
    spec.iterations = 100'000;  // 0.5 ms Sleep tasks
    spec.mode = KernelMode::Sleep;
    spec.output_bytes =
        taskbench::bytes_for_ccr(spec.task_seconds(), 1.0, kBenchNetwork);
    Workload w;
    w.name = "tb_ccr";
    w.spec = spec;
    w.options.num_workers = 4;
    w.options.network = kBenchNetwork;
    w.warmup_waves = 0;  // one wave per launch
    const std::uint64_t expect = taskbench::expected_checksum(spec);
    const core::ClusterOptions opts = w.options;
    w.launch = [spec, opts, expect](LaunchContext& ctx) {
      return taskbench_launch(spec, false, opts, expect, ctx);
    };
    list.push_back(std::move(w));
  }

  // halo3d_shm: the application-shaped iterative stencil (real compute,
  // RMA puts, an armed ChannelPlan) over the POSIX-shm conduit, whose pace
  // sets the iteration time: a transport change moves this workload only.
  {
    halo::HaloSpec spec;
    spec.nx = spec.ny = spec.nz = 2;
    spec.cells = 8;
    spec.iters = 150;
    Workload w;
    w.name = "halo3d_shm";
    w.options.num_workers = 2;
    w.options.network = mpi::NetworkModel{};
    w.options.conduit = mpi::ConduitKind::Shm;
    const std::uint64_t expect = halo::serial_checksum(spec);
    const core::ClusterOptions opts = w.options;
    w.launch = [spec, opts, expect](LaunchContext& ctx) {
      return halo_launch(spec, opts, expect, ctx);
    };
    list.push_back(std::move(w));
  }

  // tb_ft: the only workload that checkpoints, replicates head state and
  // recovers. Launches alternate between killing a worker and killing the
  // head; the seed draws the kill offset and the victim worker.
  {
    TaskBenchSpec spec;
    spec.pattern = Pattern::Stencil1D;
    spec.width = 8;
    spec.steps = 60;
    spec.iterations = 200'000;  // 1 ms Sleep tasks
    spec.mode = KernelMode::Sleep;
    spec.output_bytes = 4096;
    Workload w;
    w.name = "tb_ft";
    w.spec = spec;
    w.options.num_workers = 3;
    w.options.network = kBenchNetwork;
    w.options.checkpoint_period = 1;
    w.options.heartbeat_period_ms = 5;
    w.options.heartbeat_timeout_ms = 60;
    const std::uint64_t expect = taskbench::expected_checksum(spec);
    const core::ClusterOptions base = w.options;
    w.launch = [spec, base, expect](LaunchContext& ctx) {
      std::uniform_int_distribution<std::int64_t> offset_ns(30'000'000,
                                                            50'000'000);
      std::uniform_int_distribution<int> victim(1, base.num_workers);
      const std::int64_t at_ns = offset_ns(*ctx.rng);
      const int worker = victim(*ctx.rng);
      core::ClusterOptions opts = base;
      opts.kills.push_back({ctx.index % 2 == 0 ? worker : 0, at_ns});
      return taskbench_launch(spec, true, opts, expect, ctx);
    };
    list.push_back(std::move(w));
  }
  return list;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = build_workloads();
  return list;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace ompcbench
