#include "probes.hpp"

#include <cstdint>

#include "common/time.hpp"
#include "core/heft.hpp"
#include "taskbench/spec.hpp"

namespace ompcbench {
namespace {

using namespace ompc;

mpi::UniverseOptions pair_options(mpi::ConduitKind kind) {
  mpi::UniverseOptions o;
  o.ranks = 2;
  o.conduit = kind;  // network left instant: software cost only
  return o;
}

constexpr int kWarmup = 100;

}  // namespace

std::vector<double> pingpong_us(mpi::ConduitKind kind, int round_trips) {
  constexpr mpi::Tag kTag = 20;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(round_trips));
  mpi::Universe::launch(pair_options(kind), [&](mpi::RankContext& ctx) {
    const mpi::Comm comm = ctx.world();
    std::uint64_t token = 1;
    for (int i = -kWarmup; i < round_trips; ++i) {
      if (ctx.rank() == 0) {
        const std::int64_t t0 = now_ns();
        comm.send(&token, sizeof token, 1, kTag);
        comm.recv(&token, sizeof token, 1, kTag + 1);
        if (i >= 0) samples.push_back(static_cast<double>(now_ns() - t0) / 2e3);
      } else {
        comm.recv(&token, sizeof token, 0, kTag);
        comm.send(&token, sizeof token, 0, kTag + 1);
      }
    }
  });
  return samples;
}

std::vector<double> put_flush_us(mpi::ConduitKind kind, int puts) {
  constexpr mpi::WindowId kWindow = 1;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(puts));
  mpi::Universe::launch(pair_options(kind), [&](mpi::RankContext& ctx) {
    const mpi::Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      std::uint64_t cell = 0;
      const mpi::Window win = comm.win_create(kWindow, &cell, sizeof cell);
      comm.barrier();  // window is up
      comm.barrier();  // origin is done
      return;
    }
    comm.barrier();
    const std::uint64_t v = 7;
    for (int i = -kWarmup; i < puts; ++i) {
      const std::int64_t t0 = now_ns();
      comm.put(1, kWindow, 0, mpi::Payload::copy_of(&v, sizeof v));
      comm.flush(1);
      if (i >= 0) samples.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    comm.barrier();
  });
  return samples;
}

std::vector<double> heft_us_per_task(const taskbench::TaskBenchSpec& spec,
                                     const core::ClusterOptions& opts,
                                     int calls) {
  // Stand-in buffers give the dependences distinct addresses; the size
  // function weighs every edge with the task output size, as the runtime's
  // registry would.
  const std::size_t out_bytes = std::max<std::size_t>(16, spec.output_bytes);
  std::vector<std::byte> rows(2 * static_cast<std::size_t>(spec.width));
  const auto buffer = [&](int t, int i) -> const void* {
    return &rows[static_cast<std::size_t>(t % 2 * spec.width + i)];
  };
  core::ClusterGraph graph([out_bytes](const void*) { return out_bytes; });
  for (int t = 0; t < spec.steps; ++t) {
    for (int i = 0; i < spec.width; ++i) {
      core::ClusterTask task;
      task.type = core::TaskType::Target;
      task.cost_s = spec.task_seconds();
      task.deps.push_back(omp::inout(buffer(t, i)));
      for (int j : taskbench::dependencies(spec, t, i))
        task.deps.push_back(omp::in(buffer(t + 1, j)));
      graph.add_task(std::move(task));
    }
  }
  graph.build_edges();

  const core::CostModel cost = core::CostModel::from_network(opts.network);
  const double tasks = static_cast<double>(graph.size());
  std::vector<double> samples;
  for (int c = 0; c < calls; ++c) {
    const std::int64_t t0 = now_ns();
    const core::ScheduleResult sched =
        core::schedule(core::SchedulerKind::Heft, graph, opts.num_workers,
                       cost, opts.default_task_cost_s, opts.seed);
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e3 / tasks);
    if (sched.processor.size() != graph.size()) return {};
  }
  return samples;
}

}  // namespace ompcbench
