// Launches at the paper's scale: Fig. 5 and §7 run 64 worker nodes. Empty
// launches at 64 and 128 workers must return, and one Task Bench wave at 64
// workers must reproduce the sequential checksum. A hang fails through the
// CTest timeout.
//
// In-process conduit only: the shm conduit maps R² rings of 64 KiB, about
// 1 GiB at 128 workers, so the OMPC_CONDUIT override skips these cases.
#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "taskbench/kernel.hpp"
#include "taskbench/runners.hpp"

namespace ompc::core {
namespace {

bool conduit_overridden() {
  return mpi::resolve_conduit_kind(mpi::ConduitKind::InProcess) !=
         mpi::ConduitKind::InProcess;
}

TEST(WideLaunch, EmptyLaunchesReturnAt64And128Workers) {
  if (conduit_overridden())
    GTEST_SKIP() << "OMPC_CONDUIT overrides the in-process conduit";
  for (const int workers : {64, 128}) {
    ClusterOptions opts;
    opts.num_workers = workers;
    launch(opts, [](Runtime&) {});
  }
  SUCCEED();
}

TEST(WideLaunch, StencilWaveAt64WorkersMatchesTheReference) {
  if (conduit_overridden())
    GTEST_SKIP() << "OMPC_CONDUIT overrides the in-process conduit";
  taskbench::TaskBenchSpec spec;
  spec.pattern = taskbench::Pattern::Stencil1D;
  spec.width = 128;
  spec.steps = 2;
  spec.iterations = 0;
  spec.output_bytes = 32;
  spec.mode = taskbench::KernelMode::Sleep;
  ClusterOptions opts;
  opts.num_workers = 64;
  opts.network = {};
  const taskbench::RunResult r = taskbench::run_ompc_stepwise(spec, opts);
  EXPECT_EQ(r.checksum, taskbench::expected_checksum(spec));
}

}  // namespace
}  // namespace ompc::core
