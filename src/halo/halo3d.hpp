// 3D halo-exchange workload: an N-neighbor stencil over a periodic grid of
// subdomains, run as target tasks over the cluster device. Every iteration
// is two tasks per subdomain — pack (boundary layers -> 6 face buffers) and
// update (7-point stencil reading the 6 facing neighbor faces) — with one
// wait_all() per iteration, so steady state is the SAME wave re-recorded
// every step: the schedule cache hits and the runtime arms its per-wave
// ChannelPlan (bench/fig5_halo gates exactly that). Shared by examples/halo3d, bench/fig5_halo and tests/test_halo.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/runtime.hpp"

namespace ompc::halo {

/// Workload shape: an nx x ny x nz periodic grid of cubic subdomains,
/// `cells` cells per side each, advanced `iters` stencil iterations.
struct HaloSpec {
  int nx = 2;
  int ny = 2;
  int nz = 1;
  int cells = 8;
  int iters = 4;

  int subdomains() const noexcept { return nx * ny * nz; }
};

struct HaloResult {
  core::RuntimeStats stats;
  /// FNV-1a over the final field bits (subdomain-major) — bitwise result
  /// identity, used to compare recovery runs and the serial reference.
  std::uint64_t checksum = 0;
  /// Head wall time of each iteration (task recording + wait_all).
  std::vector<std::int64_t> iter_ns;
};

/// Runs the workload through the cluster runtime. The caller owns every
/// knob via `opts` (conduit, checkpointing, kills...).
/// `before_iter`, when set, runs on the head before each iteration's tasks
/// are recorded — the membership tests use it to join/leave workers while
/// channels are armed.
HaloResult run_halo3d(
    const core::ClusterOptions& opts, const HaloSpec& spec,
    const std::function<void(core::Runtime&, int)>& before_iter = {});

/// Bit-exact serial oracle: the same pack/update arithmetic on host
/// vectors, no runtime involved.
std::uint64_t serial_checksum(const HaloSpec& spec);

}  // namespace ompc::halo
