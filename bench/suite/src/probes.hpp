// Layer probes of the traced run: direct calls into one layer, away from
// any workload, so a layer's own cost is visible without the rest of the
// wave around it.
#pragma once

#include <vector>

#include "core/options.hpp"
#include "minimpi/mpi.hpp"
#include "taskbench/spec.hpp"

namespace ompcbench {

namespace core = ompc::core;
namespace mpi = ompc::mpi;
namespace taskbench = ompc::taskbench;

/// One-way latency samples (us) of an 8-byte ping-pong between two ranks
/// of an instant-network Universe over `kind`, one per round trip.
std::vector<double> pingpong_us(mpi::ConduitKind kind, int round_trips);

/// Samples (us) of one 8-byte one-sided put followed by a flush.
std::vector<double> put_flush_us(mpi::ConduitKind kind, int puts);

/// Samples (us per task) of core::schedule(Heft) on the target tasks of
/// `spec` recorded as one graph, placed over `opts.num_workers` workers
/// with `opts.network` as the cost model.
std::vector<double> heft_us_per_task(const taskbench::TaskBenchSpec& spec,
                                     const core::ClusterOptions& opts,
                                     int calls);

}  // namespace ompcbench
