// Configuration of the OMPC cluster runtime.
#pragma once

#include <cstdint>
#include <vector>

#include "minimpi/mpi.hpp"

namespace ompc::core {

/// How the head node drives in-flight target regions (paper §7).
enum class AsyncMode {
  /// LLVM's behaviour: one head thread blocks per in-flight `target
  /// nowait` region, so at most `helper_threads` regions are in flight.
  /// This reproduces the paper's 32/64-node saturation in Fig. 5.
  HelperThreads,
  /// The paper's proposed fix ("two-step" dispatch through an operation
  /// queue): in-flight regions are not bounded by head threads.
  TwoStep,
};

/// How the Data Manager moves a buffer between two workers (§4.3).
enum class Forwarding {
  /// Direct worker->worker exchange commanded by the head (the paper's
  /// design: the head orchestrates but the data never passes through it).
  Direct,
  /// Strawman for bench/ablation_forwarding: retrieve to the head, then
  /// submit to the consumer (what a naive single-device runtime would do).
  ViaHead,
};

/// Where the §5 wave-boundary snapshot bytes live (the checkpoint data
/// plane). The paper only requires a *consistent* snapshot, not a
/// head-resident one — worker-local placement takes the capture cost off
/// the head NIC entirely (bench/micro_checkpoint gates this).
enum class CheckpointLocality {
  /// PR 1/PR 3 baseline: every dirty buffer is retrieved to the head and
  /// copied there — capture cost scales with dirty bytes × head bandwidth.
  Head,
  /// Each worker snapshots its dirty buffers into device-local shadow
  /// copies and puts one replica on a buddy rank (the owner's ring
  /// successor among the live workers); the head keeps metadata only
  /// (plus bytes for head-resident buffers). Recovery survives the owner's
  /// death; owner AND buddy dying in one period degrades to a clean
  /// RecoveryError (or the head entry when one exists). With fewer than
  /// two live workers there is no buddy and the owner's shadow is the
  /// only copy.
  Buddy,
};

/// Task-to-worker scheduling policy (§4.4 + ablations).
enum class SchedulerKind {
  Heft,        ///< The paper's HEFT with its two adaptations.
  RoundRobin,  ///< tasks striped over workers in creation order
  Random,      ///< uniform random placement (seeded)
  MinLoad,     ///< greedy earliest-available-worker, ignores communication
};

struct ClusterOptions {
  /// Worker nodes (the paper's "nodes"); the head is one extra rank.
  int num_workers = 2;

  /// Head-node threads that drive in-flight target regions under
  /// AsyncMode::HelperThreads. Default 48 = the paper's head (2x24 cores
  /// with 48 threads usable), which is what makes width>48 graphs saturate.
  int helper_threads = 48;

  /// Event-handler threads per rank (§4.2 "a set of threads ... executing
  /// the events present in the local queue").
  int handler_threads = 2;

  /// Per-worker threads for second-level parallelism inside kernels.
  int worker_threads = 2;

  /// Admission control (multi-tenancy): max waves queued per tenant before
  /// Runtime::submit throws AdmissionError (submit_wait blocks instead).
  /// 0 = unbounded.
  int max_pending_waves = 8;

  /// Number of data communicators; events are striped over them by tag
  /// (the paper's VCI usage, §4.2/§6.1).
  int vci = 4;

  AsyncMode async_mode = AsyncMode::HelperThreads;
  Forwarding forwarding = Forwarding::Direct;
  SchedulerKind scheduler = SchedulerKind::Heft;

  /// Transport conduit for the simulated universe (see minimpi/conduit.hpp;
  /// the OMPC_CONDUIT environment variable overrides this process-wide and
  /// is validated at Universe construction).
  mpi::ConduitKind conduit = mpi::ConduitKind::InProcess;

  /// Simulated interconnect. Default roughly dilates the paper's EDR
  /// InfiniBand consistently with 1/25-dilated compute: 2 us latency and
  /// ~12.5 GB/s per link become 50 us and 500 MB/s.
  mpi::NetworkModel network{50'000, 500.0e6, 8};

  /// Default compute-cost estimate (seconds) the HEFT cost model assumes
  /// for target tasks that carry no explicit hint.
  double default_task_cost_s = 1.0e-3;

  /// Heartbeat period for the fault-detection ring (0 = disabled). With the
  /// ring enabled a dead worker is detected within ~heartbeat_timeout_ms
  /// and reported to the head, which triggers recovery in wait_all().
  std::int64_t heartbeat_period_ms = 0;

  /// Ceiling of the silence threshold before a ring neighbour is declared
  /// dead. The threshold itself is adaptive: an EWMA of the measured ping
  /// gaps, mean + 6·deviation + one period, never below 4 periods. A slow
  /// (sanitized, loaded) run widens its own threshold instead of needing
  /// an inflated static timeout; a punctual one detects well below this.
  std::int64_t heartbeat_timeout_ms = 100;

  /// Waves between buffer checkpoints (paper §5): 1 = snapshot at every
  /// wait_all() boundary, k = every k-th, 0 = fault tolerance disabled (a
  /// detected failure raises RecoveryError instead of recovering). A wave
  /// that maps a buffer is snapshotted before it runs as well, so a replay
  /// re-enters the buffer from its entered bytes. Larger periods cost less
  /// in steady state but re-execute more waves on failure —
  /// bench/ablation_recovery measures the trade.
  int checkpoint_period = 0;

  /// Snapshot placement policy (see CheckpointLocality). Head is the
  /// ablation baseline; Buddy keeps capture traffic through the head to
  /// O(metadata) while surviving the snapshot owner's death.
  CheckpointLocality checkpoint_locality = CheckpointLocality::Head;

  /// Replicate the head's recording state (wave log, ownership map,
  /// checkpoint metadata) to a shadow worker at every wave boundary, so a
  /// surviving rank can be elected head and resume from the last committed
  /// wave when the head dies. Requires checkpoint_period > 0 and the
  /// heartbeat ring (detection + election ride on it).
  bool head_replication = true;

  /// Extra ranks launched as workers but left out of the initial schedule:
  /// the elastic pool Runtime::request_join() activates at a wave boundary
  /// (they heartbeat and serve events from the start, so joining is pure
  /// bookkeeping — no process launch).
  int spare_workers = 0;

  /// Fault injection forwarded to the simulated universe: each entry kills
  /// one rank at a fixed time offset (deterministic, testable failures).
  std::vector<mpi::KillSpec> kills;

  /// Seed for SchedulerKind::Random.
  std::uint64_t seed = 0x5eed;

  /// Ranks in the universe (head + workers + spare workers).
  int ranks() const noexcept { return num_workers + spare_workers + 1; }

  /// Workers booted at launch (initial + spares); spares only become
  /// schedulable after Runtime::request_join().
  int total_workers() const noexcept { return num_workers + spare_workers; }

  /// Cluster-scaled head pool size: enough in-flight jobs to saturate
  /// every worker's executor and transfer pipeline. The TwoStep dispatch
  /// pool's and the transfer pool's ceiling.
  int cluster_pool_threads() const noexcept { return 16 + 3 * num_workers; }

  /// Threads a head pool capped at `max_threads` spawns at launch; demand
  /// grows it from there up to the cap (the §7 in-flight-region bound).
  int pool_floor(int max_threads) const noexcept {
    const int floor = 4 + num_workers;
    return floor < max_threads ? floor : max_threads;
  }
};

}  // namespace ompc::core
