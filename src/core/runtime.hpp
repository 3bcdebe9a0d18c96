// The OMPC runtime facade — the user-visible programming model.
//
// This is the C++-API equivalent of the paper's pragma surface (Listing 1):
//
//   #pragma omp target enter data map(to: A[:N]) nowait depend(out: *A)
//     -> rt.enter_data(A, N * sizeof *A);
//   #pragma omp target nowait depend(inout: *A)   { foo(A); }
//     -> rt.target({omp::inout(A)}, foo_kernel_id, Args().buf(A));
//   #pragma omp target exit data map(from: A[:N]) nowait depend(inout: *A)
//     -> rt.exit_data(A);
//   (implicit barrier at the end of the parallel region)
//     -> rt.wait_all();
//
// Execution model (paper §3.1/§4.4): the control thread only *records*
// tasks; nothing runs until wait_all(), when the whole graph is scheduled
// with HEFT and dispatched. Under AsyncMode::HelperThreads each in-flight
// target region occupies one blocked helper thread — LLVM's libomptarget
// behaviour and the §7 scalability bottleneck; AsyncMode::TwoStep lifts the
// bound (the paper's proposed fix).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/checkpoint.hpp"
#include "core/data_manager.hpp"
#include "core/fault.hpp"
#include "core/graph.hpp"
#include "core/heft.hpp"
#include "core/helper_pool.hpp"
#include "core/options.hpp"
#include "core/tenant.hpp"
#include "core/wave_log.hpp"

namespace ompc::core {

/// Timing/counter summary of one cluster run, the measurements Fig. 7(a)
/// reports (startup / schedule / shutdown vs total wall time).
struct RuntimeStats {
  std::int64_t startup_ns = 0;   ///< process begin -> gate threads live
  std::int64_t schedule_ns = 0;  ///< total HEFT time across waves
  std::int64_t shutdown_ns = 0;  ///< shutdown begin -> universe joined
  std::int64_t wall_ns = 0;      ///< whole launch()

  std::int64_t waves = 0;
  std::int64_t target_tasks = 0;
  std::int64_t data_tasks = 0;
  std::int64_t host_tasks = 0;

  std::int64_t events_originated = 0;
  // Destination halves, summed over every rank's event system.
  std::int64_t events_handled = 0;  ///< events run to completion
  std::int64_t events_parked = 0;   ///< times an event waited on pending I/O
  std::int64_t event_wakeups = 0;   ///< parked events put back on the queue
  std::int64_t submits = 0;
  std::int64_t retrieves = 0;
  std::int64_t exchanges = 0;
  std::int64_t bytes_moved = 0;
  std::int64_t messages_sent = 0;
  double makespan_estimate_s = 0.0;  ///< HEFT's prediction (last wave)

  // Fault tolerance (§5): checkpoint cost and recovery work.
  std::int64_t checkpoints = 0;       ///< wave-boundary snapshots taken
  std::int64_t checkpoint_bytes = 0;  ///< cumulative logical snapshot volume
  std::int64_t checkpoint_dirty_bytes = 0;  ///< bytes actually snapshotted
                                            ///< (the dirty subset)
  std::int64_t checkpoint_head_bytes = 0;  ///< capture bytes through the
                                           ///< head NIC (payload retrieves +
                                           ///< snapshot-command metadata) —
                                           ///< O(metadata) under Buddy mode
  std::int64_t snapshot_replicas = 0;  ///< buddy replicas shipped
                                       ///< worker->worker at boundaries
  std::int64_t checkpoint_ns = 0;     ///< cumulative capture wall time
  std::int64_t recoveries = 0;        ///< rollback + re-execution rounds
  std::int64_t workers_lost = 0;      ///< ranks declared dead and dropped
  std::int64_t buffers_lost = 0;      ///< sole-copy buffers restored
  std::int64_t replayed_tasks = 0;    ///< tasks re-executed after rollback
  std::int64_t recovery_ns = 0;       ///< rollback + replay wall time
  std::int64_t recovery_latency_ns = 0;  ///< failure detection -> replay
                                         ///< complete, summed per episode

  // Head failover + elastic membership (replicated head state, ring
  // election, runtime join/leave). Counters survive a head handoff: the
  // promoted head adopts the replica's stats block instead of zeroing.
  std::int64_t failovers = 0;            ///< head deaths survived by election
  std::int64_t replication_updates = 0;  ///< head-state deltas shipped to the
                                         ///< shadow rank at wave boundaries
  std::int64_t replication_bytes = 0;    ///< cumulative replication payload
  std::int64_t workers_joined = 0;       ///< ranks admitted at runtime
  std::int64_t workers_retired = 0;      ///< ranks drained and released

  // Schedule memoization (paper Fig. 7b: iterative apps re-record an
  // identical DAG every step; rescheduling it is pure head overhead).
  std::int64_t schedule_cache_hits = 0;  ///< waves served from the cache

  // Allocation reuse on cached waves (the per-wave ChannelPlan;
  // bench/fig5_halo gates these — a steady-state run must arm and then
  // actually re-use).
  std::int64_t channels_armed = 0;       ///< waves dispatched with the plan
                                         ///< armed (schedule-cache hits)
  std::int64_t persistent_reuses = 0;    ///< device allocations re-used by
                                         ///< an armed plan instead of a
                                         ///< Delete+Alloc round-trip

  // Hot-path counters (bench/micro_hotpath asserts these, not eyeballs).
  std::int64_t threads_spawned = 0;  ///< head-side pool threads created —
                                     ///< floor at launch + demand growth,
                                     ///< 0 per steady wave
  std::int64_t payload_copies = 0;   ///< data-plane payload byte-copies
                                     ///< across the whole cluster

  // Multi-tenancy + elastic pools (aggregates of the per-tenant
  // TenantStats and the pools' own counters; refreshed at wave boundaries
  // and before launch() merges, so they survive head failover with the
  // rest of this POD block).
  std::int64_t tenants = 0;               ///< tenant queues ever opened
  std::int64_t tenant_waves = 0;          ///< waves served through them
  std::int64_t admission_rejections = 0;  ///< AdmissionError throws
  std::int64_t pool_threads_peak = 0;     ///< dispatch+transfer high water
};

/// Builder for a target region's positional arguments: device buffers
/// (referenced by their host pointer) and serialized firstprivate scalars.
class Args {
 public:
  Args& buf(const void* host) {
    buffers_.push_back(host);
    return *this;
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  Args& scalar(const T& v) {
    scalars_.put(v);
    return *this;
  }

  const std::vector<const void*>& buffers() const noexcept { return buffers_; }
  Bytes take_scalars() { return scalars_.take(); }

 private:
  std::vector<const void*> buffers_;
  ArchiveWriter scalars_;
};

/// The recording surface (§4.4: the control thread records tasks, the
/// implicit barrier executes them). One per submission stream: Runtime
/// records tenant 0 through one, and every TenantSession is one. It keeps
/// the buffers its stream mapped, checks §4.3's rules against them as each
/// task is recorded, and resolves the recorded wave's edge weights from
/// them, so recording never touches the Data Manager (execute_wave
/// registers a wave's enters when it runs the wave). Confined to one
/// thread: it takes no lock, and recording a target allocates nothing
/// beyond the task itself.
class WaveRecorder {
 public:
  /// `target enter data nowait map(to:)` (copy=false: map(alloc:)).
  /// The buffer must not be mapped already.
  void enter_data(void* host, std::size_t size, bool copy = true);

  /// `target exit data nowait map(from:)` (copy=false: map(release:)).
  /// The buffer must be mapped, and is exited at most once per wave.
  void exit_data(void* host, bool copy = true);

  /// `target nowait depend(...)`: records a kernel launch. Every buffer in
  /// `args` must be mapped and appear in `deps` (§4.3's documented
  /// restriction: the DM infers placement and write-intent from the
  /// dependence list). A dependence on storage no enter mapped weighs 0
  /// bytes. `cost_s` is the scheduler's compute estimate (0 = options
  /// default).
  int target(omp::DepList deps, offload::KernelId kernel, Args args,
             double cost_s = 0.0);

  /// A classical `task` — always executed on the head node (§4.4).
  int host_task(std::function<void()> fn, omp::DepList deps = {});

  /// Tasks recorded since the last hand-over.
  bool has_recorded() const noexcept { return !graph_.empty(); }

 protected:
  /// Hands the recorded wave to `sink`, which takes it by moving from it;
  /// its edge weights resolve through the mapped sizes as recorded. A sink
  /// that throws before moving refuses the wave, which then stays recorded
  /// (admission backpressure); otherwise the wave's exits unmap their
  /// buffers. No-op when nothing is recorded.
  void hand_over(const std::function<void(ClusterGraph&)>& sink);

 private:
  struct Mapping {
    std::size_t bytes = 0;
    bool exiting = false;  ///< exit recorded in the wave being built
  };
  using MappedSet = std::unordered_map<const void*, Mapping>;
  MappedSet mapped_;  ///< by host pointer
  /// Exits recorded in the wave being built: their buffers stay mapped
  /// (the wave's own dependences name them) until the hand-over.
  std::vector<const void*> exited_;
  /// mapped_ as handed-over waves resolve it, shared by all of them; null
  /// after mapped_ changed, rebuilt at the next hand-over.
  std::shared_ptr<const MappedSet> weights_;
  ClusterGraph graph_;
};

class MembershipBus;

class Runtime : private WaveRecorder {
 public:
  /// Constructed by launch() on the head rank; user code receives it in
  /// the head_main callback. All methods are head-control-thread-only.
  /// `bus` (optional) wires head-state replication and failover: with it,
  /// the runtime mirrors its recording state to a shadow worker at every
  /// wave boundary and, when the head rank dies, adopts the elected
  /// successor's event system and resumes from the replicated state.
  Runtime(const ClusterOptions& opts, EventSystem& events,
          MembershipBus* bus = nullptr);
  ~Runtime();

  // --- recording API (tenant 0; see WaveRecorder) -----------------------

  using WaveRecorder::enter_data;
  using WaveRecorder::exit_data;
  using WaveRecorder::host_task;
  using WaveRecorder::target;

  /// The implicit barrier: schedules the recorded graph (HEFT), executes
  /// it across the cluster and returns when every task has completed.
  ///
  /// Fault tolerance (§5): when the failure detector declares a worker dead
  /// mid-wave and checkpointing is on (options().checkpoint_period > 0),
  /// this rolls all buffers back to the last wave-boundary checkpoint,
  /// re-ranks the survivors, re-schedules the lost waves with HEFT and
  /// re-executes them — then returns normally. With checkpointing off it
  /// throws RecoveryError instead of hanging. With head replication on it
  /// returns only after the shadow acknowledged the wave's HeadState
  /// update (sent while the wave ran).
  void wait_all();

  // --- multi-tenancy ----------------------------------------------------
  //
  // N independent DAG streams share the cluster: each tenant records waves
  // through a TenantSession (any thread), submits them into a bounded
  // per-tenant queue, and the head control thread pumps serve_tenants(),
  // which picks ready waves across tenants with weighted deficit
  // round-robin and runs each through the same engine as wait_all() — so
  // checkpointing, rollback and head failover apply to tenant waves
  // unchanged, and the wave log stays tenant-scoped (ClusterGraph::tenant
  // rides in the serialized entries).

  /// Registers a tenant queue and returns its id. `weight` scales the
  /// tenant's WDRR share (2.0 = twice the service of a weight-1.0 tenant
  /// under contention). Thread-safe.
  TenantId create_tenant(double weight = 1.0);

  /// Queues one recorded wave for `tenant`. Thread-safe; throws
  /// AdmissionError when the tenant's queue holds max_pending_waves
  /// entries (the wave is not consumed — retry or submit_wait) or when
  /// serving has stopped.
  void submit(ClusterGraph&& wave, TenantId tenant);

  /// Blocking submit: waits for queue space instead of throwing. Still
  /// throws AdmissionError if serving stops while waiting.
  void submit_wait(ClusterGraph&& wave, TenantId tenant);

  /// Head-control-thread pump: serves queued waves across tenants (WDRR)
  /// until every TenantSession has closed and all queues have drained.
  /// Create the sessions BEFORE calling this — an instant with no open
  /// session and no queued wave reads as "all tenants done". Recovery
  /// errors propagate after waking all blocked submitters/waiters.
  void serve_tenants();

  /// Blocks until every wave `tenant` submitted so far has completed (or
  /// rethrows the serve loop's failure).
  void wait_tenant(TenantId tenant);

  /// Snapshot of a tenant's counters (thread-safe copy).
  TenantStats tenant_stats(TenantId tenant) const;

  /// Folds pool/tenant aggregates into the POD stats block (head control
  /// thread; launch() calls it before merging, wave boundaries keep the
  /// replicated copy fresh).
  void refresh_derived_stats();

  // --- fault handling ---------------------------------------------------

  /// Failure-detector entry point (the acting head's membership agent):
  /// declares `dead` failed, aborts in-flight events touching it and arms
  /// recovery for the current/next wave. Thread-safe; idempotent.
  void report_worker_failure(mpi::Rank dead);

  // --- elastic membership (head control thread) -------------------------

  /// Requests that one spare rank (booted but idle; ClusterOptions::
  /// spare_workers) join the worker set. Takes effect at the next wave
  /// boundary: the joiner receives an ownership slice of the registered
  /// buffers (migrated worker->worker over the data plane), the schedule
  /// cache is invalidated so the next HEFT pass can place tasks on it.
  /// Returns the joining rank, or -1 when no spare is available.
  mpi::Rank request_join();

  /// Requests that worker `rank` leave the cluster. At the next boundary
  /// its buffers are refreshed to the head, its device heap is trimmed down
  /// to the checkpoint shadows it hosts, and the rank returns to the spare
  /// pool (schedulable again by a later request_join). Returns false when
  /// `rank` is not a live worker or is the last one.
  bool request_leave(mpi::Rank rank);

  // --- introspection ----------------------------------------------------

  /// Rank currently acting as head (changes after a failover).
  mpi::Rank head_rank() const noexcept { return head_rank_; }

  int num_workers() const noexcept { return opts_.num_workers; }
  /// Workers still alive (shrinks when recovery drops a corpse).
  int num_live_workers() const noexcept {
    return static_cast<int>(live_workers_.size());
  }
  const ClusterOptions& options() const noexcept { return opts_; }
  /// The event system currently driven — the promoted rank's after a
  /// failover (launch() shuts the cluster down through it).
  EventSystem& events() noexcept { return *events_; }
  DataManager& data_manager() noexcept { return dm_; }
  CheckpointStore& checkpoints() noexcept { return ckpt_; }
  RuntimeStats& stats() noexcept { return stats_; }

  /// The worker assignment chosen for the most recent wave (test hook).
  const ScheduleResult& last_schedule() const noexcept { return last_; }

 private:
  friend class TenantSession;

  /// Runs one task on processor `proc`. With `prefetch`, a target task
  /// starts the head retrieve of every buffer it writes last in the wave
  /// (the next boundary's Head-locality capture takes them over).
  void execute_task(const ClusterTask& t, int proc, bool prefetch);
  void dispatch(const ClusterGraph& graph, const ScheduleResult& sched,
                bool prefetch);
  /// The shared wave engine: count the task mix, register the wave's
  /// enters, build edges, checkpoint/log/replicate when fault tolerance is
  /// on, run with the §5 recovery loop, advance the wave index. Both the
  /// legacy wait_all() path and the tenant serve loop execute waves through
  /// here, which is what makes recovery and failover tenant-agnostic.
  void execute_wave(ClusterGraph&& wave);
  /// Schedules `graph` onto the surviving workers and dispatches it.
  void run_wave(const ClusterGraph& graph, bool prefetch);
  /// Runs the current wave with the §5 recovery loop around it: on a
  /// worker death, rolls back to the checkpoint and replays the logged
  /// waves before retrying. The current wave is `unlogged` when given
  /// (fault tolerance off), else the logged wave numbered wave_index_; with
  /// neither (the between-waves repair path) every logged wave replays.
  /// `replaying` starts a replay round immediately (set when the
  /// checkpoint capture itself hit the failure).
  void run_with_recovery(const ClusterGraph* unlogged, bool replaying);
  /// Rolls the cluster back to the last checkpoint after `dead` failed (or
  /// throws RecoveryError when recovery is impossible).
  void rollback(mpi::Rank dead);
  /// Cache key for the current wave: the graph's structural hash combined
  /// with everything else schedule() reads (policy, survivors, cost model).
  std::uint64_t schedule_cache_key(const ClusterGraph& graph) const;
  /// rollback() in a retry loop: absorbs workers that die during the
  /// rollback itself. Throws only RecoveryError.
  void recover_from(mpi::Rank dead);

  // --- head failover internals ------------------------------------------

  /// Starts shipping the head recording state to the shadow rank (the
  /// first live worker) and returns without waiting: the update travels
  /// while the wave runs, and await_replication() collects the
  /// acknowledgement before wait_all() returns. A Full resync when the
  /// shadow changed or the last update failed, a Reset when
  /// `boundary_reset` committed a checkpoint (the wave log was cut), an
  /// Append of the new wave blobs otherwise. Checkpoint snapshot bytes the
  /// shadow already holds travel as ids only. At most one update is in
  /// flight. Best-effort: a dying shadow is skipped this round and resynced
  /// to its successor at the next boundary.
  void replicate_head_state(bool boundary_reset);

  /// Waits for the in-flight HeadState update, if any. Acknowledged: the
  /// shadow's holdings become the base of the next delta, and the snapshot
  /// shadows retired before the update started are released. Shadow died
  /// under it: the next update is a Full resync. Rethrows WorkerDiedError
  /// only when the head itself died (recovery then fails over).
  void await_replication();

  /// Head state is mirrored to a shadow worker (head failover is possible).
  bool replicating() const noexcept {
    return bus_ != nullptr && opts_.head_replication;
  }

  /// The head rank died: await the ring election on the membership bus,
  /// adopt the winner's event system and replica, re-home the DM and
  /// checkpoint store, trim survivor heaps, and roll back to the last
  /// committed wave. Throws RecoveryError when no replica holder survives
  /// or no checkpoint exists to resume from.
  void failover();

  /// Rebuilds all recording state from the elected winner's replica blob.
  void adopt_replica();

  /// After a restore that fell back to the prior checkpoint generation:
  /// splices the previous period's waves ahead of the current log so
  /// replay starts from the prior boundary, and forces a Full resync.
  void absorb_degraded_restore();

  /// Post-failover heap reset: every survivor frees all device blocks
  /// except its checkpoint shadows (TrimHeap), so replay re-allocates from
  /// a clean slate that matches the adopted host-resident registry.
  void trim_worker_heaps();

  /// Applies pending join/leave requests at a wave boundary.
  void process_membership_requests();

  const ClusterOptions opts_;
  EventSystem* events_;
  DataManager dm_;
  /// Persistent dispatch pool: created once per launch, reused by every
  /// wave and recovery replay. Its size is the in-flight target-region
  /// bound (one blocked job per region, like an LLVM hidden-helper
  /// thread), so HelperThreads/TwoStep semantics are unchanged — only the
  /// per-wave create/join churn is gone.
  std::unique_ptr<HelperPool> helpers_;
  ScheduleResult last_;
  RuntimeStats stats_;

  /// Memoized schedules keyed by schedule_cache_key(): steady-state
  /// identical-graph waves skip HEFT entirely. Cleared on recovery (the
  /// live-worker set is also part of the key, so a stale entry could never
  /// match — clearing just bounds memory and makes invalidation explicit).
  std::unordered_map<std::uint64_t, ScheduleResult> schedule_cache_;

  // Fault-tolerance state (head control thread, except reported_dead_
  // which detector threads append to under fault_mutex_).
  CheckpointStore ckpt_;
  WaveLog log_;  ///< waves since the last checkpoint, and the period before
  std::vector<mpi::Rank> live_workers_;    ///< proc index -> minimpi rank
  std::int64_t wave_index_ = 0;
  std::mutex fault_mutex_;
  std::vector<mpi::Rank> reported_dead_;   ///< detected, not yet purged
  std::atomic<bool> failure_pending_{false};
  /// Start of the current recovery episode (first detection), 0 when none;
  /// run_with_recovery closes the episode when replay completes.
  std::atomic<std::int64_t> failure_detected_ns_{0};

  // Head failover + elastic membership state (head control thread only).
  mpi::Rank head_rank_ = 0;        ///< rank whose event system we drive
  std::uint64_t head_epoch_ = 0;   ///< bumps on every handoff adoption
  MembershipBus* bus_ = nullptr;
  mpi::Rank shadow_rank_ = -1;     ///< current replication target
  std::uint64_t replica_generation_ = 0;
  /// Snapshot blob ids the shadow holds (sorted), as of the last update it
  /// acknowledged; only a Full resync ignores them.
  std::vector<std::uint64_t> shadow_blob_ids_;
  /// The HeadState update in flight: what the shadow holds once it
  /// acknowledges (committed by await_replication).
  struct PendingReplication {
    OriginEventPtr ack;
    mpi::Rank shadow = -1;
    std::vector<std::uint64_t> blob_ids;
    std::size_t waves = 0;     ///< current-generation waves it covers
    std::int64_t bytes = 0;    ///< payload size
    std::size_t retired = 0;   ///< ckpt_.num_retired() when it started
  };
  std::optional<PendingReplication> replication_;
  std::vector<mpi::Rank> spare_pool_;      ///< booted, idle, joinable ranks
  std::vector<mpi::Rank> pending_joins_;   ///< applied at the next boundary
  std::vector<mpi::Rank> pending_leaves_;

  // --- multi-tenancy state ----------------------------------------------

  struct PendingWave {
    ClusterGraph graph;
    std::int64_t submit_ns = 0;
  };
  struct TenantState {
    std::deque<PendingWave> queue;
    TenantStats stats;
    double deficit = 0.0;  ///< WDRR credit carried while waiting
    int executing = 0;     ///< popped waves not yet completed (0 or 1)
  };

  TenantState& tenant_state_locked(TenantId tenant);
  void enqueue_locked(TenantState& ts, ClusterGraph&& wave, TenantId tenant);
  /// One WDRR pick: resumes at the token holder, replenishing deficits as
  /// the token advances, until some tenant can afford its head wave.
  /// Returns false when every queue is empty.
  bool pick_wave_locked(TenantId* tenant, PendingWave* wave);
  /// Completion bookkeeping for a served wave (latency sample, queue-wait,
  /// executing--), then wakes submitters and waiters.
  void finish_tenant_wave(TenantId tenant, std::int64_t submit_ns,
                          std::int64_t start_ns);
  /// Attribution hooks called from the wave engine (head control thread).
  void note_cache_hit(TenantId tenant);
  void note_replay(TenantId tenant, std::int64_t tasks);
  /// Charges a closed recovery episode's latency to every tenant whose
  /// waves it replayed (episode_tenants_), then clears the set.
  void close_tenant_episode(std::int64_t latency_ns);

  /// Guards tenants_ and the serve flags; tenants_cv_ signals submissions,
  /// completions, session closes and serve-loop termination.
  mutable std::mutex tenants_mutex_;
  std::condition_variable tenants_cv_;
  /// Ordered map: WDRR visits tenants in id order, deterministically.
  std::map<TenantId, TenantState> tenants_;
  TenantId next_tenant_ = 1;
  TenantId wdrr_token_ = -1;  ///< tenant whose deficit the token rests on
  std::atomic<int> open_sessions_{0};
  bool serving_stopped_ = false;     ///< serve loop exited (or never ran)
  std::exception_ptr serve_error_;   ///< rethrown to blocked waiters
  /// Tenants with waves replayed in the open recovery episode (head
  /// control thread only, like the episode clock it mirrors).
  std::vector<TenantId> episode_tenants_;
};

/// A tenant's stream: the WaveRecorder verbs on the tenant's own thread,
/// plus submission into the tenant's queue. A session's mapped set is its
/// own (tenants own disjoint buffer sets — host pointers are the
/// namespace, so sharing one buffer across tenants is a recording error,
/// not a data race).
///
/// Lifecycle: create all sessions, spawn one submitter thread each, then
/// pump Runtime::serve_tenants() from the head control thread. close()
/// (or destruction) marks the stream finished; the serve loop exits once
/// every session has closed and the queues have drained.
class TenantSession : public WaveRecorder {
 public:
  /// Opens a session for `tenant` (from Runtime::create_tenant).
  TenantSession(Runtime& rt, TenantId tenant);
  ~TenantSession();

  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  /// Submits the recorded wave (throws AdmissionError when the tenant's
  /// queue is full — the wave stays recorded for a retry).
  void submit();
  /// Blocking variant: waits for queue space (backpressure).
  void submit_wait();

  /// Waits until every submitted wave has completed.
  void wait();

  /// Marks the stream finished (idempotent; the destructor calls it).
  /// Unsubmitted recorded tasks are discarded.
  void close();

  TenantId tenant() const noexcept { return tenant_; }

 private:
  void submit_impl(bool blocking);

  Runtime* rt_;
  TenantId tenant_;
  bool closed_ = false;
};

/// Runs `head_main` on the head rank of a freshly simulated cluster:
/// workers boot their event systems, the head records and executes waves,
/// then the cluster is shut down. Returns the head's runtime statistics.
RuntimeStats launch(const ClusterOptions& opts,
                    const std::function<void(Runtime&)>& head_main);

}  // namespace ompc::core
