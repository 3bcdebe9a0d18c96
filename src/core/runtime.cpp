#include "core/runtime.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "core/heartbeat.hpp"
#include "core/membership.hpp"

namespace ompc::core {

Runtime::Runtime(const ClusterOptions& opts, EventSystem& events,
                 MembershipBus* bus)
    : opts_(opts),
      events_(&events),
      dm_(events, opts),
      ckpt_(&events, opts.checkpoint_locality),
      bus_(bus) {
  // Scheduler processors map onto this live-worker table; recovery shrinks
  // it, which is how survivors are re-ranked after a failure. Spare ranks
  // boot like workers but stay out of it until request_join().
  live_workers_.reserve(static_cast<std::size_t>(opts.num_workers));
  for (int w = 0; w < opts.num_workers; ++w) live_workers_.push_back(w + 1);
  for (int s = 0; s < opts.spare_workers; ++s)
    spare_pool_.push_back(opts.num_workers + 1 + s);

  // HelperThreads: the LLVM bound — in-flight regions <= head threads.
  // TwoStep: the §7 fix decouples in-flight regions from head cores; its
  // pool scales with the *cluster* (enough to saturate every worker's
  // executor and transfer pipeline) instead of the head's thread count.
  // Elastic: the bound is the pool's *ceiling*; only a small floor spawns
  // at launch and demand grows it (a 2-worker test cluster no longer pays
  // for 48 threads).
  const int helpers = std::max(1, opts_.async_mode == AsyncMode::HelperThreads
                                      ? opts_.helper_threads
                                      : opts_.cluster_pool_threads());
  helpers_ = std::make_unique<HelperPool>(opts_.pool_floor(helpers), helpers,
                                          "hh");
  stats_.threads_spawned = helpers_->threads_spawned();
}

Runtime::~Runtime() = default;

// --- WaveRecorder ---------------------------------------------------------

void WaveRecorder::enter_data(void* host, std::size_t size, bool copy) {
  OMPC_CHECK_MSG(mapped_.emplace(host, Mapping{size}).second,
                 "buffer " << host << " is already mapped (exit it first)");
  weights_.reset();
  ClusterTask t;
  t.type = TaskType::DataEnter;
  t.buffer = host;
  t.buffer_bytes = size;
  t.copy = copy;
  // Listing 1: enter data carries depend(out: *A) — it is the first writer.
  t.deps = {omp::out(host)};
  graph_.add_task(std::move(t));
}

void WaveRecorder::exit_data(void* host, bool copy) {
  const auto it = mapped_.find(host);
  OMPC_CHECK_MSG(it != mapped_.end(),
                 "exit_data for buffer " << host << " that was never entered");
  OMPC_CHECK_MSG(!it->second.exiting, "exit_data for buffer "
                                          << host
                                          << " recorded twice in one wave");
  it->second.exiting = true;
  exited_.push_back(host);
  ClusterTask t;
  t.type = TaskType::DataExit;
  t.buffer = host;
  t.copy = copy;
  // inout: runs after the last writer and all readers of the buffer.
  t.deps = {omp::inout(host)};
  graph_.add_task(std::move(t));
}

int WaveRecorder::target(omp::DepList deps, offload::KernelId kernel,
                         Args args, double cost_s) {
  // §4.3's restriction: every buffer a target uses must appear in its
  // dependence list — that is the only way the DM can infer placement and
  // write intent. Enforced here instead of failing mysteriously later.
  for (const void* b : args.buffers()) {
    const bool listed = std::any_of(deps.begin(), deps.end(),
                                    [&](const omp::Dep& d) { return d.addr == b; });
    OMPC_CHECK_MSG(listed, "target buffer argument " << b
                                                     << " missing from depend list");
    OMPC_CHECK_MSG(mapped_.count(b) != 0,
                   "target buffer argument " << b << " was never entered");
  }
  ClusterTask t;
  t.type = TaskType::Target;
  t.kernel = kernel;
  t.buffer_args = args.buffers();
  t.scalars = args.take_scalars();
  t.deps = std::move(deps);
  t.cost_s = cost_s;
  return graph_.add_task(std::move(t));
}

int WaveRecorder::host_task(std::function<void()> fn, omp::DepList deps) {
  ClusterTask t;
  t.type = TaskType::Host;
  // Interned so the closure survives head replication: the handle travels
  // in the serialized wave log and a promoted head resurrects the function
  // from the process-wide registry.
  t.host_fn_handle = HostFnRegistry::instance().intern(fn);
  t.host_fn = std::move(fn);
  t.deps = std::move(deps);
  return graph_.add_task(std::move(t));
}

void WaveRecorder::hand_over(const std::function<void(ClusterGraph&)>& sink) {
  if (graph_.empty()) return;
  // The wave may still be scheduled or replayed after later waves changed
  // the mapped set, so it resolves through an immutable copy; steady waves
  // (no enter or exit since the last one) share it.
  if (!weights_) weights_ = std::make_shared<const MappedSet>(mapped_);
  graph_.set_buffer_size_fn(
      [weights = weights_](const void* addr) -> std::size_t {
        const auto it = weights->find(addr);
        return it == weights->end() ? 0 : it->second.bytes;
      });
  sink(graph_);
  graph_ = ClusterGraph();
  if (exited_.empty()) return;
  for (const void* host : exited_) mapped_.erase(host);
  exited_.clear();
  weights_.reset();
}

void Runtime::execute_task(const ClusterTask& t, int proc, bool prefetch) {
  const auto rank_of_proc = [this](int p) {
    return live_workers_[static_cast<std::size_t>(p)];
  };
  switch (t.type) {
    case TaskType::DataEnter:
      // execute_wave registered the buffer; a wave replayed after a head
      // failover may enter one the adopted registry never saw, which is why
      // the task carries its mapping size.
      if (!dm_.is_registered(t.buffer))
        dm_.register_buffer(const_cast<void*>(t.buffer), t.buffer_bytes);
      dm_.enter_to_worker(rank_of_proc(proc), t.buffer, t.copy);
      return;
    case TaskType::DataExit:
      dm_.exit_to_head(const_cast<void*>(t.buffer), t.copy);
      return;
    case TaskType::Host:
      // A host task runs on the head copies: it reads the freshest copy of
      // every dependence, and each one it writes leaves the head the only
      // valid copy, dirty for the next capture.
      dm_.refresh_head_deps(t.deps);
      t.host_fn();
      dm_.after_host_write(t.deps);
      return;
    case TaskType::Target: {
      const mpi::Rank worker = rank_of_proc(proc);
      // §4.3 target-region rule: make inputs valid on the assigned worker
      // (allocating/forwarding as needed), run, then invalidate replicas
      // of written buffers.
      const std::vector<offload::TargetPtr> addrs =
          dm_.prepare_args(worker, t.buffer_args);
      ExecuteHeader h;
      h.kernel = t.kernel;
      h.buffers = addrs;
      h.scalars = t.scalars;
      events_->run(worker, EventKind::Execute, h.serialize());
      dm_.after_write(worker, t.deps);
      // No later task of this wave writes these buffers, and the next
      // boundary's capture will fetch them to the head: start the retrieves
      // now so they overlap the rest of the wave.
      if (prefetch)
        for (const void* b : t.last_writes) dm_.prefetch_to_head(b);
      return;
    }
  }
}

void Runtime::dispatch(const ClusterGraph& graph, const ScheduleResult& sched,
                       bool prefetch) {
  const std::size_t n = graph.size();
  if (n == 0) return;

  // Grow the elastic pool to the wave's worst-case concurrency (every task
  // in flight at once), capped by the ceiling that bounds in-flight target
  // regions. A structural announcement, so identical waves spawn
  // identically — and a steady-state wave spawns nothing at all.
  helpers_->reserve(static_cast<int>(n));

  // Dependence-driven execution on the persistent helper pool: each ready
  // task becomes one job, and a job stays blocked inside execute_task() for
  // the whole life of its in-flight target region — so the pool size bounds
  // in-flight regions exactly as §7 describes, without creating or joining
  // a single thread per wave. The control thread only seeds the sources and
  // waits; completed jobs schedule their newly-ready successors themselves.
  struct WaveState {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<int> indegree;
    std::size_t done = 0;      ///< tasks executed successfully
    std::size_t inflight = 0;  ///< jobs queued or executing
    std::exception_ptr first_error;
  } ws;
  ws.indegree.resize(n, 0);
  for (const ClusterTask& t : graph.tasks())
    ws.indegree[static_cast<std::size_t>(t.id)] =
        static_cast<int>(t.preds.size());

  // All captured state outlives the jobs: dispatch() returns only once
  // inflight == 0, i.e. every submitted job has run (or skipped).
  std::function<void(int)> submit_task = [&](int id) {
    helpers_->submit([this, &graph, &sched, &ws, &submit_task, id,
                      prefetch] {
      const ClusterTask& t = graph.task(id);
      bool skipped;
      {
        std::lock_guard<std::mutex> lock(ws.mutex);
        skipped = ws.first_error != nullptr;  // wave is unwinding
      }
      std::exception_ptr error;
      if (!skipped) {
        try {
          execute_task(t, sched.processor[static_cast<std::size_t>(id)],
                       prefetch);
        } catch (...) {
          error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(ws.mutex);
      --ws.inflight;
      if (error && !ws.first_error) ws.first_error = error;
      if (!skipped && !error) {
        ++ws.done;
        for (int s : t.succs) {
          if (--ws.indegree[static_cast<std::size_t>(s)] == 0) {
            ++ws.inflight;
            submit_task(s);
          }
        }
      }
      ws.cv.notify_all();
    });
  };

  {
    std::lock_guard<std::mutex> lock(ws.mutex);
    for (const ClusterTask& t : graph.tasks()) {
      if (t.preds.empty()) {
        ++ws.inflight;
        submit_task(t.id);
      }
    }
  }
  std::unique_lock<std::mutex> lock(ws.mutex);
  ws.cv.wait(lock, [&ws, n] {
    return ws.inflight == 0 && (ws.done == n || ws.first_error != nullptr);
  });
  if (ws.first_error) std::rethrow_exception(ws.first_error);
  OMPC_CHECK_MSG(ws.done == n, "dispatch finished with unexecuted tasks");
}

std::uint64_t Runtime::schedule_cache_key(const ClusterGraph& graph) const {
  // Everything schedule() reads beyond the graph itself goes into the key;
  // the live-worker set in particular, so a schedule computed before a
  // failure can never be replayed onto a shrunk cluster.
  std::uint64_t h = graph.structural_hash();
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(opts_.scheduler));
  mix(static_cast<std::uint64_t>(opts_.network.latency_ns));
  std::uint64_t bw_bits = 0;
  std::memcpy(&bw_bits, &opts_.network.bandwidth_Bps, sizeof bw_bits);
  mix(bw_bits);
  std::uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &opts_.default_task_cost_s, sizeof cost_bits);
  mix(cost_bits);
  mix(opts_.seed);
  mix(live_workers_.size());
  for (const mpi::Rank r : live_workers_) mix(static_cast<std::uint64_t>(r));
  return h;
}

void Runtime::run_wave(const ClusterGraph& graph, bool prefetch) {
  // Fig. 7b workloads (awave/RTM, stepwise Task Bench) re-record an
  // identical DAG every time step; rescheduling it is pure head overhead.
  // Serve repeats from the cache and run HEFT only on structurally new
  // graphs. Recovery clears the cache (and re-keys it via live_workers_).
  const std::uint64_t key = schedule_cache_key(graph);
  if (const auto it = schedule_cache_.find(key);
      it != schedule_cache_.end() &&
      it->second.processor.size() == graph.size()) {
    // (The size check makes a 64-bit key collision a miss, not an
    // out-of-bounds dispatch.)
    ++stats_.schedule_cache_hits;
    note_cache_hit(graph.tenant());
    stats_.makespan_estimate_s = it->second.makespan_estimate_s;
    // Steady state: the wave shape is known (same structural hash, same
    // live-worker set — both in the cache key), so arm the ChannelPlan:
    // write invalidations keep device blocks for next wave's re-fill.
    dm_.arm_channels();
    ++stats_.channels_armed;
    last_ = it->second;
    dispatch(graph, it->second, prefetch);
    return;
  }
  // A structurally new wave is not the cached shape: stale blocks are
  // freed again until the cache hits (the plan is keyed to the shape).
  dm_.disarm_channels();
  const ScheduleResult sched =
      schedule(opts_.scheduler, graph, num_live_workers(),
               CostModel::from_network(opts_.network),
               opts_.default_task_cost_s, opts_.seed);
  stats_.schedule_ns += sched.schedule_ns;
  stats_.makespan_estimate_s = sched.makespan_estimate_s;
  if (schedule_cache_.size() >= 128) schedule_cache_.clear();  // bound it
  schedule_cache_.insert_or_assign(key, sched);
  last_ = sched;
  dispatch(graph, sched, prefetch);
}

void Runtime::report_worker_failure(mpi::Rank dead) {
  EventSystem* ev = nullptr;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    if (std::find(reported_dead_.begin(), reported_dead_.end(), dead) !=
        reported_dead_.end())
      return;
    if (std::find(live_workers_.begin(), live_workers_.end(), dead) ==
        live_workers_.end())
      return;  // not a worker we still track (e.g. a duplicate report)
    reported_dead_.push_back(dead);
    // Invariant (maintained under fault_mutex_ here and in rollback):
    // failure_pending_ is set iff reported_dead_ is non-empty, so an armed
    // recovery always finds a corpse to process.
    failure_pending_.store(true, std::memory_order_release);
    // Snapshot the event plane under the lock: failover() swaps events_
    // (under this mutex) while detector threads are still reporting.
    ev = events_;
  }
  OMPC_LOG_WARN("failure detector: worker rank " << dead
                                                 << " declared dead");
  // Recovery-latency episode start (detection -> replay complete): only the
  // first detection of an episode arms the clock.
  std::int64_t expected = 0;
  failure_detected_ns_.compare_exchange_strong(expected, now_ns(),
                                               std::memory_order_acq_rel);
  // Abort in-flight events touching the corpse (helper threads unwind with
  // WorkerDiedError) and tell live workers to drop its pending exchanges.
  ev->fail_rank(dead);
  ev->announce_rank_dead(dead);
  // Wake an idle serve loop, whose wait reads failure_pending_ too. Taking
  // tenants_mutex_ orders the store above before its next predicate check,
  // so the wakeup cannot be lost.
  { std::lock_guard<std::mutex> lock(tenants_mutex_); }
  tenants_cv_.notify_all();
}

void Runtime::rollback(mpi::Rank dead) {
  const Stopwatch timer;
  // A corpse discovered by an event throw (no detector report yet) must
  // still open the latency episode.
  std::int64_t expected = 0;
  failure_detected_ns_.compare_exchange_strong(expected, now_ns(),
                                               std::memory_order_acq_rel);
  // Cached schedules were computed for the pre-failure worker set; the
  // re-ranked survivors must be scheduled fresh. The ChannelPlan goes with
  // them: it is keyed to a cached schedule.
  schedule_cache_.clear();
  dm_.disarm_channels();

  // Re-rank: drop every reported corpse from the processor table. Detector
  // threads read live_workers_ under fault_mutex_ (report_worker_failure),
  // so the erase must hold it too.
  std::vector<mpi::Rank> corpses;
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    corpses.swap(reported_dead_);
    if (std::find(corpses.begin(), corpses.end(), dead) == corpses.end() &&
        std::find(live_workers_.begin(), live_workers_.end(), dead) !=
            live_workers_.end())
      corpses.push_back(dead);  // failure seen by an event before a report
    for (mpi::Rank r : corpses) {
      live_workers_.erase(
          std::remove(live_workers_.begin(), live_workers_.end(), r),
          live_workers_.end());
    }
  }
  // fail_rank outside fault_mutex_ (it takes the event system's own lock);
  // idempotent, and covers the unreported-corpse path.
  for (mpi::Rank r : corpses) events_->fail_rank(r);
  stats_.workers_lost += static_cast<std::int64_t>(corpses.size());

  OMPC_CHECK_MSG(!corpses.empty(),
                 "recovery triggered without a detected failure");
  if (live_workers_.empty())
    throw RecoveryError("cannot recover: every worker has died");
  if (opts_.checkpoint_period <= 0 || !ckpt_.has_checkpoint())
    throw RecoveryError(
        "worker died but checkpointing is disabled "
        "(ClusterOptions::checkpoint_period == 0); no recovery possible");

  // Wait until no origin event is in flight: completions from live workers
  // must land before we mutate the cluster-wide buffer state underneath
  // them (a Submit racing a Delete would be a use-after-free on the
  // worker's device heap).
  events_->quiesce();
  // The wave's HeadState update has settled with everything else: commit
  // what the shadow holds before the restore below changes the head state
  // (and retires snapshot shadows only a later update stops naming).
  await_replication();

  const std::int64_t lost_before = dm_.stats().buffers_lost.load();
  for (mpi::Rank r : corpses) dm_.purge_rank(r);
  stats_.buffers_lost += dm_.stats().buffers_lost.load() - lost_before;

  // Roll every buffer back to the wave-boundary snapshot: worker replicas
  // are dropped, checkpointed contents land on the head, from which replay
  // re-distributes them to the survivors.
  dm_.reset_all_to_host();
  ckpt_.restore(dm_);
  absorb_degraded_restore();

  {
    // A failure reported *during* this rollback stays pending and triggers
    // another round; only a clean slate disarms recovery.
    std::lock_guard<std::mutex> lock(fault_mutex_);
    failure_pending_.store(!reported_dead_.empty(), std::memory_order_release);
  }
  ++stats_.recoveries;
  stats_.recovery_ns += timer.elapsed_ns();
  OMPC_LOG_WARN("recovery: rolled back to wave " << ckpt_.wave() << ", "
                                                 << num_live_workers()
                                                 << " workers survive");
}

void Runtime::recover_from(mpi::Rank dead) {
  // Rollback can itself trip over yet another worker dying (its Delete
  // events and checkpoint restores touch live workers); absorb those and
  // keep rolling back. Only RecoveryError escapes.
  for (;;) {
    try {
      // The corpse may be the head itself (dispatch fails fast on the dead
      // head's event system): that is a failover, not a rollback — adopt
      // the elected successor's replica, then return so the caller replays
      // from the adopted log.
      if (events_->is_rank_gone(head_rank_)) {
        failover();
        return;
      }
      rollback(dead);
      return;
    } catch (const WorkerDiedError& again) {
      dead = again.rank();
    }
  }
}

void Runtime::run_with_recovery(const ClusterGraph* unlogged, bool replaying) {
  // A Head-locality capture fetches every buffer the wave dirtied, so when
  // the next boundary captures, the wave's first run starts each fetch at
  // the buffer's last write. Never in a replay: the replayed waves before
  // the current one have more writes ahead of them before any capture.
  const bool prefetch =
      opts_.checkpoint_period > 0 &&
      opts_.checkpoint_locality == CheckpointLocality::Head &&
      (wave_index_ + 1) % opts_.checkpoint_period == 0;
  const auto count_replay = [this](const ClusterGraph& g) {
    stats_.replayed_tasks += static_cast<std::int64_t>(g.size());
    note_replay(g.tenant(), static_cast<std::int64_t>(g.size()));
  };
  for (;;) {
    mpi::Rank dead = -1;
    try {
      // A failure reported while the head was idle between waves arms
      // failure_pending_ without any event throwing; surface it here so the
      // wave never starts against a schedule containing the corpse.
      if (failure_pending_.load(std::memory_order_acquire))
        throw WorkerDiedError(-1);
      // Looked up every round: a failover rebuilds the log and a degraded
      // restore splices the prior period ahead of it.
      const LoggedWave* logged = log_.find(wave_index_);
      if (replaying) {
        // Re-execute the waves lost since the checkpoint. Host tasks in
        // replayed waves run again — §5's re-execution semantics.
        for (const LoggedWave& w : log_.current()) {
          if (&w == logged) continue;
          run_wave(w.graph, false);
          count_replay(w.graph);
        }
      }
      const ClusterGraph* current =
          unlogged != nullptr ? unlogged
                              : (logged != nullptr ? &logged->graph : nullptr);
      if (current != nullptr) {
        run_wave(*current, prefetch && !replaying);
        if (replaying) count_replay(*current);
      }
      // The wave is done; its HeadState update must be acknowledged before
      // wait_all() returns. A head that died under it throws into the
      // recovery below, which fails over and replays the wave.
      await_replication();
      // Replay complete: close the recovery-latency episode. Guarded on
      // `replaying` so a detection landing after the wave finished is left
      // armed for the recovery that will process it, and on
      // failure_pending_ so a failure detected mid-replay extends the
      // episode (its own wait time must not be dropped) instead of
      // restarting the clock at its later rollback.
      if (replaying &&
          !failure_pending_.load(std::memory_order_acquire)) {
        if (const std::int64_t t0 = failure_detected_ns_.exchange(
                0, std::memory_order_acq_rel);
            t0 != 0) {
          const std::int64_t latency = now_ns() - t0;
          stats_.recovery_latency_ns += latency;
          // The episode's latency is charged to every tenant whose waves
          // it replayed — concurrent streams keep honest per-tenant
          // recovery accounting instead of sharing one global counter.
          close_tenant_episode(latency);
        }
      }
      return;
    } catch (const mpi::RankKilledError& e) {
      // A raw transport-level death that escaped the event layer's
      // translation (rare: a request completed exceptionally on a path
      // with no origin event).
      dead = e.rank();
    } catch (const WorkerDiedError& e) {
      dead = e.rank();
    }
    recover_from(dead);  // RecoveryError escapes when impossible
    replaying = true;
  }
}

void Runtime::wait_all() {
  // Membership changes commit at wave boundaries — the cluster is quiescent
  // here, so buffer migration cannot race in-flight tasks.
  process_membership_requests();
  if (!has_recorded()) {
    // A failure can land in the instants after the last wave completed; the
    // cluster state must be repaired (or the condition surfaced as
    // RecoveryError) before shutdown deletes buffers on a corpse. Repair =
    // rollback + replay of every logged wave, so buffer contents the
    // completed waves produced are regenerated, not silently regressed.
    if (failure_pending_.load(std::memory_order_acquire))
      run_with_recovery(nullptr, false);
    return;
  }
  ClusterGraph wave;
  hand_over([&wave](ClusterGraph& recorded) { wave = std::move(recorded); });
  execute_wave(std::move(wave));
}

void Runtime::execute_wave(ClusterGraph&& wave) {
  // Counted once per wave, before the stats block ships with the HeadState
  // update (replays run through run_wave and do not count again). Enters
  // register here, before the boundary capture, so the checkpoint holds
  // every buffer the wave maps.
  bool maps_buffers = false;
  for (const ClusterTask& t : wave.tasks()) {
    switch (t.type) {
      case TaskType::Target: ++stats_.target_tasks; break;
      case TaskType::Host: ++stats_.host_tasks; break;
      case TaskType::DataEnter:
        dm_.register_buffer(const_cast<void*>(t.buffer), t.buffer_bytes);
        maps_buffers = true;
        ++stats_.data_tasks;
        break;
      case TaskType::DataExit: ++stats_.data_tasks; break;
    }
  }
  wave.build_edges();

  const bool ft = opts_.checkpoint_period > 0;
  bool replaying = false;
  bool boundary_reset = false;
  if (ft) {
    // A wave that maps a buffer is a boundary too: a replay from an earlier
    // checkpoint would re-enter the buffer from whatever an exit or a host
    // task has written into its host copy since.
    if (maps_buffers || wave_index_ % opts_.checkpoint_period == 0) {
      const std::size_t retired_before = ckpt_.num_retired();
      try {
        ckpt_.capture(dm_, wave_index_, live_workers_);
        // With no replica to name them, shadows retired before this commit
        // are released now; a shadow's acknowledgement releases them
        // otherwise (await_replication).
        if (!replicating()) ckpt_.release_retired(retired_before);
        // The committed capture makes these waves unreachable by normal
        // recovery; they move to the previous-generation slot (not gone:
        // a degraded restore replays from the PRIOR boundary, and the
        // checkpoint store keeps that generation's snapshots until the
        // next capture commits).
        log_.cut();
        boundary_reset = true;
      } catch (const WorkerDiedError& e) {
        // A worker died mid-capture. The previous snapshot is intact
        // (capture commits atomically, worker-local shadows included);
        // roll back to it and keep the wave log — those waves still need
        // replaying. The next boundary will retake the checkpoint.
        recover_from(e.rank());
        replaying = true;
      }
    }
    // Log the wave for replay (moved, not copied — it is executed from the
    // log); kept until the next checkpoint makes the waves since the
    // previous one unreachable by recovery. The serialized blob carries the
    // wave's tenant, so the log — and any replica adopted after a head
    // death — stays tenant-scoped.
    log_.append(std::move(wave), wave_index_);
    // Pool/tenant aggregates ride in the replicated stats block; fold the
    // latest counters in before the state ships.
    refresh_derived_stats();
    // Mirror the head state to the shadow rank WHILE the wave executes:
    // the update is started here and its acknowledgement awaited after the
    // wave, before wait_all() returns. A head that dies mid-wave is
    // recovered from the previous replica (or this update, if it landed)
    // plus this control thread's own wave cache, which holds this very
    // wave — the bitwise-identical failover guarantee does not need the
    // update to land first.
    replicate_head_state(boundary_reset);
    try {
      run_with_recovery(nullptr, replaying);
    } catch (...) {
      // An unrecoverable wave leaves no update in flight behind it; whether
      // the shadow applied it is unknown, so the next one is Full.
      if (replication_) {
        replication_.reset();
        shadow_rank_ = -1;
      }
      throw;
    }
  } else {
    run_with_recovery(&wave, replaying);
  }

  ++wave_index_;
  ++stats_.waves;
}

// --- multi-tenancy (tenant queues, WDRR fair-share, admission) ------------

TenantId Runtime::create_tenant(double weight) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  const TenantId id = next_tenant_++;
  TenantState& ts = tenants_[id];
  ts.stats.weight = weight > 0.0 ? weight : 1.0;
  // A new tenant changes the wave interleaving the scheduler will produce,
  // so the armed wave shape is no longer the steady state.
  dm_.disarm_channels();
  return id;
}

Runtime::TenantState& Runtime::tenant_state_locked(TenantId tenant) {
  // find-or-create: kDefaultTenant (and ids minted elsewhere after a head
  // failover) get a queue lazily with the default weight.
  return tenants_[tenant];
}

void Runtime::enqueue_locked(TenantState& ts, ClusterGraph&& wave,
                             TenantId tenant) {
  wave.set_tenant(tenant);
  ++ts.stats.submitted_waves;
  ts.stats.tasks += static_cast<std::int64_t>(wave.size());
  ts.queue.push_back(PendingWave{std::move(wave), now_ns()});
  tenants_cv_.notify_all();
}

void Runtime::submit(ClusterGraph&& wave, TenantId tenant) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  TenantState& ts = tenant_state_locked(tenant);
  if (serving_stopped_ && serve_error_) {
    ++ts.stats.rejected_waves;
    throw AdmissionError(tenant, "serve loop failed; submission refused");
  }
  const std::int64_t cap = opts_.max_pending_waves;
  if (cap > 0 && static_cast<std::int64_t>(ts.queue.size()) >= cap) {
    // Backpressure: the wave is NOT consumed — the caller's rvalue is
    // intact (nothing was moved from it yet), so a retry or submit_wait
    // can resend the same recording.
    ++ts.stats.rejected_waves;
    throw AdmissionError(tenant,
                         "tenant queue full (" + std::to_string(cap) +
                             " pending waves); retry or use submit_wait");
  }
  enqueue_locked(ts, std::move(wave), tenant);
}

void Runtime::submit_wait(ClusterGraph&& wave, TenantId tenant) {
  std::unique_lock<std::mutex> lock(tenants_mutex_);
  TenantState& ts = tenant_state_locked(tenant);
  const std::int64_t cap = opts_.max_pending_waves;
  tenants_cv_.wait(lock, [&] {
    return (serving_stopped_ && serve_error_) || cap <= 0 ||
           static_cast<std::int64_t>(ts.queue.size()) < cap;
  });
  if (serving_stopped_ && serve_error_) {
    ++ts.stats.rejected_waves;
    throw AdmissionError(tenant, "serve loop failed while waiting for space");
  }
  enqueue_locked(ts, std::move(wave), tenant);
}

bool Runtime::pick_wave_locked(TenantId* tenant, PendingWave* wave) {
  // Weighted deficit round-robin at wave granularity (non-preemptive: a
  // picked wave runs to completion). The token RESTS on a tenant: it keeps
  // spending its deficit on consecutive waves until it can no longer afford
  // the next one — that is what makes service weight-proportional instead
  // of alternating. Deficit replenishes only when the token ARRIVES at a
  // tenant with work; empty queues forfeit their credit (classic DRR).
  constexpr double kQuantumTasks = 4.0;

  bool any = false;
  for (const auto& [id, ts] : tenants_) {
    (void)id;
    if (!ts.queue.empty()) {
      any = true;
      break;
    }
  }
  if (!any) return false;

  auto next = [this](std::map<TenantId, TenantState>::iterator it) {
    ++it;
    return it == tenants_.end() ? tenants_.begin() : it;
  };
  const auto cost_of = [](const PendingWave& w) {
    return std::max<double>(1.0, static_cast<double>(w.graph.size()));
  };

  auto it = tenants_.find(wdrr_token_);
  bool fresh_arrival = false;
  if (it == tenants_.end()) {
    it = tenants_.begin();
    fresh_arrival = true;
  }
  // Bounded walk: each full cycle adds >= one quantum to some non-empty
  // queue, so a pick happens within a few cycles; the guard is belt and
  // braces against a pathological weight.
  for (int hops = 0; hops < static_cast<int>(tenants_.size()) * 64 + 64;
       ++hops) {
    TenantState& ts = it->second;
    if (ts.queue.empty()) {
      ts.deficit = 0.0;  // forfeits unused credit (bounds burstiness)
      it = next(it);
      fresh_arrival = true;
      continue;
    }
    if (fresh_arrival)
      ts.deficit += kQuantumTasks * std::max(ts.stats.weight, 1e-6);
    const double cost = cost_of(ts.queue.front());
    if (cost <= ts.deficit) {
      ts.deficit -= cost;
      *tenant = it->first;
      *wave = std::move(ts.queue.front());
      ts.queue.pop_front();
      ++ts.executing;
      if (ts.queue.empty()) ts.deficit = 0.0;
      wdrr_token_ = it->first;
      tenants_cv_.notify_all();  // queue space freed for submit_wait
      return true;
    }
    it = next(it);
    fresh_arrival = true;
  }
  // Unreachable with sane weights; treat as empty rather than spin.
  return false;
}

void Runtime::serve_tenants() {
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    serving_stopped_ = false;
    serve_error_ = nullptr;
  }
  try {
    for (;;) {
      // Membership changes commit between tenant waves, same as between
      // wait_all() waves — the cluster is quiescent here.
      process_membership_requests();

      TenantId tenant = kDefaultTenant;
      PendingWave wave;
      bool picked = false;
      bool finished = false;
      {
        std::unique_lock<std::mutex> lock(tenants_mutex_);
        tenants_cv_.wait(lock, [&] {
          if (open_sessions_.load(std::memory_order_acquire) == 0 ||
              failure_pending_.load(std::memory_order_acquire))
            return true;
          for (const auto& [id, ts] : tenants_) {
            (void)id;
            if (!ts.queue.empty()) return true;
          }
          return false;
        });
        picked = pick_wave_locked(&tenant, &wave);
        if (!picked) {
          bool drained = true;
          for (const auto& [id, ts] : tenants_) {
            (void)id;
            if (!ts.queue.empty() || ts.executing > 0) drained = false;
          }
          finished =
              drained && open_sessions_.load(std::memory_order_acquire) == 0;
        }
      }
      if (finished) break;
      if (!picked) {
        // Idle instant: a failure reported between waves still needs the
        // between-waves repair path so buffers are not left on a corpse.
        if (failure_pending_.load(std::memory_order_acquire))
          run_with_recovery(nullptr, false);
        continue;
      }

      ++stats_.tenant_waves;

      const std::int64_t start_ns = now_ns();
      const std::int64_t submit_ns = wave.submit_ns;
      execute_wave(std::move(wave.graph));
      finish_tenant_wave(tenant, submit_ns, start_ns);
    }
    // Final repair sweep, mirroring wait_all()'s empty-graph path.
    if (failure_pending_.load(std::memory_order_acquire))
      run_with_recovery(nullptr, false);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(tenants_mutex_);
      serving_stopped_ = true;
      serve_error_ = std::current_exception();
    }
    tenants_cv_.notify_all();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    serving_stopped_ = true;
  }
  tenants_cv_.notify_all();
}

void Runtime::finish_tenant_wave(TenantId tenant, std::int64_t submit_ns,
                                 std::int64_t start_ns) {
  const std::int64_t end_ns = now_ns();
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  TenantState& ts = tenant_state_locked(tenant);
  --ts.executing;
  ++ts.stats.completed_waves;
  ts.stats.queue_wait_ns += start_ns - submit_ns;
  ts.stats.wave_latency_ns.push_back(end_ns - submit_ns);
  tenants_cv_.notify_all();
}

void Runtime::wait_tenant(TenantId tenant) {
  std::unique_lock<std::mutex> lock(tenants_mutex_);
  TenantState& ts = tenant_state_locked(tenant);
  tenants_cv_.wait(lock, [&] {
    return (ts.queue.empty() && ts.executing == 0) || serving_stopped_;
  });
  if (ts.queue.empty() && ts.executing == 0) return;
  if (serve_error_) std::rethrow_exception(serve_error_);
  throw AdmissionError(tenant, "serving stopped before the queue drained");
}

TenantStats Runtime::tenant_stats(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

void Runtime::note_cache_hit(TenantId tenant) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  if (auto it = tenants_.find(tenant); it != tenants_.end())
    ++it->second.stats.schedule_cache_hits;
}

void Runtime::note_replay(TenantId tenant, std::int64_t tasks) {
  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    if (auto it = tenants_.find(tenant); it != tenants_.end())
      it->second.stats.replayed_tasks += tasks;
  }
  // episode_tenants_ is head-control-thread state (like the episode clock);
  // no lock needed for it.
  if (std::find(episode_tenants_.begin(), episode_tenants_.end(), tenant) ==
      episode_tenants_.end())
    episode_tenants_.push_back(tenant);
}

void Runtime::close_tenant_episode(std::int64_t latency_ns) {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  for (TenantId tenant : episode_tenants_) {
    if (auto it = tenants_.find(tenant); it != tenants_.end()) {
      ++it->second.stats.recoveries;
      it->second.stats.recovery_latency_ns += latency_ns;
    }
  }
  episode_tenants_.clear();
}

void Runtime::refresh_derived_stats() {
  stats_.threads_spawned = helpers_->threads_spawned();
  const HelperPool& xfer = dm_.transfer_pool();
  stats_.pool_threads_peak = helpers_->peak_threads() + xfer.peak_threads();
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  stats_.tenants = static_cast<std::int64_t>(tenants_.size());
  std::int64_t rejections = 0;
  for (const auto& [id, ts] : tenants_) {
    (void)id;
    rejections += ts.stats.rejected_waves;
  }
  stats_.admission_rejections = rejections;
}

// --- TenantSession --------------------------------------------------------

TenantSession::TenantSession(Runtime& rt, TenantId tenant)
    : rt_(&rt), tenant_(tenant) {
  rt_->open_sessions_.fetch_add(1, std::memory_order_acq_rel);
}

TenantSession::~TenantSession() { close(); }

void TenantSession::submit_impl(bool blocking) {
  OMPC_CHECK_MSG(!closed_, "submit on a closed tenant session");
  // Admission moves the wave only once it accepts it: a refused wave stays
  // recorded for a retry (or a fall back to submit_wait).
  hand_over([this, blocking](ClusterGraph& wave) {
    if (blocking) {
      rt_->submit_wait(std::move(wave), tenant_);
    } else {
      rt_->submit(std::move(wave), tenant_);
    }
  });
}

void TenantSession::submit() { submit_impl(false); }
void TenantSession::submit_wait() { submit_impl(true); }

void TenantSession::wait() {
  OMPC_CHECK_MSG(!closed_, "wait on a closed tenant session");
  rt_->wait_tenant(tenant_);
}

void TenantSession::close() {
  if (closed_) return;
  closed_ = true;
  rt_->open_sessions_.fetch_sub(1, std::memory_order_acq_rel);
  // Wake the serve loop so "all sessions closed + queues drained" is
  // re-evaluated immediately.
  std::lock_guard<std::mutex> lock(rt_->tenants_mutex_);
  rt_->tenants_cv_.notify_all();
}

// --- head failover (replicated state, election adoption) -----------------

void Runtime::replicate_head_state(bool boundary_reset) {
  if (!replicating() || live_workers_.empty()) return;
  OMPC_CHECK_MSG(!replication_, "a HeadState update is already in flight");
  // The shadow is the first live worker: deterministic, and recovery's
  // re-ranking naturally promotes the next one when it dies.
  const mpi::Rank shadow = live_workers_.front();
  ReplicaStore::Update kind;
  if (shadow != shadow_rank_) {
    kind = ReplicaStore::Update::Full;  // new shadow: resync everything
  } else if (boundary_reset) {
    kind = ReplicaStore::Update::Reset;  // checkpoint retaken: new period
  } else {
    kind = ReplicaStore::Update::Append;  // steady state: just the new wave
  }

  // Metadata travels in full every time — it is O(buffers + workers), and
  // replacing it wholesale keeps the replica trivially consistent. Stats
  // ride along so counters survive a handoff. The checkpoint metadata names
  // its head-resident snapshot bytes by replication id; each blob travels
  // once, on the first update after its capture (a Full resync re-sends
  // them all), and the update lists every id so the shadow keeps exactly
  // those. On ompcbench's tb_ft (Head locality, 8 × 4 KiB written per
  // wave) re-sending both generations' bytes at every boundary cost
  // 133,130 B per wave; shipping each blob once costs 38,160, and a steady
  // update is the 32 KiB just captured plus ~4.3 KB of metadata.
  ArchiveWriter meta;
  meta.put_raw(&stats_, sizeof stats_);
  meta.put_vector(live_workers_);
  meta.put_vector(spare_pool_);
  const Bytes dm_blob = dm_.serialize_registry();
  meta.put_blob(std::span<const std::byte>(dm_blob.data(), dm_blob.size()));
  const Bytes ck_blob = ckpt_.serialize_state();
  meta.put_blob(std::span<const std::byte>(ck_blob.data(), ck_blob.size()));
  const Bytes meta_blob = meta.take();

  SnapshotBlobs missing = ckpt_.blobs();
  std::vector<std::uint64_t> ids;  // sorted: SnapshotBlobs is a map
  ids.reserve(missing.size());
  for (const auto& [id, bytes] : missing) ids.push_back(id);
  if (kind != ReplicaStore::Update::Full) {
    std::erase_if(missing, [this](const auto& blob) {
      return std::binary_search(shadow_blob_ids_.begin(),
                                shadow_blob_ids_.end(), blob.first);
    });
  }
  // Shared, not borrowed: the update is still on the wire while the wave
  // runs, and if THIS rank dies meanwhile, nothing the head frees may be
  // bytes the in-flight envelope still references — the shadow would parse
  // garbage at the exact moment its replica matters most.
  const auto payload = std::make_shared<const Bytes>(ReplicaStore::encode(
      kind, meta_blob, log_.previous(), log_.current(),
      kind == ReplicaStore::Update::Append ? log_.shipped() : 0, missing,
      ids));

  HeadStateHeader h;
  h.size = payload->size();
  h.generation = ++replica_generation_;
  h.reset = static_cast<std::uint8_t>(kind);
  ArchiveWriter hw;
  hw.put(h);
  try {
    replication_ = PendingReplication{
        events_->start(shadow, EventKind::HeadState, hw.take(),
                       mpi::Payload::share(payload, payload->data(),
                                           payload->size())),
        shadow, std::move(ids), log_.current().size(),
        static_cast<std::int64_t>(payload->size()), ckpt_.num_retired()};
  } catch (const WorkerDiedError&) {
    // Shadow already gone: skip this round (see await_replication).
    shadow_rank_ = -1;
  }
}

void Runtime::await_replication() {
  if (!replication_) return;
  PendingReplication update = std::move(*replication_);
  replication_.reset();
  try {
    update.ack->wait();
  } catch (const WorkerDiedError&) {
    if (events_->is_rank_gone(head_rank_)) throw;
    // Shadow died under the update. Skip this round; the detector will
    // shrink the live set and the next boundary resyncs (Full) to the new
    // front — forced here too, since whether the shadow applied the update
    // is unknown. Generations stay strictly increasing across the gap, so
    // the election invariant (freshest replica is unique) holds.
    shadow_rank_ = -1;
    return;
  }
  shadow_rank_ = update.shadow;
  shadow_blob_ids_ = std::move(update.blob_ids);
  log_.set_shipped(update.waves);
  ++stats_.replication_updates;
  stats_.replication_bytes += update.bytes;
  // The replica a promoted head would adopt now names only what the update
  // listed; the shadows retired before it started are nobody's any more.
  ckpt_.release_retired(update.retired);
}

void Runtime::failover() {
  const Stopwatch timer;
  // The head's death opens the recovery-latency episode if nothing else
  // did (mirrors rollback()).
  std::int64_t expected = 0;
  failure_detected_ns_.compare_exchange_strong(expected, now_ns(),
                                               std::memory_order_acq_rel);
  const mpi::Rank old_head = head_rank_;
  // An update still in flight died with the old head's event plane; the
  // adopted replica may or may not hold it, and the next update is a Full
  // resync either way (adopt_replica).
  replication_.reset();
  if (!replicating())
    throw RecoveryError(
        "head rank died and head replication is disabled "
        "(ClusterOptions::head_replication); no failover possible");
  OMPC_LOG_WARN("head rank " << old_head
                             << " died; awaiting ring election");

  // The agents' election needs detection (timeout) + candidacy window;
  // bound the wait well above both so a slow CI machine cannot miss a
  // legitimate winner, yet a cluster with no surviving replica holder
  // still fails crisply.
  const std::int64_t timeout_ms =
      std::max<std::int64_t>(2000, 20 * opts_.heartbeat_timeout_ms);
  const std::optional<mpi::Rank> winner =
      bus_->await_new_head(head_epoch_, timeout_ms);
  if (!winner)
    throw RecoveryError(
        "head rank " + std::to_string(old_head) +
        " died and no surviving replica holder won the election; "
        "head state is unrecoverable");

  const MembershipBus::Node node = bus_->node(*winner);
  OMPC_CHECK_MSG(node.events != nullptr && node.replica != nullptr,
                 "elected head rank " << *winner
                                      << " has no registered event system");
  {
    // Swap the event plane under fault_mutex_: detector threads snapshot
    // events_ under the same lock in report_worker_failure().
    std::lock_guard<std::mutex> lock(fault_mutex_);
    head_rank_ = *winner;
    head_epoch_ = bus_->epoch();
    events_ = node.events;
  }
  dm_.rebind(events_);
  ckpt_.rebind(events_);
  adopt_replica();
  schedule_cache_.clear();
  // The dead head's ChannelPlan dies with it: replay runs unarmed until
  // the promoted head's schedule cache hits again.
  dm_.disarm_channels();

  // The old head is a corpse to the new event plane too: abort anything
  // still referencing it and tell the workers.
  events_->fail_rank(old_head);
  events_->announce_rank_dead(old_head);
  // Future detector reports (the promoted rank's agent receives them now)
  // flow into this runtime.
  bus_->set_failure_handler(
      [this](mpi::Rank dead) { report_worker_failure(dead); });
  // Workers that died while no head was listening: sweep liveness once so
  // the rollback below (or the next wave's recovery round) processes them.
  std::vector<mpi::Rank> gone;
  for (const mpi::Rank r : live_workers_)
    if (events_->is_rank_gone(r)) gone.push_back(r);
  for (const mpi::Rank r : gone) report_worker_failure(r);

  // Heap reconciliation: the dead head's bookkeeping for in-flight blocks
  // is unrecoverable, so every survivor drops all device blocks except its
  // checkpoint shadows; replay re-allocates from the adopted registry.
  trim_worker_heaps();

  if (!ckpt_.has_checkpoint())
    throw RecoveryError(
        "elected head adopted a replica with no committed checkpoint; "
        "cannot resume");
  events_->quiesce();
  dm_.reset_all_to_host();
  ckpt_.restore(dm_);
  absorb_degraded_restore();

  ++stats_.recoveries;
  stats_.recovery_ns += timer.elapsed_ns();
  OMPC_LOG_WARN("failover: rank " << head_rank_ << " is the new head ("
                                  << num_live_workers()
                                  << " workers, resuming from wave "
                                  << ckpt_.wave() << ")");
}

void Runtime::adopt_replica() {
  ReplicaStore::Snapshot snap = bus_->node(head_rank_).replica->snapshot();
  OMPC_CHECK_MSG(snap.generation > 0 && !snap.metadata.empty(),
                 "elected head holds an empty replica");

  ArchiveReader r(
      std::span<const std::byte>(snap.metadata.data(), snap.metadata.size()));
  RuntimeStats adopted{};
  r.get_raw(&adopted, sizeof adopted);
  std::vector<mpi::Rank> live = r.get_vector<mpi::Rank>();
  std::vector<mpi::Rank> spares = r.get_vector<mpi::Rank>();
  const Bytes dm_blob = r.get_blob();
  const Bytes ck_blob = r.get_blob();

  // Counters survive the handoff: adopt the replicated block, then count
  // the handoff itself.
  adopted.failovers = stats_.failovers;  // local view is authoritative here
  stats_ = adopted;
  ++stats_.failovers;

  // The winner stops being a worker the moment it becomes the head.
  live.erase(std::remove(live.begin(), live.end(), head_rank_), live.end());
  spares.erase(std::remove(spares.begin(), spares.end(), head_rank_),
               spares.end());
  {
    std::lock_guard<std::mutex> lock(fault_mutex_);
    live_workers_ = std::move(live);
  }
  spare_pool_ = std::move(spares);
  if (live_workers_.empty())
    throw RecoveryError("cannot fail over: no worker survives the head");

  dm_.adopt_registry(
      std::span<const std::byte>(dm_blob.data(), dm_blob.size()));
  ckpt_.adopt_state(std::span<const std::byte>(ck_blob.data(), ck_blob.size()),
                    snap.blobs);

  // The replica's wave log, completed by wave number from this control
  // thread's own (WaveLog::adopt). A buffer a replayed wave exits may not
  // be in the adopted registry yet (restore re-registers it); its edge
  // weight defaults harmlessly to 0.
  log_.adopt(std::move(snap.prev_waves), std::move(snap.waves),
             std::max<std::int64_t>(ckpt_.wave(), 0),
             [this](const void* addr) { return dm_.buffer_size(addr); });

  // Replication continues from the adopted generation (monotonic across
  // handoffs — the election invariant depends on it) to a fresh shadow.
  replica_generation_ = snap.generation;
  shadow_rank_ = -1;
}

void Runtime::absorb_degraded_restore() {
  if (!ckpt_.last_restore_degraded()) return;
  log_.splice_previous();
  // The spliced log is one period again; force a Full resync so the shadow
  // sees the same shape.
  shadow_rank_ = -1;
  OMPC_LOG_WARN("recovery: degraded restore — replaying "
                << log_.current().size() << " waves from the prior boundary");
}

void Runtime::trim_worker_heaps() {
  std::vector<OriginEventPtr> acks;
  std::vector<mpi::Rank> targets = live_workers_;
  targets.push_back(head_rank_);  // the promoted rank's own worker heap
  for (const mpi::Rank r : targets) {
    if (events_->is_rank_gone(r)) continue;
    const std::vector<offload::TargetPtr> keep = ckpt_.shadows_on(r);
    ArchiveWriter w;
    w.put(TrimHeapHeader{static_cast<std::uint64_t>(keep.size())});
    for (const offload::TargetPtr p : keep) w.put(p);
    try {
      acks.push_back(events_->start(r, EventKind::TrimHeap, w.take()));
    } catch (const WorkerDiedError&) {
      // Died under the trim command; the liveness sweep picks it up.
    }
  }
  for (const OriginEventPtr& ev : acks) {
    try {
      ev->wait();
    } catch (const WorkerDiedError&) {
    }
  }
}

// --- elastic membership (runtime join/leave) ------------------------------

mpi::Rank Runtime::request_join() {
  if (spare_pool_.empty()) return -1;
  const mpi::Rank r = spare_pool_.front();
  spare_pool_.erase(spare_pool_.begin());
  pending_joins_.push_back(r);
  return r;
}

bool Runtime::request_leave(mpi::Rank rank) {
  if (std::find(live_workers_.begin(), live_workers_.end(), rank) ==
      live_workers_.end())
    return false;
  if (live_workers_.size() <= 1) return false;  // never drain the last one
  if (std::find(pending_leaves_.begin(), pending_leaves_.end(), rank) !=
      pending_leaves_.end())
    return false;
  pending_leaves_.push_back(rank);
  return true;
}

void Runtime::process_membership_requests() {
  if (pending_joins_.empty() && pending_leaves_.empty()) return;
  bool changed = false;
  try {
    while (!pending_leaves_.empty()) {
      const mpi::Rank r = pending_leaves_.front();
      if (std::find(live_workers_.begin(), live_workers_.end(), r) ==
              live_workers_.end() ||
          live_workers_.size() <= 1) {
        pending_leaves_.erase(pending_leaves_.begin());
        continue;  // died (or shrank to last) since the request
      }
      // Drain: the leaver may hold the sole valid copy of any buffer, so
      // pull everything head-side first, then forget its replicas (no
      // Delete events — the trim below frees wholesale) and shrink its
      // heap down to the checkpoint shadows it still hosts: those stay
      // fetchable, so snapshots buddy'd on a retired rank survive a later
      // owner death.
      std::vector<const void*> hosts;
      dm_.for_each_buffer(
          [&hosts](void* h, std::size_t) { hosts.push_back(h); });
      dm_.refresh_head_many(hosts);
      dm_.purge_rank(r);
      const std::vector<offload::TargetPtr> keep = ckpt_.shadows_on(r);
      ArchiveWriter w;
      w.put(TrimHeapHeader{static_cast<std::uint64_t>(keep.size())});
      for (const offload::TargetPtr p : keep) w.put(p);
      events_->run(r, EventKind::TrimHeap, w.take());
      {
        std::lock_guard<std::mutex> lock(fault_mutex_);
        live_workers_.erase(
            std::remove(live_workers_.begin(), live_workers_.end(), r),
            live_workers_.end());
      }
      spare_pool_.push_back(r);  // re-joinable later
      pending_leaves_.erase(pending_leaves_.begin());
      ++stats_.workers_retired;
      changed = true;
      OMPC_LOG_INFO("membership: worker rank "
                    << r << " retired (" << live_workers_.size()
                    << " remain)");
    }
    while (!pending_joins_.empty()) {
      const mpi::Rank r = pending_joins_.front();
      pending_joins_.erase(pending_joins_.begin());
      if (events_->is_rank_gone(r)) continue;  // died while pending
      {
        std::lock_guard<std::mutex> lock(fault_mutex_);
        live_workers_.insert(
            std::upper_bound(live_workers_.begin(), live_workers_.end(), r),
            r);
      }
      changed = true;
      ++stats_.workers_joined;
      // The joiner's ownership slice: every |live|-th buffer migrates to
      // it worker->worker over the data plane, so its replicas are real
      // (they survive a later owner death via the normal ownership map,
      // and give HEFT locality to schedule against).
      const std::size_t moved =
          dm_.migrate_buffers(r, live_workers_.size());
      OMPC_LOG_INFO("membership: worker rank "
                    << r << " joined (" << live_workers_.size()
                    << " live, " << moved << " buffers migrated)");
    }
  } catch (const WorkerDiedError& e) {
    // A rank died under the membership change. Leave the remaining
    // requests queued (they re-apply at the next boundary, after
    // recovery); the failure itself goes through the normal machinery.
    if (e.rank() >= 0) report_worker_failure(e.rank());
  }
  if (changed) {
    // Schedules were computed for the old worker table — and so was the
    // ChannelPlan (its shapes name ranks): both invalidate together.
    schedule_cache_.clear();
    dm_.disarm_channels();
    // Membership is head state: resync the replica eagerly so a failover
    // in the very next wave sees the new table.
    shadow_rank_ = -1;
  }
}

RuntimeStats launch(const ClusterOptions& opts,
                    const std::function<void(Runtime&)>& head_main) {
  const Stopwatch wall;
  RuntimeStats stats;

  // Data-plane copy accounting is process-wide (workers share the process
  // in this simulated cluster); report this launch's delta.
  const std::int64_t payload_copies_before = mpi::payload_copies();

  const bool hb_on = opts.heartbeat_period_ms > 0;

  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.network = opts.network;
  // control + data communicators (+ a dedicated heartbeat ring comm).
  uopts.comms = 1 + opts.vci + (hb_on ? 1 : 0);
  uopts.kills = opts.kills;  // fault injection (§5 testing)
  uopts.conduit = opts.conduit;
  // The control communicator (context 0) must own a hardware channel no
  // data context aliases onto, or notification latency serializes behind
  // multi-megabyte payload transfers (contexts stripe channel = ctx % n).
  uopts.network.channels = std::max(uopts.network.channels, opts.vci + 1);

  const int hb_comm_index = 1 + opts.vci;
  HeartbeatRing::Options hb_opts;
  hb_opts.period_ms = opts.heartbeat_period_ms;
  hb_opts.timeout_ms = opts.heartbeat_timeout_ms;

  // Election/replication rendezvous between the per-rank agents and the
  // surviving control thread (shared-memory stand-in for connection
  // re-establishment; see membership.hpp).
  MembershipBus bus;

  // Every rank adds its event system's counters once its threads joined.
  EventSystemStats event_totals;
  const auto add_event_totals = [&event_totals](EventSystem& es) {
    es.join();
    const EventSystemStats& s = es.stats();
    event_totals.handled += s.handled.load();
    event_totals.parked += s.parked.load();
    event_totals.wakeups += s.wakeups.load();
  };

  mpi::Universe universe(uopts);
  universe.run([&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      // --- head node ---
      const Stopwatch startup;
      EventSystem events(ctx, opts, nullptr, nullptr);

      Runtime rt(opts, events, &bus);
      // Teardown latch: whatever happens below (including error unwinds),
      // a promoted worker's main thread must eventually be released to
      // destroy the event system this control thread borrowed.
      struct ControlReleaser {
        MembershipBus& bus;
        ~ControlReleaser() { bus.release_control(); }
      } releaser{bus};

      // §5 failure detection: the head runs the same membership agent as
      // every worker. Its ring catches its own predecessor's death, its
      // loop collects the reports other ring members send, and both feed
      // report_worker_failure(), which arms recovery in wait_all(). It
      // holds no replica, so it never stands in an election.
      std::unique_ptr<MembershipAgent> agent;
      if (hb_on)
        agent = std::make_unique<MembershipAgent>(
            ctx.comm(hb_comm_index), hb_opts, &bus, nullptr,
            [&rt](mpi::Rank dead) { rt.report_worker_failure(dead); });
      const std::int64_t startup_ns = startup.elapsed_ns();

      // Any head-side failure must still shut the workers down, or they
      // would wait for events forever and the join below would hang.
      std::exception_ptr error;
      try {
        head_main(rt);
        rt.wait_all();  // implicit barrier at the end of the parallel region
      } catch (...) {
        error = std::current_exception();
      }

      const Stopwatch shutdown;
      if (!error) {
        // A worker can die in this very window (after the last wave,
        // before/while cleanup deletes its buffers) — which is why the
        // agent is still running here: detection fails the blocked Delete
        // events so this cannot hang. Capture the error so the live
        // workers still get their Shutdown below.
        try {
          rt.data_manager().cleanup_all();
        } catch (...) {
          error = std::current_exception();
        }
      }
      // Detection must stop before cluster teardown: ring members going
      // silent one by one as they shut down must not read as failures.
      // (shutdown_cluster itself tolerates a rank dying mid-handshake by
      // polling liveness instead of blocking on the ack.)
      if (agent) agent->stop();
      // Through the runtime's CURRENT event system: after a failover this
      // is the promoted rank's, and the dead head's own system already
      // stopped itself when its mailbox was poisoned. When the head died
      // and nobody could be promoted (replica lost with it, or replication
      // off), there is no live control plane left to deliver Shutdown —
      // model the job scheduler reclaiming the allocation instead: poison
      // the survivors, which unwinds their gate threads like any kill.
      if (!ctx.universe().is_dead(rt.head_rank())) {
        rt.events().shutdown_cluster();
      } else {
        for (mpi::Rank r = 1; r < static_cast<mpi::Rank>(opts.ranks()); ++r)
          if (!ctx.universe().is_dead(r)) ctx.universe().kill_rank(r, 0);
      }
      const std::int64_t shutdown_ns = shutdown.elapsed_ns();
      if (error) std::rethrow_exception(error);
      add_event_totals(events);

      // The head's counters, overlaid with what launch() measures itself
      // and what the head's components count on their own.
      rt.refresh_derived_stats();
      stats = rt.stats();
      stats.startup_ns = startup_ns;
      stats.shutdown_ns = shutdown_ns;
      stats.events_originated = rt.events().stats().originated.load();
      const DataManagerStats& ds = rt.data_manager().stats();
      stats.submits = ds.submits.load();
      stats.retrieves = ds.retrieves.load();
      stats.exchanges = ds.exchanges.load();
      stats.bytes_moved = ds.bytes_moved.load();
      stats.persistent_reuses = ds.persistent_reuses.load();
      stats.threads_spawned += ds.threads_spawned.load();
      const CheckpointStats& cks = rt.checkpoints().stats();
      stats.checkpoints = cks.captures;
      stats.checkpoint_bytes = cks.bytes_captured;
      stats.checkpoint_dirty_bytes = cks.dirty_bytes;
      stats.checkpoint_head_bytes = cks.head_bytes;
      stats.snapshot_replicas = cks.snapshot_replicas;
      stats.checkpoint_ns = cks.capture_ns;
    } else {
      // --- worker node ---
      // Universe-aware heap: every device block doubles as an RMA window,
      // making this worker a put/get target for the one-sided data plane.
      WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime exec_pool(opts.worker_threads);
      // The replica store makes this rank a head-failover candidate: it
      // accumulates HeadState updates (verbatim blobs) and its generation
      // is the rank's ballot in the ring election.
      ReplicaStore replica;
      EventSystem events(ctx, opts, &memory, &exec_pool, &replica);
      bus.register_node(ctx.rank(), &events, &replica);
      // Membership agent: heartbeat ring + failure-report routing to the
      // *current* head + the head-death election (membership.hpp). Once
      // this rank is promoted, its reports reach the control thread through
      // the bus, which buffers them until failover() adopts this rank.
      std::unique_ptr<MembershipAgent> agent;
      if (hb_on)
        agent = std::make_unique<MembershipAgent>(
            ctx.comm(hb_comm_index), hb_opts, &bus, &replica,
            [&bus](mpi::Rank dead) { bus.report_failure(dead); });
      events.wait_until_stopped();
      if (agent) agent->stop();
      // A promoted worker's event system is being driven by the surviving
      // control thread; destroying it underneath that thread would be a
      // use-after-free. Wait for the control thread to finish completely.
      if (bus.epoch() > 0 && bus.current_head() == ctx.rank())
        bus.await_control_release();
      add_event_totals(events);
    }
  });

  stats.events_handled = event_totals.handled.load();
  stats.events_parked = event_totals.parked.load();
  stats.event_wakeups = event_totals.wakeups.load();
  stats.messages_sent = universe.messages_sent();
  stats.payload_copies = mpi::payload_copies() - payload_copies_before;
  stats.wall_ns = wall.elapsed_ns();
  return stats;
}

}  // namespace ompc::core
