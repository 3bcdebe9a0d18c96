// The Data Management module (paper §4.3).
//
// Lives on the head node ("at the agnostic layer" in Figure 2) and tracks,
// for every registered buffer, which ranks hold a *valid* copy and at what
// device address. Decisions follow §4.3's rules verbatim:
//
//  - enter data: the buffer is sent to the first node that will use it
//    (the scheduler pins the enter task there; executing it performs
//    Alloc + Submit);
//  - target region: a missing input is forwarded from its most recent
//    location — a direct worker->worker exchange commanded by the head but
//    never routed through it (Forwarding::Direct), or a retrieve+submit
//    bounce for the ablation strawman (Forwarding::ViaHead);
//  - after a task writes a buffer (out/inout dependence), every other copy
//    is stale: the DM deletes them and the writer becomes the only valid
//    location. Read-only uses replicate instead;
//  - exit data: the freshest copy is retrieved to the head and the buffer
//    is removed from the whole cluster.
//
// Concurrency: helper threads execute many tasks at once. Transfers of the
// *same* buffer are serialized by a per-buffer mutex (acquired in address
// order for multi-buffer tasks, so no deadlock); distinct buffers move in
// parallel.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/event_system.hpp"
#include "core/helper_pool.hpp"
#include "core/options.hpp"
#include "omptask/dep.hpp"

namespace ompc::core {

struct DataManagerStats {
  std::atomic<std::int64_t> submits{0};
  std::atomic<std::int64_t> retrieves{0};
  std::atomic<std::int64_t> exchanges{0};
  std::atomic<std::int64_t> allocs{0};
  std::atomic<std::int64_t> deletes{0};
  std::atomic<std::int64_t> bytes_moved{0};
  std::atomic<std::int64_t> buffers_lost{0};  ///< sole copy was on a corpse
  std::atomic<std::int64_t> threads_spawned{0};  ///< transfer-pool spawns
  std::atomic<std::int64_t> head_fetch_bytes{0};  ///< bytes retrieved into
                                                  ///< host copies (head NIC
                                                  ///< inbound data volume)
  std::atomic<std::int64_t> persistent_reuses{0};  ///< device allocations
                                                   ///< re-used by an armed
                                                   ///< ChannelPlan
  std::atomic<std::int64_t> head_prefetches{0};  ///< retrieves started by
                                                 ///< prefetch_to_head
};

class DataManager {
 public:
  DataManager(EventSystem& events, const ClusterOptions& opts);

  // --- registration (recording phase, single-threaded head) -----------

  /// Declares a mappable buffer (the `map` clause extent).
  void register_buffer(void* host, std::size_t size);

  bool is_registered(const void* host) const;
  std::size_t buffer_size(const void* host) const;
  std::size_t num_buffers() const;

  // --- execution phase (called from helper threads) -------------------

  /// Executes a DataEnter task pinned to `worker`: allocate there and, when
  /// `copy`, submit the host contents.
  void enter_to_worker(mpi::Rank worker, const void* host, bool copy);

  /// Executes a DataExit task: retrieve the freshest copy to the host
  /// (when `copy`) and remove the buffer from the entire cluster.
  void exit_to_head(void* host, bool copy);

  /// Makes every buffer in `buffers` valid on `worker` (§4.3 target-region
  /// rule) and returns their device addresses, positionally.
  std::vector<offload::TargetPtr> prepare_args(
      mpi::Rank worker, std::span<const void* const> buffers);

  /// Applies post-execution invalidation: each written dependence leaves
  /// `worker` (-1: the head's host copy) as the only valid location (and
  /// marks the buffer dirty for the next incremental checkpoint). Fails,
  /// naming the buffer, when a retrieve into its host copy is still in
  /// flight.
  void after_write(mpi::Rank worker, const omp::DepList& deps);

  /// after_write(-1, deps): a host task wrote the head copies in place.
  void after_host_write(const omp::DepList& deps);

  /// Makes the head copy of every registered dependence in `deps` valid (a
  /// host task's inputs), taking over a pending prefetch. Worker replicas
  /// stay valid.
  void refresh_head_deps(const omp::DepList& deps);

  /// Starts retrieving the freshest worker copy of `host` to the head and
  /// returns without waiting (no-op when the head copy is valid or a fetch
  /// is already in flight). The next fetch_to_head_locked (a capture's
  /// refresh, an exit, a ViaHead forward) takes the retrieve over instead
  /// of issuing a second one. Call it only after the buffer's last write
  /// before that fetch: a write while it is in flight fails fast.
  void prefetch_to_head(const void* host);

  /// Deletes every remaining device allocation (pre-shutdown sweep for
  /// buffers the program never exited), after waiting out any prefetch
  /// still landing in a host buffer.
  void cleanup_all();

  // --- fault tolerance (paper §5; driven by the Runtime) ---------------
  //
  // The ownership map this module maintains is exactly what checkpointing
  // and rollback need: capture walks it to find the freshest copy of every
  // buffer, rollback rewrites it to "host only" before re-execution.

  /// Refreshes the head's host copy of `host` from the freshest worker
  /// replica (no-op when the head already holds a valid copy). Read-only:
  /// worker replicas stay valid. Checkpoint capture uses this.
  void refresh_head(const void* host);

  /// refresh_head for a whole set at once: the retrieves fan out across the
  /// persistent transfer pool (one job per buffer, max(transfer) instead of
  /// sum(transfer) — the head-resident capture path was serial before).
  /// Returns the bytes actually retrieved (buffers already valid on the
  /// head cost nothing); rethrows the first fetch failure after all jobs
  /// have settled, so no job outlives the call.
  std::int64_t refresh_head_many(std::span<const void* const> hosts);

  /// Calls `fn(host, size)` for every registered buffer. Must not be
  /// called concurrently with registration (head control thread only).
  void for_each_buffer(
      const std::function<void(void*, std::size_t)>& fn) const;

  /// Snapshot-placement query (worker-local checkpoints): where the
  /// freshest copy of `host` lives — the head and/or the first worker with
  /// a valid replica (owner == -1 when none), with the replica's device
  /// address so the owner can snapshot it in place.
  struct Residency {
    bool on_head = false;
    mpi::Rank owner = -1;
    offload::TargetPtr owner_addr = 0;
  };
  Residency residency(const void* host) const;

  /// Forgets every replica on `dead` WITHOUT issuing Delete events (a dead
  /// rank frees its own memory when its thread unwinds). Buffers whose only
  /// valid copy lived there are counted in stats().buffers_lost.
  void purge_rank(mpi::Rank dead);

  /// Rollback step 1: drops every worker replica (Delete events on live
  /// workers) and declares the host copy the only valid location, for every
  /// registered buffer. Requires a quiesced cluster (no tasks in flight).
  /// Pending prefetches are dropped, each waited out first so no payload
  /// lands in a host buffer after the restore rewrote it.
  void reset_all_to_host();

  /// Rollback step 2: (re-)registers `host` if a DataExit erased it during
  /// the failed execution attempt and overwrites the host bytes with the
  /// checkpointed `content`. Requires reset_all_to_host() to have run.
  void restore_buffer(void* host, std::size_t size,
                      std::span<const std::byte> content);

  // --- head failover / elastic membership ------------------------------

  /// Head-replication support: flattens the registry ({host, size} per
  /// buffer). Placement is deliberately not shipped — a promoted head
  /// adopts every buffer as host-resident and lets rollback redistribute,
  /// so its reset_all_to_host() issues no Deletes against state the dead
  /// head was mid-way through mutating.
  Bytes serialize_registry() const;
  void adopt_registry(std::span<const std::byte> data);

  /// Re-homes the event plane after a head failover (the promoted rank's
  /// event system replaces the dead head's).
  void rebind(EventSystem* events) { events_ = events; }

  /// Elastic membership: migrates every `take_every`-th worker-resident
  /// buffer to `joiner` (a transfer from the current owner, as for a task
  /// input) and makes the joiner its only worker replica —
  /// the joiner's ownership slice. Returns the number of buffers moved.
  std::size_t migrate_buffers(mpi::Rank joiner, std::size_t take_every);

  // --- allocation reuse on cached waves (the per-wave ChannelPlan) ------
  //
  // Armed by the Runtime when the schedule cache hits (same structural
  // hash, same live-worker set): the steady-state wave shape is known, so
  // stale replicas keep their device allocations across write
  // invalidations and the next wave's transfer re-fills the block instead
  // of paying Delete+Alloc round-trips. Disarmed on rollback, membership
  // change, head failover and tenant-set change.

  void arm_channels() { channels_on_.store(true, std::memory_order_release); }
  void disarm_channels() {
    channels_on_.store(false, std::memory_order_release);
  }
  bool channels_armed() const {
    return channels_on_.load(std::memory_order_acquire);
  }

  // --- dirty-set tracking (incremental checkpoints) --------------------
  //
  // A buffer is dirty when its logical content may have changed since the
  // last successful checkpoint capture: it was registered, or a task wrote
  // it (after_write). Capture copies exactly the dirty set and keeps clean
  // entries by reference; it calls mark_all_clean() only after committing,
  // so a capture that dies mid-way leaves the set conservatively intact.

  /// Snapshot of the currently-dirty buffers (thread-safe).
  std::unordered_set<const void*> dirty_buffers() const;

  /// Clears the dirty set (after a committed capture, or after restore —
  /// which rewrites every checkpointed buffer to its captured content).
  void mark_all_clean();

  // --- introspection (tests) ------------------------------------------

  struct Snapshot {
    bool valid_on_head = false;
    bool head_fetch_pending = false;  ///< a prefetch nobody took over yet
    std::set<mpi::Rank> valid_workers;
    std::set<mpi::Rank> allocated_workers;
  };
  Snapshot snapshot(const void* host) const;

  const DataManagerStats& stats() const { return stats_; }

  /// The elastic transfer pool (Runtime folds its peak counter into
  /// RuntimeStats; tests assert the elasticity).
  const HelperPool& transfer_pool() const { return *transfer_pool_; }

 private:
  /// Per-(buffer, worker) replica lifecycle. Concurrent readers fanning one
  /// buffer out to different workers overlap (each replica is its own
  /// transfer); a second request for the same worker waits on the cv.
  enum class CopyState { Absent, Transferring, Valid };

  struct BufferState {
    void* host = nullptr;
    std::size_t size = 0;
    bool on_head = true;  ///< host copy valid
    bool head_fetching = false;  ///< a retrieve into `host` is in flight
    /// The in-flight retrieve while it is a prefetch nobody waits on yet;
    /// whoever needs the head copy next takes it over.
    OriginEventPtr head_fetch;
    std::map<mpi::Rank, offload::TargetPtr> addr;  ///< device allocations
    std::map<mpi::Rank, CopyState> state;
    std::mutex lock;  ///< guards addr/state/on_head (not the transfers)
    std::condition_variable cv;  ///< signalled on Transferring -> Valid
  };

  BufferState* find(const void* host) const;

  /// Core of §4.3's target-region rule: makes the buffer Valid on `worker`
  /// and returns its device address. Blocks for the transfer; concurrent
  /// calls for distinct workers proceed in parallel.
  offload::TargetPtr ensure_on(mpi::Rank worker, BufferState& b);

  /// Allocates (once) on `worker`; requires b.lock NOT held.
  offload::TargetPtr alloc_on(mpi::Rank worker, BufferState& b);

  /// Submits the (valid) host copy into `worker`'s block at `dst`.
  void submit_to(mpi::Rank worker, offload::TargetPtr dst, BufferState& b);

  /// Removes the replica on `worker`; requires b.lock held (no transfer in
  /// flight for that worker).
  void delete_on_locked(mpi::Rank worker, BufferState& b,
                        std::unique_lock<std::mutex>& lk);

  /// Makes the head's host copy valid, coalescing concurrent refreshes of
  /// the same buffer onto one retrieve (waiters park on b.cv) and taking
  /// over a pending prefetch instead of issuing a second one. Enters and
  /// leaves with `lk` held on b.lock; on return b.on_head is true. The
  /// coalescing also guarantees nobody rewrites `host` while a borrowed
  /// Submit payload of it is in flight.
  void fetch_to_head_locked(BufferState& b, std::unique_lock<std::mutex>& lk);

  /// Drops a prefetch nobody took over: waits until its payload has landed
  /// in `host` (or, its source dead, never will) without counting it or
  /// validating the head copy. Needs `lk` held on b.lock.
  void drop_head_fetch_locked(BufferState& b,
                              std::unique_lock<std::mutex>& lk);

  /// Throws CheckError naming `b` when a retrieve into its host copy is in
  /// flight (a write now would race the landing payload). Needs b.lock.
  static void check_no_head_fetch_locked(const BufferState& b);

  /// First worker holding a Valid replica of `b` (-1: none). Needs b.lock.
  static mpi::Rank valid_worker_locked(const BufferState& b);

  /// Marks `host` as written since the last checkpoint.
  void mark_dirty(const void* host);

  EventSystem* events_;
  const ClusterOptions opts_;

  mutable std::shared_mutex mutex_;  ///< guards the buffer map itself
  std::unordered_map<const void*, std::unique_ptr<BufferState>> buffers_;

  mutable std::mutex dirty_mutex_;
  std::unordered_set<const void*> dirty_;

  std::atomic<bool> channels_on_{false};  ///< the ChannelPlan is armed

  /// Shared transfer pool for prepare_args fan-out — created with the
  /// manager (once per launch, like the dispatch pool). Elastic: capped at
  /// ClusterOptions::cluster_pool_threads(), grown on demand from a small
  /// floor. Growth is demand-based, so threads_spawned stays
  /// wave-count-independent for steady workloads.
  std::unique_ptr<HelperPool> transfer_pool_;

  DataManagerStats stats_;
};

}  // namespace ompc::core
