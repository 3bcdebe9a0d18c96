// The MPI-based distributed event system (paper §4.2, Figure 3).
//
// Per rank:
//  - a *gate thread* owns the control communicator: it receives new-event
//    notifications (enqueuing the destination half of each event) and
//    completion notifications (waking the origin waiter);
//  - a pool of *event handlers* executes queued events as state machines;
//    an event with pending I/O is parked, and the completion hook of the
//    request it waits on puts it back on the queue (no polling);
//  - origin threads (the head's helper threads) create events, each with a
//    unique tag; every data message of an event travels on a data
//    communicator chosen round-robin by that tag (the VCI striping of
//    §4.2's last paragraph) so events are isolated channels.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/options.hpp"
#include "core/proto.hpp"
#include "minimpi/mpi.hpp"
#include "omptask/runtime.hpp"

namespace ompc::core {

class ReplicaStore;

/// Rank-local "device memory": the worker-side heap that Alloc/Delete
/// events manage. Head code never dereferences these addresses (distinct
/// address spaces by discipline, DESIGN.md decision 1).
///
/// Blocks are shared-ownership so outbound payloads (Retrieve, RmaPut) can
/// send device memory zero-copy: share() pins the block for the life of
/// the in-flight message, surviving a concurrent Delete event and even this
/// rank dying with the payload still on the simulated wire.
///
/// Constructed with a universe, the heap doubles as the rank's one-sided
/// exposure: every block is registered as an RMA window under its own
/// address at alloc() and unregistered at free(), so remote ranks can put
/// into any live block by (rank, address) with no per-transfer handshake —
/// the target side of the RmaPut data plane. The universe-less form keeps
/// the heap usable standalone (unit tests).
class WorkerMemory {
 public:
  WorkerMemory() = default;
  WorkerMemory(mpi::Universe* universe, mpi::Rank rank)
      : universe_(universe), rank_(rank) {}
  /// Unregisters any window still live (leftover snapshot shadows, a rank
  /// unwinding from fault injection) — a put in flight toward them resolves
  /// to nothing and is dropped at delivery, matching the rank's death.
  ~WorkerMemory();

  offload::TargetPtr alloc(std::size_t size);
  void free(offload::TargetPtr ptr);

  /// free() that tolerates an unknown pointer (returns false instead of
  /// failing). After a head failover the adopted checkpoint state lags the
  /// real heap by up to one boundary, so a SnapshotDrop may name a shadow
  /// this rank already released — a legitimate no-op, not a double free.
  bool try_free(offload::TargetPtr ptr);

  /// Worker-local checkpoint shadow (SnapshotSave): allocates a fresh block
  /// and copies `size` bytes from the live allocation at `src` (a block
  /// base) into it, entirely rank-local. Returns the shadow's address.
  offload::TargetPtr snapshot(offload::TargetPtr src, std::size_t size);

  /// Zero-copy read view of the allocation starting at `ptr` (must be a
  /// block base), pinned for the payload's lifetime.
  mpi::Payload share(offload::TargetPtr ptr, std::size_t size) const;

  /// Addresses of every live block (TrimHeap frees all but a keep-set).
  std::vector<offload::TargetPtr> blocks() const;

  std::size_t live() const;

 private:
  void register_window(offload::TargetPtr ptr);

  struct Block {
    std::shared_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };
  mpi::Universe* universe_ = nullptr;  ///< null: no window registration
  mpi::Rank rank_ = -1;
  mutable std::mutex mutex_;
  std::unordered_map<offload::TargetPtr, Block> live_;
};

/// Origin half of an event (the E_O of Figure 3). wait() blocks the origin
/// thread until the destination's completion notification arrives.
class OriginEvent {
 public:
  /// `peer` is the third rank involved, if any (the target of an RmaPut);
  /// a failure of either dest or peer fails the event.
  OriginEvent(mpi::Tag tag, EventKind kind, mpi::Rank dest,
              mpi::Rank peer = mpi::kAnySource)
      : tag_(tag), kind_(kind), dest_(dest), peer_(peer) {}

  mpi::Tag tag() const noexcept { return tag_; }
  EventKind kind() const noexcept { return kind_; }
  mpi::Rank dest() const noexcept { return dest_; }
  mpi::Rank peer() const noexcept { return peer_; }

  /// Blocks until completion; returns the destination's result blob.
  /// Throws WorkerDiedError if the destination (or the peer) died
  /// before completing the event.
  const Bytes& wait();

  bool done() const;

 private:
  friend class EventSystem;

  /// Blocks for at most `timeout`; returns done().
  bool wait_for(std::chrono::milliseconds timeout);

  void complete(Bytes result);

  /// Completes exceptionally: `dead` (dest or peer) died. wait() throws.
  void fail(mpi::Rank dead);

  const mpi::Tag tag_;
  const EventKind kind_;
  const mpi::Rank dest_;
  const mpi::Rank peer_;

  // Inbound payload request (Retrieve posts its irecv before notifying).
  mpi::Request data_request_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  mpi::Rank failed_rank_ = mpi::kAnySource;  ///< >= 0: completed by failure
  Bytes result_;
};

using OriginEventPtr = std::shared_ptr<OriginEvent>;

struct EventSystemStats {
  std::atomic<std::int64_t> originated{0};
  std::atomic<std::int64_t> handled{0};
  std::atomic<std::int64_t> parked{0};   ///< progress() left I/O pending
  std::atomic<std::int64_t> wakeups{0};  ///< parked events put back on the queue
  std::atomic<std::int64_t> kernels_run{0};
};

class EventSystem {
 public:
  /// `memory`/`exec_pool` may be null on the head (it executes nothing).
  /// `replica`, when non-null, receives HeadState payloads (worker ranks
  /// eligible to shadow the head's recording state).
  EventSystem(mpi::RankContext& ctx, const ClusterOptions& opts,
              WorkerMemory* memory, omp::TaskRuntime* exec_pool,
              ReplicaStore* replica = nullptr);
  ~EventSystem();

  EventSystem(const EventSystem&) = delete;
  EventSystem& operator=(const EventSystem&) = delete;

  // --- origin API (head helper threads) --------------------------------

  /// Creates an event, ships its notification (and eager payload, for
  /// Submit) and returns the waitable origin half. `peer` marks the target
  /// rank of an RmaPut (failure of either rank fails the event). Throws
  /// WorkerDiedError when dest/peer is already known dead.
  /// A borrowed payload is safe here: the destination completes the event
  /// only after delivery, and the origin blocks in wait() until then.
  OriginEventPtr start(mpi::Rank dest, EventKind kind, Bytes header,
                       mpi::Payload payload = {},
                       mpi::Rank peer = mpi::kAnySource);

  /// Retrieve: posts the inbound irecv into `dst_host` *before* notifying
  /// the worker, so the payload can never race the receive. `kind` may be
  /// SnapshotFetch (wire-identical pull of a checkpoint shadow) instead of
  /// the default Retrieve.
  OriginEventPtr start_retrieve(mpi::Rank dest, offload::TargetPtr src,
                                void* dst_host, std::size_t size,
                                EventKind kind = EventKind::Retrieve);

  /// start + wait.
  Bytes run(mpi::Rank dest, EventKind kind, Bytes header,
            mpi::Payload payload = {});

  /// Fresh event tag (unique per origin rank).
  mpi::Tag allocate_tag();

  // --- fault handling (paper §5) ---------------------------------------

  /// Declares `dead` failed: every origin event whose destination or
  /// peer is `dead` completes exceptionally (wait() throws
  /// WorkerDiedError) and future start()s to it throw immediately.
  /// Thread-safe; called by the failure detector on the head.
  void fail_rank(mpi::Rank dead);

  /// Head only: tells every live worker that `dead` died, so they re-test
  /// parked events that involve it.
  void announce_rank_dead(mpi::Rank dead);

  /// Whether `r` has been declared dead (local knowledge).
  bool is_rank_dead(mpi::Rank r) const;

  /// Combined liveness: declared dead by a detector OR already poisoned in
  /// the simulated universe (a corpse no detector has flagged yet). The
  /// checkpoint store uses this to resolve which snapshot holder survives.
  bool is_rank_gone(mpi::Rank r) const;

  /// Blocks until no origin event is outstanding — the quiescent point the
  /// recovery path needs before it mutates cluster-wide data state.
  void quiesce();

  // --- lifecycle --------------------------------------------------------

  /// Head only: shuts down every live worker's event system (acknowledged),
  /// then stops the local one. Dead ranks are skipped.
  void shutdown_cluster();

  /// Blocks the worker main thread until a Shutdown event arrives.
  void wait_until_stopped();

  /// Joins the gate and handler threads of a stopped system; stats() are
  /// final afterwards. The destructor calls it.
  void join();

  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  const EventSystemStats& stats() const { return stats_; }
  mpi::Rank rank() const noexcept { return rank_; }

 private:
  /// Destination half of an event (the E_D of Figure 3).
  struct RemoteEvent {
    EventAnnounce announce;
    std::uint64_t id = 0;  ///< parking key, assigned when first parked
    int phase = 0;
    mpi::Request io;  ///< pending irecv (Submit, HeadState) or put (RmaPut)
    std::shared_ptr<Bytes> blob;  ///< HeadState payload landing buffer
  };

  void gate_main();
  void handler_main(int index);

  /// Completion hook target: moves parked event `id` back onto the queue
  /// (no-op if it is no longer parked).
  void wake(std::uint64_t id);

  /// Re-queues every parked event (a rank died: each re-tests its request,
  /// and one the death failed settles).
  void wake_all_parked();

  /// Re-queues the idle waiters once the queue is drained and no event is
  /// inside progress(). Needs queue_mutex_; true if any was re-queued.
  bool wake_idle_waiters_locked();

  /// This rank died (gate caught RankKilledError): declare self dead and
  /// fail every outstanding origin event, so origin waiters unblock —
  /// their completions can never arrive once the mailbox is poisoned.
  void fail_local();

  /// Advances the event; true when finished (completion already sent).
  bool progress(RemoteEvent& ev);
  void send_completion(mpi::Rank to, mpi::Tag tag, Bytes result);

  mpi::Comm data_comm_for(mpi::Tag tag) const;

  void enqueue_remote(RemoteEvent&& ev);
  void stop_local();

  const ClusterOptions opts_;
  const mpi::Rank rank_;
  mpi::Comm control_;
  std::vector<mpi::Comm> data_comms_;

  WorkerMemory* memory_;
  omp::TaskRuntime* exec_pool_;
  ReplicaStore* replica_;

  // Origin registry: events awaiting completion, keyed by tag. Also guards
  // the dead-rank set; origin_cv_ signals the registry shrinking (quiesce).
  mutable std::mutex origin_mutex_;
  std::condition_variable origin_cv_;
  std::unordered_map<mpi::Tag, OriginEventPtr> origin_events_;
  std::unordered_set<mpi::Rank> dead_ranks_;
  std::atomic<mpi::Tag> next_tag_{kFirstEventTag};

  // Local destination-event queue and parked events, all under
  // queue_mutex_. active_events_ counts events currently inside progress()
  // — TrimHeap defers until it is the only one; idle_waiters_ are the
  // parked events waiting for that. wake_epoch_ counts wake_all_parked()
  // calls, so an event parking concurrently with one re-queues instead.
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<RemoteEvent> queue_;
  std::unordered_map<std::uint64_t, RemoteEvent> parked_;
  std::vector<std::uint64_t> idle_waiters_;
  std::uint64_t next_event_id_ = 0;
  std::uint64_t wake_epoch_ = 0;
  int active_events_ = 0;

  // Completion hooks hold this, not the EventSystem: a hook can fire on the
  // delivery or drain thread after the system is gone (the destructor
  // nulls `es`).
  struct Waker {
    std::mutex mutex;
    EventSystem* es = nullptr;
  };
  std::shared_ptr<Waker> waker_;

  std::atomic<bool> stop_{false};
  std::mutex stopped_mutex_;
  std::condition_variable stopped_cv_;

  EventSystemStats stats_;

  std::vector<std::thread> handlers_;
  std::thread gate_;  // declared last: starts after, joined first
};

}  // namespace ompc::core
