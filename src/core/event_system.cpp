#include "core/event_system.hpp"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/check.hpp"
#include "core/fault.hpp"
#include "core/membership.hpp"
#include "common/log.hpp"
#include "common/time.hpp"

namespace ompc::core {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::Alloc: return "Alloc";
    case EventKind::Delete: return "Delete";
    case EventKind::Submit: return "Submit";
    case EventKind::Retrieve: return "Retrieve";
    case EventKind::Execute: return "Execute";
    case EventKind::Shutdown: return "Shutdown";
    case EventKind::RankDead: return "RankDead";
    case EventKind::SnapshotSave: return "SnapshotSave";
    case EventKind::SnapshotDrop: return "SnapshotDrop";
    case EventKind::SnapshotFetch: return "SnapshotFetch";
    case EventKind::RmaPut: return "RmaPut";
    case EventKind::HeadState: return "HeadState";
    case EventKind::TrimHeap: return "TrimHeap";
  }
  return "?";
}

// --- WorkerMemory --------------------------------------------------------

WorkerMemory::~WorkerMemory() {
  if (universe_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [tp, blk] : live_) {
    (void)blk;
    universe_->windows().destroy(rank_, tp);
  }
}

offload::TargetPtr WorkerMemory::alloc(std::size_t size) {
  const std::size_t n = size == 0 ? 1 : size;
  std::shared_ptr<std::byte[]> mem(new std::byte[n]);
  const auto tp = reinterpret_cast<offload::TargetPtr>(mem.get());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.emplace(tp, Block{std::move(mem), n});
  }
  // Eager window registration: every live block is a put/get target under
  // its own address, so a producer can write a consumer's block without
  // any per-transfer registration handshake.
  if (universe_ != nullptr) register_window(tp);
  return tp;
}

void WorkerMemory::free(offload::TargetPtr ptr) {
  OMPC_CHECK_MSG(try_free(ptr), "worker double free of device ptr " << ptr);
}

bool WorkerMemory::try_free(offload::TargetPtr ptr) {
  // The block must stay alive until the window is gone: destroy() excludes
  // in-flight landing copies (WindowRegistry fills under its lock), so a
  // put racing the free either lands before the teardown or is dropped at
  // delivery (and still acked) — never written into freed memory. Hence
  // the entry is moved out of the map first and its bytes released only
  // after destroy() returns; in-flight payloads that share the block keep
  // it alive longer still.
  Block doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(ptr);
    if (it == live_.end()) return false;
    doomed = std::move(it->second);
    live_.erase(it);
  }
  if (universe_ != nullptr) universe_->windows().destroy(rank_, ptr);
  return true;
}

void WorkerMemory::register_window(offload::TargetPtr ptr) {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(ptr);
    OMPC_CHECK_MSG(it != live_.end(), "window for unknown device ptr " << ptr);
    n = it->second.size;
  }
  universe_->windows().create(rank_, ptr, reinterpret_cast<void*>(ptr), n);
}

mpi::Payload WorkerMemory::share(offload::TargetPtr ptr,
                                 std::size_t size) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = live_.find(ptr);
  OMPC_CHECK_MSG(it != live_.end(), "share of unknown device ptr " << ptr);
  OMPC_CHECK_MSG(size <= it->second.size,
                 "share of " << size << " B exceeds allocation of "
                             << it->second.size << " B");
  return mpi::Payload::share(
      std::shared_ptr<const void>(it->second.mem, it->second.mem.get()),
      reinterpret_cast<const void*>(ptr), size);
}

offload::TargetPtr WorkerMemory::snapshot(offload::TargetPtr src,
                                          std::size_t size) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = live_.find(src);
  OMPC_CHECK_MSG(it != live_.end(), "snapshot of unknown device ptr " << src);
  OMPC_CHECK_MSG(size <= it->second.size,
                 "snapshot of " << size << " B exceeds allocation of "
                                << it->second.size << " B");
  const std::size_t n = size == 0 ? 1 : size;
  std::shared_ptr<std::byte[]> mem(new std::byte[n]);
  std::memcpy(mem.get(), it->second.mem.get(), size);
  const auto tp = reinterpret_cast<offload::TargetPtr>(mem.get());
  live_.emplace(tp, Block{std::move(mem), n});
  lock.unlock();
  if (universe_ != nullptr) register_window(tp);
  return tp;
}

std::vector<offload::TargetPtr> WorkerMemory::blocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<offload::TargetPtr> out;
  out.reserve(live_.size());
  for (const auto& [tp, blk] : live_) {
    (void)blk;
    out.push_back(tp);
  }
  return out;
}

std::size_t WorkerMemory::live() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_.size();
}

// --- OriginEvent ---------------------------------------------------------

const Bytes& OriginEvent::wait() {
  // Inbound payload (Retrieve) completes before the completion notification
  // is meaningful; wait for it first. fail() force-completes it, so this
  // cannot block past a failure.
  if (data_request_.valid()) {
    try {
      data_request_.wait();
    } catch (const mpi::RankKilledError& e) {
      throw WorkerDiedError(e.rank());
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  if (failed_rank_ >= 0) throw WorkerDiedError(failed_rank_);
  return result_;
}

bool OriginEvent::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

bool OriginEvent::wait_for(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, timeout, [this] { return done_; });
}

void OriginEvent::complete(Bytes result) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_) return;  // completion raced a failure; failure already won
    result_ = std::move(result);
    done_ = true;
  }
  cv_.notify_all();
}

void OriginEvent::fail(mpi::Rank dead) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_) return;  // the completion beat the failure: data is valid
    failed_rank_ = dead;
    done_ = true;
  }
  // Unblock a waiter parked on the inbound payload (Retrieve): the payload
  // will never arrive from a dead worker.
  if (data_request_.valid()) data_request_.state()->kill(dead);
  cv_.notify_all();
}

// --- EventSystem ---------------------------------------------------------

EventSystem::EventSystem(mpi::RankContext& ctx, const ClusterOptions& opts,
                         WorkerMemory* memory, omp::TaskRuntime* exec_pool,
                         ReplicaStore* replica)
    : opts_(opts),
      rank_(ctx.rank()),
      control_(ctx.comm(0)),
      memory_(memory),
      exec_pool_(exec_pool),
      replica_(replica),
      waker_(std::make_shared<Waker>()) {
  waker_->es = this;
  OMPC_CHECK_MSG(ctx.universe().options().comms >= 1 + opts.vci,
                 "universe must pre-create 1 control + vci data comms");
  data_comms_.reserve(static_cast<std::size_t>(opts.vci));
  for (int i = 0; i < opts.vci; ++i)
    data_comms_.push_back(ctx.comm(1 + i));

  handlers_.reserve(static_cast<std::size_t>(opts.handler_threads));
  for (int i = 0; i < opts.handler_threads; ++i) {
    handlers_.emplace_back([this, i] {
      log::set_thread_label("r" + std::to_string(rank_) + "/eh" +
                            std::to_string(i));
      handler_main(i);
    });
  }
  gate_ = std::thread([this] {
    log::set_thread_label("r" + std::to_string(rank_) + "/gate");
    gate_main();
  });
}

EventSystem::~EventSystem() {
  // Normal paths stop via shutdown_cluster() / the Shutdown event. If the
  // owner destroys us without that (error unwind), stop locally so threads
  // join; the gate may be blocked on probe, so poke it with a self-message.
  if (!stopped()) {
    EventAnnounce bye;
    bye.kind = EventKind::Shutdown;
    bye.origin = rank_;
    control_.isend_bytes(bye.serialize(), rank_, kTagNewEvent);
  }
  join();
  std::lock_guard<std::mutex> lock(waker_->mutex);
  waker_->es = nullptr;
}

void EventSystem::join() {
  if (gate_.joinable()) gate_.join();
  for (auto& h : handlers_)
    if (h.joinable()) h.join();
}

mpi::Comm EventSystem::data_comm_for(mpi::Tag tag) const {
  return data_comms_[static_cast<std::size_t>(tag) %
                     data_comms_.size()];
}

mpi::Tag EventSystem::allocate_tag() {
  mpi::Tag t = next_tag_.fetch_add(1, std::memory_order_relaxed);
  OMPC_CHECK_MSG(t <= mpi::kMaxUserTag, "event tag space exhausted");
  return t;
}

OriginEventPtr EventSystem::start(mpi::Rank dest, EventKind kind, Bytes header,
                                  mpi::Payload payload, mpi::Rank peer) {
  const mpi::Tag tag = allocate_tag();
  auto ev = std::make_shared<OriginEvent>(tag, kind, dest, peer);
  {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    if (dead_ranks_.count(dest) != 0) throw WorkerDiedError(dest);
    if (peer >= 0 && dead_ranks_.count(peer) != 0) throw WorkerDiedError(peer);
    // Fail fast on a corpse the heartbeat has not flagged yet — the
    // simulated analogue of MPI erroring on a send to a crashed peer.
    // Without this, an event started in the window between death and ring
    // detection (or after detection was shut down) would block forever.
    if (control_.universe().is_dead(dest)) throw WorkerDiedError(dest);
    if (peer >= 0 && control_.universe().is_dead(peer))
      throw WorkerDiedError(peer);
    // Self check last: a killed rank's sends vanish silently, so an event
    // started from a corpse would block forever. This matters during head
    // failover — the control thread survives kill_rank(head) and must fail
    // fast on the old head's event system rather than hang in wait().
    if (control_.universe().is_dead(rank_)) throw WorkerDiedError(rank_);
    origin_events_.emplace(tag, ev);
  }
  stats_.originated.fetch_add(1, std::memory_order_relaxed);

  // Eager payload first (Submit): it travels on the event's data comm with
  // the event tag; the destination's irecv will match it whenever it lands.
  if (!payload.empty())
    data_comm_for(tag).isend_payload(std::move(payload), dest, tag);

  EventAnnounce a;
  a.kind = kind;
  a.tag = tag;
  a.origin = rank_;
  a.header = std::move(header);
  control_.isend_bytes(a.serialize(), dest, kTagNewEvent);
  return ev;
}

OriginEventPtr EventSystem::start_retrieve(mpi::Rank dest,
                                           offload::TargetPtr src,
                                           void* dst_host, std::size_t size,
                                           EventKind kind) {
  // Self check before posting anything: a poisoned mailbox kills posted
  // receives, and a corpse's notification would vanish anyway.
  if (control_.universe().is_dead(rank_)) throw WorkerDiedError(rank_);
  const mpi::Tag tag = allocate_tag();
  auto ev = std::make_shared<OriginEvent>(tag, kind, dest);
  // Post the landing buffer before the worker can possibly send.
  ev->data_request_ = data_comm_for(tag).irecv(dst_host, size, dest, tag);
  {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    if (dead_ranks_.count(dest) != 0 || control_.universe().is_dead(dest)) {
      // Unpost the landing buffer before unwinding, or a stale payload
      // could later land in memory the caller has moved on from.
      control_.cancel(ev->data_request_);
      throw WorkerDiedError(dest);
    }
    origin_events_.emplace(tag, ev);
  }
  stats_.originated.fetch_add(1, std::memory_order_relaxed);

  ArchiveWriter w;
  w.put(RetrieveHeader{src, size});
  EventAnnounce a;
  a.kind = kind;
  a.tag = tag;
  a.origin = rank_;
  a.header = w.take();
  control_.isend_bytes(a.serialize(), dest, kTagNewEvent);
  return ev;
}

Bytes EventSystem::run(mpi::Rank dest, EventKind kind, Bytes header,
                       mpi::Payload payload) {
  return start(dest, kind, std::move(header), std::move(payload))->wait();
}

void EventSystem::fail_local() {
  std::vector<OriginEventPtr> victims;
  {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    dead_ranks_.insert(rank_);
    victims.reserve(origin_events_.size());
    for (auto& [tag, ev] : origin_events_) {
      (void)tag;
      victims.push_back(std::move(ev));
    }
    origin_events_.clear();
  }
  origin_cv_.notify_all();
  // No cancel here: the poison that killed this rank already killed its
  // posted receives; fail() force-completes any landing-buffer request.
  for (auto& ev : victims) ev->fail(rank_);
  wake_all_parked();
}

void EventSystem::fail_rank(mpi::Rank dead) {
  std::vector<OriginEventPtr> victims;
  {
    std::lock_guard<std::mutex> lock(origin_mutex_);
    if (!dead_ranks_.insert(dead).second) return;  // already declared
    for (auto it = origin_events_.begin(); it != origin_events_.end();) {
      if (it->second->dest() == dead || it->second->peer() == dead) {
        victims.push_back(std::move(it->second));
        it = origin_events_.erase(it);
      } else {
        ++it;
      }
    }
  }
  origin_cv_.notify_all();
  for (auto& ev : victims) {
    // Unpost a pending Retrieve landing buffer first: an in-flight payload
    // (sent before the death) arriving after recovery restored that host
    // buffer must not overwrite the rolled-back contents.
    control_.cancel(ev->data_request_);
    ev->fail(dead);
  }
  wake_all_parked();
}

void EventSystem::announce_rank_dead(mpi::Rank dead) {
  // Raw control sends, like the shutdown self-poke: RankDead carries no
  // completion (tag 0), so no origin event is registered.
  ArchiveWriter w;
  w.put(RankDeadHeader{dead});
  EventAnnounce a;
  a.kind = EventKind::RankDead;
  a.tag = 0;
  a.origin = rank_;
  a.header = w.take();
  const Bytes msg = a.serialize();
  const int n = control_.size();
  for (mpi::Rank r = 0; r < n; ++r) {
    if (r == rank_ || is_rank_dead(r)) continue;
    control_.isend_bytes(Bytes(msg), r, kTagNewEvent);
  }
}

bool EventSystem::is_rank_dead(mpi::Rank r) const {
  std::lock_guard<std::mutex> lock(origin_mutex_);
  return dead_ranks_.count(r) != 0;
}

bool EventSystem::is_rank_gone(mpi::Rank r) const {
  return is_rank_dead(r) || control_.universe().is_dead(r);
}

void EventSystem::quiesce() {
  std::unique_lock<std::mutex> lock(origin_mutex_);
  const bool drained = origin_cv_.wait_for(
      lock, std::chrono::seconds(30), [this] { return origin_events_.empty(); });
  OMPC_CHECK_MSG(drained, "quiesce timed out with "
                              << origin_events_.size()
                              << " origin events outstanding");
}

void EventSystem::shutdown_cluster() {
  // Stop each live worker (acknowledged via the normal completion path),
  // then unblock the local gate with a self-shutdown.
  std::vector<OriginEventPtr> acks;
  const int n = control_.size();
  for (mpi::Rank w = 0; w < n; ++w) {
    if (w == rank_ || is_rank_dead(w) || control_.universe().is_dead(w))
      continue;
    acks.push_back(start(w, EventKind::Shutdown, {}));
  }
  // Bounded waits, re-checking liveness each millisecond: a rank can die
  // mid-handshake, after every failure detector has already been stopped —
  // its ack will never come, and nobody is left to fail the event.
  // Liveness comes straight from the universe here (an abandoned shutdown
  // ack needs no recovery).
  for (auto& ev : acks) {
    while (!ev->wait_for(std::chrono::milliseconds(1))) {
      if (control_.universe().is_dead(ev->dest())) break;
    }
  }

  EventAnnounce bye;
  bye.kind = EventKind::Shutdown;
  bye.origin = rank_;
  bye.tag = 0;
  control_.isend_bytes(bye.serialize(), rank_, kTagNewEvent);
  wait_until_stopped();
}

void EventSystem::wait_until_stopped() {
  std::unique_lock<std::mutex> lock(stopped_mutex_);
  stopped_cv_.wait(lock, [this] { return stop_.load(); });
}

void EventSystem::stop_local() {
  {
    // Under the queue mutex: a handler evaluating its exit predicate
    // either sees stop_ or is already waiting when the notify lands.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  queue_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(stopped_mutex_);
  }
  stopped_cv_.notify_all();
}

void EventSystem::enqueue_remote(RemoteEvent&& ev) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(ev));
  }
  queue_cv_.notify_one();
}

void EventSystem::gate_main() {
  try {
    for (;;) {
      const mpi::Status st = control_.probe(mpi::kAnySource, mpi::kAnyTag);
      const Bytes msg = control_.recv_bytes(st.source, st.tag);
      if (st.tag == kTagNewEvent) {
        EventAnnounce a = EventAnnounce::deserialize(msg);
        if (a.kind == EventKind::Shutdown) {
          // Ack remote shutdowns so the head's wait completes; a tag of 0
          // marks the local self-poke, which needs no ack.
          if (a.origin != rank_ || a.tag != 0) {
            send_completion(a.origin, a.tag, {});
          }
          stop_local();
          return;
        }
        if (a.kind == EventKind::RankDead) {
          ArchiveReader r(a.header);
          const auto h = r.get<RankDeadHeader>();
          {
            std::lock_guard<std::mutex> lock(origin_mutex_);
            dead_ranks_.insert(h.rank);
          }
          // Re-queue events parked on pending I/O so each re-tests its
          // request: one the death failed settles instead of staying parked.
          wake_all_parked();
          continue;
        }
        RemoteEvent ev;
        ev.announce = std::move(a);
        enqueue_remote(std::move(ev));
      } else if (st.tag == kTagComplete) {
        EventCompletion c = EventCompletion::deserialize(msg);
        OriginEventPtr ev;
        {
          std::lock_guard<std::mutex> lock(origin_mutex_);
          auto it = origin_events_.find(c.tag);
          if (it == origin_events_.end()) {
            // A completion can outlive its event: fail_rank() already
            // failed it (a worker still acks an RmaPut whose peer died).
            // Late completions are dropped, not protocol errors.
            OMPC_LOG_WARN("dropping late completion for event tag " << c.tag);
            continue;
          }
          ev = std::move(it->second);
          origin_events_.erase(it);
        }
        origin_cv_.notify_all();
        ev->complete(std::move(c.result));
      } else {
        OMPC_CHECK_MSG(false, "unexpected control tag " << st.tag);
      }
    }
  } catch (const mpi::RankKilledError&) {
    // This rank was killed by fault injection: fail every outstanding
    // origin event (their completions can never arrive through a poisoned
    // mailbox), then unwind the gate and release the rank's main thread so
    // the universe can join it.
    fail_local();
    stop_local();
  }
}

void EventSystem::handler_main(int /*index*/) {
  for (;;) {
    RemoteEvent ev;
    std::uint64_t epoch = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      // A parked event still owes its origin a completion: exit at stop
      // only once nothing is queued or parked.
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || (stop_.load() && parked_.empty());
      });
      if (queue_.empty()) return;
      ev = std::move(queue_.front());
      queue_.pop_front();
      ++active_events_;
      epoch = wake_epoch_;
    }
    bool parks = false;
    try {
      parks = !progress(ev);
      if (!parks) stats_.handled.fetch_add(1, std::memory_order_relaxed);
    } catch (const mpi::RankKilledError&) {
      // This rank died while executing the event; abandon it and keep
      // draining so the queue empties and the handler can exit at stop.
    }
    // Pending I/O (step 5b, Fig 3): park the event; the completion hook of
    // the request it waits on re-queues it. Read the request before
    // parking — once parked, another handler may own the event. TrimHeap
    // has none: it waits for the handlers to go idle instead.
    const auto waits_on = parks ? ev.io.state() : nullptr;
    std::uint64_t id = 0;
    bool notify_all = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --active_events_;
      if (parks) {
        stats_.parked.fetch_add(1, std::memory_order_relaxed);
        if (ev.id == 0) ev.id = ++next_event_id_;
        id = ev.id;
        if (wake_epoch_ != epoch) {
          // A rank died while this event was in progress(): re-check it.
          stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
          queue_.push_back(std::move(ev));
          notify_all = true;
        } else {
          parked_.emplace(id, std::move(ev));
          if (waits_on == nullptr) idle_waiters_.push_back(id);
        }
      }
      notify_all = wake_idle_waiters_locked() || notify_all ||
                   (stop_.load() && parked_.empty());
    }
    if (notify_all) queue_cv_.notify_all();
    if (waits_on != nullptr) {
      // Fires inline if the request completed since progress() tested it.
      waits_on->on_complete([w = waker_, id] {
        std::lock_guard<std::mutex> lock(w->mutex);
        if (w->es != nullptr) w->es->wake(id);
      });
    }
  }
}

void EventSystem::wake(std::uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    const auto it = parked_.find(id);
    if (it == parked_.end()) return;  // re-queued by a rank death already
    queue_.push_back(std::move(it->second));
    parked_.erase(it);
    stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
}

void EventSystem::wake_all_parked() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    ++wake_epoch_;
    for (auto& [id, ev] : parked_) {
      (void)id;
      queue_.push_back(std::move(ev));
    }
    stats_.wakeups.fetch_add(static_cast<std::int64_t>(parked_.size()),
                             std::memory_order_relaxed);
    parked_.clear();
    idle_waiters_.clear();
  }
  queue_cv_.notify_all();
}

bool EventSystem::wake_idle_waiters_locked() {
  if (idle_waiters_.empty() || !queue_.empty() || active_events_ != 0)
    return false;
  for (const std::uint64_t id : idle_waiters_) {
    const auto it = parked_.find(id);
    queue_.push_back(std::move(it->second));
    parked_.erase(it);
  }
  stats_.wakeups.fetch_add(static_cast<std::int64_t>(idle_waiters_.size()),
                           std::memory_order_relaxed);
  idle_waiters_.clear();
  return true;
}

void EventSystem::send_completion(mpi::Rank to, mpi::Tag tag, Bytes result) {
  EventCompletion c;
  c.tag = tag;
  c.result = std::move(result);
  control_.isend_bytes(c.serialize(), to, kTagComplete);
}

bool EventSystem::progress(RemoteEvent& ev) {
  const EventAnnounce& a = ev.announce;
  ArchiveReader header(a.header);
  switch (a.kind) {
    case EventKind::Alloc: {
      const auto h = header.get<AllocHeader>();
      OMPC_CHECK(memory_ != nullptr);
      const offload::TargetPtr p = memory_->alloc(h.size);
      ArchiveWriter w;
      w.put(p);
      send_completion(a.origin, a.tag, w.take());
      return true;
    }
    case EventKind::Delete: {
      const auto h = header.get<DeleteHeader>();
      OMPC_CHECK(memory_ != nullptr);
      memory_->free(h.ptr);
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::Submit: {
      // The payload travels on the event's own tag and was sent before the
      // announce, so the irecv always matches it.
      const auto h = header.get<SubmitHeader>();
      if (ev.phase == 0) {
        ev.io = data_comm_for(a.tag).irecv(reinterpret_cast<void*>(h.dst),
                                           h.size, a.origin, a.tag);
        ev.phase = 1;
      }
      if (!ev.io.test()) return false;
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::Retrieve:
    case EventKind::SnapshotFetch: {
      const auto h = header.get<RetrieveHeader>();
      OMPC_CHECK(memory_ != nullptr);
      // Zero-copy: the payload shares the device block (pinned even across
      // a later Delete); the head's posted irecv is the only copy.
      data_comm_for(a.tag).isend_payload(memory_->share(h.src, h.size),
                                         a.origin, a.tag);
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::SnapshotSave: {
      const auto h = header.get<SnapshotSaveHeader>();
      OMPC_CHECK(memory_ != nullptr);
      const offload::TargetPtr shadow = memory_->snapshot(h.src, h.size);
      ArchiveWriter w;
      w.put(shadow);
      send_completion(a.origin, a.tag, w.take());
      return true;
    }
    case EventKind::SnapshotDrop: {
      const auto h = header.get<SnapshotDropHeader>();
      OMPC_CHECK(memory_ != nullptr);
      // Tolerant: a head promoted from a one-boundary-stale replica may
      // drop shadows this rank released under the old head (orphan sweeps
      // after the generation the replica never saw). Ack the no-op.
      if (!memory_->try_free(h.ptr))
        OMPC_LOG_DEBUG("snapshot drop of unknown shadow "
                       << h.ptr << " (stale post-failover state) ignored");
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::RmaPut: {
      const auto h = header.get<RmaPutHeader>();
      OMPC_CHECK(memory_ != nullptr);
      if (ev.phase == 0) {
        // One-sided forward: put straight into the peer's registered block.
        // The payload shares our device memory (zero-copy source); the
        // request completes when the peer acked the landing.
        ev.io = data_comm_for(a.tag).put(h.peer, h.win, h.offset,
                                         memory_->share(h.src, h.size), a.tag);
        ev.phase = 1;
      }
      try {
        if (!ev.io.test()) return false;
      } catch (const mpi::RankKilledError& e) {
        // The peer died mid-put (our own death rethrows to handler_main).
        // Ack anyway so this event drains; the head has already failed the
        // origin half, which drops this completion as late.
        if (e.rank() == rank_) throw;
      }
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::HeadState: {
      // Replication update. Like Submit, the payload is posted before the
      // announce, so the irecv always matches — no dead-origin abort needed.
      const auto h = header.get<HeadStateHeader>();
      if (ev.phase == 0) {
        ev.blob = std::make_shared<Bytes>(h.size);
        ev.io = data_comm_for(a.tag).irecv(ev.blob->data(), h.size, a.origin,
                                           a.tag);
        ev.phase = 1;
      }
      if (!ev.io.test()) return false;
      if (replica_ != nullptr) {
        replica_->apply(static_cast<ReplicaStore::Update>(h.reset),
                        h.generation, *ev.blob);
      }
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::TrimHeap: {
      // Heap reconciliation after failover frees blocks in bulk, so it must
      // not run concurrently with an event that may touch one (an Execute
      // dispatched by the dead head and still in flight). Defer until this
      // is the only active event and the queue is drained (parked, it is
      // re-queued as soon as that can hold — see wake_idle_waiters_locked).
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (!queue_.empty() || active_events_ != 1) return false;
      }
      const auto h = header.get<TrimHeapHeader>();
      std::unordered_set<offload::TargetPtr> keep;
      for (std::uint64_t i = 0; i < h.keep_count; ++i)
        keep.insert(header.get<offload::TargetPtr>());
      OMPC_CHECK(memory_ != nullptr);
      for (const offload::TargetPtr p : memory_->blocks())
        if (keep.count(p) == 0) memory_->try_free(p);
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::Execute: {
      ExecuteHeader h = ExecuteHeader::deserialize(a.header);
      std::vector<void*> ptrs;
      ptrs.reserve(h.buffers.size());
      for (offload::TargetPtr p : h.buffers)
        ptrs.push_back(reinterpret_cast<void*>(p));
      offload::KernelContext ctx(ptrs, h.scalars, exec_pool_, rank_);
      offload::KernelRegistry::instance().run(h.kernel, ctx);
      stats_.kernels_run.fetch_add(1, std::memory_order_relaxed);
      send_completion(a.origin, a.tag, {});
      return true;
    }
    case EventKind::Shutdown:
    case EventKind::RankDead:
      OMPC_CHECK_MSG(false, to_string(a.kind) << " must be handled by the gate");
  }
  return true;
}

}  // namespace ompc::core
