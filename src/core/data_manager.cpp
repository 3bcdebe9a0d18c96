#include "core/data_manager.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/log.hpp"
#include "core/fault.hpp"

namespace ompc::core {

DataManager::DataManager(EventSystem& events, const ClusterOptions& opts)
    : events_(&events), opts_(opts) {
  // Elastic: the ceiling still bounds concurrent fetches, but only a small
  // floor spawns upfront and fan-outs grow the pool on demand. Spawns are
  // counted straight into stats_ by the pool (growth happens mid-run, on
  // transfer threads, where we cannot poll).
  const int n = opts_.cluster_pool_threads();
  transfer_pool_ = std::make_unique<HelperPool>(
      opts_.pool_floor(n), n, "xfer", &stats_.threads_spawned);
}

void DataManager::register_buffer(void* host, std::size_t size) {
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = buffers_.find(host);
    OMPC_CHECK_MSG(it == buffers_.end(),
                   "buffer " << host << " is already mapped (exit it first)");
    auto b = std::make_unique<BufferState>();
    b->host = host;
    b->size = size;
    buffers_.emplace(host, std::move(b));
  }
  // A fresh mapping has no checkpoint entry to reuse.
  mark_dirty(host);
}

DataManager::BufferState* DataManager::find(const void* host) const {
  // Reader-side lookup: every helper and transfer thread comes through
  // here, so readers share the lock; only register/erase are exclusive.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = buffers_.find(host);
  return it == buffers_.end() ? nullptr : it->second.get();
}

mpi::Rank DataManager::valid_worker_locked(const BufferState& b) {
  for (const auto& [r, st] : b.state)
    if (st == CopyState::Valid) return r;
  return -1;
}

bool DataManager::is_registered(const void* host) const {
  return find(host) != nullptr;
}

std::size_t DataManager::buffer_size(const void* host) const {
  const BufferState* b = find(host);
  return b == nullptr ? 0 : b->size;
}

std::size_t DataManager::num_buffers() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return buffers_.size();
}

offload::TargetPtr DataManager::alloc_on(mpi::Rank worker, BufferState& b) {
  {
    std::lock_guard<std::mutex> lock(b.lock);
    auto it = b.addr.find(worker);
    if (it != b.addr.end()) {
      // An Absent replica with a live block is the ChannelPlan at work:
      // after_write kept the allocation, so this wave skips the
      // Delete+Alloc round-trips entirely and re-fills in place.
      if (channels_armed())
        stats_.persistent_reuses.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  ArchiveWriter w;
  w.put(AllocHeader{b.size});
  const Bytes reply = events_->run(worker, EventKind::Alloc, w.take());
  ArchiveReader r(reply);
  const auto ptr = r.get<offload::TargetPtr>();
  stats_.allocs.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(b.lock);
  // ensure_on's Transferring marker makes per-worker allocation single-
  // flight, so no entry can have appeared meanwhile.
  b.addr.emplace(worker, ptr);
  return ptr;
}

void DataManager::delete_on_locked(mpi::Rank worker, BufferState& b,
                                   std::unique_lock<std::mutex>& lk) {
  auto it = b.addr.find(worker);
  if (it == b.addr.end()) return;
  const offload::TargetPtr ptr = it->second;
  b.addr.erase(it);
  b.state.erase(worker);
  // The event blocks; release the buffer lock while it runs.
  lk.unlock();
  ArchiveWriter w;
  w.put(DeleteHeader{ptr});
  events_->run(worker, EventKind::Delete, w.take());
  stats_.deletes.fetch_add(1, std::memory_order_relaxed);
  lk.lock();
}

void DataManager::submit_to(mpi::Rank worker, offload::TargetPtr dst,
                            BufferState& b) {
  // Borrowed, not copied: run() blocks until the worker's completion,
  // which it sends only after the payload landed in its device buffer —
  // so b.host outlives the flight, and fetch_to_head_locked's coalescing
  // keeps anyone from rewriting it meanwhile.
  ArchiveWriter w;
  w.put(SubmitHeader{dst, b.size});
  events_->run(worker, EventKind::Submit, w.take(),
               mpi::Payload::borrow(b.host, b.size));
  stats_.submits.fetch_add(1, std::memory_order_relaxed);
}

offload::TargetPtr DataManager::ensure_on(mpi::Rank worker, BufferState& b) {
  mpi::Rank src = -1;  // -1 = the head's host copy
  {
    std::unique_lock<std::mutex> lk(b.lock);
    for (;;) {
      const auto it = b.state.find(worker);
      const CopyState st =
          it == b.state.end() ? CopyState::Absent : it->second;
      if (st == CopyState::Valid) return b.addr.at(worker);
      if (st == CopyState::Transferring) {
        b.cv.wait(lk);
        continue;
      }
      break;  // Absent: this thread owns the transfer
    }
    src = valid_worker_locked(b);
    OMPC_CHECK_MSG(src >= 0 || b.on_head,
                   "buffer has no valid location anywhere");
    b.state[worker] = CopyState::Transferring;
  }

  // Transfer outside the lock: replicas to other workers proceed in
  // parallel on their own links. If the transfer dies (worker failure),
  // the Transferring marker MUST be rolled back to Absent and waiters
  // woken, or a concurrent ensure_on for the same (buffer, worker) pair
  // would sleep on the cv forever and deadlock dispatch.
  try {
  const offload::TargetPtr dst = alloc_on(worker, b);
  if (src >= 0 && opts_.forwarding == Forwarding::Direct) {
    // §4.3 direct worker->worker forwarding commanded by the head, over
    // the one-sided data plane: a single RmaPut event tells the producer
    // to put straight into the consumer's block (its window id is its
    // address) — the consumer's event handlers never run.
    const offload::TargetPtr src_ptr = [&] {
      std::lock_guard<std::mutex> lock(b.lock);
      return b.addr.at(src);
    }();
    ArchiveWriter w;
    w.put(RmaPutHeader{src_ptr, b.size, worker, dst, 0});
    events_->start(src, EventKind::RmaPut, w.take(), {}, worker)->wait();
    stats_.exchanges.fetch_add(1, std::memory_order_relaxed);
  } else if (src >= 0) {
    // Forwarding::ViaHead ablation strawman: bounce through the head's
    // host buffer (still the naive policy — but staged once, not copied
    // again into the payload).
    {
      std::unique_lock<std::mutex> lk(b.lock);
      fetch_to_head_locked(b, lk);
    }
    submit_to(worker, dst, b);
  } else {
    // Only the head has the data: submit host -> worker, zero-copy (see
    // submit_to for why borrowing is safe).
    submit_to(worker, dst, b);
  }
  stats_.bytes_moved.fetch_add(static_cast<std::int64_t>(b.size),
                               std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(b.lock);
  b.state[worker] = CopyState::Valid;
  b.cv.notify_all();
  return dst;
  } catch (...) {
    std::lock_guard<std::mutex> lock(b.lock);
    b.state.erase(worker);  // back to Absent; the replica never materialized
    b.cv.notify_all();
    throw;
  }
}

void DataManager::enter_to_worker(mpi::Rank worker, const void* host,
                                  bool copy) {
  BufferState* b = find(host);
  OMPC_CHECK_MSG(b != nullptr, "enter data for unregistered buffer " << host);
  if (copy) {
    ensure_on(worker, *b);
  } else {
    // map(alloc:): allocate only; first use will still copy (presence-
    // based forwarding, §4.3).
    std::unique_lock<std::mutex> lk(b->lock);
    if (b->state.find(worker) == b->state.end()) {
      b->state[worker] = CopyState::Transferring;
      lk.unlock();
      try {
        alloc_on(worker, *b);
      } catch (...) {
        lk.lock();
        b->state.erase(worker);  // see ensure_on: never leave Transferring
        b->cv.notify_all();
        throw;
      }
      lk.lock();
      b->state[worker] = CopyState::Absent;
      b->cv.notify_all();
    }
  }
}

void DataManager::exit_to_head(void* host, bool copy) {
  BufferState* b = find(host);
  OMPC_CHECK_MSG(b != nullptr, "exit data for unregistered buffer " << host);
  {
    std::unique_lock<std::mutex> lk(b->lock);
    if (copy) {
      fetch_to_head_locked(*b, lk);
    } else {
      // The payload must not land in the host buffer after the mapping is
      // gone.
      drop_head_fetch_locked(*b, lk);
    }
    // Remove from the entire cluster (§4.3 exit rule).
    while (!b->addr.empty())
      delete_on_locked(b->addr.begin()->first, *b, lk);
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  buffers_.erase(host);
}

std::vector<offload::TargetPtr> DataManager::prepare_args(
    mpi::Rank worker, std::span<const void* const> buffers) {
  std::vector<BufferState*> states;
  states.reserve(buffers.size());
  for (const void* host : buffers) {
    BufferState* b = find(host);
    OMPC_CHECK_MSG(b != nullptr,
                   "target argument " << host << " was never entered");
    states.push_back(b);
  }
  std::vector<offload::TargetPtr> out(buffers.size(), 0);
  // A target region's inputs arrive from independent locations; fetch them
  // concurrently so one task pays max(transfer) instead of sum(transfer).
  // The extra fetches run as jobs on the persistent transfer pool (shared
  // by every in-flight task) instead of freshly spawned threads — per-task
  // thread churn was a measurable slice of head overhead. Transfer jobs
  // never submit further jobs, so a saturated pool only queues, it cannot
  // deadlock. (ensure_on already coalesces duplicate buffers.) Fetcher
  // failures (a worker dying mid-transfer) are re-raised by fan_out so the
  // helper thread running the task sees them.
  fan_out(*transfer_pool_, states.size(), [this, worker, &states, &out](
                                              std::size_t i) {
    out[i] = ensure_on(worker, *states[i]);
  });
  return out;
}

void DataManager::after_write(mpi::Rank worker, const omp::DepList& deps) {
  for (const omp::Dep& d : deps) {
    if (!omp::is_write(d.type)) continue;
    BufferState* b = find(d.addr);
    if (b == nullptr) continue;  // dependence on non-buffer storage
    std::unique_lock<std::mutex> lk(b->lock);
    check_no_head_fetch_locked(*b);
    // Dependence edges order writers after every reader (WAR), so no
    // replica of this buffer can be mid-transfer here.
    for (const auto& [r, st] : b->state) {
      OMPC_CHECK_MSG(st != CopyState::Transferring,
                     "write invalidation raced a transfer");
      (void)r;
    }
    // The writer holds the only fresh copy; every replica is stale and is
    // removed so a later use must fetch from the up-to-date location.
    // With an armed ChannelPlan the stale blocks stay ALLOCATED (only the
    // state entry goes, downgrading them to Absent): the steady-state wave
    // will re-fill the very same block next iteration, so the
    // Delete+Alloc round-trips — and their wire envelopes — disappear.
    // Every recovery path (reset_all_to_host, purge_rank, restore_buffer,
    // exit_to_head, cleanup_all) still erases addr entries, so kept blocks
    // can never leak past the plan.
    if (!channels_armed()) {
      std::vector<mpi::Rank> stale;
      for (const auto& [r, ptr] : b->addr) {
        (void)ptr;
        if (r != worker) stale.push_back(r);
      }
      for (mpi::Rank r : stale) delete_on_locked(r, *b, lk);
    }
    b->state.clear();
    if (worker >= 0) b->state[worker] = CopyState::Valid;
    b->on_head = worker < 0;
    lk.unlock();
    mark_dirty(d.addr);
  }
}

void DataManager::after_host_write(const omp::DepList& deps) {
  after_write(-1, deps);
}

void DataManager::refresh_head_deps(const omp::DepList& deps) {
  for (const omp::Dep& d : deps) {
    BufferState* b = find(d.addr);
    if (b == nullptr) continue;  // dependence on non-buffer storage
    std::unique_lock<std::mutex> lk(b->lock);
    fetch_to_head_locked(*b, lk);
  }
}

void DataManager::check_no_head_fetch_locked(const BufferState& b) {
  OMPC_CHECK_MSG(!b.head_fetching,
                 "write to buffer " << b.host << " (" << b.size
                                    << " B) while a retrieve into its head "
                                       "copy is in flight");
}

void DataManager::prefetch_to_head(const void* host) {
  BufferState* b = find(host);
  if (b == nullptr) return;
  std::lock_guard<std::mutex> lock(b->lock);
  if (b->on_head || b->head_fetching) return;
  const mpi::Rank src = valid_worker_locked(*b);
  if (src < 0) return;
  // Started under the buffer lock: start_retrieve only posts the landing
  // receive and the announce, it never waits.
  b->head_fetch = events_->start_retrieve(src, b->addr.at(src), b->host,
                                          b->size);
  b->head_fetching = true;
  stats_.head_prefetches.fetch_add(1, std::memory_order_relaxed);
}

void DataManager::cleanup_all() {
  std::vector<BufferState*> all;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (auto& [host, b] : buffers_) {
      (void)host;
      all.push_back(b.get());
    }
  }
  for (BufferState* b : all) {
    std::unique_lock<std::mutex> lk(b->lock);
    drop_head_fetch_locked(*b, lk);
    while (!b->addr.empty())
      delete_on_locked(b->addr.begin()->first, *b, lk);
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  buffers_.clear();
}

void DataManager::fetch_to_head_locked(BufferState& b,
                                       std::unique_lock<std::mutex>& lk) {
  // This thread owns the retrieve once it breaks out: either a prefetch it
  // takes over or, below, one it starts itself.
  OriginEventPtr fetch;
  for (;;) {
    if (b.on_head) return;
    if (b.head_fetch != nullptr) {
      fetch = std::move(b.head_fetch);
      break;
    }
    if (!b.head_fetching) break;
    b.cv.wait(lk);
  }
  const mpi::Rank src = fetch == nullptr ? valid_worker_locked(b) : -1;
  offload::TargetPtr src_ptr = 0;
  if (fetch == nullptr) {
    OMPC_CHECK_MSG(src >= 0, "no valid copy of buffer to retrieve");
    src_ptr = b.addr.at(src);
    b.head_fetching = true;
  }
  lk.unlock();
  try {
    if (fetch == nullptr)
      fetch = events_->start_retrieve(src, src_ptr, b.host, b.size);
    fetch->wait();
  } catch (...) {
    lk.lock();
    b.head_fetching = false;
    b.cv.notify_all();
    throw;
  }
  stats_.retrieves.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_moved.fetch_add(static_cast<std::int64_t>(b.size),
                               std::memory_order_relaxed);
  stats_.head_fetch_bytes.fetch_add(static_cast<std::int64_t>(b.size),
                                    std::memory_order_relaxed);
  lk.lock();
  b.head_fetching = false;
  b.on_head = true;
  b.cv.notify_all();
}

void DataManager::drop_head_fetch_locked(BufferState& b,
                                         std::unique_lock<std::mutex>& lk) {
  if (b.head_fetch == nullptr) return;
  const OriginEventPtr fetch = std::move(b.head_fetch);
  lk.unlock();
  try {
    fetch->wait();
  } catch (const WorkerDiedError&) {
    // The source died: nothing of the retrieve lands any more.
  }
  lk.lock();
  b.head_fetching = false;
  b.cv.notify_all();
}

void DataManager::refresh_head(const void* host) {
  BufferState* b = find(host);
  OMPC_CHECK_MSG(b != nullptr, "refresh_head for unregistered buffer " << host);
  std::unique_lock<std::mutex> lk(b->lock);
  fetch_to_head_locked(*b, lk);
}

std::int64_t DataManager::refresh_head_many(
    std::span<const void* const> hosts) {
  std::atomic<std::int64_t> fetched{0};
  fan_out(*transfer_pool_, hosts.size(), [this, &hosts, &fetched](
                                             std::size_t i) {
    BufferState* b = find(hosts[i]);
    OMPC_CHECK_MSG(b != nullptr,
                   "refresh_head for unregistered buffer " << hosts[i]);
    std::unique_lock<std::mutex> lk(b->lock);
    if (!b->on_head)
      fetched.fetch_add(static_cast<std::int64_t>(b->size),
                        std::memory_order_relaxed);
    fetch_to_head_locked(*b, lk);
  });
  return fetched.load();
}

void DataManager::for_each_buffer(
    const std::function<void(void*, std::size_t)>& fn) const {
  std::vector<std::pair<void*, std::size_t>> all;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    all.reserve(buffers_.size());
    for (const auto& [host, b] : buffers_) {
      (void)host;
      all.emplace_back(b->host, b->size);
    }
  }
  for (const auto& [host, size] : all) fn(host, size);
}

DataManager::Residency DataManager::residency(const void* host) const {
  Residency r;
  BufferState* b = find(host);
  if (b == nullptr) return r;
  std::lock_guard<std::mutex> lock(b->lock);
  r.on_head = b->on_head;
  r.owner = valid_worker_locked(*b);
  if (r.owner >= 0) r.owner_addr = b->addr.at(r.owner);
  return r;
}

void DataManager::purge_rank(mpi::Rank dead) {
  std::vector<BufferState*> all;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (auto& [host, b] : buffers_) {
      (void)host;
      all.push_back(b.get());
    }
  }
  for (BufferState* b : all) {
    std::lock_guard<std::mutex> lock(b->lock);
    const auto st = b->state.find(dead);
    const bool was_valid = st != b->state.end() && st->second == CopyState::Valid;
    b->addr.erase(dead);
    b->state.erase(dead);
    if (was_valid && !b->on_head) {
      bool elsewhere = false;
      for (const auto& [r, s] : b->state) {
        (void)r;
        if (s == CopyState::Valid) {
          elsewhere = true;
          break;
        }
      }
      if (!elsewhere)
        stats_.buffers_lost.fetch_add(1, std::memory_order_relaxed);
    }
    // Wake anyone parked on a Transferring state that involved the corpse.
    b->cv.notify_all();
  }
}

void DataManager::reset_all_to_host() {
  std::vector<BufferState*> all;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (auto& [host, b] : buffers_) {
      (void)host;
      all.push_back(b.get());
    }
  }
  for (BufferState* b : all) {
    std::unique_lock<std::mutex> lk(b->lock);
    // After quiesce() a pending retrieve's completion is in, but its
    // payload may still be on the wire toward `host`: wait it out, so the
    // restore that follows is not overwritten.
    drop_head_fetch_locked(*b, lk);
    while (!b->addr.empty())
      delete_on_locked(b->addr.begin()->first, *b, lk);
    b->state.clear();
    b->on_head = true;
  }
}

void DataManager::restore_buffer(void* host, std::size_t size,
                                 std::span<const std::byte> content) {
  if (!is_registered(host)) register_buffer(host, size);
  BufferState* b = find(host);
  std::unique_lock<std::mutex> lk(b->lock);
  OMPC_CHECK_MSG(b->size == size, "checkpoint size mismatch for buffer "
                                      << host << ": " << b->size << " vs "
                                      << size);
  while (!b->addr.empty())
    delete_on_locked(b->addr.begin()->first, *b, lk);
  b->state.clear();
  std::memcpy(host, content.data(), size);
  b->on_head = true;
}

Bytes DataManager::serialize_registry() const {
  ArchiveWriter w;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  w.put<std::uint64_t>(buffers_.size());
  for (const auto& [host, b] : buffers_) {
    (void)host;
    w.put<std::uint64_t>(reinterpret_cast<std::uintptr_t>(b->host));
    w.put<std::uint64_t>(b->size);
  }
  return w.take();
}

void DataManager::adopt_registry(std::span<const std::byte> data) {
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    buffers_.clear();
  }
  ArchiveReader r(data);
  const auto n = r.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < n; ++i) {
    void* host = reinterpret_cast<void*>(
        static_cast<std::uintptr_t>(r.get<std::uint64_t>()));
    const auto size = r.get<std::uint64_t>();
    // Host-resident and dirty, like a fresh registration: the failover
    // rollback redistributes placement and the next capture re-snapshots.
    register_buffer(host, size);
  }
}

std::size_t DataManager::migrate_buffers(mpi::Rank joiner,
                                         std::size_t take_every) {
  if (take_every == 0) take_every = 1;
  std::vector<BufferState*> all;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    all.reserve(buffers_.size());
    for (auto& [host, b] : buffers_) {
      (void)host;
      all.push_back(b.get());
    }
  }
  std::size_t migrated = 0;
  std::size_t seen = 0;
  for (BufferState* b : all) {
    {
      // Only worker-resident buffers move; head-resident ones get placed
      // by the next schedule anyway.
      std::lock_guard<std::mutex> lk(b->lock);
      bool worker_valid = false;
      for (const auto& [r, st] : b->state) {
        (void)r;
        if (st == CopyState::Valid) {
          worker_valid = true;
          break;
        }
      }
      if (!worker_valid || b->state.count(joiner) != 0) continue;
    }
    if (seen++ % take_every != 0) continue;
    ensure_on(joiner, *b);
    // The joiner becomes the buffer's only worker replica (its ownership
    // slice); the old owner's copy is deleted like a write invalidation —
    // after any prefetch still reading it has landed.
    std::unique_lock<std::mutex> lk(b->lock);
    if (b->head_fetch != nullptr) fetch_to_head_locked(*b, lk);
    std::vector<mpi::Rank> stale;
    for (const auto& [r, ptr] : b->addr) {
      (void)ptr;
      if (r != joiner) stale.push_back(r);
    }
    for (mpi::Rank r : stale) delete_on_locked(r, *b, lk);
    ++migrated;
  }
  return migrated;
}

void DataManager::mark_dirty(const void* host) {
  std::lock_guard<std::mutex> lock(dirty_mutex_);
  dirty_.insert(host);
}

std::unordered_set<const void*> DataManager::dirty_buffers() const {
  std::lock_guard<std::mutex> lock(dirty_mutex_);
  return dirty_;
}

void DataManager::mark_all_clean() {
  std::lock_guard<std::mutex> lock(dirty_mutex_);
  dirty_.clear();
}

DataManager::Snapshot DataManager::snapshot(const void* host) const {
  Snapshot s;
  BufferState* b = find(host);
  if (b == nullptr) return s;
  std::lock_guard<std::mutex> lock(b->lock);
  s.valid_on_head = b->on_head;
  s.head_fetch_pending = b->head_fetch != nullptr;
  for (const auto& [r, st] : b->state) {
    if (st == CopyState::Valid) s.valid_workers.insert(r);
  }
  for (const auto& [r, ptr] : b->addr) {
    (void)ptr;
    s.allocated_workers.insert(r);
  }
  return s;
}

}  // namespace ompc::core
