#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"
#include "core/fault.hpp"

namespace ompc::core {

namespace {

/// Head NIC cost of one snapshot-plane control message: the serialized
/// header plus the EventAnnounce envelope (kind/tag/origin + blob length).
/// What flows through the head in Buddy mode is exactly these.
std::int64_t meta_bytes(std::size_t header_size) {
  return static_cast<std::int64_t>(header_size) + 24;
}

}  // namespace

mpi::Rank CheckpointStore::buddy_of(mpi::Rank owner,
                                    std::span<const mpi::Rank> live) {
  if (live.size() < 2) return -1;
  const auto it = std::find(live.begin(), live.end(), owner);
  if (it == live.end()) return -1;  // stale owner: no buddy, head fallback
  const std::size_t idx = static_cast<std::size_t>(it - live.begin());
  return live[(idx + 1) % live.size()];
}

bool CheckpointStore::restorable(const Entry& e) const {
  if (e.data != nullptr) return true;
  if (events_ == nullptr) return false;
  if (e.owner.rank >= 0 && !events_->is_rank_gone(e.owner.rank)) return true;
  if (e.buddy.rank >= 0 && !events_->is_rank_gone(e.buddy.rank)) return true;
  return false;
}

void CheckpointStore::set_data(Entry& e, std::shared_ptr<const Bytes> bytes) {
  e.data = std::move(bytes);
  e.blob_id = ++last_blob_id_;
}

std::size_t CheckpointStore::worker_resident_entries() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.data == nullptr && e.owner.rank >= 0) ++n;
  }
  return n;
}

std::vector<offload::TargetPtr> CheckpointStore::shadows_on(
    mpi::Rank rank) const {
  // Both generations AND the parked orphans and retired shadows: anything
  // the store might still SnapshotDrop later must survive a heap trim, or
  // the drop double-frees.
  std::vector<offload::TargetPtr> ptrs;
  const auto collect = [&ptrs, rank](const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      if (e.owner.rank == rank && e.owner.ptr != 0) ptrs.push_back(e.owner.ptr);
      if (e.buddy.rank == rank && e.buddy.ptr != 0) ptrs.push_back(e.buddy.ptr);
    }
  };
  collect(entries_);
  collect(prev_entries_);
  for (const auto* list : {&orphaned_, &retired_}) {
    for (const Shadow& s : *list)
      if (s.rank == rank && s.ptr != 0) ptrs.push_back(s.ptr);
  }
  return ptrs;
}

void CheckpointStore::release_retired(std::size_t n) {
  n = std::min(n, retired_.size());
  const std::vector<Shadow> released(retired_.begin(), retired_.begin() + n);
  retired_.erase(retired_.begin(), retired_.begin() + n);
  drop_shadows(released);
}

void CheckpointStore::drop_shadows(const std::vector<Shadow>& shadows) {
  if (events_ == nullptr) return;
  // Pipelined like the capture phases: start every drop, then wait — the
  // commit pays max(latency) across ranks, not sum over O(dirty) shadows.
  std::vector<OriginEventPtr> acks;
  acks.reserve(shadows.size());
  for (const Shadow& s : shadows) {
    if (s.rank < 0 || events_->is_rank_gone(s.rank)) continue;
    ArchiveWriter w;
    w.put(SnapshotDropHeader{s.ptr});
    stats_.head_bytes += meta_bytes(w.size());
    try {
      acks.push_back(events_->start(s.rank, EventKind::SnapshotDrop, w.take()));
    } catch (const WorkerDiedError&) {
      // The rank died under the drop; its heap dies with it.
    }
  }
  for (const OriginEventPtr& ev : acks) {
    try {
      ev->wait();
      ++stats_.snapshot_drops;
    } catch (const WorkerDiedError&) {
    }
  }
}

void CheckpointStore::capture_on_head(DataManager& dm,
                                      std::vector<Entry>& fresh,
                                      const std::vector<std::size_t>& pending) {
  // The freshest copies may live on workers; pull them home concurrently
  // (the transfer-pool fan-out), then copy. Worker replicas stay valid — a
  // checkpoint read must not perturb placement.
  std::vector<const void*> hosts;
  hosts.reserve(pending.size());
  for (const std::size_t i : pending) hosts.push_back(fresh[i].host);
  stats_.head_bytes += dm.refresh_head_many(hosts);
  for (const std::size_t i : pending) {
    Entry& e = fresh[i];
    auto bytes = std::make_shared<Bytes>(e.size);
    std::memcpy(bytes->data(), e.host, e.size);
    set_data(e, std::move(bytes));
    e.generation = generation_ + 1;
  }
}

void CheckpointStore::capture_on_workers(
    DataManager& dm, std::vector<Entry>& fresh,
    const std::vector<std::size_t>& pending,
    std::span<const mpi::Rank> live_workers) {
  // A dirty buffer whose freshest copy sits on a worker is snapshotted in
  // place: SnapshotSave makes a device-local shadow (rank-local, invisible
  // to every NIC), and the shadow is replicated to the owner's ring
  // successor — a single one-sided put into the buddy's block. The head
  // only ships commands — O(metadata) per buffer. The three phases below
  // pipeline every buffer's events so capture pays max(transfer), not sum.
  struct Job {
    std::size_t idx = 0;
    mpi::Rank owner = -1;
    mpi::Rank buddy = -1;
    OriginEventPtr save_ev;
    OriginEventPtr alloc_ev;
    OriginEventPtr put_ev;
    offload::TargetPtr shadow = 0;
    offload::TargetPtr replica = 0;
  };
  std::vector<Job> jobs;
  std::vector<Shadow> created;  // parked in orphaned_ on abort
  const auto settle = [](const OriginEventPtr& ev) {
    if (ev == nullptr) return;
    try {
      ev->wait();
    } catch (...) {
      // Settling only: the primary error is already being propagated.
    }
  };
  try {
    // Phase A: command every save (and buddy allocation) up front.
    for (const std::size_t i : pending) {
      Entry& e = fresh[i];
      e.generation = generation_ + 1;
      const DataManager::Residency where = dm.residency(e.host);
      if (where.on_head) {
        // Freshest copy already lives on the head (host-task writes, fresh
        // registrations): keep the bytes here — a local memcpy, no NIC.
        auto bytes = std::make_shared<Bytes>(e.size);
        std::memcpy(bytes->data(), e.host, e.size);
        set_data(e, std::move(bytes));
        continue;
      }
      OMPC_CHECK_MSG(where.owner >= 0,
                     "checkpoint capture found buffer "
                         << e.host << " with no valid location anywhere");
      Job j;
      j.idx = i;
      j.owner = where.owner;
      ArchiveWriter w;
      w.put(SnapshotSaveHeader{where.owner_addr, e.size});
      stats_.head_bytes += meta_bytes(w.size());
      j.save_ev = events_->start(j.owner, EventKind::SnapshotSave, w.take());
      j.buddy = buddy_of(j.owner, live_workers);
      // Track the job before any further start() can throw: the abort path
      // below harvests the save's shadow address so it can be dropped.
      jobs.push_back(std::move(j));
      if (jobs.back().buddy >= 0) {
        ArchiveWriter aw;
        aw.put(AllocHeader{e.size});
        stats_.head_bytes += meta_bytes(aw.size());
        jobs.back().alloc_ev =
            events_->start(jobs.back().buddy, EventKind::Alloc, aw.take());
      }
    }
    // Phase B: collect shadow addresses, command the buddy replications.
    for (Job& j : jobs) {
      {
        const Bytes& reply = j.save_ev->wait();
        ArchiveReader r(reply);
        j.shadow = r.get<offload::TargetPtr>();
      }
      created.push_back({j.owner, j.shadow});
      ++stats_.snapshot_saves;
      if (j.alloc_ev != nullptr) {
        const Bytes& reply = j.alloc_ev->wait();
        ArchiveReader r(reply);
        j.replica = r.get<offload::TargetPtr>();
        created.push_back({j.buddy, j.replica});
        // One-sided replication: the owner puts its shadow straight into
        // the buddy's freshly allocated block (registered as a window under
        // its own address); the buddy's event handlers never see the bytes
        // land.
        ArchiveWriter pw;
        pw.put(RmaPutHeader{j.shadow, fresh[j.idx].size, j.buddy, j.replica,
                            0});
        stats_.head_bytes += meta_bytes(pw.size());
        j.put_ev = events_->start(j.owner, EventKind::RmaPut, pw.take(), {},
                                  j.buddy);
      }
    }
    // Phase C: the replicas land; only now may entries reference them.
    for (Job& j : jobs) {
      if (j.put_ev != nullptr) j.put_ev->wait();
      Entry& e = fresh[j.idx];
      e.owner = {j.owner, j.shadow};
      if (j.replica != 0) {
        e.buddy = {j.buddy, j.replica};
        ++stats_.snapshot_replicas;
      }
    }
  } catch (...) {
    // Abort: settle every outstanding event (an in-flight put must not
    // land in a block we later free), harvesting the addresses of shadows
    // and replicas that did materialize, then park them all for the next
    // quiescent drop. The previous generation is untouched.
    for (const Job& j : jobs) {
      if (j.save_ev != nullptr && j.shadow == 0) {
        try {
          ArchiveReader r(j.save_ev->wait());
          created.push_back({j.owner, r.get<offload::TargetPtr>()});
        } catch (...) {
          // The owner died before saving: nothing to drop there.
        }
      }
      if (j.alloc_ev != nullptr && j.replica == 0) {
        try {
          ArchiveReader r(j.alloc_ev->wait());
          created.push_back({j.buddy, r.get<offload::TargetPtr>()});
        } catch (...) {
        }
      }
      settle(j.put_ev);
    }
    orphaned_.insert(orphaned_.end(), created.begin(), created.end());
    throw;
  }
}

void CheckpointStore::capture(DataManager& dm, std::int64_t wave,
                              std::span<const mpi::Rank> live_workers) {
  const Stopwatch timer;
  // The dirty set is read, not consumed: it is cleared only after the new
  // snapshot commits, so a worker dying mid-capture leaves both the
  // PREVIOUS snapshot and the set of buffers that still need capturing
  // intact for the retake at the next boundary.
  const auto dirty = dm.dirty_buffers();
  std::unordered_map<const void*, const Entry*> prev;
  prev.reserve(entries_.size());
  for (const Entry& e : entries_) prev.emplace(e.host, &e);

  std::vector<Entry> fresh;
  std::vector<std::size_t> pending;  // fresh indices still needing capture
  std::int64_t logical = 0;
  std::int64_t copied = 0;
  std::int64_t reused = 0;
  dm.for_each_buffer([&](void* host, std::size_t size) {
    Entry e;
    e.host = host;
    e.size = size;
    const auto it = prev.find(host);
    // Unwritten since the last committed capture AND still resolvable from
    // a live holder: keep the old entry by reference — no retrieve, no
    // copy. An entry whose every holder died is re-captured from the
    // current freshest copy even though the buffer is clean.
    const bool clean = it != prev.end() && it->second->size == size &&
                       dirty.count(host) == 0 && restorable(*it->second);
    if (clean) {
      e = *it->second;
      ++reused;
    } else {
      pending.push_back(fresh.size());
      copied += static_cast<std::int64_t>(size);
    }
    logical += static_cast<std::int64_t>(size);
    fresh.push_back(std::move(e));
  });

  if (locality_ == CheckpointLocality::Head || events_ == nullptr) {
    capture_on_head(dm, fresh, pending);
  } else {
    capture_on_workers(dm, fresh, pending, live_workers);
  }

  // Commit: the committed generation is demoted to the retained previous
  // one, and only the cut dropping out (two boundaries ago) has its shadows
  // retired — minus anything either newer generation still references (a
  // clean entry is shared by reference across generations, and orphans are
  // included too). Retaining one full prior generation lets restore() fall
  // back a period when a double kill voids a current-generation entry; the
  // retired cut is freed by release_retired(), once no adoptable replica
  // names it.
  std::set<std::pair<mpi::Rank, offload::TargetPtr>> kept;
  const auto keep = [&kept](const Entry& e) {
    if (e.owner.rank >= 0) kept.emplace(e.owner.rank, e.owner.ptr);
    if (e.buddy.rank >= 0) kept.emplace(e.buddy.rank, e.buddy.ptr);
  };
  for (const Entry& e : fresh) keep(e);
  for (const Entry& e : entries_) keep(e);
  std::vector<Shadow> stale;
  stale.swap(orphaned_);
  for (const Entry& e : prev_entries_) {
    if (e.owner.rank >= 0 && kept.count({e.owner.rank, e.owner.ptr}) == 0)
      stale.push_back(e.owner);
    if (e.buddy.rank >= 0 && kept.count({e.buddy.rank, e.buddy.ptr}) == 0)
      stale.push_back(e.buddy);
  }
  prev_entries_ = std::move(entries_);
  prev_wave_ = wave_;
  prev_have_ = have_;
  entries_ = std::move(fresh);
  wave_ = wave;
  have_ = true;
  ++generation_;
  retired_.insert(retired_.end(), stale.begin(), stale.end());
  dm.mark_all_clean();  // commit point: everything captured or reused
  ++stats_.captures;
  stats_.bytes_captured += logical;
  stats_.dirty_bytes += copied;
  stats_.entries_reused += reused;
  stats_.capture_ns += timer.elapsed_ns();
}

void CheckpointStore::restore(DataManager& dm) {
  last_restore_degraded_ = false;
  // Pre-scan: can the current cut be restored in full? A buffer whose
  // owner AND buddy died since the capture (with no head-resident bytes)
  // is gone from this generation.
  std::vector<const Entry*> lost;
  for (const Entry& e : entries_) {
    if (!restorable(e)) lost.push_back(&e);
  }
  if (!lost.empty()) {
    bool prev_ok = prev_have_;
    if (prev_ok) {
      for (const Entry& e : prev_entries_) {
        if (!restorable(e)) {
          prev_ok = false;
          break;
        }
      }
    }
    if (!prev_ok) {
      std::ostringstream msg;
      msg << "checkpoint snapshot lost: owner and buddy of "
          << lost.size() << " worker-local snapshot"
          << (lost.size() == 1 ? "" : "s")
          << " died in the same checkpoint period and no complete prior "
             "generation survives; unrecoverable buffers:";
      for (const Entry* e : lost) {
        msg << " {host=" << e->host << " size=" << e->size << " owner=r"
            << e->owner.rank << " buddy=r" << e->buddy.rank << "}";
      }
      throw RecoveryError(msg.str());
    }
    // Degraded fallback: abandon the voided cut and roll back one more
    // period. Shadows only the abandoned cut references are parked for the
    // next quiescent drop.
    std::set<std::pair<mpi::Rank, offload::TargetPtr>> prev_kept;
    for (const Entry& e : prev_entries_) {
      if (e.owner.rank >= 0) prev_kept.emplace(e.owner.rank, e.owner.ptr);
      if (e.buddy.rank >= 0) prev_kept.emplace(e.buddy.rank, e.buddy.ptr);
    }
    for (const Entry& e : entries_) {
      if (e.owner.rank >= 0 &&
          prev_kept.count({e.owner.rank, e.owner.ptr}) == 0)
        orphaned_.push_back(e.owner);
      if (e.buddy.rank >= 0 &&
          prev_kept.count({e.buddy.rank, e.buddy.ptr}) == 0)
        orphaned_.push_back(e.buddy);
    }
    entries_ = std::move(prev_entries_);
    prev_entries_.clear();
    prev_have_ = false;
    wave_ = prev_wave_;
    prev_wave_ = -1;
    last_restore_degraded_ = true;
    ++stats_.degraded_restores;
    OMPC_LOG_WARN("checkpoint: current generation unrecoverable ("
                  << lost.size()
                  << " buffers); falling back to the prior boundary (wave "
                  << wave_ << ")");
  }
  // Worker-resident fetches are pipelined like capture: start every
  // SnapshotFetch (each lands in its own staging block), then wait and
  // convert — recovery pays max(fetch) across holders, not sum, which is
  // most of recovery_latency_ns on a big working set.
  struct Fetch {
    Entry* entry = nullptr;
    std::shared_ptr<Bytes> staging;
    OriginEventPtr ev;
  };
  std::vector<Fetch> fetches;
  std::vector<Shadow> drops;
  try {
    for (Entry& e : entries_) {
      if (e.data != nullptr) {
        dm.restore_buffer(
            e.host, e.size,
            std::span<const std::byte>(e.data->data(), e.size));
        continue;
      }
      // Worker-resident snapshot: resolve the freshest surviving holder.
      const Shadow* holder = nullptr;
      if (e.owner.rank >= 0 && !events_->is_rank_gone(e.owner.rank)) {
        holder = &e.owner;
      } else if (e.buddy.rank >= 0 && !events_->is_rank_gone(e.buddy.rank)) {
        holder = &e.buddy;
      }
      if (holder == nullptr) {
        // The pre-scan passed, so a holder died between the scan and this
        // resolve; surface it like the scan would have.
        std::ostringstream msg;
        msg << "checkpoint snapshot lost: owner and buddy of a worker-local "
               "snapshot died in the same checkpoint period; unrecoverable "
               "buffer: {host="
            << e.host << " size=" << e.size << " owner=r" << e.owner.rank
            << " buddy=r" << e.buddy.rank << "}";
        throw RecoveryError(msg.str());
      }
      // Stream the shadow to the head — where replay needs it — and keep
      // the bytes: the entry becomes head-resident, so a later failure
      // never chases shadows on ranks that died since this recovery.
      Fetch f;
      f.entry = &e;
      f.staging = std::make_shared<Bytes>(e.size);
      f.ev = events_->start_retrieve(holder->rank, holder->ptr,
                                     f.staging->data(), e.size,
                                     EventKind::SnapshotFetch);
      fetches.push_back(std::move(f));
    }
    for (Fetch& f : fetches) {
      f.ev->wait();
      Entry& e = *f.entry;
      dm.restore_buffer(
          e.host, e.size,
          std::span<const std::byte>(f.staging->data(), e.size));
      if (e.owner.rank >= 0) drops.push_back(e.owner);
      if (e.buddy.rank >= 0) drops.push_back(e.buddy);
      e.owner = {};
      e.buddy = {};
      set_data(e, std::move(f.staging));
    }
  } catch (...) {
    // Another failure interrupted the restore (or a snapshot is gone for
    // good). Settle the outstanding fetches first — their posted irecvs
    // point into the staging blocks about to unwind — then park the
    // converted entries' now-stale shadows for the next quiescent drop.
    for (Fetch& f : fetches) {
      if (f.ev == nullptr) continue;
      try {
        f.ev->wait();  // also drains the posted payload irecv
      } catch (...) {
      }
    }
    orphaned_.insert(orphaned_.end(), drops.begin(), drops.end());
    throw;
  }
  // Every entry is head-resident now, so this store never needs the
  // retained prior generation again — retire its shadows along with the
  // converted entries' and any parked orphans (a replica serialized before
  // this restore still names them). Dedupe first: a clean entry shares its
  // shadows across generations, and a double drop would double-free.
  for (const Entry& e : prev_entries_) {
    if (e.owner.rank >= 0) drops.push_back(e.owner);
    if (e.buddy.rank >= 0) drops.push_back(e.buddy);
  }
  prev_entries_.clear();
  prev_have_ = false;
  prev_wave_ = -1;
  drops.insert(drops.end(), orphaned_.begin(), orphaned_.end());
  orphaned_.clear();
  std::set<std::pair<mpi::Rank, offload::TargetPtr>> seen;
  for (const Shadow& s : drops) {
    if (seen.emplace(s.rank, s.ptr).second) retired_.push_back(s);
  }
  // Every checkpointed buffer now holds exactly its captured bytes, so
  // nothing is dirty relative to this snapshot; the replay re-marks what it
  // rewrites.
  dm.mark_all_clean();
  ++stats_.restores;
}

Bytes CheckpointStore::serialize_state() const {
  ArchiveWriter w;
  const auto put_entries = [&w](const std::vector<Entry>& list) {
    w.put<std::uint64_t>(list.size());
    for (const Entry& e : list) {
      w.put<std::uint64_t>(reinterpret_cast<std::uintptr_t>(e.host));
      w.put<std::uint64_t>(e.size);
      w.put(e.generation);
      w.put(e.blob_id);
      w.put(e.owner.rank);
      w.put(e.owner.ptr);
      w.put(e.buddy.rank);
      w.put(e.buddy.ptr);
    }
  };
  w.put<std::uint8_t>(have_ ? 1 : 0);
  w.put(wave_);
  w.put(generation_);
  w.put(last_blob_id_);
  put_entries(entries_);
  w.put<std::uint8_t>(prev_have_ ? 1 : 0);
  w.put(prev_wave_);
  put_entries(prev_entries_);
  w.put<std::uint64_t>(orphaned_.size());
  for (const Shadow& s : orphaned_) {
    w.put(s.rank);
    w.put(s.ptr);
  }
  w.put_raw(&stats_, sizeof stats_);
  return w.take();
}

SnapshotBlobs CheckpointStore::blobs() const {
  SnapshotBlobs out;
  for (const auto* list : {&entries_, &prev_entries_}) {
    for (const Entry& e : *list)
      if (e.data != nullptr) out.emplace(e.blob_id, e.data);
  }
  return out;
}

void CheckpointStore::adopt_state(std::span<const std::byte> data,
                                  const SnapshotBlobs& blobs) {
  ArchiveReader r(data);
  const auto get_entries = [&r, &blobs]() {
    std::vector<Entry> list;
    const auto n = r.get<std::uint64_t>();
    list.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Entry e;
      e.host = reinterpret_cast<void*>(
          static_cast<std::uintptr_t>(r.get<std::uint64_t>()));
      e.size = r.get<std::uint64_t>();
      e.generation = r.get<std::uint64_t>();
      e.blob_id = r.get<std::uint64_t>();
      if (e.blob_id != 0) {
        const auto it = blobs.find(e.blob_id);
        if (it == blobs.end())
          throw RecoveryError(
              "replicated checkpoint state references snapshot blob id " +
              std::to_string(e.blob_id) + " (buffer size " +
              std::to_string(e.size) +
              ") that the replica does not hold; head state is "
              "unrecoverable");
        e.data = it->second;
      }
      e.owner.rank = r.get<mpi::Rank>();
      e.owner.ptr = r.get<offload::TargetPtr>();
      e.buddy.rank = r.get<mpi::Rank>();
      e.buddy.ptr = r.get<offload::TargetPtr>();
      list.push_back(std::move(e));
    }
    return list;
  };
  have_ = r.get<std::uint8_t>() != 0;
  wave_ = r.get<std::int64_t>();
  generation_ = r.get<std::uint64_t>();
  last_blob_id_ = r.get<std::uint64_t>();
  entries_ = get_entries();
  prev_have_ = r.get<std::uint8_t>() != 0;
  prev_wave_ = r.get<std::int64_t>();
  prev_entries_ = get_entries();
  orphaned_.clear();
  const auto norphans = r.get<std::uint64_t>();
  orphaned_.reserve(norphans);
  for (std::uint64_t i = 0; i < norphans; ++i) {
    Shadow s;
    s.rank = r.get<mpi::Rank>();
    s.ptr = r.get<offload::TargetPtr>();
    orphaned_.push_back(s);
  }
  r.get_raw(&stats_, sizeof stats_);
  last_restore_degraded_ = false;
  retired_.clear();  // the dead head's; the adopting heap trim frees them
}

}  // namespace ompc::core
