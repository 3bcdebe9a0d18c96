// Wave-boundary checkpointing (paper §5).
//
// The paper couples its heartbeat fault *detection* with checkpointing and
// task-graph re-execution for *recovery*. OMPC's natural consistency points
// are the implicit barriers between waves: no task is in flight, so the set
// of registered buffers — resolved to their freshest copies through the
// Data Manager's ownership map — IS the global state of the computation.
//
// capture() is *incremental*: the Data Manager's dirty set (buffers written
// since the last committed capture) selects what must be re-snapshotted;
// clean buffers keep their previous entry by reference. Where the snapshot
// bytes go is CheckpointLocality's choice:
//
//  - Head: every dirty buffer is retrieved to the head (fanned out across
//    the transfer pool) and copied there — the PR 1/PR 3 baseline, whose
//    cost scales with dirty bytes × head NIC bandwidth;
//  - Buddy: each worker snapshots its dirty buffers into device-local
//    shadow blocks (SnapshotSave, a rank-local memcpy) and puts one replica
//    on the owner's ring successor among the live workers (an RmaPut into
//    the buddy's block); the head keeps only metadata {owner, buddy, shadow
//    addresses, generation} plus bytes for buffers whose freshest copy
//    already lives on the head — head traffic per boundary stays
//    O(metadata) while recovery survives the snapshot owner's death.
//
// Capture commits in two phases: new-generation shadows are created while
// the previous generation stays intact, so a worker dying mid-capture
// leaves the old snapshot (and the dirty set) untouched; only after every
// save/replica settles are the entries swapped and the stale shadows
// retired. Retired shadows stay allocated until the caller releases them:
// a replica of the head state taken before the commit still names them,
// and a head promoted from it may have to restore from them. restore()
// resolves each buffer from the freshest surviving
// holder (owner, else buddy, else the head entry — else RecoveryError),
// streams it to the head where replay re-distributes it, and converts the
// entry to head-resident bytes so a later failure cannot chase shadows on
// ranks that died since.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/serialize.hpp"
#include "core/data_manager.hpp"
#include "core/event_system.hpp"
#include "core/options.hpp"

namespace ompc::core {

/// Head-resident snapshot bytes keyed by replication id. Ids are unique
/// within a store and never reused, so a replica that holds an id holds
/// exactly those bytes.
using SnapshotBlobs = std::map<std::uint64_t, std::shared_ptr<const Bytes>>;

struct CheckpointStats {
  std::int64_t captures = 0;
  std::int64_t restores = 0;
  std::int64_t bytes_captured = 0;  ///< cumulative logical snapshot volume
  std::int64_t dirty_bytes = 0;     ///< cumulative bytes actually snapshotted
  std::int64_t entries_reused = 0;  ///< clean entries kept by reference
  std::int64_t capture_ns = 0;      ///< cumulative capture wall time
  std::int64_t head_bytes = 0;      ///< capture bytes through the head NIC:
                                    ///< retrieved payloads (Head mode) plus
                                    ///< snapshot-command metadata (worker
                                    ///< modes) — the micro_checkpoint gate
  std::int64_t snapshot_saves = 0;     ///< worker-local shadows created
  std::int64_t snapshot_replicas = 0;  ///< buddy replicas shipped
  std::int64_t snapshot_drops = 0;     ///< stale shadows freed
  std::int64_t degraded_restores = 0;  ///< fell back to the prior generation
};

class CheckpointStore {
 public:
  /// Head-resident store with no event plane (unit tests, and the default
  /// ablation baseline).
  CheckpointStore() = default;

  /// `events` may be null, which forces Head locality.
  CheckpointStore(EventSystem* events, CheckpointLocality locality)
      : events_(events),
        locality_(events == nullptr ? CheckpointLocality::Head : locality) {}

  /// Whether a snapshot exists to roll back to.
  bool has_checkpoint() const noexcept { return have_; }

  /// Wave index the snapshot was taken before (-1 when none).
  std::int64_t wave() const noexcept { return wave_; }

  std::size_t num_buffers() const noexcept { return entries_.size(); }

  /// Snapshots every registered buffer at a wave boundary. Only buffers in
  /// the Data Manager's dirty set are re-captured; clean buffers reuse the
  /// previous snapshot's entry by reference. Must run at a quiescent point
  /// (between waves). Replaces any previous snapshot — recovery is always
  /// to the most recent boundary — and commits atomically: a worker dying
  /// mid-capture leaves the previous snapshot (and the dirty set) intact.
  /// `live_workers` (Buddy mode) picks each owner's buddy rank.
  void capture(DataManager& dm, std::int64_t wave,
               std::span<const mpi::Rank> live_workers = {});

  /// Rolls every checkpointed buffer back: re-registers buffers a DataExit
  /// erased meanwhile, resolves each snapshot from its freshest surviving
  /// holder, and rewrites the host copies. The cluster must be quiescent
  /// and dead ranks already purged from the Data Manager. When a buffer's
  /// owner AND buddy died in the same checkpoint period with no head entry
  /// to fall back on, the store attempts a *degraded* restore of the prior
  /// generation (retained in full until the next capture commits); only
  /// when that cut is incomplete too does it throw RecoveryError, naming
  /// every unrecoverable buffer. After a degraded restore
  /// last_restore_degraded() is true and wave() reports the prior
  /// boundary — the caller must replay from there.
  void restore(DataManager& dm);

  /// Whether the last restore() fell back to the prior generation.
  bool last_restore_degraded() const noexcept {
    return last_restore_degraded_;
  }

  /// Shadows no retained generation references any more (dropped out at a
  /// commit, or converted by a restore), still allocated, oldest first.
  /// A replica serialized before they were retired may still name them.
  std::size_t num_retired() const noexcept { return retired_.size(); }

  /// SnapshotDrops the `n` oldest retired shadows (best-effort, like every
  /// drop). Call it once no replica that names them can be adopted: after
  /// the shadow acknowledged a later update, or at the next commit when
  /// nothing is replicated.
  void release_retired(std::size_t n);

  /// Head-replication support: flattens the store state (both
  /// generations' entries, parked orphans and counters) so a promoted head
  /// can adopt it. Head-resident bytes are written as replication ids, not
  /// bytes: blobs() holds them, and a replica ships each id once.
  Bytes serialize_state() const;

  /// The head-resident snapshot blobs both generations reference, each id
  /// once — what a replica must hold to adopt serialize_state().
  SnapshotBlobs blobs() const;

  /// Rebuilds the store from serialize_state() output, resolving every
  /// replication id in `blobs`. Throws RecoveryError naming the first id
  /// `blobs` lacks.
  void adopt_state(std::span<const std::byte> data,
                   const SnapshotBlobs& blobs);

  /// Re-homes the event plane after a head failover (the promoted rank's
  /// event system replaces the dead head's).
  void rebind(EventSystem* events) { events_ = events; }

  const CheckpointStats& stats() const noexcept { return stats_; }

  /// Snapshot shadows (both generations, parked orphans and retired ones)
  /// living on `rank` — the blocks a heap trim of that rank must keep so
  /// later SnapshotDrop/SnapshotFetch events still resolve.
  std::vector<offload::TargetPtr> shadows_on(mpi::Rank rank) const;

  /// Current committed snapshot generation (test hook).
  std::uint64_t generation() const noexcept { return generation_; }

  /// Entries whose bytes live on workers, not the head (test hook).
  std::size_t worker_resident_entries() const;

 private:
  /// A device-local snapshot replica on one rank (rank < 0: none).
  struct Shadow {
    mpi::Rank rank = -1;
    offload::TargetPtr ptr = 0;
  };

  struct Entry {
    void* host = nullptr;
    std::size_t size = 0;
    std::uint64_t generation = 0;
    /// Head-resident bytes; immutable once captured and shared between
    /// consecutive snapshot generations so clean buffers cost no copy.
    /// Null when the snapshot lives on workers instead.
    std::shared_ptr<const Bytes> data;
    std::uint64_t blob_id = 0;  ///< replication id of `data` (0: none)
    Shadow owner;  ///< worker-local shadow (Buddy mode)
    Shadow buddy;  ///< ring-successor replica (none with < 2 live workers)
  };

  /// Whether `e`'s bytes can still be produced from some live holder.
  bool restorable(const Entry& e) const;

  /// Makes `bytes` the entry's head-resident snapshot under a fresh
  /// replication id.
  void set_data(Entry& e, std::shared_ptr<const Bytes> bytes);

  /// Ring successor of `owner` among `live` (-1 when no distinct buddy).
  static mpi::Rank buddy_of(mpi::Rank owner,
                            std::span<const mpi::Rank> live);

  /// Best-effort SnapshotDrop of every shadow on a still-live rank; a rank
  /// dying mid-drop is ignored (its memory dies with it).
  void drop_shadows(const std::vector<Shadow>& shadows);

  /// Head-resident capture of the pending entries: fan the retrieves out
  /// across the transfer pool, then copy each host buffer.
  void capture_on_head(DataManager& dm, std::vector<Entry>& fresh,
                       const std::vector<std::size_t>& pending);

  /// Worker-local capture: SnapshotSave on each owner plus an RmaPut
  /// replica to its buddy, pipelined across buffers. On failure the shadows
  /// created so far are parked in orphaned_ and the error rethrown — the
  /// previous generation stays intact.
  void capture_on_workers(DataManager& dm, std::vector<Entry>& fresh,
                          const std::vector<std::size_t>& pending,
                          std::span<const mpi::Rank> live_workers);

  EventSystem* events_ = nullptr;
  CheckpointLocality locality_ = CheckpointLocality::Head;

  std::vector<Entry> entries_;
  std::int64_t wave_ = -1;
  bool have_ = false;
  std::uint64_t generation_ = 0;
  std::uint64_t last_blob_id_ = 0;  ///< last replication id handed out
  /// The generation before the current one, retained in full (its shadows
  /// are dropped only when the NEXT capture commits) so a double kill that
  /// voids a current-generation entry can fall back one period instead of
  /// failing the launch.
  std::vector<Entry> prev_entries_;
  std::int64_t prev_wave_ = -1;
  bool prev_have_ = false;
  bool last_restore_degraded_ = false;
  /// Shadows whose drop had to be deferred (aborted capture, interrupted
  /// restore): freed at the next quiescent opportunity.
  std::vector<Shadow> orphaned_;
  /// See num_retired(). Head-local: not serialized, so a promoted head
  /// never learns of them and its heap trim frees them.
  std::vector<Shadow> retired_;
  CheckpointStats stats_;
};

}  // namespace ompc::core
