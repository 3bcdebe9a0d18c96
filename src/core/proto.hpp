// Wire protocol of the OMPC event system (§4.2).
//
// Three message classes flow between ranks:
//   1. new-event notifications   (control comm, tag kTagNewEvent)
//   2. event data messages       (data comm chosen by tag, tag = event tag)
//   3. completion notifications  (control comm, tag kTagComplete)
// Every event owns a unique origin-allocated tag; all its data messages use
// that tag, so matching can never cross-talk between events (the paper's
// "exclusive channel" invariant).
#pragma once

#include <cstdint>

#include "common/serialize.hpp"
#include "minimpi/mpi.hpp"
#include "offload/kernel_registry.hpp"
#include "offload/plugin.hpp"

namespace ompc::core {

/// Actions a destination rank can perform — one-to-one with the plugin API
/// (paper §4.2: "a one-to-one match to all the required functions that a
/// device plugin must implement").
enum class EventKind : std::uint8_t {
  Alloc = 1,     ///< allocate device memory; replies with the address
  Delete,        ///< free device memory
  Submit,        ///< receive buffer data from the origin (host -> worker)
  Retrieve,      ///< send buffer data to the origin (worker -> host)
  Execute,       ///< run a registered kernel on local device memory
  Shutdown,      ///< stop the event system (sent once by the head)
  RankDead,      ///< head -> workers: a rank died; abort events touching it

  // Worker-local checkpoint data plane (§5, CheckpointLocality): the head
  // commands snapshots by metadata; the bytes never touch its NIC.
  SnapshotSave,   ///< copy a device region into a local shadow; replies
                  ///< with the shadow's address
  SnapshotDrop,   ///< free a shadow (stale generation / post-restore)
  SnapshotFetch,  ///< send shadow bytes to the origin (restore path) —
                  ///< wire-identical to Retrieve, distinct for accounting

  /// One-sided forward (§4.3 worker->worker exchange, buddy replicas): the
  /// destination rank puts a local region straight into a pre-registered
  /// window of `peer` (Comm::put) — one event, no receive posted at the
  /// peer, the bytes land via the window registry.
  RmaPut,

  // Head failover / elastic membership (§5 extension).

  /// Head -> shadow rank: an incremental update of the head's recording
  /// state (wave log delta + ownership/checkpoint metadata + the checkpoint
  /// snapshot blobs the shadow lacks). The metadata and wave blobs are
  /// stored verbatim in the shadow's ReplicaStore; they are only
  /// deserialized if that rank is later promoted.
  HeadState,

  /// New head -> worker (post-election): free every device block except the
  /// listed keep-set (the checkpoint shadows the replicated metadata still
  /// references). Reconciles worker heaps the old head was mid-way through
  /// mutating — the dead head's bookkeeping for them is unrecoverable.
  TrimHeap,
};

const char* to_string(EventKind k);

/// The runtime's tag map, centralized: every control tag the event system
/// uses lives in this one enum, so a new protocol message cannot silently
/// collide with an existing one (the static_asserts below pin the layout).
enum ControlTag : mpi::Tag {
  kTagNewEvent = 1,  ///< new-event notifications (control comm)
  kTagComplete = 2,  ///< completion notifications (control comm)
};

/// First tag usable by events (small tags are control tags). Anchored to
/// the minimpi data-tag boundary so payload-copy accounting sees every
/// event data message and none of the control traffic.
inline constexpr mpi::Tag kFirstEventTag = mpi::kFirstDataTag;

// Layout invariants of the tag map. Control tags are pairwise distinct and
// below the data boundary; event tags run from the boundary to the top of
// the user range without touching the collective space.
static_assert(kTagNewEvent != kTagComplete);
static_assert(kTagNewEvent > 0 && kTagComplete < mpi::kFirstDataTag,
              "control tags must stay below the data-tag boundary");
static_assert(kFirstEventTag >= mpi::kFirstDataTag,
              "event data tags must be visible to copy accounting");

// --- event headers (serialized into the new-event notification) ---------

struct AllocHeader {
  std::uint64_t size = 0;
};

struct DeleteHeader {
  offload::TargetPtr ptr = 0;
};

struct SubmitHeader {
  offload::TargetPtr dst = 0;
  std::uint64_t size = 0;
};

struct RetrieveHeader {
  offload::TargetPtr src = 0;
  std::uint64_t size = 0;
};

/// SnapshotSave: the destination copies `size` bytes starting at the device
/// address `src` into a freshly allocated local shadow block and replies
/// with the shadow's address. Purely rank-local — the one event whose data
/// volume is invisible to the network.
struct SnapshotSaveHeader {
  offload::TargetPtr src = 0;
  std::uint64_t size = 0;
};

/// SnapshotDrop: free the shadow at `ptr` (a previous SnapshotSave result).
struct SnapshotDropHeader {
  offload::TargetPtr ptr = 0;
};

/// Broadcast by the head after the failure detector declares a rank dead so
/// workers re-test events parked on I/O.
struct RankDeadHeader {
  mpi::Rank rank = -1;
};

/// RmaPut: the destination rank writes [src, src+size) of its device heap
/// into window `win` of `peer` at `offset` with a single one-sided put and
/// completes when the bytes have landed. `win` is the peer's destination
/// block address (the worker heap registers every block under its own
/// address — see WorkerMemory).
struct RmaPutHeader {
  offload::TargetPtr src = 0;
  std::uint64_t size = 0;
  mpi::Rank peer = 0;           ///< target rank of the put
  offload::TargetPtr win = 0;   ///< peer's window id (= block address)
  std::uint64_t offset = 0;     ///< byte offset inside the window
};

/// HeadState: `size` bytes of serialized head state follow as the event
/// payload. `reset` marks a boundary where the checkpoint was retaken: the
/// shadow moves its accumulated waves to the previous-generation slot and
/// starts fresh (mirroring WaveLog::cut() on the head).
struct HeadStateHeader {
  std::uint64_t size = 0;
  std::uint64_t generation = 0;
  std::uint8_t reset = 0;
};

/// TrimHeap: keep-set of device block addresses follows in the header blob
/// (serialized vector). Everything else on the destination's heap is freed.
/// The handler defers until it is the only active event on the rank so no
/// in-flight Submit/Execute touches a block being freed.
struct TrimHeapHeader {
  std::uint64_t keep_count = 0;  ///< vector<TargetPtr> follows
};

/// Execute carries variable-length argument lists, serialized explicitly.
struct ExecuteHeader {
  offload::KernelId kernel = offload::kInvalidKernel;
  std::vector<offload::TargetPtr> buffers;
  Bytes scalars;

  Bytes serialize() const {
    ArchiveWriter w;
    w.put(kernel);
    w.put_vector(buffers);
    w.put_blob(std::span<const std::byte>(scalars.data(), scalars.size()));
    return w.take();
  }
  static ExecuteHeader deserialize(std::span<const std::byte> data) {
    ArchiveReader r(data);
    ExecuteHeader h;
    h.kernel = r.get<offload::KernelId>();
    h.buffers = r.get_vector<offload::TargetPtr>();
    h.scalars = r.get_blob();
    return h;
  }
};

/// Envelope of a new-event notification.
struct EventAnnounce {
  EventKind kind = EventKind::Shutdown;
  mpi::Tag tag = 0;
  mpi::Rank origin = 0;
  Bytes header;

  Bytes serialize() const {
    ArchiveWriter w;
    w.put(kind);
    w.put(tag);
    w.put(origin);
    w.put_blob(std::span<const std::byte>(header.data(), header.size()));
    return w.take();
  }
  static EventAnnounce deserialize(std::span<const std::byte> data) {
    ArchiveReader r(data);
    EventAnnounce a;
    a.kind = r.get<EventKind>();
    a.tag = r.get<mpi::Tag>();
    a.origin = r.get<mpi::Rank>();
    a.header = r.get_blob();
    return a;
  }
};

/// Envelope of a completion notification (result rides along: Alloc returns
/// the device address here).
struct EventCompletion {
  mpi::Tag tag = 0;
  Bytes result;

  Bytes serialize() const {
    ArchiveWriter w;
    w.put(tag);
    w.put_blob(std::span<const std::byte>(result.data(), result.size()));
    return w.take();
  }
  static EventCompletion deserialize(std::span<const std::byte> data) {
    ArchiveReader r(data);
    EventCompletion c;
    c.tag = r.get<mpi::Tag>();
    c.result = r.get_blob();
    return c;
  }
};

}  // namespace ompc::core
