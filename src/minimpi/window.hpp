// One-sided (RMA) memory windows, in the style of MPI_Win / GASNet's
// extended API.
//
// A window exposes a pre-registered byte range of one rank for remote
// put/get: the origin names (rank, window id, offset) and the universe's
// delivery dispatcher moves the bytes directly — no receive is posted, no
// matching happens, and the target's event handlers are never involved.
// That is what lets the runtime's bulk transfers (worker->worker exchange,
// buddy replication) each be a single put operation.
//
// Registration is local (win_create registers the calling rank's memory;
// there is no collective epoch, targets register eagerly — the worker heap
// registers every device block at allocation). Windows of one rank must
// not overlap: a put names exactly one destination region or it is a
// protocol error, so create() rejects duplicates and overlaps up front.
//
// Completion: put/get return a Request that completes when the bytes have
// landed (put: target ack; get: reply copied into the origin buffer).
// flush(target) waits for every pending one-sided operation this rank has
// toward `target`. Payload contracts are identical to isend_payload —
// borrowed/shared payloads are the zero-copy path.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "minimpi/payload.hpp"
#include "minimpi/types.hpp"

namespace ompc::mpi {

class Universe;

/// Names one registered region of one rank. Callers pick ids; the worker
/// heap uses the block's device address, which is unique per live block.
using WindowId = std::uint64_t;

/// Default tag for one-sided data: inside the data-tag range so RMA
/// payload copies are visible to the copy accounting like any other
/// data-plane traffic. Node-local windows writes (self-puts) may pass a
/// control tag instead to stay out of the wire-copy books.
inline constexpr Tag kRmaDataTag = kFirstDataTag;

/// Invalid window registration (duplicate id, overlapping region, unknown
/// id on destroy).
class WindowError : public std::runtime_error {
 public:
  explicit WindowError(const std::string& what) : std::runtime_error(what) {}
};

/// The universe-wide registry of exposed regions, keyed by (rank, id).
/// Thread-safe: registration happens on rank threads while the conduit's
/// delivery thread resolves targets concurrently.
class WindowRegistry {
 public:
  /// Registers [base, base+size) of `rank` under `id`. Throws WindowError
  /// on a duplicate id or any overlap with an existing window of `rank`.
  void create(Rank rank, WindowId id, void* base, std::size_t size);

  /// Unregisters; throws WindowError if (rank, id) is unknown.
  void destroy(Rank rank, WindowId id);

  /// Lands a put: copies `payload` into (rank, id) at `offset` while
  /// holding the registry lock, so a concurrent destroy() cannot race the
  /// memcpy — once destroy returns, no in-flight put touches the region
  /// and the owner may free the bytes. Returns false when the window is
  /// unknown or the access is out of bounds (an in-flight put can
  /// legitimately outlive its window, like a payload outliving a cancelled
  /// receive; the caller drops the bytes and still acks).
  bool fill(Rank rank, WindowId id, std::uint64_t offset,
            const Payload& payload) const;

  /// Stages a get: copies `len` bytes out of (rank, id) at `offset` into
  /// `*out` under the registry lock (same exclusion guarantee as fill).
  /// Returns false — leaving `*out` untouched — when the window is unknown
  /// or the access is out of bounds.
  bool read(Rank rank, WindowId id, std::uint64_t offset, std::size_t len,
            Payload* out) const;

  std::size_t count(Rank rank) const;

 private:
  struct Region {
    std::byte* base = nullptr;
    std::size_t size = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::pair<Rank, WindowId>, Region> windows_;
};

/// RAII handle for a window registered through Comm::win_create: destroys
/// the registration when it goes out of scope. Move-only.
class Window {
 public:
  Window() = default;
  Window(Window&& other) noexcept { *this = std::move(other); }
  Window& operator=(Window&& other) noexcept;
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;
  ~Window();

  bool valid() const noexcept { return universe_ != nullptr; }
  WindowId id() const noexcept { return id_; }
  std::size_t size() const noexcept { return size_; }

  /// Unregisters now (no-op when already released/moved-from).
  void release();

 private:
  friend class Comm;
  Window(Universe* universe, Rank rank, WindowId id, std::size_t size)
      : universe_(universe), rank_(rank), id_(id), size_(size) {}

  Universe* universe_ = nullptr;
  Rank rank_ = -1;
  WindowId id_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ompc::mpi
