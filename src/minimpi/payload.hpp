// Ownership-flexible message payloads (the zero-copy data plane).
//
// The eager protocol used to force every payload through an owned copy: the
// sender memcpy'd its buffer into the envelope, and delivery memcpy'd it
// again into the posted receive. For multi-megabyte Submit/Retrieve traffic
// that staging copy is pure head-node overhead (the Fig. 7a cost this repo
// optimizes), so Envelope now carries a Payload that can
//
//  - own its bytes          (moved-in Bytes; control messages, collectives),
//  - borrow the caller's    (the head's Submit path: the origin thread waits
//    buffer                  for the event completion, which the destination
//                            sends only after delivery filled its receive —
//                            so the borrowed memory outlives the flight), or
//  - share ownership        (worker device blocks: the block stays alive
//                            while a Retrieve/Exchange payload is in flight,
//                            even across Delete events or the rank dying).
//
// Copy accounting: every byte-copy of a *data-plane* payload (tags at or
// above kFirstDataTag — event data messages) is counted process-wide, so
// "the Submit path performs exactly one copy" is an assertable invariant
// (RuntimeStats::payload_copies), not a code-review claim. Control traffic
// (small tags) and collectives (reserved tags) are not data-plane and are
// not counted.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>

#include "common/serialize.hpp"
#include "minimpi/types.hpp"

namespace ompc::mpi {

/// Tags at or above this carry bulk data payloads (the event system's
/// per-event data messages); smaller user tags are control traffic. Copy
/// accounting only tracks the data range.
inline constexpr Tag kFirstDataTag = 16;

namespace detail {
inline std::atomic<std::int64_t> g_payload_copies{0};
inline std::atomic<std::int64_t> g_payload_copy_bytes{0};
}  // namespace detail

/// Records one byte-copy of a payload travelling under `tag` (no-op for
/// tags outside [kFirstDataTag, kMaxUserTag]). Called by the matching
/// engine on delivery and by any producer that stages bytes into an owned
/// payload.
inline void note_payload_copy(Tag tag, std::size_t bytes) {
  if (tag < kFirstDataTag || tag > kMaxUserTag) return;
  detail::g_payload_copies.fetch_add(1, std::memory_order_relaxed);
  detail::g_payload_copy_bytes.fetch_add(static_cast<std::int64_t>(bytes),
                                         std::memory_order_relaxed);
}

/// Process-wide count of data-plane payload byte-copies (all ranks; ranks
/// share the process in this simulated cluster).
inline std::int64_t payload_copies() {
  return detail::g_payload_copies.load(std::memory_order_relaxed);
}
inline std::int64_t payload_copy_bytes() {
  return detail::g_payload_copy_bytes.load(std::memory_order_relaxed);
}

/// A message payload with owned, borrowed or shared backing storage.
/// Move-only: copying a payload would defeat the accounting (and the
/// point).
class Payload {
 public:
  Payload() = default;

  /// Owned: takes the bytes by move — no copy.
  /*implicit*/ Payload(Bytes bytes)
      : owned_(std::move(bytes)), data_(owned_.data()), size_(owned_.size()) {}

  /// Owned copy of `[data, data+n)`. The one constructor that copies;
  /// callers on the data plane should prefer borrow()/share().
  static Payload copy_of(const void* data, std::size_t n) {
    Bytes b(n);
    if (n != 0) std::memcpy(b.data(), data, n);
    return Payload(std::move(b));
  }

  /// Borrowed view: the caller guarantees `[data, data+n)` stays valid and
  /// unmodified until the message has been delivered (e.g. an origin thread
  /// that blocks on the event completion, which the destination only sends
  /// after delivery).
  static Payload borrow(const void* data, std::size_t n) {
    Payload p;
    p.data_ = static_cast<const std::byte*>(data);
    p.size_ = n;
    return p;
  }

  /// Shared view: `keepalive` pins the backing storage for the payload's
  /// lifetime, so the owner may free (or die) while the message is in
  /// flight.
  static Payload share(std::shared_ptr<const void> keepalive,
                       const void* data, std::size_t n) {
    Payload p;
    p.keepalive_ = std::move(keepalive);
    p.data_ = static_cast<const std::byte*>(data);
    p.size_ = n;
    return p;
  }

  // Moves are safe for the owned case because std::vector's heap block (and
  // therefore data_) survives the move.
  Payload(Payload&&) = default;
  Payload& operator=(Payload&&) = default;
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;

  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::span<const std::byte> view() const noexcept { return {data_, size_}; }

  /// The delivery copy into a matched receive buffer. The caller accounts
  /// for it via note_payload_copy (only the mailbox knows the tag).
  void copy_to(void* dst) const {
    if (size_ != 0) std::memcpy(dst, data_, size_);
  }

  /// Converts a borrowed view into owned bytes; no-op when the payload
  /// already owns or pins its storage. Transports call this before parking
  /// a message whose sender was (or is about to be) released eagerly — a
  /// borrowed pointer must not outlive the sender's right to reuse it.
  void materialize() {
    if (size_ == 0 || data_ == owned_.data() || keepalive_ != nullptr) return;
    Bytes b(size_);
    std::memcpy(b.data(), data_, size_);
    owned_ = std::move(b);
    data_ = owned_.data();
  }

 private:
  Bytes owned_;
  std::shared_ptr<const void> keepalive_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace ompc::mpi
