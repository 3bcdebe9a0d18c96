// Wire representation of one point-to-point message.
#pragma once

#include <cstdint>

#include "common/serialize.hpp"
#include "minimpi/payload.hpp"
#include "minimpi/types.hpp"

namespace ompc::mpi {

/// One-sided operation carried by an envelope. `None` is ordinary two-sided
/// traffic that flows into the destination's mailbox; the other codes are
/// the extended (RMA) protocol and are consumed by the universe's delivery
/// dispatcher — they never enter the matching engine.
enum class RmaOp : std::uint8_t {
  None = 0,  ///< two-sided message (mailbox matching)
  Put,       ///< write payload into (dst, window) at offset
  PutAck,    ///< target -> origin: the put's bytes have landed
  Get,       ///< ask dst to send `rma_size` bytes of (window, offset)
  GetReply,  ///< target -> origin: the requested bytes
};

/// A message in flight: envelope metadata plus its payload. Owned payloads
/// give buffered-send semantics (sender's buffer immediately reusable);
/// borrowed/shared payloads are the zero-copy data plane — see payload.hpp
/// for the lifetime contracts.
struct Envelope {
  Rank src = 0;
  Rank dst = 0;
  Tag tag = 0;
  ContextId context = 0;
  int channel = 0;      ///< Link channel (context striped over VCIs).
  Payload payload;

  // One-sided (RMA) extension; meaningful only when op != RmaOp::None.
  RmaOp op = RmaOp::None;
  std::uint64_t window = 0;    ///< target window id (Put/Get)
  std::uint64_t offset = 0;    ///< byte offset into the window (Put/Get)
  std::uint64_t op_id = 0;     ///< origin's pending-operation key
  std::uint64_t rma_size = 0;  ///< requested byte count (Get)
};

}  // namespace ompc::mpi
