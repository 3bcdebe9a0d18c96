#include "minimpi/comm.hpp"

#include <cstring>

#include "common/check.hpp"
#include "minimpi/universe.hpp"

namespace ompc::mpi {

namespace {
// Collective sub-protocol tags, offset into the reserved tag space.
constexpr Tag kBarrierArrive = kCollectiveTagBase + 0;
constexpr Tag kBarrierRelease = kCollectiveTagBase + 1;
constexpr Tag kBcast = kCollectiveTagBase + 2;
constexpr Tag kGather = kCollectiveTagBase + 3;
constexpr Tag kReduce = kCollectiveTagBase + 4;

void check_user_tag(Tag tag) {
  OMPC_CHECK_MSG(tag >= 0 && tag <= kMaxUserTag,
                 "tag " << tag << " outside user range [0, " << kMaxUserTag
                        << ']');
}
}  // namespace

int Comm::size() const noexcept { return universe_->num_ranks(); }

Comm Comm::dup() const {
  // Collective, like MPI_Comm_dup: every rank must call it, and all ranks
  // must agree on the new context id. Rank 0 allocates and broadcasts.
  ContextId ctx = 0;
  if (rank_ == 0) ctx = universe_->allocate_context();
  bcast(&ctx, sizeof ctx, 0);
  return Comm(universe_, ctx, rank_);
}

Request Comm::isend_payload(Payload payload, Rank dst, Tag tag) const {
  check_user_tag(tag);
  Envelope env;
  env.src = rank_;
  env.dst = dst;
  env.tag = tag;
  env.context = context_;
  env.payload = std::move(payload);
  universe_->post(std::move(env));

  // The payload now lives on the wire, so the send request is complete at
  // once. Owned payloads give buffered-send semantics; borrowed payloads
  // require the caller to keep the memory valid until delivery (see
  // payload.hpp for the contract).
  auto state = std::make_shared<detail::RequestState>();
  state->complete(Status{rank_, tag, 0});
  return Request(std::move(state));
}

Request Comm::isend_bytes(Bytes payload, Rank dst, Tag tag) const {
  return isend_payload(Payload(std::move(payload)), dst, tag);
}

Request Comm::isend(const void* buf, std::size_t n, Rank dst, Tag tag) const {
  // Staging copy into an owned payload; counted when it is data-plane
  // traffic (zero-copy callers use isend_payload with borrow/share).
  if (n != 0) note_payload_copy(tag, n);
  return isend_payload(Payload::copy_of(buf, n), dst, tag);
}

void Comm::send(const void* buf, std::size_t n, Rank dst, Tag tag) const {
  isend(buf, n, dst, tag).wait();
}

Request Comm::irecv(void* buf, std::size_t capacity, Rank src, Tag tag) const {
  if (tag != kAnyTag) check_user_tag(tag);
  return universe_->mailbox(rank_).post_recv(buf, capacity, src, tag, context_);
}

Status Comm::recv(void* buf, std::size_t capacity, Rank src, Tag tag) const {
  return irecv(buf, capacity, src, tag).wait();
}

Bytes Comm::recv_bytes(Rank src, Tag tag, Status* status_out) const {
  const Status probed = probe(src, tag);
  Bytes payload(probed.count);
  // Pin down the exact message we probed: wildcards are resolved to the
  // probed source/tag so a concurrent arrival cannot swap in.
  const Status st = universe_->mailbox(rank_).recv(
      payload.data(), payload.size(), probed.source, probed.tag, context_);
  if (status_out != nullptr) *status_out = st;
  return payload;
}

std::optional<Status> Comm::iprobe(Rank src, Tag tag) const {
  return universe_->mailbox(rank_).iprobe(src, tag, context_);
}

Status Comm::probe(Rank src, Tag tag) const {
  return universe_->mailbox(rank_).probe(src, tag, context_);
}

void Comm::cancel(const Request& req) const {
  if (!req.valid()) return;
  universe_->mailbox(rank_).cancel(req.state());
}

// --- one-sided (RMA) ---------------------------------------------------

Window Comm::win_create(WindowId id, void* base, std::size_t size) const {
  universe_->windows().create(rank_, id, base, size);
  return Window(universe_, rank_, id, size);
}

Request Comm::put(Rank target, WindowId window, std::uint64_t offset,
                  Payload payload, Tag tag) const {
  check_user_tag(tag);
  Envelope env;
  env.src = rank_;
  env.dst = target;
  env.tag = tag;
  env.context = context_;
  env.op = RmaOp::Put;
  env.window = window;
  env.offset = offset;
  env.rma_size = payload.size();
  env.payload = std::move(payload);
  return universe_->rma_start(std::move(env));
}

Request Comm::get(Rank target, WindowId window, std::uint64_t offset,
                  void* dst, std::size_t n, Tag tag) const {
  check_user_tag(tag);
  Envelope env;
  env.src = rank_;
  env.dst = target;
  env.tag = tag;
  env.context = context_;
  env.op = RmaOp::Get;
  env.window = window;
  env.offset = offset;
  env.rma_size = n;
  return universe_->rma_start(std::move(env), static_cast<std::byte*>(dst), n);
}

void Comm::flush(Rank target) const { universe_->rma_flush(rank_, target); }

// --- collectives -------------------------------------------------------
//
// Implemented over the same message path as user traffic so they pay
// realistic network costs. Flat fan-in barrier; binomial-tree bcast.

void Comm::barrier() const {
  auto& box = universe_->mailbox(rank_);
  const int n = size();
  if (n == 1) return;
  if (rank_ == 0) {
    for (int i = 1; i < n; ++i)
      box.recv(nullptr, 0, kAnySource, kBarrierArrive, context_);
    for (int i = 1; i < n; ++i) {
      Envelope env{0, i, kBarrierRelease, context_, 0, {}};
      universe_->post(std::move(env));
    }
  } else {
    Envelope env{rank_, 0, kBarrierArrive, context_, 0, {}};
    universe_->post(std::move(env));
    box.recv(nullptr, 0, 0, kBarrierRelease, context_);
  }
}

void Comm::bcast(void* buf, std::size_t n, Rank root) const {
  auto& box = universe_->mailbox(rank_);
  const int p = size();
  if (p == 1) return;
  // Binomial tree on virtual ranks (root mapped to 0): log2(p) rounds.
  const int vrank = (rank_ - root + p) % p;
  if (vrank != 0) {
    // Receive from parent: clear the lowest set bit of vrank.
    const int vparent = vrank & (vrank - 1);
    const int parent = (vparent + root) % p;
    box.recv(buf, n, parent, kBcast, context_);
  }
  // Forward to children: set bits above the lowest set bit of vrank.
  for (int mask = 1; mask < p; mask <<= 1) {
    if ((vrank & (mask - 1)) != 0 || (vrank & mask) != 0) continue;
    const int vchild = vrank | mask;
    if (vchild >= p) break;
    const int child = (vchild + root) % p;
    Envelope env;
    env.src = rank_;
    env.dst = child;
    env.tag = kBcast;
    env.context = context_;
    env.payload = Payload::copy_of(buf, n);
    universe_->post(std::move(env));
  }
}

std::vector<Bytes> Comm::gather_bytes(std::span<const std::byte> mine,
                                      Rank root) const {
  const int p = size();
  std::vector<Bytes> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(p));
    out[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      const Status st =
          universe_->mailbox(rank_).probe(r, kGather, context_);
      out[static_cast<std::size_t>(r)].resize(st.count);
      universe_->mailbox(rank_).recv(out[static_cast<std::size_t>(r)].data(),
                                     st.count, r, kGather, context_);
    }
  } else {
    Envelope env;
    env.src = rank_;
    env.dst = root;
    env.tag = kGather;
    env.context = context_;
    env.payload = Payload::copy_of(mine.data(), mine.size());
    universe_->post(std::move(env));
  }
  return out;
}

std::uint64_t Comm::allreduce_sum(std::uint64_t value) const {
  const int p = size();
  std::uint64_t total = value;
  auto& box = universe_->mailbox(rank_);
  if (rank_ == 0) {
    for (int r = 1; r < p; ++r) {
      std::uint64_t v = 0;
      box.recv(&v, sizeof v, r, kReduce, context_);
      total += v;
    }
  } else {
    Envelope env;
    env.src = rank_;
    env.dst = 0;
    env.tag = kReduce;
    env.context = context_;
    env.payload = Payload::copy_of(&value, sizeof value);
    universe_->post(std::move(env));
  }
  bcast(&total, sizeof total, 0);
  return total;
}

}  // namespace ompc::mpi
