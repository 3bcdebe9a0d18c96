#include "minimpi/mailbox.hpp"

#include <cstring>

#include "common/check.hpp"

namespace ompc::mpi {

namespace {

Status status_of(const Envelope& env) {
  return Status{env.src, env.tag, env.payload.size()};
}

/// Copies a matched payload into the receive buffer — the single delivery
/// copy every message pays (zero-copy payloads pay no other). Truncation is
/// a protocol bug in this codebase (buffers are always sized by the
/// sender's header), so it fails fast rather than emulating
/// MPI_ERR_TRUNCATE.
void fill(detail::RequestState& slot, const Envelope& env) {
  OMPC_CHECK_MSG(env.payload.size() <= slot.capacity,
                 "receive truncation: payload " << env.payload.size()
                                                << " > capacity "
                                                << slot.capacity);
  env.payload.copy_to(slot.buffer);
  if (!env.payload.empty()) note_payload_copy(env.tag, env.payload.size());
}

}  // namespace

void Mailbox::deliver(Envelope&& env) {
  std::shared_ptr<detail::RequestState> matched;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (poisoned_) return;  // a dead rank never receives anything
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (matches(env, (*it)->source, (*it)->tag, (*it)->context)) {
        matched = *it;
        posted_.erase(it);
        break;
      }
    }
    if (!matched) {
      // A borrowed payload parked here can outlive its sender's right to
      // reuse the buffer: own the bytes before that can happen.
      env.payload.materialize();
      unexpected_.push_back(std::move(env));
      arrival_cv_.notify_all();
      return;
    }
    fill(*matched, env);
  }
  // Completion takes the request's own lock; done outside the mailbox lock
  // is unnecessary (ordering is mailbox -> request everywhere) but keeps the
  // critical section minimal (CP.43).
  matched->complete(status_of(env));
}

Request Mailbox::post_recv(void* buf, std::size_t capacity, Rank src, Tag tag,
                           ContextId context) {
  auto state = std::make_shared<detail::RequestState>();
  state->buffer = static_cast<std::byte*>(buf);
  state->capacity = capacity;
  state->source = src;
  state->tag = tag;
  state->context = context;

  std::optional<Envelope> hit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (poisoned_) throw RankKilledError(rank_);
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (matches(*it, src, tag, context)) {
        hit = std::move(*it);
        unexpected_.erase(it);
        break;
      }
    }
    if (!hit) {
      posted_.push_back(state);
      return Request(std::move(state));
    }
    fill(*state, *hit);
  }
  state->complete(status_of(*hit));
  return Request(std::move(state));
}

Status Mailbox::recv(void* buf, std::size_t capacity, Rank src, Tag tag,
                     ContextId context) {
  return post_recv(buf, capacity, src, tag, context).wait();
}

std::optional<Status> Mailbox::iprobe(Rank src, Tag tag, ContextId context) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& env : unexpected_) {
    if (matches(env, src, tag, context)) return status_of(env);
  }
  return std::nullopt;
}

Status Mailbox::probe(Rank src, Tag tag, ContextId context) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (poisoned_) throw RankKilledError(rank_);
    for (const auto& env : unexpected_) {
      if (matches(env, src, tag, context)) return status_of(env);
    }
    arrival_cv_.wait(lock);
  }
}

std::size_t Mailbox::unexpected_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unexpected_.size();
}

void Mailbox::cancel(const std::shared_ptr<detail::RequestState>& state) {
  if (state == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  posted_.remove(state);
}

void Mailbox::poison(Rank rank) {
  std::list<std::shared_ptr<detail::RequestState>> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (poisoned_) return;
    poisoned_ = true;
    rank_ = rank;
    unexpected_.clear();
    orphans.swap(posted_);
  }
  // Outside the mailbox lock (completion takes each request's own lock).
  for (auto& slot : orphans) slot->kill(rank);
  arrival_cv_.notify_all();  // blocked probes re-check poisoned_ and throw
}

bool Mailbox::poisoned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return poisoned_;
}

}  // namespace ompc::mpi
