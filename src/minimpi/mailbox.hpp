// Per-rank message matching engine.
//
// Implements MPI matching semantics: a receive matches a message when the
// communicator context is equal and source/tag are equal or wildcarded.
// Posted receives are honoured in post order; unexpected messages are kept
// and scanned in arrival order, which preserves the non-overtaking
// guarantee (messages on one communicator between a rank pair are matched
// in the order they were delivered).
#pragma once

#include <deque>
#include <list>
#include <memory>
#include <optional>

#include "minimpi/message.hpp"
#include "minimpi/request.hpp"

namespace ompc::mpi {

class Mailbox {
 public:
  /// Hands an arrived message to this rank: completes the first matching
  /// posted receive or stores it in the unexpected queue.
  void deliver(Envelope&& env);

  /// Posts a nonblocking receive into [buf, buf+capacity).
  Request post_recv(void* buf, std::size_t capacity, Rank src, Tag tag,
                    ContextId context);

  /// Blocking receive (post + wait).
  Status recv(void* buf, std::size_t capacity, Rank src, Tag tag,
              ContextId context);

  /// Nonblocking probe of the unexpected queue.
  std::optional<Status> iprobe(Rank src, Tag tag, ContextId context);

  /// Blocking probe: waits until a matching message has arrived and returns
  /// its envelope metadata without consuming it.
  Status probe(Rank src, Tag tag, ContextId context);

  /// Removes a posted receive from the matching engine (like
  /// MPI_Cancel+MPI_Request_free for receives). No-op if the request
  /// already matched. Needed when the expected sender died: the buffer the
  /// receive points into may be reused/freed, and a stale in-flight
  /// payload must not land in it.
  void cancel(const std::shared_ptr<detail::RequestState>& state);

  /// Number of unexpected (arrived, unmatched) messages — test/debug hook.
  std::size_t unexpected_count() const;

  /// Fault injection: marks the owning rank dead. Every blocked receive or
  /// probe (and any future blocking call) throws RankKilledError; arriving
  /// messages are dropped on the floor. `rank` is only used for the error.
  void poison(Rank rank);

  bool poisoned() const;

 private:
  static bool matches(const Envelope& env, Rank src, Tag tag,
                      ContextId context) noexcept {
    return env.context == context &&
           (src == kAnySource || env.src == src) &&
           (tag == kAnyTag || env.tag == tag);
  }

  mutable std::mutex mutex_;
  std::condition_variable arrival_cv_;  ///< Signalled on unexpected arrivals.
  std::deque<Envelope> unexpected_;
  std::list<std::shared_ptr<detail::RequestState>> posted_;
  bool poisoned_ = false;
  Rank rank_ = -1;  ///< set by poison(), for the error message only
};

}  // namespace ompc::mpi
