// Nonblocking-operation handles (like MPI_Request).
//
// A Request is a shared handle onto the operation's completion state. Send
// requests complete at submission (eager protocol copies the payload);
// receive requests complete when the matching engine fills the buffer.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "minimpi/types.hpp"

namespace ompc::mpi {

namespace detail {

/// Shared completion state. The matching engine fills `status` and flips
/// `done` under `mutex`; waiters block on `cv`, and a completion-driven
/// progress engine registers a one-shot hook instead of polling test().
struct RequestState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Rank killed_rank = -1;  ///< >= 0: completed by poison, wait() throws
  Status status;
  /// One-shot completion hook: fired once, outside `mutex`, by whichever
  /// of complete()/kill() finishes the operation (on the delivering thread).
  std::function<void()> on_done;

  // Receive-side destination; unused (empty) for send requests.
  std::byte* buffer = nullptr;
  std::size_t capacity = 0;

  // Matching criteria for pending receives (needed for cancellation-free
  // bookkeeping and debug dumps).
  Rank source = kAnySource;
  Tag tag = kAnyTag;
  ContextId context = 0;

  void complete(const Status& st) {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mutex);
      status = st;
      done = true;
      hook.swap(on_done);
    }
    cv.notify_all();
    if (hook) hook();
  }

  /// Fault injection: completes the request exceptionally — the owning rank
  /// died, so waiters must unwind rather than block forever.
  void kill(Rank rank) {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (done) return;  // already matched; the data won a race with death
      killed_rank = rank;
      done = true;
      hook.swap(on_done);
    }
    cv.notify_all();
    if (hook) hook();
  }

  /// Registers the completion hook (replacing an unfired one). On a request
  /// that is already done the hook runs inline, on the caller's thread; a
  /// cancelled receive never fires it.
  void on_complete(std::function<void()> hook) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!done) {
        on_done = std::move(hook);
        return;
      }
    }
    hook();
  }
};

}  // namespace detail

/// Handle to a nonblocking operation. Copyable; all copies refer to the
/// same operation.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}

  bool valid() const noexcept { return state_ != nullptr; }

  /// Blocks until the operation completes; returns its Status. Throws
  /// RankKilledError if the operation's rank was killed while it waited.
  Status wait() {
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (state_->killed_rank >= 0) throw RankKilledError(state_->killed_rank);
    return state_->status;
  }

  /// Nonblocking completion check; fills `out` when complete.
  bool test(Status* out = nullptr) {
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (!state_->done) return false;
    if (state_->killed_rank >= 0) throw RankKilledError(state_->killed_rank);
    if (out != nullptr) *out = state_->status;
    return true;
  }

  std::shared_ptr<detail::RequestState> state() const { return state_; }

 private:
  std::shared_ptr<detail::RequestState> state_;
};

/// Waits for every request in `reqs` (like MPI_Waitall).
inline void wait_all(std::span<Request> reqs) {
  for (auto& r : reqs) r.wait();
}
inline void wait_all(std::vector<Request>& reqs) {
  wait_all(std::span<Request>(reqs));
}

}  // namespace ompc::mpi
