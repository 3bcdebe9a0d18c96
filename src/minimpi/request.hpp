// Nonblocking-operation handles (like MPI_Request).
//
// A Request is a shared handle onto the operation's completion state. Send
// requests complete at submission (eager protocol copies the payload);
// receive requests complete when the matching engine fills the buffer.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
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

  /// Re-armable slot (persistent request): the same state object cycles
  /// through start()/wait() instead of being allocated per operation, and
  /// the dead-rank drop path fails it by source (see
  /// Mailbox::fail_persistent_from) so an armed receive from a corpse never
  /// lingers as a zombie pre-posted slot.
  bool persistent = false;

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
  /// cancelled receive never fires it, and a persistent request's next
  /// start() discards one that never fired.
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

/// A re-armable nonblocking operation (like MPI_Send_init / MPI_Recv_init /
/// a persistent put). Buffer, peer, tag and shape are fixed at creation by
/// Comm::send_init/recv_init/put_init; each start()/wait() cycle re-uses the
/// same completion slot — no mailbox-slot allocation, no window
/// re-resolution. Move-only; destroying a still-armed request disarms it
/// (removes the pre-posted slot) so it can never outlive its buffer.
///
/// Kills are sticky: once a cycle failed with RankKilledError, every later
/// start() throws the same error — recreate the channel after recovery.
class PersistentRequest {
 public:
  PersistentRequest() = default;
  PersistentRequest(std::shared_ptr<detail::RequestState> state,
                    std::function<void()> arm,
                    std::function<void()> disarm = {})
      : state_(std::move(state)),
        arm_(std::move(arm)),
        disarm_(std::move(disarm)) {}

  PersistentRequest(PersistentRequest&& other) noexcept { swap(other); }
  PersistentRequest& operator=(PersistentRequest&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }
  PersistentRequest(const PersistentRequest&) = delete;
  PersistentRequest& operator=(const PersistentRequest&) = delete;
  ~PersistentRequest() { release(); }

  bool valid() const noexcept { return state_ != nullptr; }
  bool armed() const noexcept { return armed_; }
  /// Completed start()/wait() cycles — the channel's reuse count.
  std::int64_t cycles() const noexcept { return cycles_; }

  /// Arms the operation for one cycle. A completed-but-unwaited cycle is
  /// reclaimed implicitly; starting while the previous cycle is genuinely
  /// in flight is a caller bug (std::logic_error). Throws RankKilledError
  /// when a previous cycle was killed or the peer is already dead.
  void start() {
    if (state_ == nullptr)
      throw std::logic_error("start() on an empty PersistentRequest");
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->killed_rank >= 0) {
        armed_ = false;
        throw RankKilledError(state_->killed_rank);
      }
      if (armed_) {
        if (!state_->done)
          throw std::logic_error(
              "PersistentRequest::start() while the previous cycle is still "
              "in flight (missing wait())");
        ++cycles_;  // implicit reclaim of a completed, unwaited cycle
      }
      armed_ = false;
      state_->done = false;
      state_->status = Status{};
      state_->on_done = nullptr;  // each cycle starts with no hook
    }
    arm_();  // may throw (poisoned mailbox, dead peer): stays disarmed
    armed_ = true;
  }

  /// Blocks for the armed cycle and returns the slot to the idle
  /// (re-armable) state. Throws RankKilledError if a rank died under it.
  Status wait() {
    if (!armed_)
      throw std::logic_error("PersistentRequest::wait() without start()");
    try {
      const Status st = Request(state_).wait();
      armed_ = false;
      ++cycles_;
      return st;
    } catch (...) {
      armed_ = false;  // the slot was killed; nothing left to disarm
      throw;
    }
  }

  /// Nonblocking poll; reclaims the cycle when complete.
  bool test(Status* out = nullptr) {
    if (!armed_)
      throw std::logic_error("PersistentRequest::test() without start()");
    try {
      if (!Request(state_).test(out)) return false;
    } catch (...) {
      armed_ = false;
      throw;
    }
    armed_ = false;
    ++cycles_;
    return true;
  }

  std::shared_ptr<detail::RequestState> state() const { return state_; }

 private:
  void swap(PersistentRequest& o) noexcept {
    state_.swap(o.state_);
    arm_.swap(o.arm_);
    disarm_.swap(o.disarm_);
    std::swap(armed_, o.armed_);
    std::swap(cycles_, o.cycles_);
  }
  void release() noexcept {
    if (armed_ && disarm_) {
      try {
        disarm_();
      } catch (...) {  // disarm during teardown races a kill: best effort
      }
    }
    armed_ = false;
  }

  std::shared_ptr<detail::RequestState> state_;
  std::function<void()> arm_;
  std::function<void()> disarm_;
  bool armed_ = false;
  std::int64_t cycles_ = 0;
};

/// Waits for every request in `reqs` (like MPI_Waitall).
inline void wait_all(std::span<Request> reqs) {
  for (auto& r : reqs) r.wait();
}
inline void wait_all(std::vector<Request>& reqs) {
  wait_all(std::span<Request>(reqs));
}

}  // namespace ompc::mpi
