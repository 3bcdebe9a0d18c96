// Fault-detection heartbeat ring (paper §3.1).
//
// "each node in OMPC (head node and worker nodes) has a heartbeat
//  mechanism, connected in a ring topology, which allows nodes to monitor
//  their neighbors" — the paper defers restart to future work, so this
// component implements exactly the detection half: every node pings its
// successor each period and flags its predecessor dead when pings stop
// arriving for `timeout`. Failure simulation for tests is a method
// (pause()), since ranks are threads and cannot be killed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "minimpi/mpi.hpp"

namespace ompc::core {

/// Tag (on the heartbeat communicator) a rank uses to report a detected
/// neighbour failure to the head node, which owns recovery (§5): the ring
/// detects, the head's membership agent collects and acts.
inline constexpr mpi::Tag kFailureReportTag = 8;

/// Every node pings its successor each period and flags its predecessor
/// dead after an adaptive miss threshold (Jacobson/Karels over inter-ping
/// gaps): mean + 6·dev + period, never below 4 periods and never above
/// `timeout_ms`. A punctual ring detects well below the worst case; a
/// jittery one backs off before it false-positives.
class HeartbeatRing {
 public:
  struct Options {
    std::int64_t period_ms = 20;
    /// Ceiling of the adaptive miss threshold.
    std::int64_t timeout_ms = 100;

    /// Confirm a miss against universe-level liveness before declaring the
    /// predecessor dead (stands in for a real transport's connection-state
    /// notification): a starved ring thread then reads as a false alarm
    /// that widens the adaptive threshold instead of triggering recovery —
    /// or, far worse, a head-death election against a live head. Off only
    /// for tests that exercise the pure ring protocol via pause().
    bool verify_liveness = true;
  };

  /// `comm` must be dedicated to the ring (dup() one). `on_failure` is
  /// invoked at most once, from the heartbeat thread, with the rank of the
  /// dead predecessor. The ring goes silent once its own rank is dead: a
  /// corpse neither pings nor flags anyone.
  HeartbeatRing(mpi::Comm comm, Options opts,
                std::function<void(mpi::Rank)> on_failure);
  ~HeartbeatRing();

  HeartbeatRing(const HeartbeatRing&) = delete;
  HeartbeatRing& operator=(const HeartbeatRing&) = delete;

  /// Returns once the ring thread has exited; it wakes at once, not at
  /// the end of its current period.
  void stop();

  /// Simulates this node going silent (its successor will flag it).
  void pause() { paused_.store(true, std::memory_order_relaxed); }
  void resume() { paused_.store(false, std::memory_order_relaxed); }

  /// Whether the predecessor has been declared dead.
  bool predecessor_failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

  mpi::Rank predecessor() const noexcept { return prev_; }
  mpi::Rank successor() const noexcept { return next_; }

  /// The miss threshold currently in force, in ns (test hook).
  std::int64_t current_threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }

 private:
  void ring_main();

  mpi::Comm comm_;
  Options opts_;
  std::function<void(mpi::Rank)> on_failure_;
  mpi::Rank prev_ = 0;
  mpi::Rank next_ = 0;

  // The ring thread sleeps each period on stop_cv_, which stop() notifies.
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;

  std::atomic<bool> paused_{false};
  std::atomic<bool> failed_{false};
  std::atomic<std::int64_t> threshold_ns_{0};
  std::thread thread_;
};

}  // namespace ompc::core
