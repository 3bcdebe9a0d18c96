// Persistent, growable helper pool for the head node's hot path.
//
// The dispatch engine used to create and join a pool of threads on *every
// wave* (mirroring one LLVM hidden-helper thread per in-flight target
// region), and the Data Manager spawned one std::thread per extra buffer of
// every multi-input task. Per-wave thread churn is exactly the head-side
// overhead the paper's Fig. 7a isolates, so both now submit jobs to pools
// that live for the whole launch: one dispatch pool (its *ceiling* still
// bounds in-flight target regions, preserving the HelperThreads/TwoStep
// semantics) and one transfer pool shared by all concurrent prepare_args
// calls.
//
// Elasticity: the old pools spawned their full ceiling (`16 + 3·W`, or 48
// helper threads) at launch even for a 2-worker test cluster. An elastic
// pool starts at a small floor and grows only when a caller ANNOUNCES
// demand (reserve(n) — the dispatcher passes the wave's task count, fan_out
// its job count). Announced demand is a pure function of the wave
// structure, never of job-completion timing, so identical waves grow the
// pool identically and the hotpath gates ("spawn count is wave-count
// independent", "0 spawns per steady wave") stay exact — a queue-pressure
// rule would flake on scheduler noise. A spawned thread lives until the
// pool is destroyed. Under-announcing is safe: jobs queue behind the live
// threads (pool jobs never block on other pool jobs).
//
// Jobs must not throw — callers capture exceptions into their own state
// (the wave's first_error, a fetch group's error slots).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ompc::core {

class HelperPool {
 public:
  /// Fixed-size pool: spawns max(1, threads) workers once (floor ==
  /// ceiling). `label_prefix` names the threads for log output ("hh0",
  /// "xfer3", ...).
  HelperPool(int threads, std::string label_prefix);

  /// Elastic pool: spawns `min_threads` upfront and grows on demand up to
  /// `max_threads` (the in-flight bound). `spawn_counter`, when given, is
  /// incremented on every spawn — the owner's stats block sees mid-run
  /// growth without polling.
  HelperPool(int min_threads, int max_threads, std::string label_prefix,
             std::atomic<std::int64_t>* spawn_counter = nullptr);
  ~HelperPool();

  HelperPool(const HelperPool&) = delete;
  HelperPool& operator=(const HelperPool&) = delete;

  /// Announces upcoming demand: grows the pool to min(ceiling, target)
  /// live threads. Deterministic — callers pass structural facts (task
  /// count of the wave, fan-out width), so identical work reserves
  /// identically.
  void reserve(int target);

  /// Enqueues a job on the pool. Jobs run in FIFO order across the live
  /// threads (grown via reserve) and must not throw.
  void submit(std::function<void()> job);

  /// Threads spawned so far (floor <= n <= ceiling).
  int num_threads() const noexcept;

  int max_threads() const noexcept { return max_; }
  int min_threads() const noexcept { return min_; }

  /// Jobs executed since construction (test/bench hook).
  std::int64_t jobs_run() const noexcept {
    return jobs_run_.load(std::memory_order_relaxed);
  }

  /// Cumulative spawns (launch floor + demand growth).
  std::int64_t threads_spawned() const noexcept {
    return threads_spawned_.load(std::memory_order_relaxed);
  }

  /// High-water mark of live threads: every spawned one, since none
  /// retires before the pool is destroyed.
  int peak_threads() const noexcept {
    return static_cast<int>(threads_spawned());
  }

 private:
  void spawn_locked();
  int num_threads_locked() const noexcept {
    return static_cast<int>(threads_.size());
  }
  void worker_main();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  int min_ = 1;
  int max_ = 1;
  std::string label_;
  std::atomic<std::int64_t> jobs_run_{0};
  std::atomic<std::int64_t> threads_spawned_{0};
  std::atomic<std::int64_t>* spawn_counter_ = nullptr;
  std::vector<std::thread> threads_;  ///< mutex-guarded
};

/// Runs fn(0) inline and fn(1..n-1) as pool jobs, returning only after
/// every call has settled; the first failure is rethrown on the calling
/// thread (so no job outlives the stack state fn captures). This is the
/// shared fan-out scaffold of prepare_args and refresh_head_many — the
/// latch-lifetime subtlety (wait() can return while the last count_down is
/// still inside notify) lives here once.
void fan_out(HelperPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& fn);

}  // namespace ompc::core
