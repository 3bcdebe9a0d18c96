#include "core/helper_pool.hpp"

#include <algorithm>
#include <latch>
#include <memory>

#include "common/check.hpp"
#include "common/log.hpp"

namespace ompc::core {

HelperPool::HelperPool(int threads, std::string label_prefix)
    : HelperPool(threads, threads, std::move(label_prefix)) {}

HelperPool::HelperPool(int min_threads, int max_threads,
                       std::string label_prefix,
                       std::atomic<std::int64_t>* spawn_counter)
    : min_(std::max(1, min_threads)),
      max_(std::max(std::max(1, min_threads), max_threads)),
      label_(std::move(label_prefix)),
      spawn_counter_(spawn_counter) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (num_threads_locked() < min_) spawn_locked();
}

HelperPool::~HelperPool() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    to_join.swap(threads_);
  }
  cv_.notify_all();
  for (auto& t : to_join) t.join();
}

int HelperPool::num_threads() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_threads_locked();
}

void HelperPool::spawn_locked() {
  threads_.emplace_back(
      [this, label = label_ + std::to_string(threads_.size())] {
        log::set_thread_label(label);
        worker_main();
      });
  threads_spawned_.fetch_add(1, std::memory_order_relaxed);
  if (spawn_counter_ != nullptr)
    spawn_counter_->fetch_add(1, std::memory_order_relaxed);
}

void HelperPool::reserve(int target) {
  std::lock_guard<std::mutex> lock(mutex_);
  OMPC_CHECK_MSG(!stop_, "reserve on a stopped helper pool");
  const int want = std::min(max_, target);
  while (num_threads_locked() < want) spawn_locked();
}

void HelperPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    OMPC_CHECK_MSG(!stop_, "submit on a stopped helper pool");
    queue_.push_back(std::move(job));
    // No growth here: submit-time queue pressure depends on job-completion
    // timing, which would make the spawn count nondeterministic across
    // identical waves (the hotpath gates assert it exactly). Growth is the
    // callers' announced demand — reserve().
  }
  cv_.notify_one();
}

void HelperPool::worker_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopped and drained
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    job();
    jobs_run_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
}

void fan_out(HelperPool& pool, std::size_t n,
             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Announce the fan-out width (n-1 pool jobs; fn(0) runs inline) so an
  // elastic pool grows to cover it — deterministic per call site.
  pool.reserve(static_cast<int>(n - 1));
  // Shared, not stack-allocated: wait() can return while the last job is
  // still inside count_down()'s notify, which would race a stack latch's
  // destructor; the jobs' copies keep it alive past that window. (fn and
  // errors stay stack refs — their writes happen before count_down, which
  // wait() synchronizes with.)
  auto done =
      std::make_shared<std::latch>(static_cast<std::ptrdiff_t>(n - 1));
  std::vector<std::exception_ptr> errors(n);
  for (std::size_t i = 1; i < n; ++i) {
    pool.submit([&fn, &errors, done, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      done->count_down();
    });
  }
  try {
    fn(0);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  done->wait();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ompc::core
