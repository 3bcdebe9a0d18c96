#include "core/heartbeat.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/time.hpp"

namespace ompc::core {

namespace {
constexpr mpi::Tag kPingTag = 7;
/// The adaptive threshold never drops below this many periods, so a burst
/// of fast pings cannot make detection hair-triggered.
constexpr std::int64_t kFloorPeriods = 4;
/// Deviation multiplier k in mean + k·dev (Jacobson's RTO uses 4).
constexpr std::int64_t kDevFactor = 6;
}  // namespace

HeartbeatRing::HeartbeatRing(mpi::Comm comm, Options opts,
                             std::function<void(mpi::Rank)> on_failure)
    : comm_(comm), opts_(opts), on_failure_(std::move(on_failure)) {
  const int n = comm_.size();
  prev_ = (comm_.rank() - 1 + n) % n;
  next_ = (comm_.rank() + 1) % n;
  thread_ = std::thread([this] {
    log::set_thread_label("hb" + std::to_string(comm_.rank()));
    ring_main();
  });
}

HeartbeatRing::~HeartbeatRing() { stop(); }

void HeartbeatRing::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stop_) return;
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

void HeartbeatRing::ring_main() {
  if (comm_.size() == 1) return;  // no neighbours to monitor

  // Grace: the predecessor counts as alive at startup.
  std::int64_t last_ping_ns = now_ns();
  const std::int64_t period_ns = opts_.period_ms * 1'000'000;
  const std::int64_t timeout_ns = opts_.timeout_ms * 1'000'000;
  const std::int64_t floor_ns = std::min(kFloorPeriods * period_ns, timeout_ns);

  // EWMA mean and deviation of the measured inter-ping gaps; the fixed
  // timeout stays the upper bound.
  std::int64_t mean_ns = period_ns;
  std::int64_t dev_ns = period_ns;
  std::int64_t threshold_ns = timeout_ns;
  threshold_ns_.store(threshold_ns, std::memory_order_relaxed);
  const auto rethreshold = [&] {
    threshold_ns = std::clamp(mean_ns + kDevFactor * dev_ns + period_ns,
                              floor_ns, timeout_ns);
    threshold_ns_.store(threshold_ns, std::memory_order_relaxed);
  };

  for (;;) {
    // A dead rank's ring is gone with it: it must not read its own
    // silence as its predecessor's death.
    if (comm_.universe().is_dead(comm_.rank())) return;
    try {
      if (!paused_.load(std::memory_order_relaxed)) {
        const std::uint64_t beat = 1;
        comm_.send(&beat, sizeof beat, next_, kPingTag);
      }
      // Drain everything the predecessor sent since the last round.
      while (comm_.iprobe(prev_, kPingTag)) {
        std::uint64_t beat = 0;
        comm_.recv(&beat, sizeof beat, prev_, kPingTag);
        const std::int64_t now = now_ns();
        const std::int64_t err = now - last_ping_ns - mean_ns;
        mean_ns += err / 8;
        dev_ns += ((err < 0 ? -err : err) - dev_ns) / 4;
        rethreshold();
        last_ping_ns = now;
      }
      if (!failed_.load(std::memory_order_relaxed) &&
          now_ns() - last_ping_ns > threshold_ns) {
        if (opts_.verify_liveness && !comm_.universe().is_dead(prev_)) {
          // Silence without a corpse: this ring thread (or the peer's) was
          // starved by the scheduler, not the peer dying. The liveness
          // check stands in for a real transport's connection-state
          // notification, same as the membership agent's head poll. Widen
          // the threshold so the same stall does not re-trip.
          last_ping_ns = now_ns();
          dev_ns += dev_ns / 2 + period_ns;
          rethreshold();
        } else {
          failed_.store(true, std::memory_order_relaxed);
          OMPC_LOG_WARN("heartbeat: rank " << prev_ << " stopped responding");
          if (on_failure_) on_failure_(prev_);
        }
      }
    } catch (const mpi::RankKilledError&) {
      // This rank was killed under us (pre-poison ping still queued when
      // the recv landed). The ring dies with the rank — nothing to report.
      return;
    }
    std::unique_lock<std::mutex> lock(stop_mutex_);
    if (stop_cv_.wait_for(lock, std::chrono::nanoseconds(period_ns),
                          [this] { return stop_; }))
      return;
  }
}

}  // namespace ompc::core
