#include "minimpi/shm_conduit.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define OMPC_HAVE_SHM 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/time.hpp"

namespace ompc::mpi {

#ifdef OMPC_HAVE_SHM

namespace {

/// Bounded per-(src,dst) byte stream. Payloads larger than the capacity
/// chunk through it (the producer stalls for space; the drain thread always
/// makes progress), so the segment size is independent of message size.
constexpr std::size_t kRingCapacity = std::size_t{64} * 1024;

/// On-wire record framing inside a ring: header, then payload bytes.
struct RecordHeader {
  std::int64_t due_ns = 0;  ///< delivery deadline, steady-clock epoch ns
  std::int64_t seq = 0;     ///< submit order (FIFO tie-break on equal due)
  std::int32_t src = 0;
  std::int32_t dst = 0;
  std::int32_t tag = 0;
  std::int32_t context = 0;
  std::int32_t channel = 0;
  std::uint8_t op = 0;
  std::uint8_t pad[3] = {};
  std::uint64_t window = 0;
  std::uint64_t offset = 0;
  std::uint64_t op_id = 0;
  std::uint64_t rma_size = 0;
  std::uint64_t payload_size = 0;
};
static_assert(std::is_trivially_copyable_v<RecordHeader>);

/// One SPSC byte ring living inside the mapped segment. `head` counts bytes
/// ever published by the producer side, `tail` bytes ever consumed; both
/// free-run and index the buffer modulo kRingCapacity, so full/empty are
/// unambiguous. Producers of one ring are serialized by an in-process mutex
/// (ranks are threads and MPI_THREAD_MULTIPLE allows concurrent senders).
struct alignas(64) Ring {
  std::atomic<std::uint64_t> head{0};
  char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail{0};
  char pad1[64 - sizeof(std::atomic<std::uint64_t>)];
  std::byte data[kRingCapacity];
};

std::int64_t to_epoch_ns(TimePoint tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

TimePoint from_epoch_ns(std::int64_t ns) {
  return TimePoint(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(ns)));
}

class ShmConduit final : public Conduit {
 public:
  ShmConduit(const NetworkModel& model, int ranks, DeliverFn deliver)
      : pacer_(model),
        instant_(model.is_instant()),
        ranks_(ranks),
        deliver_(std::move(deliver)) {
    OMPC_CHECK(ranks_ >= 1);
    map_segment();
    producer_locks_ =
        std::make_unique<std::mutex[]>(static_cast<std::size_t>(ranks_ * ranks_));
    drain_ = std::thread([this] {
      log::set_thread_label("shm");
      drain_main();
    });
    drain_id_ = drain_.get_id();
  }

  ~ShmConduit() override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    drain_.join();
    ::munmap(segment_, segment_bytes_);
  }

  const char* name() const noexcept override { return "shm"; }

  void submit(Envelope&& env) override {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    const TimePoint due = instant_ ? Clock::now() : pacer_.due_for(env);
    const std::int64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);

    // Handler-context loopback: messages originated on the drain thread
    // itself (one-sided acks/replies posted while delivering) must not
    // stage into a ring only the drain thread empties — a full ring would
    // deadlock it against itself. They go straight to the pending queue,
    // the same way AM replies run on the progress engine's loopback path.
    if (std::this_thread::get_id() == drain_id_) {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.push(PendingRec{due, seq, std::move(env)});
      return;
    }

    RecordHeader h;
    h.due_ns = to_epoch_ns(due);
    h.seq = seq;
    h.src = env.src;
    h.dst = env.dst;
    h.tag = env.tag;
    h.context = env.context;
    h.channel = env.channel;
    h.op = static_cast<std::uint8_t>(env.op);
    h.window = env.window;
    h.offset = env.offset;
    h.op_id = env.op_id;
    h.rma_size = env.rma_size;
    h.payload_size = env.payload.size();

    const std::size_t idx =
        static_cast<std::size_t>(env.src) * static_cast<std::size_t>(ranks_) +
        static_cast<std::size_t>(env.dst);
    Ring& ring = *rings_[idx];
    {
      // One record at a time per ring: header and payload bytes of two
      // concurrent senders must not interleave.
      std::lock_guard<std::mutex> lock(producer_locks_[idx]);
      ring_write(ring, reinterpret_cast<const std::byte*>(&h), sizeof h);
      if (!env.payload.empty()) {
        // Staging copy into the shared ring — counted: the shm data plane
        // genuinely pays it where the in-process conduit moves a pointer.
        note_payload_copy(env.tag, env.payload.size());
        ring_write(ring, env.payload.data(), env.payload.size());
      }
    }
  }

  std::int64_t submitted() const noexcept override {
    return submitted_.load(std::memory_order_relaxed);
  }

 private:
  struct PendingRec {
    TimePoint due;
    std::int64_t seq;
    Envelope env;
  };
  struct Later {
    bool operator()(const PendingRec& a, const PendingRec& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  void map_segment() {
    static std::atomic<int> counter{0};
    const std::string name = "/ompc-shm-" + std::to_string(::getpid()) + "-" +
                             std::to_string(counter.fetch_add(1));
    const int fd =
        ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0)
      throw ConduitError("shm conduit unavailable: shm_open(" + name +
                         ") failed: " + std::strerror(errno));
    segment_bytes_ = sizeof(Ring) * static_cast<std::size_t>(ranks_) *
                     static_cast<std::size_t>(ranks_);
    if (::ftruncate(fd, static_cast<off_t>(segment_bytes_)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::shm_unlink(name.c_str());
      throw ConduitError("shm conduit unavailable: ftruncate failed: " + err);
    }
    void* mem = ::mmap(nullptr, segment_bytes_, PROT_READ | PROT_WRITE,
                       MAP_SHARED, fd, 0);
    ::close(fd);
    // Unlink immediately: the mapping keeps the segment alive, and no name
    // can leak even if the process dies.
    ::shm_unlink(name.c_str());
    if (mem == MAP_FAILED)
      throw ConduitError(std::string("shm conduit unavailable: mmap failed: ") +
                         std::strerror(errno));
    segment_ = mem;
    rings_.reserve(static_cast<std::size_t>(ranks_ * ranks_));
    for (int i = 0; i < ranks_ * ranks_; ++i)
      rings_.push_back(new (static_cast<std::byte*>(segment_) +
                            sizeof(Ring) * static_cast<std::size_t>(i)) Ring);
  }

  /// Producer side: copies `n` bytes into the ring, wrapping and stalling
  /// for space as needed (the drain thread always frees space). Every
  /// published chunk rings the doorbell: a record larger than the ring
  /// stalls its producer until the drain has consumed the chunks before it.
  void ring_write(Ring& ring, const std::byte* src, std::size_t n) {
    std::size_t written = 0;
    while (written < n) {
      const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
      const std::uint64_t tail = ring.tail.load(std::memory_order_acquire);
      const std::size_t free = kRingCapacity - static_cast<std::size_t>(head - tail);
      if (free == 0) {
        std::this_thread::yield();
        continue;
      }
      const std::size_t at = static_cast<std::size_t>(head % kRingCapacity);
      const std::size_t run = std::min({n - written, free, kRingCapacity - at});
      std::memcpy(ring.data + at, src + written, run);
      written += run;
      ring.head.store(head + run, std::memory_order_release);
      ring_doorbell();
    }
  }

  /// Bump, then pass through the drain's mutex before notifying: the drain
  /// compares the doorbell under that mutex before it sleeps, so a bump
  /// after its ring scan is either seen there or notifies a waiting drain.
  void ring_doorbell() {
    doorbell_.fetch_add(1, std::memory_order_release);
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_one();
  }

  /// Consumer side: copies `n` bytes out, stalling until the producer has
  /// published them. Only the drain thread calls this.
  void ring_read(Ring& ring, std::byte* dst, std::size_t n) {
    std::size_t read = 0;
    while (read < n) {
      const std::uint64_t tail = ring.tail.load(std::memory_order_relaxed);
      const std::uint64_t head = ring.head.load(std::memory_order_acquire);
      const std::size_t avail = static_cast<std::size_t>(head - tail);
      if (avail == 0) {
        // Mid-record: the producer is actively streaming the rest.
        std::this_thread::yield();
        continue;
      }
      const std::size_t at = static_cast<std::size_t>(tail % kRingCapacity);
      const std::size_t run = std::min({n - read, avail, kRingCapacity - at});
      std::memcpy(dst + read, ring.data + at, run);
      read += run;
      ring.tail.store(tail + run, std::memory_order_release);
    }
  }

  /// Reassembles every complete record currently in `ring` into the pending
  /// queue. Returns true if anything was consumed.
  bool parse_ring(Ring& ring) {
    bool any = false;
    for (;;) {
      const std::uint64_t tail = ring.tail.load(std::memory_order_relaxed);
      const std::uint64_t head = ring.head.load(std::memory_order_acquire);
      if (static_cast<std::size_t>(head - tail) < sizeof(RecordHeader)) break;
      RecordHeader h;
      ring_read(ring, reinterpret_cast<std::byte*>(&h), sizeof h);
      Envelope env;
      env.src = h.src;
      env.dst = h.dst;
      env.tag = h.tag;
      env.context = h.context;
      env.channel = h.channel;
      env.op = static_cast<RmaOp>(h.op);
      env.window = h.window;
      env.offset = h.offset;
      env.op_id = h.op_id;
      env.rma_size = h.rma_size;
      if (h.payload_size != 0) {
        Bytes bytes(h.payload_size);
        ring_read(ring, bytes.data(), h.payload_size);
        // Reassembly copy out of the shared ring — the second counted copy
        // of the shm data plane.
        note_payload_copy(h.tag, h.payload_size);
        env.payload = Payload(std::move(bytes));
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_.push(PendingRec{from_epoch_ns(h.due_ns), h.seq,
                                 std::move(env)});
      }
      any = true;
    }
    return any;
  }

  void drain_main() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      // Pull everything the rings hold, then deliver what is due. The
      // doorbell is read before the scan, so any chunk the scan misses
      // bumps it past `seen`.
      const std::uint64_t seen = doorbell_.load(std::memory_order_acquire);
      lock.unlock();
      for (Ring* r : rings_) parse_ring(*r);
      lock.lock();
      while (!pending_.empty() && Clock::now() >= pending_.top().due) {
        Envelope env =
            std::move(const_cast<PendingRec&>(pending_.top()).env);
        pending_.pop();
        lock.unlock();
        deliver_(std::move(env));
        lock.lock();
      }
      if (stop_ && pending_.empty() && rings_empty()) return;
      const auto rung = [&] {
        return doorbell_.load(std::memory_order_acquire) != seen;
      };
      if (!pending_.empty()) {
        const TimePoint due = pending_.top().due;
        cv_.wait_until(lock, due, rung);
      } else {
        cv_.wait(lock, [&] { return stop_ || rung(); });
      }
    }
  }

  bool rings_empty() const {
    for (Ring* r : rings_) {
      if (r->head.load(std::memory_order_acquire) !=
          r->tail.load(std::memory_order_acquire))
        return false;
    }
    return true;
  }

  LinkPacer pacer_;
  const bool instant_;
  const int ranks_;
  DeliverFn deliver_;

  void* segment_ = nullptr;
  std::size_t segment_bytes_ = 0;
  std::vector<Ring*> rings_;  ///< views into the mapped segment
  std::unique_ptr<std::mutex[]> producer_locks_;

  std::atomic<std::int64_t> submitted_{0};
  std::atomic<std::int64_t> next_seq_{0};
  std::atomic<std::uint64_t> doorbell_{0};  ///< chunks ever published

  std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<PendingRec, std::vector<PendingRec>, Later> pending_;
  bool stop_ = false;

  std::thread::id drain_id_{};
  std::thread drain_;  // started last, joined in dtor
};

}  // namespace

std::unique_ptr<Conduit> make_shm_conduit(const NetworkModel& model,
                                          int ranks,
                                          Conduit::DeliverFn deliver) {
  return std::make_unique<ShmConduit>(model, ranks, std::move(deliver));
}

#else  // !OMPC_HAVE_SHM

std::unique_ptr<Conduit> make_shm_conduit(const NetworkModel&, int,
                                          Conduit::DeliverFn) {
  throw ConduitError(
      "shm conduit unavailable: this platform has no POSIX shared memory "
      "(shm_open); use OMPC_CONDUIT=inprocess");
}

#endif

}  // namespace ompc::mpi
