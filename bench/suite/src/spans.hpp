// Span recording and the wave-partition arithmetic of the traced run.
//
// Spans are recorded from benchmark code only: the head thread times its
// calls into the runtime (recording, wait_all) and the benchmark's own Task
// Bench kernel times itself on whichever worker thread runs it. A wave is
// then partitioned from outside into
//
//   record | dispatch | busy | bubble | complete
//
// record   = wave start -> wait_all entry (the task-recording calls)
// dispatch = wait_all entry -> first kernel start of the wave
// busy     = time some kernel of the wave is running (union of spans)
// bubble   = no kernel running, between first kernel start and last end
// complete = last kernel end -> wait_all return
//
// which adds up to the wave span exactly, by construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ompcbench {

struct Span {
  const char* name = "";  ///< static string
  std::int64_t id = 0;
  std::int64_t parent = 0;
  int rank = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Fixed-capacity, append-only span buffer. Any thread may record: a slot
/// is reserved through one atomic index and published by a per-slot flag,
/// so the head can read the spans of a finished wave while a straggler
/// (e.g. a kernel on a rank that was just killed) is still writing its own.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// The recorder the benchmark's kernels write to.
  static SpanRecorder& global();

  /// The whole cost of a recording site while tracing is off.
  bool on() const noexcept { return on_.load(std::memory_order_relaxed); }

  /// Switches recording on or off; the buffer is allocated on first use so
  /// untraced runs never touch it. Call only between launches: the rank
  /// threads a launch starts afterwards see the new state (thread creation
  /// orders it), which is what lets on() be a relaxed load.
  void enable(bool on);

  /// Appends `s`, or counts it as dropped once the buffer is full.
  void record(const Span& s) noexcept;

  /// Committed spans in [*cursor, reserved end); advances *cursor past them.
  std::vector<Span> drain(std::size_t* cursor) const;

  /// Empties the buffer. Only while no recording site can run (between
  /// launches: every rank thread has been joined).
  void reset();

  std::int64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    Span span;
    std::atomic<bool> committed{false};
  };

  const std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<bool> on_{false};
  std::atomic<std::size_t> next_{0};
  std::atomic<std::int64_t> dropped_{0};
};

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Total length of the union of `intervals` (any order, may overlap).
std::int64_t union_length(std::vector<Interval> intervals);

struct Partition {
  std::int64_t record = 0;
  std::int64_t dispatch = 0;
  std::int64_t busy = 0;
  std::int64_t bubble = 0;
  std::int64_t complete = 0;

  std::int64_t sum() const { return record + dispatch + busy + bubble + complete; }
};

/// Partitions the wave [start, end] with wait_all entered at `wait` and the
/// wave's kernels running over `kernels`. Kernel time outside [wait, end]
/// is clipped, so the parts always sum to end - start.
Partition partition_wave(std::int64_t start, std::int64_t wait,
                         std::int64_t end, std::vector<Interval> kernels);

/// Writes `spans` as a Chrome trace (chrome://tracing, Perfetto): one
/// complete event per span, ranks as threads. Returns false on I/O error.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace ompcbench
