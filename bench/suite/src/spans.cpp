#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace ompcbench {

SpanRecorder& SpanRecorder::global() {
  // 2^18 spans hold the largest single launch of any workload (a
  // tb_overhead launch records ~19 spans per wave over 1,000 waves).
  static SpanRecorder recorder(std::size_t{1} << 18);
  return recorder;
}

void SpanRecorder::enable(bool on) {
  if (on && !slots_) slots_ = std::make_unique<Slot[]>(capacity_);
  on_.store(on, std::memory_order_relaxed);
}

void SpanRecorder::record(const Span& s) noexcept {
  const std::size_t at = next_.fetch_add(1, std::memory_order_relaxed);
  if (at >= capacity_ || !slots_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slots_[at].span = s;
  slots_[at].committed.store(true, std::memory_order_release);
}

std::vector<Span> SpanRecorder::drain(std::size_t* cursor) const {
  std::vector<Span> out;
  if (!slots_) return out;
  const std::size_t end =
      std::min(next_.load(std::memory_order_acquire), capacity_);
  for (std::size_t i = *cursor; i < end; ++i)
    if (slots_[i].committed.load(std::memory_order_acquire))
      out.push_back(slots_[i].span);
  *cursor = std::max(*cursor, end);
  return out;
}

void SpanRecorder::reset() {
  const std::size_t end =
      std::min(next_.load(std::memory_order_relaxed), capacity_);
  for (std::size_t i = 0; slots_ && i < end; ++i)
    slots_[i].committed.store(false, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
}

std::int64_t union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t total = 0;
  std::int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= cur_end) {
      cur_end = std::max(cur_end, iv.end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = iv.start;
    cur_end = iv.end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

Partition partition_wave(std::int64_t start, std::int64_t wait,
                         std::int64_t end, std::vector<Interval> kernels) {
  wait = std::clamp(wait, start, end);
  Partition p;
  p.record = wait - start;
  std::int64_t first = end, last = wait;
  for (Interval& k : kernels) {
    k.start = std::clamp(k.start, wait, end);
    k.end = std::clamp(k.end, wait, end);
    if (k.end <= k.start) continue;
    first = std::min(first, k.start);
    last = std::max(last, k.end);
  }
  if (first >= last) {  // no kernel ran inside the wave
    p.dispatch = end - wait;
    return p;
  }
  p.dispatch = first - wait;
  p.busy = union_length(std::move(kernels));
  p.bubble = (last - first) - p.busy;
  p.complete = end - last;
  return p;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = 0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (i == 0 || spans[i].start_ns < t0) t0 = spans[i].start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char line[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld}}\n",
                  i == 0 ? "" : ",", s.name, s.rank,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent));
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace ompcbench
