#include "core/wave_log.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <string>

#include "core/fault.hpp"

namespace ompc::core {

void WaveLog::append(ClusterGraph&& wave, std::int64_t seq) {
  Bytes blob = serialize_graph(wave);
  current_.push_back(LoggedWave{std::move(wave), std::move(blob), seq});
}

void WaveLog::cut() {
  previous_ = std::move(current_);
  current_.clear();
  shipped_ = 0;
}

void WaveLog::splice_previous() {
  current_.insert(current_.begin(), std::make_move_iterator(previous_.begin()),
                  std::make_move_iterator(previous_.end()));
  previous_.clear();
  shipped_ = 0;
}

void WaveLog::adopt(std::vector<Bytes> prev_blobs, std::vector<Bytes> blobs,
                    std::int64_t base,
                    const std::function<std::size_t(const void*)>& buffer_size) {
  // This control thread is the surviving client: waves it ran that never
  // reached the shadow are resubmitted from its own log, like a client
  // re-issuing unacknowledged requests.
  std::int64_t newest = -1;
  const auto local = [this, &newest](std::int64_t seq) -> LoggedWave* {
    LoggedWave* hit = nullptr;
    for (WaveGeneration* gen : {&current_, &previous_}) {
      for (LoggedWave& w : *gen) {
        newest = std::max(newest, w.seq);
        if (w.seq == seq) hit = &w;
      }
    }
    return hit;
  };
  std::int64_t next = base + static_cast<std::int64_t>(blobs.size());
  while (LoggedWave* w = local(next)) {
    blobs.push_back(std::move(w->blob));
    ++next;
  }
  if (newest >= next)
    throw RecoveryError(
        "head failover cannot reconstruct wave " + std::to_string(next) +
        ": the replica ends before it and the client cache holds only waves "
        "up to " + std::to_string(newest) + " with a gap between");

  const auto rebuild = [&buffer_size](std::vector<Bytes>& from,
                                      std::int64_t seq) {
    WaveGeneration gen;
    for (Bytes& b : from) {
      ClusterGraph g = deserialize_graph(
          std::span<const std::byte>(b.data(), b.size()), buffer_size);
      gen.push_back(LoggedWave{std::move(g), std::move(b), seq++});
    }
    return gen;
  };
  current_ = rebuild(blobs, base);
  previous_ =
      rebuild(prev_blobs, base - static_cast<std::int64_t>(prev_blobs.size()));
  shipped_ = 0;
}

const LoggedWave* WaveLog::find(std::int64_t seq) const {
  for (auto it = current_.rbegin(); it != current_.rend(); ++it)
    if (it->seq == seq) return &*it;
  return nullptr;
}

}  // namespace ompc::core
