// The §5 replay log: the waves a rollback re-executes.
//
// Recovery rolls the cluster back to the last wave-boundary checkpoint and
// re-runs every wave executed since (the current generation). The waves of
// the period before it (the previous generation) are kept until the next
// checkpoint commits, because a degraded restore falls back to the prior
// checkpoint and replays from that boundary. Every entry carries its
// serialized form, which head replication ships to the shadow rank, and its
// global wave number, by which a promoted head merges the replica's log
// with the waves only the surviving control thread still holds.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/serialize.hpp"
#include "core/graph.hpp"

namespace ompc::core {

/// One logged wave: the graph replay runs, its serialized form and its
/// global wave number.
struct LoggedWave {
  ClusterGraph graph;
  Bytes blob;
  std::int64_t seq = 0;
};

/// A generation's waves in execution order. A deque: appending never
/// copies the graphs already logged, as a growing vector would.
using WaveGeneration = std::deque<LoggedWave>;

/// Two generations of logged waves. Head control thread only.
class WaveLog {
 public:
  /// Logs `wave` as wave number `seq` at the end of the current
  /// generation, serializing it once.
  void append(ClusterGraph&& wave, std::int64_t seq);

  /// A checkpoint committed: the current generation becomes the previous
  /// one and the current one starts empty.
  void cut();

  /// A restore fell back to the prior checkpoint: the previous
  /// generation's waves move ahead of the current ones, so replay starts
  /// at the prior boundary.
  void splice_previous();

  /// Head failover: rebuilds both generations from the adopted replica's
  /// blobs. The replica's current generation starts at wave `base` (the
  /// adopted checkpoint's boundary) and its previous one ends there. Waves
  /// after the replica's last one are taken from this log by wave number,
  /// whichever generation holds them: the head may have cut at a boundary
  /// the replica never learned of, so the two logs can have equal lengths
  /// yet start one boundary apart. Throws RecoveryError naming the first
  /// missing wave when this log holds a newer wave but not every one
  /// between. `buffer_size` resolves the rebuilt graphs' edge weights.
  void adopt(std::vector<Bytes> prev_blobs, std::vector<Bytes> blobs,
             std::int64_t base,
             const std::function<std::size_t(const void*)>& buffer_size);

  /// The current generation's entry numbered `seq`, or null.
  const LoggedWave* find(std::int64_t seq) const;

  const WaveGeneration& current() const noexcept { return current_; }
  const WaveGeneration& previous() const noexcept { return previous_; }

  /// Leading current-generation entries the shadow rank acknowledged (an
  /// Append update ships the rest). cut() and adopt() reset it.
  std::size_t shipped() const noexcept { return shipped_; }
  void set_shipped(std::size_t n) noexcept { shipped_ = n; }

 private:
  WaveGeneration current_;
  WaveGeneration previous_;
  std::size_t shipped_ = 0;
};

}  // namespace ompc::core
