// Head failover and elastic membership (§5 extension).
//
// The paper's fault-tolerance design (and PR 1/5 here) survives any worker
// death but keeps the head as a single point of failure. This module turns
// recovery into membership management:
//
//  - ReplicaStore: a worker-side mailbox for the head's replicated
//    recording state (wave-log deltas + ownership/checkpoint metadata),
//    filled by HeadState events at wave boundaries. Blobs are stored
//    verbatim — deserialization cost is paid only on promotion. Checkpoint
//    snapshot bytes arrive once each, keyed by replication id, and the
//    store keeps exactly the ids the latest update lists.
//  - MembershipAgent: one per rank, the head's included — the rank's one
//    failure detector. Owns the heartbeat ring, routes failure reports to
//    the *current* head (re-sending them after a handoff so reports aimed
//    at a corpse are not lost), and on the acting head hands every report
//    to recovery. It detects head death and runs the ring election: every
//    replica holder broadcasts its generation, and the freshest one
//    promotes itself (generations are unique — exactly one rank holds the
//    latest update — so the maximum cannot tie; rank order is a defensive
//    tie-break only). The head holds no replica, so it never stands.
//  - MembershipBus: the process-level rendezvous between the election
//    (worker threads) and the surviving control thread, which adopts the
//    winner's event system and resumes from the replica. In a real MPI
//    cluster this would be the connection re-establishment layer; in the
//    simulated universe it is a registry + condition variable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/heartbeat.hpp"
#include "core/wave_log.hpp"
#include "minimpi/mpi.hpp"

namespace ompc::core {

class EventSystem;

/// Heartbeat-communicator tags of the election protocol (kFailureReportTag
/// = 8 lives in heartbeat.hpp). All messages are two u64 words.
inline constexpr mpi::Tag kElectionTag = 9;    ///< candidacy {rank, generation}
inline constexpr mpi::Tag kHeadHandoffTag = 10;  ///< result {new head, generation}

/// Worker-side store of the head's replicated recording state. apply() is
/// called from the event-handler thread; snapshot() from the control thread
/// at promotion time.
class ReplicaStore {
 public:
  /// How an update changes the accumulated wave list (mirrors the head's
  /// WaveLog lifecycle; see HeadStateHeader::reset).
  enum class Update : std::uint8_t {
    Append = 0,  ///< append the update's waves
    Reset = 1,   ///< checkpoint retaken: current waves become the previous
                 ///< generation, then append
    Full = 2,    ///< resync (shadow changed): replace both wave lists
  };

  struct Snapshot {
    std::uint64_t generation = 0;
    Bytes metadata;                ///< serialized DM/checkpoint/stats state
    std::vector<Bytes> prev_waves; ///< serialized graphs, previous period
    std::vector<Bytes> waves;      ///< serialized graphs since last capture
    SnapshotBlobs blobs;           ///< checkpoint bytes the metadata names
  };

  /// Builds one HeadState payload from the wave log's generations: the
  /// serialized `waves` from index `first_wave` on, and `prev_waves` on
  /// Full updates only. `blobs` carries the snapshot blobs the shadow does
  /// not hold yet; `blob_ids` lists every id the new metadata references.
  /// Layout:
  ///   blob metadata | [Full: u64 n, n × blob] | u64 n, n × blob |
  ///   u64 n, n × {u64 id, blob} | u64 n, n × u64 id
  static Bytes encode(Update kind, std::span<const std::byte> metadata,
                      const WaveGeneration& prev_waves,
                      const WaveGeneration& waves, std::size_t first_wave,
                      const SnapshotBlobs& blobs,
                      std::span<const std::uint64_t> blob_ids);

  /// Ingests one encode() payload. Afterwards the store holds exactly the
  /// blobs the update lists: carried ones, plus (except on Full, which
  /// re-sends everything) ones it already held. A listed id found in
  /// neither place throws CheckError naming it, and leaves the store as it
  /// was. Thread-safe.
  void apply(Update kind, std::uint64_t generation, const Bytes& payload);

  Snapshot snapshot() const;
  std::uint64_t generation() const;

 private:
  mutable std::mutex mutex_;
  Snapshot state_;
};

/// Process-level coordination between the per-rank election agents and the
/// surviving control thread during a head failover.
class MembershipBus {
 public:
  struct Node {
    EventSystem* events = nullptr;
    ReplicaStore* replica = nullptr;
  };

  void register_node(mpi::Rank r, EventSystem* events, ReplicaStore* replica);
  Node node(mpi::Rank r) const;

  /// Called by the election winner's agent. Bumps the epoch and wakes
  /// await_new_head().
  void announce_new_head(mpi::Rank r);
  std::uint64_t epoch() const;
  mpi::Rank current_head() const;

  /// Blocks until a head newer than `seen_epoch` is announced; nullopt on
  /// timeout (no surviving replica holder — failover impossible).
  std::optional<mpi::Rank> await_new_head(std::uint64_t seen_epoch,
                                          std::int64_t timeout_ms);

  /// Post-failover failure routing: the promoted rank's agent feeds
  /// detector reports here; the control thread installs a handler once it
  /// has adopted the new head. Reports arriving before that are buffered.
  void set_failure_handler(std::function<void(mpi::Rank)> fn);
  void report_failure(mpi::Rank dead);

  /// Teardown latch: the promoted rank's main thread must not destroy its
  /// event system while the control thread still drives it. The control
  /// thread releases when completely done (all paths, error unwinds
  /// included); a promoted worker waits before unwinding.
  void release_control();
  void await_control_release();

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<mpi::Rank, Node> nodes_;
  mpi::Rank head_ = 0;
  std::uint64_t epoch_ = 0;
  std::function<void(mpi::Rank)> failure_handler_;
  std::vector<mpi::Rank> buffered_failures_;
  bool control_released_ = false;
};

/// Per-rank membership agent: heartbeat ring + failure-report routing +
/// head-death election. Rank 0 starts as the head.
class MembershipAgent {
 public:
  /// `comm` must be the dedicated heartbeat communicator. `bus` must outlive
  /// the agent, and so must `replica` when given; a rank without one (the
  /// head) listens in elections but never stands. `report` receives, on the
  /// agent's threads, every worker failure this rank learns of while it is
  /// the acting head.
  MembershipAgent(mpi::Comm comm, HeartbeatRing::Options hb,
                  MembershipBus* bus, ReplicaStore* replica,
                  std::function<void(mpi::Rank)> report);
  ~MembershipAgent();

  MembershipAgent(const MembershipAgent&) = delete;
  MembershipAgent& operator=(const MembershipAgent&) = delete;

  void stop();

 private:
  void agent_main();
  void step();
  void drain();
  void on_ring_failure(mpi::Rank dead);
  void begin_election();
  void finish_election();
  void send_word2(mpi::Rank to, mpi::Tag tag, std::uint64_t a, std::uint64_t b);
  void report_to_head(mpi::Rank dead);

  mpi::Comm comm_;
  MembershipBus* bus_;
  ReplicaStore* replica_;  ///< null: never an election candidate
  std::function<void(mpi::Rank)> report_;
  std::int64_t election_window_ns_;  ///< max(2 periods, 10 ms)

  /// The head this agent reports failures to.
  std::atomic<mpi::Rank> current_head_{0};
  std::atomic<bool> head_suspect_{false};  ///< ring flagged the head dead

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;  ///< cuts the agent loop's wait short
  bool stop_ = false;

  // Agent-thread state (no locking needed beyond known_dead_).
  bool electing_ = false;
  std::int64_t window_end_ns_ = 0;
  std::map<mpi::Rank, std::uint64_t> candidacies_;

  std::mutex dead_mutex_;
  std::set<mpi::Rank> known_dead_;  ///< locally detected, re-sent on handoff

  std::unique_ptr<HeartbeatRing> ring_;
  std::thread thread_;
};

}  // namespace ompc::core
