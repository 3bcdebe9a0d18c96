// The Universe owns the simulated cluster: one mailbox per rank, the
// transport conduit, the one-sided window registry and the communicator
// context allocator. Universe::run spawns one thread per rank (DESIGN.md
// decision 1: ranks are threads whose address spaces are separated by
// discipline — all inter-rank data flows through messages).
//
// Transport split (GASNet-style): the universe is the transport-independent
// core — liveness, matching, counting, one-sided op completion — while the
// Conduit behind post() owns staging, pacing and the delivery thread. See
// conduit.hpp for the available transports and the OMPC_CONDUIT override.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "minimpi/comm.hpp"
#include "minimpi/conduit.hpp"
#include "minimpi/mailbox.hpp"
#include "minimpi/window.hpp"

namespace ompc::mpi {

struct UniverseOptions {
  int ranks = 2;
  NetworkModel network{};
  /// Number of pre-created communicator contexts (the paper's event system
  /// round-robins events over these; see Comm selection in src/core).
  int comms = 1;
  /// Fault injection: ranks to kill at fixed offsets from run() start. The
  /// same effect as calling kill_rank() for each entry once run() begins.
  std::vector<KillSpec> kills;
  /// Transport selection; the OMPC_CONDUIT environment variable overrides
  /// it process-wide (validated at construction, see conduit.hpp).
  ConduitKind conduit = ConduitKind::InProcess;
};

/// Per-rank execution context handed to the rank main function.
class RankContext {
 public:
  RankContext(Universe& universe, Rank rank)
      : universe_(&universe), rank_(rank) {}

  Rank rank() const noexcept { return rank_; }
  int num_ranks() const noexcept;
  Universe& universe() const noexcept { return *universe_; }

  /// The world communicator (context 0).
  Comm world() const;
  /// One of the pre-created communicators, index in [0, options().comms).
  Comm comm(int index) const;

 private:
  Universe* universe_;
  Rank rank_;
};

class Universe {
 public:
  explicit Universe(const UniverseOptions& opts);
  ~Universe();

  Universe(const Universe&) = delete;
  Universe& operator=(const Universe&) = delete;

  /// Runs `rank_main` on every rank (one thread each) and joins them all.
  /// The first rank to throw anything but a RankKilledError aborts the run
  /// (like MPI_Abort): every other rank is killed, and that first error is
  /// rethrown once all ranks have joined.
  void run(const std::function<void(RankContext&)>& rank_main);

  /// Convenience: construct + run.
  static void launch(const UniverseOptions& opts,
                     const std::function<void(RankContext&)>& rank_main);

  const UniverseOptions& options() const noexcept { return opts_; }
  int num_ranks() const noexcept { return opts_.ranks; }

  /// The transport actually in use (after the OMPC_CONDUIT override).
  ConduitKind conduit_kind() const noexcept { return conduit_kind_; }
  const char* conduit_name() const noexcept { return conduit_->name(); }

  /// Communicator view for `rank` on pre-created context `index`.
  Comm comm(Rank rank, int index = 0);

  /// Allocates a fresh communicator context (Comm::dup).
  ContextId allocate_context();

  // --- fault injection (paper §5: failures must be testable) ------------

  /// Schedules rank `r` to die `at_ns` nanoseconds after run() starts (or
  /// immediately, if run() is already past that point). Death poisons the
  /// rank's mailbox — its blocked receives throw RankKilledError so the
  /// rank thread unwinds — fails its pending one-sided operations, and
  /// silently drops all its future traffic.
  void kill_rank(Rank r, std::int64_t at_ns);

  /// Whether `r` has been killed by fault injection.
  bool is_dead(Rank r) const {
    return dead_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
  }

  /// Total messages put on the wire (two-sided, one-sided and acks alike).
  std::int64_t messages_sent() const noexcept {
    return messages_sent_.load(std::memory_order_relaxed);
  }

  // --- internal transport (used by Comm) -------------------------------
  void post(Envelope&& env);
  Mailbox& mailbox(Rank rank);
  WindowRegistry& windows() noexcept { return windows_; }

  /// Registers a pending one-sided op and posts its envelope. For gets,
  /// `get_dst`/`get_capacity` describe the origin's landing buffer. The
  /// returned request completes when the bytes have landed (put: ack from
  /// the target; get: reply copied into the buffer); it completes
  /// exceptionally (RankKilledError) when origin or target dies first.
  Request rma_start(Envelope&& env, std::byte* get_dst = nullptr,
                    std::size_t get_capacity = 0);

  /// Waits for every pending one-sided op of `origin` toward `target`
  /// (kAnySource: toward anyone). Throws RankKilledError like wait().
  void rma_flush(Rank origin, Rank target);

 private:
  /// Conduit delivery callback: two-sided traffic goes to the mailbox,
  /// one-sided ops are executed here (window write / read + ack).
  void deliver_envelope(Envelope&& env);
  void rma_complete(Envelope&& env);  ///< PutAck / GetReply at the origin
  void rma_fail(std::uint64_t op_id, Rank dead);
  void fail_rma_ops_of(Rank r);

  void execute_kill(Rank r);
  void reaper_main();

  UniverseOptions opts_;
  ConduitKind conduit_kind_ = ConduitKind::InProcess;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<ContextId> next_context_;
  std::atomic<std::int64_t> messages_sent_{0};

  // One-sided state: exposed regions plus the origin-side table of
  // operations whose completion (ack/reply) is still in flight.
  WindowRegistry windows_;
  struct PendingRma {
    Rank origin = -1;
    Rank target = -1;
    std::shared_ptr<detail::RequestState> state;
  };
  std::mutex rma_mutex_;
  std::unordered_map<std::uint64_t, PendingRma> pending_rma_;
  std::atomic<std::uint64_t> next_op_id_{1};

  // Fault injection: pending kills ordered by deadline, executed by the
  // reaper thread while run() is active.
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::mutex kill_mutex_;
  std::condition_variable kill_cv_;
  std::vector<KillSpec> pending_kills_;  ///< at_ns relative to run() start
  TimePoint run_start_{};
  bool running_ = false;
  bool reaper_stop_ = false;
  std::thread reaper_;

  std::unique_ptr<Conduit> conduit_;  // last: drains before members vanish
};

}  // namespace ompc::mpi
