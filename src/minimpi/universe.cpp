#include "minimpi/universe.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "common/log.hpp"

namespace ompc::mpi {

int RankContext::num_ranks() const noexcept { return universe_->num_ranks(); }

Comm RankContext::world() const { return universe_->comm(rank_, 0); }

Comm RankContext::comm(int index) const { return universe_->comm(rank_, index); }

Universe::Universe(const UniverseOptions& opts)
    : opts_(opts), next_context_(opts.comms) {
  OMPC_CHECK_MSG(opts_.ranks >= 1, "universe needs at least one rank");
  OMPC_CHECK_MSG(opts_.comms >= 1, "universe needs at least one communicator");
  OMPC_CHECK_MSG(opts_.network.channels >= 1, "network needs >= 1 channel");
  mailboxes_.reserve(static_cast<std::size_t>(opts_.ranks));
  for (int r = 0; r < opts_.ranks; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  dead_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(std::max(1, opts_.ranks)));
  for (int r = 0; r < opts_.ranks; ++r) dead_[static_cast<std::size_t>(r)] = false;
  // Transport selection is validated here, construction time, so an unknown
  // OMPC_CONDUIT value or an unavailable transport fails loudly before any
  // rank runs (both throw ConduitError with an actionable message).
  conduit_kind_ = resolve_conduit_kind(opts_.conduit);
  conduit_ = make_conduit(
      conduit_kind_, opts_.network, opts_.ranks,
      [this](Envelope&& env) { deliver_envelope(std::move(env)); });
}

Universe::~Universe() = default;

void Universe::execute_kill(Rank r) {
  OMPC_CHECK(r >= 0 && r < opts_.ranks);
  bool expected = false;
  if (!dead_[static_cast<std::size_t>(r)].compare_exchange_strong(expected,
                                                                  true))
    return;
  OMPC_LOG_WARN("fault injection: killing rank " << r);
  mailbox(r).poison(r);
  // One-sided ops are not posted receives, so poisoning cannot reach them:
  // fail every pending op that originates from or targets the corpse, or
  // their waiters would block forever.
  fail_rma_ops_of(r);
}

void Universe::kill_rank(Rank r, std::int64_t at_ns) {
  std::lock_guard<std::mutex> lock(kill_mutex_);
  pending_kills_.push_back(KillSpec{r, at_ns});
  kill_cv_.notify_all();
}

void Universe::reaper_main() {
  std::unique_lock<std::mutex> lock(kill_mutex_);
  for (;;) {
    if (reaper_stop_) return;
    // Fire everything that is due; find the next deadline.
    const std::int64_t elapsed =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             run_start_)
            .count();
    std::int64_t next_due = -1;
    for (auto it = pending_kills_.begin(); it != pending_kills_.end();) {
      if (it->at_ns <= elapsed) {
        const Rank r = it->rank;
        it = pending_kills_.erase(it);
        lock.unlock();
        execute_kill(r);
        lock.lock();
        // Restart the scan: the list may have changed while unlocked.
        it = pending_kills_.begin();
        continue;
      }
      if (next_due < 0 || it->at_ns < next_due) next_due = it->at_ns;
      ++it;
    }
    // Re-check before sleeping: run() may have asked to stop while a kill
    // executed unlocked (its victim unwinding is what lets run() finish).
    if (reaper_stop_) return;
    if (next_due < 0) {
      kill_cv_.wait(lock);
    } else {
      kill_cv_.wait_for(lock, std::chrono::nanoseconds(next_due - elapsed));
    }
  }
}

void Universe::run(const std::function<void(RankContext&)>& rank_main) {
  const int n = opts_.ranks;
  std::mutex error_mutex;
  std::exception_ptr first_error;  // guarded by error_mutex
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));

  {
    std::lock_guard<std::mutex> lock(kill_mutex_);
    run_start_ = Clock::now();
    running_ = true;
    reaper_stop_ = false;
    for (const KillSpec& k : opts_.kills) pending_kills_.push_back(k);
  }
  reaper_ = std::thread([this] {
    log::set_thread_label("reaper");
    reaper_main();
  });

  for (int r = 0; r < n; ++r) {
    threads.emplace_back([this, n, r, &rank_main, &error_mutex, &first_error] {
      log::set_thread_label("r" + std::to_string(r));
      RankContext ctx(*this, r);
      try {
        rank_main(ctx);
      } catch (const RankKilledError&) {
        // A killed rank unwinding is the *intended* fault-injection
        // behaviour, not an error of the run.
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error) return;  // the universe is already aborting
          first_error = std::current_exception();
        }
        // MPI_Abort semantics: a peer blocked on this rank (a posted
        // receive from it, an ack it owes) would wait forever, so every
        // other rank dies and unwinds like a fault-injection kill.
        OMPC_LOG_WARN("rank " << r << " failed; aborting every other rank");
        for (Rank other = 0; other < n; ++other)
          if (other != r) execute_kill(other);
      }
    });
  }
  for (auto& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(kill_mutex_);
    running_ = false;
    reaper_stop_ = true;
    pending_kills_.clear();
    kill_cv_.notify_all();
  }
  reaper_.join();
  if (first_error) std::rethrow_exception(first_error);
}

void Universe::launch(const UniverseOptions& opts,
                      const std::function<void(RankContext&)>& rank_main) {
  Universe u(opts);
  u.run(rank_main);
}

Comm Universe::comm(Rank rank, int index) {
  OMPC_CHECK(rank >= 0 && rank < opts_.ranks);
  OMPC_CHECK_MSG(index >= 0 && index < opts_.comms,
                 "communicator index " << index << " out of range (comms="
                                       << opts_.comms << ')');
  return Comm(this, index, rank);
}

ContextId Universe::allocate_context() {
  return next_context_.fetch_add(1, std::memory_order_relaxed);
}

void Universe::post(Envelope&& env) {
  OMPC_CHECK(env.dst >= 0 && env.dst < opts_.ranks);
  // A dead rank neither sends nor receives: its traffic vanishes from the
  // wire (messages already in flight when it died are still delivered).
  // One-sided initiations cannot vanish silently — their origin is blocked
  // on the completion — so the pending op fails instead.
  if (is_dead(env.src) || is_dead(env.dst)) {
    if (env.op == RmaOp::Put || env.op == RmaOp::Get)
      rma_fail(env.op_id, is_dead(env.dst) ? env.dst : env.src);
    return;
  }
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  env.channel = env.context % opts_.network.channels;
  // Self-sends never cross the NIC: deliver through the local queue at
  // memory speed (what every MPI implementation and Charm++'s local-message
  // path do). Everything else goes through the transport conduit.
  if (env.src != env.dst) {
    conduit_->submit(std::move(env));
  } else {
    deliver_envelope(std::move(env));
  }
}

void Universe::deliver_envelope(Envelope&& env) {
  switch (env.op) {
    case RmaOp::None:
      mailbox(env.dst).deliver(std::move(env));
      return;
    case RmaOp::Put: {
      if (is_dead(env.dst)) return;  // corpse: bytes vanish, op was failed
      // The landing copy of a put — the one copy of the (in-process) RMA
      // data plane, counted like a delivery fill. fill() copies under the
      // registry lock so a concurrent window destroy (the target freeing
      // the block) cannot race the memcpy.
      if (windows_.fill(env.dst, env.window, env.offset, env.payload)) {
        if (!env.payload.empty()) note_payload_copy(env.tag, env.payload.size());
      } else {
        // The window vanished while the put was in flight (target freed the
        // block, e.g. during recovery). Like a payload whose receive was
        // cancelled, the bytes are dropped; the ack still completes the
        // origin so it cannot hang on memory that no longer exists.
        OMPC_LOG_WARN("put from rank " << env.src << " into unknown window "
                                       << env.window << " of rank " << env.dst
                                       << "; bytes dropped");
      }
      Envelope ack;
      ack.src = env.dst;
      ack.dst = env.src;
      ack.tag = env.tag;
      ack.context = env.context;
      ack.op = RmaOp::PutAck;
      ack.op_id = env.op_id;
      post(std::move(ack));
      return;
    }
    case RmaOp::Get: {
      if (is_dead(env.dst)) return;
      Envelope reply;
      reply.src = env.dst;
      reply.dst = env.src;
      reply.tag = env.tag;
      reply.context = env.context;
      reply.op = RmaOp::GetReply;
      reply.op_id = env.op_id;
      // Staging copy at the target (gets cannot borrow: the region may be
      // freed while the reply is in flight), done under the registry lock
      // like a put's landing copy. Counted for data tags.
      if (windows_.read(env.dst, env.window, env.offset,
                        static_cast<std::size_t>(env.rma_size),
                        &reply.payload)) {
        if (env.rma_size != 0)
          note_payload_copy(env.tag, static_cast<std::size_t>(env.rma_size));
      } else {
        // Unknown window: reply empty. The origin's Status.count stays 0,
        // so a caller that checks sees the short read.
        OMPC_LOG_WARN("get by rank " << env.src << " of unknown window "
                                     << env.window << " on rank " << env.dst);
      }
      post(std::move(reply));
      return;
    }
    case RmaOp::PutAck:
    case RmaOp::GetReply:
      rma_complete(std::move(env));
      return;
  }
}

Request Universe::rma_start(Envelope&& env, std::byte* get_dst,
                            std::size_t get_capacity) {
  auto state = std::make_shared<detail::RequestState>();
  state->buffer = get_dst;
  state->capacity = get_capacity;
  const std::uint64_t id = next_op_id_.fetch_add(1, std::memory_order_relaxed);
  env.op_id = id;
  {
    std::lock_guard<std::mutex> lock(rma_mutex_);
    pending_rma_.emplace(id, PendingRma{env.src, env.dst, state});
  }
  // post() fails the op (via rma_fail) when either end is already dead, and
  // execute_kill fails it when one dies while the ack is pending — so the
  // returned request can never be left hanging.
  post(std::move(env));
  return Request(std::move(state));
}

void Universe::rma_complete(Envelope&& env) {
  std::shared_ptr<detail::RequestState> state;
  {
    std::lock_guard<std::mutex> lock(rma_mutex_);
    const auto it = pending_rma_.find(env.op_id);
    if (it == pending_rma_.end()) return;  // op already failed by a kill
    state = std::move(it->second.state);
    pending_rma_.erase(it);
  }
  std::size_t landed = 0;
  if (env.op == RmaOp::GetReply && state->buffer != nullptr &&
      !env.payload.empty()) {
    landed = std::min(env.payload.size(), state->capacity);
    // Landing copy into the origin's buffer (the get counterpart of the
    // put's window write).
    note_payload_copy(env.tag, landed);
    std::memcpy(state->buffer, env.payload.data(), landed);
  }
  const std::size_t count =
      env.op == RmaOp::GetReply ? env.payload.size() : landed;
  state->complete(Status{env.src, env.tag, count});
}

void Universe::rma_fail(std::uint64_t op_id, Rank dead) {
  std::shared_ptr<detail::RequestState> state;
  {
    std::lock_guard<std::mutex> lock(rma_mutex_);
    const auto it = pending_rma_.find(op_id);
    if (it == pending_rma_.end()) return;
    state = std::move(it->second.state);
    pending_rma_.erase(it);
  }
  state->kill(dead);
}

void Universe::fail_rma_ops_of(Rank r) {
  std::vector<std::shared_ptr<detail::RequestState>> victims;
  {
    std::lock_guard<std::mutex> lock(rma_mutex_);
    for (auto it = pending_rma_.begin(); it != pending_rma_.end();) {
      if (it->second.origin == r || it->second.target == r) {
        victims.push_back(std::move(it->second.state));
        it = pending_rma_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& s : victims) s->kill(r);
}

void Universe::rma_flush(Rank origin, Rank target) {
  std::vector<std::shared_ptr<detail::RequestState>> waits;
  {
    std::lock_guard<std::mutex> lock(rma_mutex_);
    for (const auto& [id, op] : pending_rma_) {
      (void)id;
      if (op.origin != origin) continue;
      if (target != kAnySource && op.target != target) continue;
      waits.push_back(op.state);
    }
  }
  for (auto& s : waits) Request(s).wait();
}

Mailbox& Universe::mailbox(Rank rank) {
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

}  // namespace ompc::mpi
