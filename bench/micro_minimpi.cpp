// Transport-conduit microbenchmark: per-conduit ping-pong latency and
// bandwidth, one-sided put cost, and the wire price of a worker->worker
// Exchange (one RmaPut event) — reported as machine-checkable JSON
// (BENCH_minimpi.json) so regressions fail CI instead of drifting.
//
// Asserted invariant (exit 1 on violation):
//  - an Exchange puts exactly kExchangeMessages messages on the wire: the
//    RmaPut announce, the put, its ack and the completion, plus the Alloc
//    round trip on the consumer. A change to the count is a protocol change
//    and must update the constant (and BENCH_minimpi.json) on purpose.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/data_manager.hpp"
#include "core/runtime.hpp"
#include "minimpi/mpi.hpp"

namespace {

using namespace ompc;
using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

mpi::UniverseOptions pair_opts(mpi::ConduitKind kind) {
  mpi::UniverseOptions o;
  o.ranks = 2;
  o.conduit = kind;
  return o;
}

/// One-way latency (us) of a small-message ping-pong over `kind`.
double pingpong_us(mpi::ConduitKind kind) {
  constexpr int kWarmup = 100;
  constexpr int kHops = 2000;
  constexpr mpi::Tag kTag = 20;
  double us = 0.0;
  mpi::Universe::launch(pair_opts(kind), [&](mpi::RankContext& ctx) {
    mpi::Comm comm = ctx.world();
    std::uint64_t token = 1;
    const auto bounce = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        if (ctx.rank() == 0) {
          comm.send(&token, sizeof token, 1, kTag);
          comm.recv(&token, sizeof token, 1, kTag + 1);
        } else {
          comm.recv(&token, sizeof token, 0, kTag);
          comm.send(&token, sizeof token, 0, kTag + 1);
        }
      }
    };
    bounce(kWarmup);
    comm.barrier();
    const auto t0 = Clock::now();
    bounce(kHops);
    if (ctx.rank() == 0) us = elapsed_us(t0) / (2.0 * kHops);
  });
  return us;
}

/// Streaming bandwidth (MB/s) of 1 MiB messages over `kind`. The sender
/// drains through a trailing ack so eager submission cannot shortcut the
/// measurement.
double stream_MBps(mpi::ConduitKind kind) {
  constexpr std::size_t kBytes = 1 << 20;
  constexpr int kMsgs = 64;
  constexpr mpi::Tag kTag = 24;
  double mbps = 0.0;
  mpi::Universe::launch(pair_opts(kind), [&](mpi::RankContext& ctx) {
    mpi::Comm comm = ctx.world();
    Bytes buf(kBytes, std::byte{0x42});
    comm.barrier();
    if (ctx.rank() == 0) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kMsgs; ++i) comm.send(buf.data(), kBytes, 1, kTag);
      std::uint64_t done = 0;
      comm.recv(&done, sizeof done, 1, kTag + 1);
      mbps = static_cast<double>(kMsgs) * static_cast<double>(kBytes) /
             elapsed_us(t0);  // bytes/us == MB/s
    } else {
      for (int i = 0; i < kMsgs; ++i) comm.recv(buf.data(), kBytes, 0, kTag);
      const std::uint64_t done = 1;
      comm.send(&done, sizeof done, 0, kTag + 1);
    }
  });
  return mbps;
}

/// Completion latency (us) of a small one-sided put over `kind`.
double put_us(mpi::ConduitKind kind) {
  constexpr int kWarmup = 50;
  constexpr int kOps = 1000;
  double us = 0.0;
  mpi::Universe::launch(pair_opts(kind), [&](mpi::RankContext& ctx) {
    mpi::Comm comm = ctx.world();
    if (ctx.rank() == 1) {
      std::uint64_t cell = 0;
      mpi::Window win = comm.win_create(1, &cell, sizeof cell);
      comm.barrier();  // window is up
      comm.barrier();  // origin is done
    } else {
      comm.barrier();
      std::uint64_t v = 7;
      for (int i = 0; i < kWarmup; ++i)
        comm.put(1, 1, 0, mpi::Payload::copy_of(&v, sizeof v)).wait();
      const auto t0 = Clock::now();
      for (int i = 0; i < kOps; ++i)
        comm.put(1, 1, 0, mpi::Payload::copy_of(&v, sizeof v)).wait();
      us = elapsed_us(t0) / kOps;
      comm.barrier();
    }
  });
  return us;
}

/// What exchange_messages() must return (see the header comment).
constexpr std::int64_t kExchangeMessages = 6;

/// Wire messages of one worker->worker Exchange: a buffer is produced on
/// worker 1, then demanded by worker 2; the delta of
/// Universe::messages_sent around the second prepare_args is exactly the
/// Exchange protocol cost.
std::int64_t exchange_messages() {
  core::ClusterOptions opts;
  opts.num_workers = 2;
  opts.network = {};
  mpi::UniverseOptions uopts;
  uopts.ranks = opts.ranks();
  uopts.comms = 1 + opts.vci;
  std::int64_t delta = 0;
  mpi::Universe universe(uopts);
  universe.run([&](mpi::RankContext& ctx) {
    if (ctx.rank() == 0) {
      core::EventSystem events(ctx, opts, nullptr, nullptr);
      core::DataManager dm(events, opts);
      std::vector<std::uint64_t> buf(64, 9);
      dm.register_buffer(buf.data(), buf.size() * sizeof(std::uint64_t));
      const void* args[] = {buf.data()};
      dm.prepare_args(1, args);
      dm.after_write(1, {omp::inout(buf.data())});
      const std::int64_t before = universe.messages_sent();
      dm.prepare_args(2, args);  // worker 1 -> worker 2
      delta = universe.messages_sent() - before;
      if (dm.stats().exchanges.load() != 1) {
        std::fprintf(stderr, "VALIDATION FAILED: expected 1 exchange\n");
        std::exit(1);
      }
      dm.cleanup_all();
      events.shutdown_cluster();
    } else {
      core::WorkerMemory memory(&ctx.universe(), ctx.rank());
      omp::TaskRuntime pool(1);
      core::EventSystem events(ctx, opts, &memory, &pool);
      events.wait_until_stopped();
    }
  });
  return delta;
}

struct ConduitNumbers {
  RunningStats pingpong_us;
  RunningStats stream_MBps;
  RunningStats put_us;
};

}  // namespace

int main() {
  const int reps = ompc::bench::repetitions();
  const mpi::ConduitKind kinds[] = {mpi::ConduitKind::InProcess,
                                    mpi::ConduitKind::Shm};

  std::printf("=== micro_minimpi: transport conduits (%d reps) ===\n", reps);
  if (const char* env = std::getenv("OMPC_CONDUIT"))
    std::printf("note: OMPC_CONDUIT=%s overrides both rows\n", env);

  ConduitNumbers rows[2];
  for (int k = 0; k < 2; ++k) {
    for (int rep = 0; rep < reps; ++rep) {
      rows[k].pingpong_us.add(pingpong_us(kinds[k]));
      rows[k].stream_MBps.add(stream_MBps(kinds[k]));
      rows[k].put_us.add(put_us(kinds[k]));
    }
    std::printf(
        "%-10s ping-pong %7.2f +- %.2f us   stream %8.1f MB/s   "
        "put %7.2f us\n",
        mpi::to_string(kinds[k]), rows[k].pingpong_us.mean(),
        rows[k].pingpong_us.stddev(), rows[k].stream_MBps.mean(),
        rows[k].put_us.mean());
  }

  const std::int64_t msgs_rma = exchange_messages();
  std::printf("exchange wire messages : %lld\n",
              static_cast<long long>(msgs_rma));

  {
    std::ofstream json("BENCH_minimpi.json");
    json << "{\n"
         << "  \"bench\": \"micro_minimpi\",\n"
         << "  \"reps\": " << reps << ",\n";
    for (int k = 0; k < 2; ++k) {
      const char* name = mpi::to_string(kinds[k]);
      json << "  \"" << name
           << "_pingpong_us\": " << rows[k].pingpong_us.mean() << ",\n"
           << "  \"" << name
           << "_stream_MBps\": " << rows[k].stream_MBps.mean() << ",\n"
           << "  \"" << name << "_put_us\": " << rows[k].put_us.mean()
           << ",\n";
    }
    json << "  \"exchange_messages_rma\": " << msgs_rma << "\n"
         << "}\n";
  }
  std::printf("wrote BENCH_minimpi.json\n");

  // --- hard gate (CI fails on regression) --------------------------------
  if (msgs_rma != kExchangeMessages) {
    std::fprintf(stderr,
                 "FAIL: an exchange costs %lld wire messages (want exactly "
                 "%lld) — the one-sided forward protocol changed\n",
                 static_cast<long long>(msgs_rma),
                 static_cast<long long>(kExchangeMessages));
    return 1;
  }
  return 0;
}
