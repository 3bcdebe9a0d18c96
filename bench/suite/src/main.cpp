// ompcbench: end-to-end and per-layer benchmark of the OMPC runtime.
//
//   ompcbench --workload NAME [--seed N] [--trace 0|1|FILE] [--out FILE]
//   ompcbench --list        workload names, one per line
//   ompcbench --selftest    arithmetic checks + a 1 s run of each workload
//
// Prints `workload metric value unit n=N` lines, then, as the last line of
// standard output, the result object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced (--trace 0), the per-layer
// metrics traced (--trace 1, or a FILE that receives a Chrome trace of the
// first 200 waves). --out appends the result, tagged with its workload,
// seed and mode, to FILE as one JSON line (compare.py reads these). Exits
// 1 when a launch throws or fails its oracle, 2 on bad arguments.
//
// The run length is fixed by the benchmark (RunConfig::seconds), so both
// sides of a paired comparison measure for the same time. `--seconds S` is
// accepted for harnesses that pass the declared run length along, and is
// refused unless S is that length.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "run.hpp"

namespace ompcbench {
int selftest();
}

namespace {

using namespace ompcbench;

/// Ends the process once it outlives `limit`: a launch that never returns
/// (a hang inside the runtime) then fails the run with a message instead of
/// stalling it.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "ompcbench: still running after %lld s, a launch hung\n",
                         static_cast<long long>(limit.count()));
            std::_Exit(1);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: it uses the members above
};

int usage(const char* why) {
  std::fprintf(stderr,
               "ompcbench: %s\n"
               "usage: ompcbench --workload NAME [--seed N] "
               "[--trace 0|1|FILE] [--out FILE]\n"
               "       ompcbench --list | --selftest\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19)
    return false;
  *out = std::stoull(s);
  return true;
}

std::string out_record(const std::string& workload, const RunConfig& cfg,
                       const Result& r) {
  std::string n = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    n += (i ? ", \"" : "\"") + r.metrics[i].name +
         "\": " + std::to_string(r.metrics[i].n);
  n += "}";
  return "{\"workload\": \"" + workload + "\", \"seed\": " +
         std::to_string(cfg.seed) + ", \"seconds\": " +
         json_number(cfg.seconds) + ", \"trace\": " + (cfg.trace ? "1" : "0") +
         ", \"result\": " + result_json(r) + ", \"n\": " + n + "}";
}

}  // namespace

int main(int argc, char** argv) {
  // Each workload fixes its own conduit; the process-wide override would
  // silently move every workload onto one transport.
  ::unsetenv("OMPC_CONDUIT");

  RunConfig cfg;
  std::string workload, out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const Workload& w : workloads()) std::printf("%s\n", w.name.c_str());
      return 0;
    }
    if (arg == "--selftest") {
      const Watchdog watchdog(std::chrono::seconds(180));
      return selftest();
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    std::uint64_t num = 0;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, &cfg.seed)) return usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      if (!parse_u64(val, &num) || static_cast<double>(num) != cfg.seconds)
        return usage(("the run length is fixed at " + json_number(cfg.seconds) +
                      " s; --seconds must say so")
                         .c_str());
    } else if (arg == "--trace") {
      cfg.trace = val != "0";
      if (val != "0" && val != "1") cfg.trace_file = val;
    } else if (arg == "--out") {
      out = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  Result r;
  try {
    const Watchdog watchdog(std::chrono::seconds(60 + 3 * static_cast<long>(cfg.seconds)));
    r = run_workload(*w, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ompcbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  std::fputs(text_lines(w->name, r).c_str(), stdout);
  std::printf("%s\n", result_json(r).c_str());
  std::fflush(stdout);
  if (!out.empty()) {
    std::ofstream f(out, std::ios::app);
    f << out_record(w->name, cfg, r) << '\n';
    if (!f) {
      std::fprintf(stderr, "ompcbench: cannot append to %s\n", out.c_str());
      return 1;
    }
  }
  return r.correct ? 0 : 1;
}
