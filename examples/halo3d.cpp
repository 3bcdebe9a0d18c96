// 3D halo-exchange example: a periodic grid of cubic subdomains advanced by
// a 7-point stencil, each iteration two target tasks per subdomain (pack
// the six boundary faces, then update from the facing neighbor faces). The
// iteration structure never changes, so steady state runs entirely on the
// schedule cache, and the runtime pre-posts the wave's receives and
// pre-arms its one-sided puts instead of renegotiating them every iteration.
//
// Usage: ./build/halo3d [nx ny nz] [cells] [iters] [workers]
#include <cstdio>
#include <cstdlib>

#include "common/time.hpp"
#include "halo/halo3d.hpp"

int main(int argc, char** argv) {
  ompc::halo::HaloSpec spec;
  spec.nx = argc > 1 ? std::atoi(argv[1]) : 2;
  spec.ny = argc > 2 ? std::atoi(argv[2]) : 2;
  spec.nz = argc > 3 ? std::atoi(argv[3]) : 2;
  spec.cells = argc > 4 ? std::atoi(argv[4]) : 8;
  spec.iters = argc > 5 ? std::atoi(argv[5]) : 10;
  const int workers = argc > 6 ? std::atoi(argv[6]) : 4;

  ompc::core::ClusterOptions opts;
  opts.num_workers = workers;

  const ompc::halo::HaloResult r = ompc::halo::run_halo3d(opts, spec);
  const std::uint64_t want = ompc::halo::serial_checksum(spec);

  std::printf("halo3d: %dx%dx%d subdomains of %d^3 cells, %d iters on %d "
              "workers\n",
              spec.nx, spec.ny, spec.nz, spec.cells, spec.iters, workers);
  double mean_ms = 0.0;
  for (const std::int64_t ns : r.iter_ns) mean_ms += ompc::ns_to_ms(ns);
  if (!r.iter_ns.empty()) mean_ms /= static_cast<double>(r.iter_ns.size());
  std::printf("mean iteration %.2f ms; %lld waves from the schedule cache, "
              "%lld armed, %lld allocation re-uses, %lld messages\n",
              mean_ms, static_cast<long long>(r.stats.schedule_cache_hits),
              static_cast<long long>(r.stats.channels_armed),
              static_cast<long long>(r.stats.persistent_reuses),
              static_cast<long long>(r.stats.messages_sent));
  std::printf("checksum %016llx vs serial %016llx -> %s\n",
              static_cast<unsigned long long>(r.checksum),
              static_cast<unsigned long long>(want),
              r.checksum == want ? "OK" : "WRONG");
  return r.checksum == want ? 0 : 1;
}
