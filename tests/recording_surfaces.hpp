// Runs one recording program on either recording surface, so a test can
// assert that both behave alike: the Runtime's own verbs on the head
// control thread, or a TenantSession on a submitter thread of its own while
// the head control thread serves it.
#pragma once

#include <exception>
#include <string>
#include <thread>

#include "core/runtime.hpp"

namespace ompc::core::surfaces {

enum class Surface { Runtime, Session };

inline std::string surface_name(Surface s) {
  return s == Surface::Runtime ? "Runtime" : "Session";
}

/// Launches a cluster and calls program(recorder, barrier): `recorder` is
/// the Runtime or a TenantSession, and barrier() executes the wave
/// recorded so far and waits for it. Rethrows what the program or the
/// serve loop threw.
template <typename Program>
RuntimeStats run_on(Surface surface, const ClusterOptions& opts,
                    Program&& program) {
  return launch(opts, [&](Runtime& rt) {
    if (surface == Surface::Runtime) {
      program(rt, [&rt] { rt.wait_all(); });
      return;
    }
    TenantSession session(rt, rt.create_tenant());
    std::exception_ptr error;
    std::thread submitter([&] {
      try {
        program(session, [&session] {
          session.submit_wait();
          session.wait();
        });
      } catch (...) {
        error = std::current_exception();
      }
      session.close();
    });
    std::exception_ptr serve_error;
    try {
      rt.serve_tenants();
    } catch (...) {
      serve_error = std::current_exception();
    }
    submitter.join();
    if (serve_error) std::rethrow_exception(serve_error);
    if (error) std::rethrow_exception(error);
  });
}

}  // namespace ompc::core::surfaces
