// Index-loop helper behind the parameter sweeps.
//
// Parameter sweeps in the bench harness run many independent simulations
// through parallel_for, which runs them in sequence on the caller thread.
// Tasks must be independent — each receives its own index and should
// derive per-task RNG streams (Rng::split) rather than sharing one
// generator — so results never depend on the order the tasks run in.
#pragma once

#include <cstddef>
#include <exception>

namespace treecache {

/// Runs body(i) for every i in [0, n), in index order on the caller thread.
/// Every task runs even if an earlier one throws; the first exception is
/// rethrown after all tasks complete.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  std::exception_ptr error;
  for (std::size_t i = 0; i < n; ++i) {
    try {
      body(i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace treecache
