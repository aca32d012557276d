// Environment-driven scaling for the benchmark executables, so CI can
// smoke-run every experiment with tiny iteration counts:
//
//   TREECACHE_BENCH_REPS=N    — caps every repetition count at N
//   TREECACHE_BENCH_SCALE=F   — multiplies sizes/lengths by F (0 < F <= 1)
//
// Unset variables leave the paper-scale defaults untouched.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace treecache::sim {

/// The repetition count a bench should use: `full_reps` normally, capped at
/// $TREECACHE_BENCH_REPS (min 1) when set. Malformed values throw rather
/// than silently running the wrong tier.
[[nodiscard]] inline std::size_t bench_reps(std::size_t full_reps) {
  const char* env = std::getenv("TREECACHE_BENCH_REPS");
  if (env == nullptr) return full_reps;
  const auto cap = parse_u64(env);
  TC_CHECK(cap && *cap >= 1, "TREECACHE_BENCH_REPS=" + std::string(env) +
                                 " is not a positive integer");
  return std::min<std::size_t>(full_reps, *cap);
}

/// Scales a size/length by $TREECACHE_BENCH_SCALE in (0, 1] (min result 1).
[[nodiscard]] inline std::size_t bench_scaled(std::size_t full_size) {
  const char* env = std::getenv("TREECACHE_BENCH_SCALE");
  if (env == nullptr) return full_size;
  const auto scale = parse_double(env);
  TC_CHECK(scale && *scale > 0.0 && *scale <= 1.0,
           "TREECACHE_BENCH_SCALE=" + std::string(env) + " is not in (0, 1]");
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(full_size) * *scale));
}

/// Peak resident set size of this process in bytes (VmHWM from
/// /proc/self/status), 0 where the kernel does not expose it. The
/// memory-audit bench rows report this next to the structure-level byte
/// counts, so a heap regression shows up even when the structures claim
/// to be small.
[[nodiscard]] inline std::uint64_t peak_rss_bytes() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb * 1024;
  }
#endif
  return 0;
}

}  // namespace treecache::sim
