// Positional arguments of the example programs, parsed as strictly as the
// CLI's flags (util/parse.hpp): "4x", "-1" and an empty value are refused.
// Every example's main runs its body through run_main, so a library error
// ends it the way it ends the CLI.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace treecache::examples {

/// argv[index] as a whole unsigned integer, or `fallback` when the program
/// got fewer arguments. Anything else ends the program with status 2 and an
/// error naming the argument.
inline std::uint64_t positional_u64(int argc, char** argv, int index,
                                    const char* name,
                                    std::uint64_t fallback) {
  if (index >= argc) return fallback;
  if (const auto value = parse_u64(argv[index])) return *value;
  std::fprintf(stderr, "error: [%s] '%s' is not an unsigned integer\n", name,
               argv[index]);
  std::exit(2);
}

/// Runs an example's body; a library error (say, a TC_CHECK on a zero-node
/// tree) prints `error: <message>` (error_message) and returns status 1
/// instead of aborting.
inline int run_main(int (*body)(int, char**), int argc, char** argv) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", error_message(e).c_str());
    return 1;
  }
}

}  // namespace treecache::examples
