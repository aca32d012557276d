// Positional arguments of the example programs, parsed as strictly as the
// CLI's flags (util/parse.hpp): "4x", "-1" and an empty value are refused.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

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

}  // namespace treecache::examples
