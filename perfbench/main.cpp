// perfbench: the measuring program behind perfbench/run.py.
//
//   perfbench gen --workload NAME --seed N --out DIR
//       writes the workload's inputs (tree or MRT feed, params.txt) to DIR;
//   perfbench run --inputs DIR --seconds S [--trace 0|1] [--trace-out F]
//       runs the workload those inputs describe and prints one JSON result
//       document as the last line of standard output.
//
// run.py builds this program, generates inputs keyed by seed, runs it,
// checks golden outputs and prints the benchmark's result line; see its
// --help for the metrics and the three run modes.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "util/check.hpp"
#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: perfbench gen --workload NAME --seed N --out DIR\n"
    "       perfbench run --inputs DIR --seconds S [--trace 0|1] "
    "[--trace-out FILE]\n";

/// "--key value" pairs after the subcommand.
std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    TC_CHECK(key.rfind("--", 0) == 0 && i + 1 < argc,
             "expected --flag value pairs, got " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

const std::string& required(const std::map<std::string, std::string>& flags,
                            const std::string& key) {
  const auto it = flags.find(key);
  TC_CHECK(it != flags.end(), "missing --" + key);
  return it->second;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    const std::string command = argv[1];
    const auto flags = parse_flags(argc, argv);
    if (command == "gen") {
      perfbench::generate_inputs(
          required(flags, "workload"),
          std::stoull(required(flags, "seed")), required(flags, "out"));
      return 0;
    }
    TC_CHECK(command == "run", std::string("unknown command; ") + kUsage);
    perfbench::RunOptions options;
    options.inputs = required(flags, "inputs");
    options.seconds = std::stod(required(flags, "seconds"));
    if (flags.contains("trace")) options.trace = flags.at("trace") == "1";
    if (flags.contains("trace-out")) options.trace_out = flags.at("trace-out");
    const std::string line = perfbench::run_workload(options).dump();
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
