// Shared engine-geometry CLI knobs: --shards / --threads / --batch /
// --pin. Every subcommand that runs the sharded engine
// (`treecache throughput`, `treecache fib`) parses them through this one
// helper, so the knob set, spellings and defaults can never drift between
// them.
#pragma once

#include "engine/sharded_engine.hpp"
#include "tools/flags.hpp"
#include "util/check.hpp"

namespace treecache::tools {

/// The engine knob keys, for params_from-style drop lists: they
/// parameterize the engine, never the scenario, so they must not leak
/// into the params echoed by --json documents.
inline constexpr const char* kEngineFlagKeys[] = {"shards", "threads",
                                                 "batch", "pin"};

/// Engine geometry from the shared flags, with EngineConfig's own
/// defaults for anything not given. --pin on|off pins each run's workers
/// to cores.
[[nodiscard]] inline engine::EngineConfig engine_config_from(
    const Flags& flags) {
  const engine::EngineConfig defaults{};
  const std::string pin =
      flags.get("pin", defaults.pin_threads ? "on" : "off");
  TC_CHECK(pin == "on" || pin == "off", "--pin must be on or off");
  return engine::EngineConfig{
      .shards = flags.get_u64("shards", defaults.shards),
      .threads = flags.get_u64("threads", defaults.threads),
      .batch = flags.get_u64("batch", defaults.batch),
      .pin_threads = pin == "on"};
}

}  // namespace treecache::tools
