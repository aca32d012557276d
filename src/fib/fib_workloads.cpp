#include "fib/fib_workloads.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "fib/traffic.hpp"

namespace treecache::fib {

RibConfig rib_config_from_params(const sim::Params& params) {
  return RibConfig{
      .rules = params.get_u64("rules", 4096),
      .deaggregation = params.get_double("deagg", 0.45, 0.0, 1.0),
      .max_length = static_cast<std::uint8_t>(
          params.get_u64("max-len", 24, Prefix::kWidth))};
}

RuleTree rule_tree_from_params(const sim::Params& params) {
  Rng rib_rng(params.get_u64("rib-seed", 1));
  return build_rule_tree(generate_rib(rib_config_from_params(params), rib_rng));
}

bool is_fib_workload_name(std::string_view name) {
  return name == "fib" || name.starts_with("fib-");
}

const RuleTree& shared_rule_tree(const sim::Params& params) {
  // Key = everything rule_tree_from_params reads (the RibConfig fields
  // plus the seed); keep it in sync with rib_config_from_params.
  using Key = std::tuple<std::size_t, double, std::uint8_t, std::uint64_t>;
  const RibConfig config = rib_config_from_params(params);
  const Key key{config.rules, config.deaggregation, config.max_length,
                params.get_u64("rib-seed", 1)};

  static std::mutex mutex;
  static std::map<Key, std::unique_ptr<RuleTree>> cache;
  const std::scoped_lock lock(mutex);
  std::unique_ptr<RuleTree>& slot = cache[key];
  if (slot == nullptr) {
    slot = std::make_unique<RuleTree>(rule_tree_from_params(params));
  }
  return *slot;
}

namespace {

std::unique_ptr<RequestSource> fib_source(const Tree& tree,
                                          const sim::Params& p,
                                          std::uint64_t seed,
                                          double update_probability) {
  const RuleTree& rules = shared_rule_tree(p);
  TC_CHECK(tree == rules.tree,
           "fib* workloads run on their own RIB rule tree; build it with "
           "fib::rule_tree_from_params(params) (CLI: `--tree fib`, or "
           "gen-rib with the same --rules/--deagg/--max-len/--rib-seed)");
  const FibWorkloadConfig config{
      .events = p.get_u64("length", 100000),
      .zipf_skew = p.get_double("skew", 1.0),
      .update_probability = update_probability,
      .alpha = p.alpha()};
  // shared_rule_tree entries live for the process, so the source's
  // reference into the cache stays valid however long it streams.
  return std::make_unique<FibTraceSource>(rules, config, Rng(seed));
}

const sim::WorkloadRegistrar kRegisterFib{
    "fib",
    "RIB rule tree: Zipf packet LPM traffic + BGP-style alpha-chunk updates",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed) {
      return fib_source(tree, p, seed,
                        p.get_double("update-prob", 0.01, 0.0, 1.0));
    }};

const sim::WorkloadRegistrar kRegisterFibStable{
    "fib-stable", "RIB rule tree: pure Zipf packet traffic, no rule updates",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed) {
      return fib_source(tree, p, seed, 0.0);
    }};

const sim::WorkloadRegistrar kRegisterFibChurn{
    "fib-churn",
    "RIB rule tree: update-heavy FIB stream (default update-prob 0.05)",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed) {
      return fib_source(tree, p, seed,
                        p.get_double("update-prob", 0.05, 0.0, 1.0));
    }};

}  // namespace

}  // namespace treecache::fib
