#include "sim/registry.hpp"

#include "util/check.hpp"
#include "util/parse.hpp"

namespace treecache::sim {

std::uint64_t Params::get_u64(const std::string& key, std::uint64_t fallback,
                              std::uint64_t max) const {
  if (!has(key)) return fallback;
  const std::string text = get(key, "");
  const auto value = parse_u64(text);
  if (!value) {
    throw CheckFailure("parameter " + key + "=" + text +
                       " is not an unsigned integer");
  }
  if (*value > max) {
    throw CheckFailure("parameter " + key + "=" + text +
                       " is out of range (at most " + std::to_string(max) +
                       ")");
  }
  return *value;
}

double Params::get_double(const std::string& key, double fallback,
                          double min, double max) const {
  if (!has(key)) return fallback;
  const std::string text = get(key, "");
  const auto value = parse_double(text);
  if (!value) {
    throw CheckFailure("parameter " + key + "=" + text + " is not a number");
  }
  if (*value < min || *value > max) {
    throw CheckFailure("parameter " + key + "=" + text +
                       " is out of range (" + range_text(min, max) + ")");
  }
  return *value;
}

template <typename Factory>
Registry<Factory>& Registry<Factory>::instance() {
  // Function-local static: safely initialized on first use, including from
  // the static registrars that run during program load.
  static Registry registry;
  return registry;
}

template <typename Factory>
void Registry<Factory>::add(const std::string& name, std::string summary,
                            Factory factory) {
  TC_CHECK(!name.empty(), "registry names must be non-empty");
  const bool inserted =
      entries_
          .emplace(name, Entry{std::move(summary), std::move(factory)})
          .second;
  TC_CHECK(inserted, "duplicate registration of '" + name + "'");
}

template <typename Factory>
const Factory& Registry<Factory>::at(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [key, entry] : entries_) {
      known += known.empty() ? key : ", " + key;
    }
    throw CheckFailure("unknown name '" + name + "' (registered: " + known +
                       ")");
  }
  return it->second.factory;
}

template <typename Factory>
const std::string& Registry<Factory>::summary(const std::string& name) const {
  const auto it = entries_.find(name);
  TC_CHECK(it != entries_.end(), "unknown name '" + name + "'");
  return it->second.summary;
}

template <typename Factory>
std::vector<std::string> Registry<Factory>::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) result.push_back(key);
  return result;
}

template <typename Factory>
std::string Registry<Factory>::describe() const {
  std::string text;
  for (const auto& [key, entry] : entries_) {
    text += "  " + key + " — " + entry.summary + "\n";
  }
  return text;
}

template class Registry<AlgorithmFactory>;
template class Registry<WorkloadFactory>;
template class Registry<OfflineEvaluatorFactory>;

std::unique_ptr<OnlineAlgorithm> make_algorithm(const std::string& name,
                                                const Tree& tree,
                                                const Params& params) {
  return AlgorithmRegistry::instance().at(name)(tree, params);
}

std::unique_ptr<RequestSource> make_source(const std::string& name,
                                           const Tree& tree,
                                           const Params& params,
                                           std::uint64_t seed) {
  return WorkloadRegistry::instance().at(name)(tree, params, seed);
}

Trace make_workload(const std::string& name, const Tree& tree,
                    const Params& params, std::uint64_t seed) {
  const auto source = make_source(name, tree, params, seed);
  return materialize(*source);
}

std::uint64_t evaluate_offline(const std::string& name, const Tree& tree,
                               const Trace& trace, const Params& params) {
  return OfflineEvaluatorRegistry::instance().at(name)(tree, trace, params);
}

}  // namespace treecache::sim
