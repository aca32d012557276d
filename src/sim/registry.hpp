// Registry-driven simulator core.
//
// Online algorithms, workload sources and offline evaluators
// self-register behind name-keyed factories, so the simulator, the
// CLI, parameter sweeps and the benchmark harness all resolve
// algorithm × workload × parameter grids from one table instead of
// hand-wired #include lists.
//
// Workload factories are STREAMING: they return a pull-based
// std::unique_ptr<RequestSource> (core/request_source.hpp), not a
// materialized Trace, so `sim::run_source` drives arbitrarily long runs in
// O(1) memory, and the sharded engine's demux shards them. Every
// registered workload is an open loop (the closed-loop FIB router runs
// through sim/fib_engine.hpp instead). `make_workload` materializes a
// source for consumers that genuinely need a vector (offline evaluators,
// trace files, span tests).
//
// Adding a new algorithm takes three steps and touches only its own files:
//   1. implement `class MyAlg final : public OnlineAlgorithm` anywhere;
//   2. in my_alg.cpp, add a translation-unit-local registrar:
//        namespace {
//        const sim::AlgorithmRegistrar kReg{
//            "myalg", "one-line summary",
//            [](const Tree& t, const sim::Params& p) {
//              return std::make_unique<MyAlg>(t, p.alpha(), p.capacity());
//            }};
//        }  // namespace
//   3. list my_alg.cpp in src/CMakeLists.txt.
//
// Adding a streaming workload is the same dance with a WorkloadRegistrar.
// Implement fill() (emit up to buffer.size() requests, return how many;
// 0 = exhausted) and reset() (replay the identical stream) — nothing else
// of RequestSource is needed — then register:
//   class PingPongSource final : public RequestSource {
//    public:
//     PingPongSource(const Tree& tree, std::uint64_t length)
//         : tree_(&tree), length_(length), remaining_(length) {}
//     std::size_t fill(std::span<Request> buffer) override {
//       std::size_t n = 0;
//       while (n < buffer.size() && remaining_ > 0) {
//         const NodeId leaf = remaining_-- % 2 ? tree_->leaves().front()
//                                              : tree_->leaves().back();
//         buffer[n++] = positive(leaf);
//       }
//       return n;
//     }
//     void reset() override { remaining_ = length_; }
//    private:
//     const Tree* tree_;
//     std::uint64_t length_;
//     std::uint64_t remaining_;
//   };
//   namespace {
//   const sim::WorkloadRegistrar kReg{
//       "pingpong", "alternates between the two outermost leaves",
//       [](const Tree& t, const sim::Params& p, std::uint64_t /*seed*/) {
//         return std::make_unique<PingPongSource>(
//             t, p.get_u64("length", 100000));
//       }};
//   }  // namespace
// No edits to src/sim/ or tools/ are required; `treecache run --workload
// pingpong --length 1000000000` streams it, tests/test_registry.cpp and
// the streamed≡materialized suite in tests/test_request_source.cpp pick it
// up automatically, and the combinators (workload/combinators.hpp: concat,
// mix, churn-inject) can name it as a part.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/online_algorithm.hpp"
#include "core/request_source.hpp"
#include "core/trace.hpp"
#include "tree/tree.hpp"

namespace treecache::sim {

/// Uniform string-keyed parameter bag passed to every factory. Common knobs
/// (alpha, capacity, length, ...) have typed accessors with the library-wide
/// defaults; algorithm-specific knobs go through the generic getters, so a
/// factory can consume CLI flags or sweep-grid axes without a bespoke
/// config struct per registration.
class Params {
 public:
  Params() = default;
  explicit Params(std::map<std::string, std::string> values)
      : values_(std::move(values)) {}

  void set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// The value of `key` as a whole unsigned integer, or `fallback` when
  /// it is absent. A value above `max` is refused too, so a caller that
  /// narrows it never wraps it.
  [[nodiscard]] std::uint64_t get_u64(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  /// The value of `key` as a whole finite number, or `fallback` when it
  /// is absent. A value outside [min, max] (both ends inclusive) is
  /// refused too; probabilities are read with [0, 1].
  [[nodiscard]] double get_double(
      const std::string& key, double fallback,
      double min = std::numeric_limits<double>::lowest(),
      double max = std::numeric_limits<double>::max()) const;

  // The two knobs every tree-caching algorithm shares.
  [[nodiscard]] std::uint64_t alpha() const { return get_u64("alpha", 16); }
  [[nodiscard]] std::size_t capacity() const {
    return get_u64("capacity", 64);
  }

  /// All key/value pairs, e.g. for serializing the scenario that produced
  /// a result.
  [[nodiscard]] const std::map<std::string, std::string>& all() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Builds an online algorithm over `tree` configured from `params`.
using AlgorithmFactory = std::function<std::unique_ptr<OnlineAlgorithm>(
    const Tree& tree, const Params& params)>;

/// Builds a streaming request source over `tree` from `params` ("length",
/// "skew", "neg", ...). All randomness derives from `seed`, so the source
/// replays the identical stream after reset(). The source may keep a
/// reference to `tree`, which must outlive it.
using WorkloadFactory = std::function<std::unique_ptr<RequestSource>(
    const Tree& tree, const Params& params, std::uint64_t seed)>;

/// Computes an offline cost/bound for a (tree, trace) instance — exact
/// offline optimum, static-cache optimum, etc.
using OfflineEvaluatorFactory = std::function<std::uint64_t(
    const Tree& tree, const Trace& trace, const Params& params)>;

/// One generic name → factory table. Keys are unique; lookups throw
/// CheckFailure listing the registered names on a miss.
template <typename Factory>
class Registry {
 public:
  struct Entry {
    std::string summary;
    Factory factory;
  };

  /// The process-wide table for this factory kind.
  static Registry& instance();

  void add(const std::string& name, std::string summary, Factory factory);

  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.contains(name);
  }

  /// The factory registered under `name`; throws CheckFailure if absent.
  [[nodiscard]] const Factory& at(const std::string& name) const;

  [[nodiscard]] const std::string& summary(const std::string& name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// "name — summary" lines for --help output.
  [[nodiscard]] std::string describe() const;

 private:
  std::map<std::string, Entry> entries_;
};

using AlgorithmRegistry = Registry<AlgorithmFactory>;
using WorkloadRegistry = Registry<WorkloadFactory>;
using OfflineEvaluatorRegistry = Registry<OfflineEvaluatorFactory>;

/// Convenience lookups: resolve a name and invoke the factory.
[[nodiscard]] std::unique_ptr<OnlineAlgorithm> make_algorithm(
    const std::string& name, const Tree& tree, const Params& params);
[[nodiscard]] std::unique_ptr<RequestSource> make_source(
    const std::string& name, const Tree& tree, const Params& params,
    std::uint64_t seed);
/// make_source materialized into a Trace (offline evaluators, span tests).
[[nodiscard]] Trace make_workload(const std::string& name, const Tree& tree,
                                  const Params& params, std::uint64_t seed);
[[nodiscard]] std::uint64_t evaluate_offline(const std::string& name,
                                             const Tree& tree,
                                             const Trace& trace,
                                             const Params& params);

/// Static registrars: declare one as a namespace-local const in the
/// component's own .cpp to self-register at load time.
struct AlgorithmRegistrar {
  AlgorithmRegistrar(const std::string& name, std::string summary,
                     AlgorithmFactory factory) {
    AlgorithmRegistry::instance().add(name, std::move(summary),
                                      std::move(factory));
  }
};

struct WorkloadRegistrar {
  WorkloadRegistrar(const std::string& name, std::string summary,
                    WorkloadFactory factory) {
    WorkloadRegistry::instance().add(name, std::move(summary),
                                     std::move(factory));
  }
};

struct OfflineEvaluatorRegistrar {
  OfflineEvaluatorRegistrar(const std::string& name, std::string summary,
                            OfflineEvaluatorFactory factory) {
    OfflineEvaluatorRegistry::instance().add(name, std::move(summary),
                                             std::move(factory));
  }
};

}  // namespace treecache::sim
