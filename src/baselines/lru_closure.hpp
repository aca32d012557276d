// Dependency-aware fetch-on-miss LRU — the CacheFlow-style baseline.
//
// On a positive miss at v the whole missing subtree P(v) (v's "dependent
// set") is fetched, evicting least-recently-used cache-tree roots one node
// at a time until the fetch fits. Evicting a maximal root alone is always a
// valid negative changeset, so the cache stays a subforest without the
// rent-or-buy counters of TC. Negative requests cost 1 when the node is
// cached and optionally evict the node (with its cached ancestors).
//
// This baseline has no worst-case guarantee — the E12 ablation bench
// quantifies how badly fetch-on-miss behaves when α is large and how well
// it does on friendly Zipf traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "core/online_algorithm.hpp"
#include "tree/tree.hpp"

namespace treecache {

struct LruClosureConfig {
  std::uint64_t alpha = 2;
  std::size_t capacity = 16;
  /// If true, a paid negative request evicts the node and its cached
  /// ancestors (treat updates as invalidations).
  bool evict_on_negative = false;
};

class LruClosure final : public OnlineAlgorithm {
 public:
  LruClosure(const Tree& tree, LruClosureConfig config);

  [[nodiscard]] std::string_view name() const override {
    return config_.evict_on_negative ? "LRU-closure-inv" : "LRU-closure";
  }
  StepOutcome step(Request request) override;
  void reset() override;
  [[nodiscard]] const Subforest& cache() const override { return cache_; }
  [[nodiscard]] const Cost& cost() const override { return cost_; }

 private:
  StepOutcome handle_positive(NodeId v);
  StepOutcome handle_negative(NodeId v);

  /// Evicts one least-recently-used maximal root (appended to evict_buf_),
  /// preferring victims outside T(protect) and, among equally recent
  /// roots, the first in preorder.
  void evict_one_root(NodeId protect);

  /// Recency of the maximal cached tree containing v is refreshed to the
  /// current round (walk to the root, O(h)).
  void touch(NodeId v);

  const Tree* tree_;
  LruClosureConfig config_;
  Subforest cache_;
  Cost cost_;
  std::uint64_t round_ = 0;
  std::vector<std::uint64_t> recency_;  // per maximal root; 0 = unused
  std::vector<NodeId> changeset_;
  std::vector<NodeId> evict_buf_;
  std::vector<NodeId> missing_buf_;  // reused P(v) buffer
  std::vector<NodeId> roots_buf_;    // reused maximal-roots buffer
};

}  // namespace treecache
