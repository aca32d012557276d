// Streaming request sources for tests, examples and benchmarks.
//
// Every generator is a pull-based RequestSource: construction does the
// upfront setup (rank permutations, Zipf CDFs) and captures the RNG state,
// so reset() replays the identical stream and a run's memory use is O(tree),
// independent of how many requests are drawn. The eager *_trace helpers
// below materialize a source for callers that want a vector; they advance
// the caller's RNG via split() so consecutive calls draw distinct traces.
// Only UniformSource and ZipfSource fork(): perfbench replays their
// streams (deep-uniform-8x3 and zipf-1x1) through it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/request_source.hpp"
#include "core/trace.hpp"
#include "tree/tree.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace treecache::workload {

/// Uniformly random nodes; each request is negative with probability
/// `negative_fraction`.
class UniformSource final : public RequestSource {
 public:
  UniformSource(const Tree& tree, std::uint64_t length,
                double negative_fraction, Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<RequestSource> fork() const override;

 private:
  const Tree* tree_;
  std::uint64_t length_;
  double negative_fraction_;
  Rng start_rng_;
  Rng rng_;
  std::uint64_t remaining_;
};

/// Zipf(skew)-popular nodes over a random rank permutation (drawn once at
/// construction). With `leaves_only`, ranks cover the leaves only
/// (FIB-like: traffic hits most-specific rules).
class ZipfSource final : public RequestSource {
 public:
  ZipfSource(const Tree& tree, std::uint64_t length, double skew,
             double negative_fraction, bool leaves_only, Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<RequestSource> fork() const override;

 private:
  std::uint64_t length_;
  double negative_fraction_;
  std::vector<NodeId> ranked_;
  ZipfSampler sampler_;
  Rng start_rng_;
  Rng rng_;
  std::uint64_t remaining_;
};

/// Moving hotspot: positive requests concentrate on a random subtree; the
/// hotspot jumps to another node with probability `move_probability` per
/// request. Mimics temporal locality with working-set shifts.
class HotspotSource final : public RequestSource {
 public:
  HotspotSource(const Tree& tree, std::uint64_t length,
                double move_probability, double negative_fraction, Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;

 private:
  const Tree* tree_;
  std::uint64_t length_;
  double move_probability_;
  double negative_fraction_;
  Rng start_rng_;
  Rng rng_;
  NodeId hot_ = 0;
  std::uint64_t remaining_;
};

/// FIB-style churn: Zipf-popular positive requests interleaved with rule
/// updates, each modelled as a chunk of `alpha` negative requests to a
/// Zipf-popular node (Appendix B). `update_probability` is the per-round
/// chance that the next event is an update chunk instead of one packet.
/// Emits exactly `length` requests (the final chunk is truncated).
class UpdateChurnSource final : public RequestSource {
 public:
  UpdateChurnSource(const Tree& tree, std::uint64_t length, double skew,
                    std::uint64_t alpha, double update_probability, Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;

 private:
  std::uint64_t length_;
  std::uint64_t alpha_;
  double update_probability_;
  std::vector<NodeId> ranked_;
  ZipfSampler sampler_;
  Rng start_rng_;
  Rng rng_;
  NodeId pending_node_ = 0;
  std::uint64_t pending_ = 0;  // negatives left in the current chunk
  std::uint64_t remaining_;
};

// Eager convenience wrappers: materialize the matching source. Each call
// advances `rng` (via split), so repeated calls produce distinct traces.

[[nodiscard]] Trace uniform_trace(const Tree& tree, std::size_t length,
                                  double negative_fraction, Rng& rng);

[[nodiscard]] Trace zipf_trace(const Tree& tree, std::size_t length,
                               double skew, double negative_fraction,
                               Rng& rng);

[[nodiscard]] Trace zipf_leaf_trace(const Tree& tree, std::size_t length,
                                    double skew, double negative_fraction,
                                    Rng& rng);

[[nodiscard]] Trace hotspot_trace(const Tree& tree, std::size_t length,
                                  double move_probability,
                                  double negative_fraction, Rng& rng);

[[nodiscard]] Trace update_churn_trace(const Tree& tree, std::size_t length,
                                       double skew, std::uint64_t alpha,
                                       double update_probability, Rng& rng);

}  // namespace treecache::workload
