#include "workload/generators.hpp"

#include <algorithm>
#include <numeric>

#include "sim/registry.hpp"

namespace treecache::workload {

namespace {
Sign draw_sign(double negative_fraction, Rng& rng) {
  return rng.chance(negative_fraction) ? Sign::kNegative : Sign::kPositive;
}

/// Random node-per-rank assignment for Zipf popularity.
std::vector<NodeId> random_rank_assignment(std::span<const NodeId> nodes,
                                           Rng& rng) {
  std::vector<NodeId> ranked(nodes.begin(), nodes.end());
  rng.shuffle(ranked);
  return ranked;
}

std::vector<NodeId> all_nodes(const Tree& tree) {
  std::vector<NodeId> all(tree.size());
  std::iota(all.begin(), all.end(), NodeId{0});
  return all;
}
}  // namespace

UniformSource::UniformSource(const Tree& tree, std::uint64_t length,
                             double negative_fraction, Rng rng)
    : tree_(&tree),
      length_(length),
      negative_fraction_(negative_fraction),
      start_rng_(rng),
      rng_(rng),
      remaining_(length) {}

std::size_t UniformSource::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size() && remaining_ > 0) {
    --remaining_;
    buffer[n++] = Request{static_cast<NodeId>(rng_.below(tree_->size())),
                          draw_sign(negative_fraction_, rng_)};
  }
  return n;
}

std::unique_ptr<RequestSource> UniformSource::fork() const {
  // Copy, then rewind: the copy's reset() restores the captured start RNG,
  // so the fork replays the identical stream from round one.
  auto copy = std::make_unique<UniformSource>(*this);
  copy->reset();
  return copy;
}

void UniformSource::reset() {
  rng_ = start_rng_;
  remaining_ = length_;
}

ZipfSource::ZipfSource(const Tree& tree, std::uint64_t length, double skew,
                       double negative_fraction, bool leaves_only, Rng rng)
    : length_(length),
      negative_fraction_(negative_fraction),
      ranked_(random_rank_assignment(
          leaves_only ? tree.leaves() : all_nodes(tree), rng)),
      sampler_(ranked_.size(), skew),
      start_rng_(rng),  // state AFTER the permutation draw: reset replays
      rng_(rng),        // sampling only, over the one fixed ranking
      remaining_(length) {}

std::size_t ZipfSource::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size() && remaining_ > 0) {
    --remaining_;
    buffer[n++] = Request{ranked_[sampler_.sample(rng_)],
                          draw_sign(negative_fraction_, rng_)};
  }
  return n;
}

std::unique_ptr<RequestSource> ZipfSource::fork() const {
  // Copy, then rewind: the copy's reset() restores the captured start RNG,
  // so the fork replays the identical stream from round one.
  auto copy = std::make_unique<ZipfSource>(*this);
  copy->reset();
  return copy;
}

void ZipfSource::reset() {
  rng_ = start_rng_;
  remaining_ = length_;
}

HotspotSource::HotspotSource(const Tree& tree, std::uint64_t length,
                             double move_probability,
                             double negative_fraction, Rng rng)
    : tree_(&tree),
      length_(length),
      move_probability_(move_probability),
      negative_fraction_(negative_fraction),
      start_rng_(rng),
      rng_(rng),
      hot_(static_cast<NodeId>(rng_.below(tree.size()))),
      remaining_(length) {
  // hot_ consumed one draw from rng_; start_rng_ deliberately keeps the
  // pre-draw state so reset() re-derives the same initial hotspot.
}

std::size_t HotspotSource::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size() && remaining_ > 0) {
    --remaining_;
    if (rng_.chance(move_probability_)) {
      hot_ = static_cast<NodeId>(rng_.below(tree_->size()));
    }
    // Request a node near the hotspot: a uniform node of T(hot) (via the
    // contiguous preorder interval) or an ancestor occasionally.
    NodeId v = hot_;
    if (tree_->subtree_size(hot_) > 1 && rng_.chance(0.7)) {
      v = tree_->from_preorder(tree_->preorder_index(hot_) +
                               rng_.below(tree_->subtree_size(hot_)));
    } else if (rng_.chance(0.3)) {
      // One of the depth + 1 nodes on hot's root path, walked up to.
      for (auto up = rng_.below(tree_->depth(hot_) + 1); up > 0; --up) {
        v = tree_->parent(v);
      }
    }
    buffer[n++] = Request{v, draw_sign(negative_fraction_, rng_)};
  }
  return n;
}

void HotspotSource::reset() {
  rng_ = start_rng_;
  hot_ = static_cast<NodeId>(rng_.below(tree_->size()));
  remaining_ = length_;
}

UpdateChurnSource::UpdateChurnSource(const Tree& tree, std::uint64_t length,
                                     double skew, std::uint64_t alpha,
                                     double update_probability, Rng rng)
    : length_(length),
      alpha_(alpha),
      update_probability_(update_probability),
      ranked_(random_rank_assignment(all_nodes(tree), rng)),
      sampler_(ranked_.size(), skew),
      start_rng_(rng),
      rng_(rng),
      remaining_(length) {
  TC_CHECK(alpha_ >= 1, "alpha must be positive");
}

std::size_t UpdateChurnSource::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size() && remaining_ > 0) {
    if (pending_ > 0) {
      --pending_;
      --remaining_;
      buffer[n++] = negative(pending_node_);
      continue;
    }
    const NodeId v = ranked_[sampler_.sample(rng_)];
    if (rng_.chance(update_probability_)) {
      // One rule update = alpha negative requests (Appendix B); the last
      // chunk truncates so exactly `length` requests are emitted.
      pending_node_ = v;
      pending_ = alpha_;
    } else {
      --remaining_;
      buffer[n++] = positive(v);
    }
  }
  return n;
}

void UpdateChurnSource::reset() {
  rng_ = start_rng_;
  pending_ = 0;
  remaining_ = length_;
}

Trace uniform_trace(const Tree& tree, std::size_t length,
                    double negative_fraction, Rng& rng) {
  UniformSource source(tree, length, negative_fraction, rng.split());
  return materialize(source);
}

Trace zipf_trace(const Tree& tree, std::size_t length, double skew,
                 double negative_fraction, Rng& rng) {
  ZipfSource source(tree, length, skew, negative_fraction,
                    /*leaves_only=*/false, rng.split());
  return materialize(source);
}

Trace zipf_leaf_trace(const Tree& tree, std::size_t length, double skew,
                      double negative_fraction, Rng& rng) {
  ZipfSource source(tree, length, skew, negative_fraction,
                    /*leaves_only=*/true, rng.split());
  return materialize(source);
}

Trace hotspot_trace(const Tree& tree, std::size_t length,
                    double move_probability, double negative_fraction,
                    Rng& rng) {
  HotspotSource source(tree, length, move_probability, negative_fraction,
                       rng.split());
  return materialize(source);
}

Trace update_churn_trace(const Tree& tree, std::size_t length, double skew,
                         std::uint64_t alpha, double update_probability,
                         Rng& rng) {
  UpdateChurnSource source(tree, length, skew, alpha, update_probability,
                           rng.split());
  return materialize(source);
}

// Registry adapters. Shared parameter keys: length (default 100000),
// neg (negative fraction, 0.2), skew (Zipf exponent, 1.0); per-workload
// keys are named after the matching CLI flags.
namespace {

const sim::WorkloadRegistrar kRegisterUniform{
    "uniform", "uniformly random nodes, Bernoulli(neg) negative requests",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      return std::make_unique<UniformSource>(
          tree, p.get_u64("length", 100000),
          p.get_double("neg", 0.2, 0.0, 1.0), Rng(seed));
    }};

const sim::WorkloadRegistrar kRegisterZipf{
    "zipf", "Zipf(skew)-popular nodes over a random rank permutation",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      return std::make_unique<ZipfSource>(
          tree, p.get_u64("length", 100000), p.get_double("skew", 1.0),
          p.get_double("neg", 0.2, 0.0, 1.0), /*leaves_only=*/false,
          Rng(seed));
    }};

const sim::WorkloadRegistrar kRegisterZipfLeaf{
    "zipfleaf", "Zipf over leaves only (FIB-like most-specific traffic)",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      return std::make_unique<ZipfSource>(
          tree, p.get_u64("length", 100000), p.get_double("skew", 1.0),
          p.get_double("neg", 0.2, 0.0, 1.0), /*leaves_only=*/true,
          Rng(seed));
    }};

const sim::WorkloadRegistrar kRegisterHotspot{
    "hotspot", "moving-hotspot subtree with per-request jump probability",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      return std::make_unique<HotspotSource>(
          tree, p.get_u64("length", 100000),
          p.get_double("move-prob", 0.01, 0.0, 1.0),
          p.get_double("neg", 0.2, 0.0, 1.0), Rng(seed));
    }};

const sim::WorkloadRegistrar kRegisterChurn{
    "churn", "Zipf traffic interleaved with alpha-chunk rule updates",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      return std::make_unique<UpdateChurnSource>(
          tree, p.get_u64("length", 100000), p.get_double("skew", 1.0),
          p.alpha(), p.get_double("update-prob", 0.05, 0.0, 1.0), Rng(seed));
    }};

}  // namespace

}  // namespace treecache::workload
