#include "workload/combinators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "sim/registry.hpp"
#include "util/parse.hpp"

namespace treecache::workload {

namespace {

/// The constructors' check that a part is an open loop (see the header).
void check_open_loop(const std::unique_ptr<RequestSource>& part) {
  TC_CHECK(part != nullptr && !part->is_closed_loop(),
           "combinator parts must be open-loop sources");
}

}  // namespace

ConcatSource::ConcatSource(
    std::vector<std::unique_ptr<RequestSource>> parts)
    : parts_(std::move(parts)) {
  TC_CHECK(!parts_.empty(), "concat needs at least one part");
  for (const auto& part : parts_) check_open_loop(part);
}

std::size_t ConcatSource::fill(std::span<Request> buffer) {
  while (active_ < parts_.size()) {
    const std::size_t n = parts_[active_]->fill(buffer);
    if (n > 0) return n;
    ++active_;
  }
  return 0;
}

void ConcatSource::reset() {
  for (const auto& part : parts_) part->reset();
  active_ = 0;
}

MixSource::MixSource(std::vector<std::unique_ptr<RequestSource>> parts,
                     std::vector<double> weights, Rng rng)
    : parts_(std::move(parts)),
      weights_(std::move(weights)),
      start_rng_(rng),
      rng_(rng),
      exhausted_(parts_.size(), 0) {
  TC_CHECK(!parts_.empty(), "mix needs at least one part");
  for (const auto& part : parts_) check_open_loop(part);
  TC_CHECK(parts_.size() == weights_.size(),
           "mix needs one weight per part");
  for (const double w : weights_) {
    TC_CHECK(w > 0.0, "mix weights must be positive");
  }
}

std::size_t MixSource::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  while (n < buffer.size()) {
    double total = 0.0;
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (!exhausted_[i]) total += weights_[i];
    }
    if (total == 0.0) break;
    double u = rng_.uniform01() * total;
    std::size_t pick = parts_.size();
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (exhausted_[i]) continue;
      pick = i;
      u -= weights_[i];
      if (u < 0.0) break;
    }
    Request r;
    if (parts_[pick]->fill({&r, 1}) == 1) {
      buffer[n++] = r;
    } else {
      exhausted_[pick] = 1;
    }
  }
  return n;
}

void MixSource::reset() {
  for (const auto& part : parts_) part->reset();
  std::ranges::fill(exhausted_, 0);
  rng_ = start_rng_;
}

ChurnInjectSource::ChurnInjectSource(std::unique_ptr<RequestSource> inner,
                                     const Tree& tree, std::uint64_t period,
                                     std::uint64_t alpha, Rng rng)
    : inner_(std::move(inner)),
      tree_(&tree),
      period_(period),
      alpha_(alpha),
      start_rng_(rng),
      rng_(rng) {
  TC_CHECK(inner_ != nullptr, "churn-inject needs an inner source");
  check_open_loop(inner_);
  TC_CHECK(period_ >= 1, "churn-period must be positive");
  TC_CHECK(alpha_ >= 1, "alpha must be positive");
}

std::size_t ChurnInjectSource::fill(std::span<Request> buffer) {
  // Drain the injected chunk first; it never mixes with inner requests in
  // one batch, so the inner source's own batching contract is preserved.
  std::size_t n = 0;
  while (pending_ > 0 && n < buffer.size()) {
    --pending_;
    buffer[n++] = negative(pending_node_);
  }
  if (n > 0) return n;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(buffer.size(), period_ - since_chunk_));
  const std::size_t got = inner_->fill(buffer.first(want));
  since_chunk_ += got;
  if (got == 0) return 0;  // inner exhausted: no trailing chunk
  if (since_chunk_ == period_) {
    since_chunk_ = 0;
    pending_node_ = static_cast<NodeId>(rng_.below(tree_->size()));
    pending_ = alpha_;
  }
  return got;
}

void ChurnInjectSource::reset() {
  inner_->reset();
  rng_ = start_rng_;
  since_chunk_ = 0;
  pending_ = 0;
}

// Registry adapters. Parts resolve recursively through the registry with
// the shared Params bag; "length" is rewritten (each part gets its share)
// and the structural keys of the delegating combinator are stripped, so
// skew/neg/... apply to every part uniformly while a nested combinator
// falls back to its own defaults instead of re-reading its parent's
// structure (which would also recurse forever on parts=concat).
namespace {

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<double> split_weights(const std::string& csv) {
  std::vector<double> out;
  for (const std::string& item : split_names(csv)) {
    const auto weight = parse_double(item);
    if (!weight) throw CheckFailure("weight '" + item + "' is not a number");
    out.push_back(*weight);
  }
  return out;
}

sim::Params strip_keys(const sim::Params& p,
                       std::initializer_list<const char*> keys) {
  auto values = p.all();
  for (const char* key : keys) values.erase(key);
  return sim::Params(std::move(values));
}

const sim::WorkloadRegistrar kRegisterConcat{
    "concat",
    "phases: runs parts=a,b,... to exhaustion in order, splitting length",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      const auto parts = split_names(p.get("parts", "zipf,uniform"));
      TC_CHECK(!parts.empty(), "concat needs parts=a,b,...");
      const std::uint64_t length = p.get_u64("length", 100000);
      Rng seeder(seed);
      std::vector<std::unique_ptr<RequestSource>> sources;
      sources.reserve(parts.size());
      for (std::size_t i = 0; i < parts.size(); ++i) {
        TC_CHECK(parts[i] != "concat", "concat cannot name itself as a part");
        sim::Params sub = strip_keys(p, {"parts", "weights"});
        sub.set("length", std::to_string(length / parts.size() +
                                         (i < length % parts.size() ? 1 : 0)));
        sources.push_back(sim::make_source(parts[i], tree, sub, seeder()));
      }
      return std::make_unique<ConcatSource>(std::move(sources));
    }};

const sim::WorkloadRegistrar kRegisterMix{
    "mix",
    "weighted blend: each request drawn from parts=a,b,... by weights=...",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      const auto parts = split_names(p.get("parts", "zipf,uniform"));
      TC_CHECK(!parts.empty(), "mix needs parts=a,b,...");
      std::vector<double> weights =
          p.has("weights") ? split_weights(p.get("weights", ""))
                           : std::vector<double>(parts.size(), 1.0);
      TC_CHECK(weights.size() == parts.size(),
               "mix needs one weight per part");
      const std::uint64_t length = p.get_u64("length", 100000);
      const double weight_sum =
          std::accumulate(weights.begin(), weights.end(), 0.0);
      Rng seeder(seed);
      std::vector<std::unique_ptr<RequestSource>> sources;
      sources.reserve(parts.size());
      // Cumulative split so the part lengths sum to `length` exactly.
      std::uint64_t assigned = 0;
      double cumulative = 0.0;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        TC_CHECK(parts[i] != "mix", "mix cannot name itself as a part");
        cumulative += weights[i];
        const std::uint64_t upto =
            i + 1 == parts.size()
                ? length
                : static_cast<std::uint64_t>(std::llround(
                      static_cast<double>(length) * cumulative / weight_sum));
        sim::Params sub = strip_keys(p, {"parts", "weights"});
        sub.set("length", std::to_string(upto - assigned));
        assigned = upto;
        sources.push_back(sim::make_source(parts[i], tree, sub, seeder()));
      }
      return std::make_unique<MixSource>(std::move(sources),
                                         std::move(weights), Rng(seeder()));
    }};

const sim::WorkloadRegistrar kRegisterChurnInject{
    "churn-inject",
    "wraps inner=<workload>, injecting an alpha-chunk of negatives every "
    "churn-period requests",
    [](const Tree& tree, const sim::Params& p, std::uint64_t seed)
        -> std::unique_ptr<RequestSource> {
      const std::string inner_name = p.get("inner", "zipf");
      TC_CHECK(inner_name != "churn-inject",
               "churn-inject cannot wrap itself");
      Rng seeder(seed);
      auto inner = sim::make_source(inner_name, tree,
                                    strip_keys(p, {"inner"}), seeder());
      return std::make_unique<ChurnInjectSource>(
          std::move(inner), tree, p.get_u64("churn-period", 1000), p.alpha(),
          Rng(seeder()));
    }};

}  // namespace

}  // namespace treecache::workload
