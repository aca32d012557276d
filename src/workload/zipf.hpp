// Zipf(s) sampling over ranks 0..n-1 (rank 0 most popular).
//
// The FIB application leans on the empirical observation (Sarrar et al.,
// cited in §2 of the paper) that per-rule traffic is Zipf-distributed; the
// sampler below backs all skewed workload generators.
//
// A draw inverts the CDF with a guide table (Chen & Asau 1974; Devroye,
// Non-Uniform Random Variate Generation, §III.2.4). The constructor cuts
// [0, 1] into m = n buckets by key(x) = floor(x·m) and records, per bucket
// j, the first rank r with key(cdf(r)) >= j. A draw u starts at its
// bucket's entry and steps forward while cdf(r) < u. key is monotone, so
// every rank below the entry has cdf < u: the probe returns exactly the
// index std::lower_bound would, ties and u landing on a CDF step
// included, and cdf(n-1) = 1 > u ends it. Seeded streams are therefore the
// ones a binary search gives, one uniform01() per draw. A bucket holds
// n/m = 1 rank on average, so a draw takes O(1) expected steps. The table
// costs 4 bytes per rank beside the CDF's 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace treecache {

class ZipfSampler {
 public:
  /// P(rank = r) ∝ 1 / (r+1)^skew. skew = 0 is uniform.
  ZipfSampler(std::size_t n, double skew);

  /// Draws a rank in [0, n).
  [[nodiscard]] std::size_t sample(Rng& rng) const;

  /// The rank whose CDF interval contains u ∈ [0, 1): rank r covers
  /// (cdf(r-1), cdf(r)], except rank 0 which also covers 0. Exposed so
  /// tests can probe draws landing exactly on a CDF step.
  [[nodiscard]] std::size_t sample_at(double u) const;

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

  /// Probability mass of a rank.
  [[nodiscard]] double pmf(std::size_t rank) const;

  /// The inclusive cumulative probabilities; the last entry is exactly 1.
  [[nodiscard]] std::span<const double> cdf() const { return cdf_; }

 private:
  /// The guide bucket of x ∈ [0, 1]; 1.0 maps to the last entry, m.
  [[nodiscard]] std::size_t key(double x) const {
    return static_cast<std::size_t>(x * buckets_);
  }

  std::vector<double> cdf_;  // inclusive cumulative probabilities
  // guide_[j]: the first rank r with key(cdf_[r]) >= j, for j in [0, m].
  std::vector<std::uint32_t> guide_;
  double buckets_;  // m, as the key's scale
};

/// Unnormalized Zipf weights 1/(r+1)^skew for ranks 0..n-1.
[[nodiscard]] std::vector<double> zipf_weights(std::size_t n, double skew);

}  // namespace treecache
