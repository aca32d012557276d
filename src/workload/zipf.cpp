#include "workload/zipf.hpp"

#include <cmath>

namespace treecache {

std::vector<double> zipf_weights(std::size_t n, double skew) {
  TC_CHECK(n >= 1, "need at least one rank");
  TC_CHECK(skew >= 0.0, "negative skew not supported");
  std::vector<double> weights(n);
  for (std::size_t r = 0; r < n; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), skew);
  }
  return weights;
}

ZipfSampler::ZipfSampler(std::size_t n, double skew)
    : buckets_(static_cast<double>(n)) {
  TC_CHECK(n <= UINT32_MAX, "guide table entries are 32-bit ranks");
  const auto weights = zipf_weights(n, skew);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += weights[r];
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding; also ends every probe

  // key(cdf_.back()) = m, so the scan stops at a rank for every j <= m.
  guide_.resize(n + 1);
  std::size_t r = 0;
  for (std::size_t j = 0; j <= n; ++j) {
    while (key(cdf_[r]) < j) ++r;
    guide_[j] = static_cast<std::uint32_t>(r);
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  return sample_at(rng.uniform01());
}

std::size_t ZipfSampler::sample_at(double u) const {
  // Also bounds the table index: u < 1 gives key(u) <= m.
  TC_CHECK(u >= 0.0 && u < 1.0, "u must lie in [0, 1)");
  std::size_t r = guide_[key(u)];
  while (cdf_[r] < u) ++r;
  return r;
}

double ZipfSampler::pmf(std::size_t rank) const {
  TC_CHECK(rank < cdf_.size(), "rank out of range");
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace treecache
