// Summary statistics for repeated measurements.
#pragma once

#include <cstdint>
#include <vector>

namespace treecache::sim {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample standard deviation
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double p95 = 0.0;
};

/// Nearest-rank quantile of an ascending-sorted, non-empty sample: the
/// element at rank ⌈q·n⌉, clamped to [1, n], so q <= 0 yields the minimum
/// and q >= 1 the maximum. For an even-sized sample the median (q = 0.5)
/// is therefore the lower middle element. Summary's median and p95 both
/// use this one convention.
[[nodiscard]] double quantile(const std::vector<double>& sorted, double q);

/// Computes the summary of a sample (empty input gives an all-zero summary).
[[nodiscard]] Summary summarize(std::vector<double> samples);

}  // namespace treecache::sim
