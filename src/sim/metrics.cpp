#include "sim/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace treecache::sim {

double quantile(const std::vector<double>& sorted, double q) {
  TC_CHECK(!sorted.empty(), "quantile of an empty sample");
  TC_DCHECK(std::is_sorted(sorted.begin(), sorted.end()),
            "quantile input must be sorted ascending");
  const auto n = static_cast<double>(sorted.size());
  // Nearest rank ⌈q·n⌉; the epsilon keeps exact rank boundaries (e.g.
  // q = 0.95, n = 20) from being pushed up a rank by floating-point error.
  const double rank = std::ceil(q * n - 1e-9);
  const auto index = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, n - 1.0));
  return sorted[index];
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.median = quantile(samples, 0.5);
  s.p95 = quantile(samples, 0.95);
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  if (samples.size() > 1) {
    double ss = 0.0;
    for (const double v : samples) ss += (v - s.mean) * (v - s.mean);
    s.stddev = std::sqrt(ss / static_cast<double>(samples.size() - 1));
  }
  return s;
}

}  // namespace treecache::sim
