// Workload generators: distributional sanity, structural validity, and the
// paging adversary / lifting machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "baselines/paging.hpp"
#include "core/tree_cache.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"
#include "workload/adversary.hpp"
#include "workload/generators.hpp"
#include "workload/zipf.hpp"

namespace treecache {
namespace {

TEST(Zipf, UniformWhenSkewZero) {
  Rng rng(1);
  const ZipfSampler sampler(4, 0.0);
  std::array<std::size_t, 4> hits{};
  for (int i = 0; i < 40000; ++i) ++hits[sampler.sample(rng)];
  for (const std::size_t h : hits) {
    EXPECT_NEAR(static_cast<double>(h) / 40000.0, 0.25, 0.02);
  }
}

TEST(Zipf, PmfMatchesEmpiricalFrequencies) {
  Rng rng(2);
  const ZipfSampler sampler(6, 1.2);
  std::array<std::size_t, 6> hits{};
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) ++hits[sampler.sample(rng)];
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_NEAR(static_cast<double>(hits[r]) / draws, sampler.pmf(r), 0.01)
        << "rank " << r;
  }
}

TEST(Zipf, SingleRankDegenerateCase) {
  Rng rng(9);
  for (const double skew : {0.0, 1.0, 3.0}) {
    const ZipfSampler sampler(1, skew);
    EXPECT_EQ(sampler.size(), 1u);
    EXPECT_DOUBLE_EQ(sampler.pmf(0), 1.0);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
  }
}

TEST(Zipf, BoundaryDrawsLandOnCdfSteps) {
  // Skew 0 over 4 ranks has exactly representable CDF steps 0.25, 0.5,
  // 0.75, 1.0, so draws landing *exactly* on a step are testable: rank r
  // covers (cdf(r-1), cdf(r)], except rank 0 which also covers 0.
  const ZipfSampler sampler(4, 0.0);
  EXPECT_EQ(sampler.sample_at(0.0), 0u);
  EXPECT_EQ(sampler.sample_at(0.25), 0u);
  EXPECT_EQ(sampler.sample_at(std::nextafter(0.25, 1.0)), 1u);
  EXPECT_EQ(sampler.sample_at(0.5), 1u);
  EXPECT_EQ(sampler.sample_at(0.75), 2u);
  EXPECT_EQ(sampler.sample_at(std::nextafter(0.75, 1.0)), 3u);
  EXPECT_EQ(sampler.sample_at(std::nextafter(1.0, 0.0)), 3u);
  // uniform01() never returns 1.0; sample_at enforces the same domain.
  EXPECT_THROW((void)sampler.sample_at(1.0), CheckFailure);
  EXPECT_THROW((void)sampler.sample_at(-0.001), CheckFailure);
}

TEST(Zipf, GuideTableMatchesLowerBound) {
  // The guide-table probe must return exactly the binary search's index
  // for every u: on each CDF step and both of its neighbours (where ties
  // and bucket edges live), at both ends of [0, 1), and on seeded draws.
  Rng rng(77);
  for (const std::size_t n : {1u, 2u, 3u, 4u, 7u, 100u, 4096u, 37449u}) {
    for (const double skew : {0.0, 0.5, 1.0, 1.2, 3.0, 8.0}) {
      SCOPED_TRACE("n " + std::to_string(n) + " skew " +
                   std::to_string(skew));
      const ZipfSampler sampler(n, skew);
      const std::span<const double> cdf = sampler.cdf();
      ASSERT_EQ(cdf.size(), n);
      ASSERT_EQ(cdf.back(), 1.0);
      const auto oracle = [&cdf](double u) {
        return static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      };
      std::vector<double> probes{0.0, std::nextafter(1.0, 0.0)};
      for (const double c : cdf) {
        if (c >= 1.0) continue;
        probes.push_back(c);
        probes.push_back(std::nextafter(c, 0.0));
        probes.push_back(std::nextafter(c, 1.0));
      }
      for (int i = 0; i < 100000; ++i) probes.push_back(rng.uniform01());
      std::size_t mismatches = 0;
      for (const double u : probes) {
        if (u >= 1.0) continue;  // the step just below 1 steps up to 1
        if (sampler.sample_at(u) != oracle(u) && ++mismatches <= 5) {
          ADD_FAILURE() << "u " << u << ": probe " << sampler.sample_at(u)
                        << ", lower_bound " << oracle(u);
        }
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

TEST(Zipf, ChiSquaredAgainstPmf) {
  // Pearson χ² sanity check that empirical frequencies track pmf(). With
  // 15 degrees of freedom the 99.9th percentile is ≈ 37.7; the draw is
  // deterministic (fixed seed), so the bound cannot flake.
  Rng rng(2024);
  const std::size_t n = 16;
  const ZipfSampler sampler(n, 1.0);
  const int draws = 100000;
  std::vector<std::size_t> hits(n, 0);
  for (int i = 0; i < draws; ++i) ++hits[sampler.sample(rng)];
  double chi2 = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const double expected = sampler.pmf(r) * draws;
    ASSERT_GT(expected, 5.0) << "chi-squared needs expected counts > 5";
    const double diff = static_cast<double>(hits[r]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 37.7) << "empirical frequencies diverge from pmf()";
}

TEST(Zipf, HigherSkewConcentratesMass) {
  const ZipfSampler flat(100, 0.5);
  const ZipfSampler steep(100, 2.0);
  EXPECT_LT(flat.pmf(0), steep.pmf(0));
  EXPECT_GT(flat.pmf(99), steep.pmf(99));
}

TEST(Zipf, WeightsAreMonotone) {
  const auto w = zipf_weights(50, 1.0);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
}

TEST(Generators, TracesStayInRange) {
  Rng rng(3);
  const Tree t = trees::random_recursive(40, rng);
  for (const Trace& trace :
       {workload::uniform_trace(t, 500, 0.5, rng),
        workload::zipf_trace(t, 500, 1.0, 0.2, rng),
        workload::zipf_leaf_trace(t, 500, 1.0, 0.2, rng),
        workload::hotspot_trace(t, 500, 0.05, 0.2, rng),
        workload::update_churn_trace(t, 500, 1.0, 8, 0.1, rng)}) {
    EXPECT_EQ(trace.size(), 500u);
    for (const Request& r : trace) EXPECT_LT(r.node, t.size());
  }
}

TEST(Generators, LeafTraceOnlyTouchesLeaves) {
  Rng rng(4);
  const Tree t = trees::caterpillar(5, 3);
  const Trace trace = workload::zipf_leaf_trace(t, 300, 1.0, 0.0, rng);
  for (const Request& r : trace) {
    EXPECT_TRUE(t.is_leaf(r.node));
    EXPECT_EQ(r.sign, Sign::kPositive);
  }
}

TEST(Generators, NegativeFractionRoughlyHonored) {
  Rng rng(5);
  const Tree t = trees::star(10);
  const Trace trace = workload::uniform_trace(t, 20000, 0.3, rng);
  const auto s = stats(trace, t.size());
  EXPECT_NEAR(static_cast<double>(s.negatives) / 20000.0, 0.3, 0.02);
}

TEST(Generators, UpdateChurnUsesAlphaChunks) {
  Rng rng(6);
  const Tree t = trees::star(5);
  const std::uint64_t alpha = 6;
  const Trace trace =
      workload::update_churn_trace(t, 600, 1.0, alpha, 0.2, rng);
  // Negative requests appear in runs of alpha to the same node (the final
  // chunk may be truncated at the trace end).
  std::size_t i = 0;
  while (i < trace.size()) {
    if (trace[i].sign == Sign::kPositive) {
      ++i;
      continue;
    }
    std::size_t run = 1;
    while (i + run < trace.size() && trace[i + run] == trace[i]) ++run;
    EXPECT_TRUE(run % alpha == 0 || i + run == trace.size())
        << "at index " << i;
    i += run;
  }
}

TEST(Adversary, LiftAndChunkRoundTrip) {
  const std::vector<PageId> pages{0, 2, 1, 2, 0};
  const Trace lifted = workload::lift_paging_sequence(pages, 3);
  EXPECT_EQ(lifted.size(), 15u);
  EXPECT_EQ(lifted[0], positive(1));  // page p -> leaf p+1
  EXPECT_EQ(workload::chunk_pages(lifted, 3), pages);
}

TEST(Adversary, AlwaysRequestsUncachedLeaf) {
  Rng rng(7);
  const std::size_t k = 4;
  const Tree star = trees::star(k + 1);
  TreeCache tc(star, {.alpha = 4, .capacity = k});
  const Trace trace = workload::run_paging_adversary(tc, star, 4, 100);
  EXPECT_EQ(trace.size(), 400u);
  // Every chunk targets a leaf; TC pays for every single request
  // (the adversary's defining property).
  EXPECT_EQ(tc.cost().service, 400u);
}

TEST(Adversary, ForcesOmegaKRatioAgainstPaging) {
  // Classic Sleator–Tarjan: with k+1 pages, LRU faults every request while
  // OPT faults at most once per k requests.
  const std::size_t k = 5;
  LruPaging lru(k);
  std::vector<PageId> seq;
  for (int i = 0; i < 500; ++i) {
    PageId victim = 0;
    while (lru.cached(victim)) ++victim;
    seq.push_back(victim);
    lru.access(victim);
  }
  EXPECT_EQ(lru.faults(), 500u);
  const std::uint64_t opt = belady_faults(seq, k);
  // Asymptotically OPT faults once per k requests; allow small-instance
  // slack around the 500/k = 100 ideal.
  EXPECT_LE(opt, 500u / (k - 1));
  EXPECT_GE(lru.faults(), (k - 1) * opt);
}

TEST(Adversary, RejectsNonStarTrees) {
  const Tree path = trees::path(4);
  TreeCache tc(path, {.alpha = 2, .capacity = 2});
  EXPECT_THROW(
      (void)workload::run_paging_adversary(tc, path, 2, 3), CheckFailure);
}

}  // namespace
}  // namespace treecache
