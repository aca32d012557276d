// Deterministic, fast random number generation for workloads and tests.
//
// All randomness in the library flows through Rng so that every experiment is
// reproducible from a single 64-bit seed. The generator is SplitMix64-seeded
// xoshiro256**, which is far faster than std::mt19937_64 and has no warm-up
// pathologies for nearby seeds.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace treecache {

/// xoshiro256** PRNG with SplitMix64 seeding. Satisfies
/// std::uniform_random_bit_generator, so it composes with <random>.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initializes the state from a single seed value.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform01() < p; }

  /// Derives an independent child generator; used to give a sub-task its
  /// own stream without correlation.
  Rng split();

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

  /// Picks a uniformly random element of a non-empty vector.
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    TC_CHECK(!items.empty(), "pick() from empty vector");
    return items[below(items.size())];
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// The first `points` draws of Rng(seed): one seed per point of a sweep, so
/// each point's stream depends only on its index and the sweep's seed, not
/// on which points run before it.
[[nodiscard]] std::vector<std::uint64_t> point_seeds(std::uint64_t seed,
                                                     std::size_t points);

}  // namespace treecache
