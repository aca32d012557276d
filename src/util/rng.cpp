#include "util/rng.hpp"

namespace treecache {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  // xoshiro requires a nonzero state; splitmix64 makes all-zero output
  // astronomically unlikely, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  TC_CHECK(bound > 0, "below(0) is undefined");
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  TC_CHECK(lo <= hi, "uniform_int: lo > hi");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(below(span));
}

Rng Rng::split() {
  const std::uint64_t child_seed = (*this)() ^ 0xd1b54a32d192ed03ULL;
  return Rng(child_seed);
}

std::vector<std::uint64_t> point_seeds(std::uint64_t seed,
                                       std::size_t points) {
  std::vector<std::uint64_t> seeds(points);
  Rng seeder(seed);
  for (auto& s : seeds) s = seeder();
  return seeds;
}

}  // namespace treecache
