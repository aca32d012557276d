#include "core/kernels.hpp"

namespace treecache::kernels {

ScanResult scan_missing(const MissingScan& s, std::uint32_t ru,
                        std::uint32_t end, RankVec& out) {
  ScanResult res;
  for (std::uint32_t r = ru; r < end;) {
    ++res.visits;
    if (((s.cached_bits[r >> 6] >> (r & 63)) & 1) != 0) {
      r += s.sizes[r];
      continue;
    }
    out.push_back(r);
    if (s.cnt != nullptr && s.cnt[r].stamp == s.epoch) {
      res.total += s.cnt[r].value;
    }
    ++r;
  }
  return res;
}

ScanResult scan_h_candidates(const HScan& s, std::uint32_t ru,
                             std::uint32_t end, RankVec& out) {
  ScanResult res;
  for (std::uint32_t r = ru; r < end;) {
    ++res.visits;
    if (r != ru && s.neg[r].value < 0) {
      r += s.sizes[r];
      continue;
    }
    out.push_back(r);
    if (s.cnt[r].stamp == s.epoch) res.total += s.cnt[r].value;
    ++r;
  }
  return res;
}

}  // namespace treecache::kernels
