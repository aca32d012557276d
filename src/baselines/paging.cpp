#include "baselines/paging.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace treecache {

bool LruPaging::access(PageId page) {
  const auto it = position_.find(page);
  if (it != position_.end()) {
    order_.splice(order_.begin(), order_, it->second);
    return false;
  }
  ++faults_;
  if (order_.size() == k_) {
    position_.erase(order_.back());
    order_.pop_back();
  }
  order_.push_front(page);
  position_[page] = order_.begin();
  return true;
}

void LruPaging::reset() {
  order_.clear();
  position_.clear();
  faults_ = 0;
}

bool FifoPaging::access(PageId page) {
  if (cached(page)) return false;
  ++faults_;
  if (queue_.size() == k_) queue_.pop_front();
  queue_.push_back(page);
  return true;
}

void FifoPaging::reset() {
  queue_.clear();
  faults_ = 0;
}

bool FwfPaging::access(PageId page) {
  if (cached(page)) return false;
  ++faults_;
  if (cache_.size() == k_) cache_.clear();
  cache_.push_back(page);
  return true;
}

void FwfPaging::reset() {
  cache_.clear();
  faults_ = 0;
}

std::uint64_t belady_faults(const std::vector<PageId>& sequence,
                            std::size_t k) {
  TC_CHECK(k >= 1, "k >= 1");
  const std::size_t n = sequence.size();
  // next_use[i]: index of the next occurrence of sequence[i] after i.
  std::vector<std::size_t> next_use(n, n);
  std::unordered_map<PageId, std::size_t> upcoming;
  for (std::size_t i = n; i-- > 0;) {
    const auto it = upcoming.find(sequence[i]);
    next_use[i] = (it == upcoming.end()) ? n + i : it->second;
    upcoming[sequence[i]] = i;
  }

  std::uint64_t faults = 0;
  // cache as a set of (next_use, page), max next_use evicted first.
  std::set<std::pair<std::size_t, PageId>> by_next_use;
  std::unordered_map<PageId, std::size_t> cached_next;
  for (std::size_t i = 0; i < n; ++i) {
    const PageId page = sequence[i];
    const auto it = cached_next.find(page);
    if (it != cached_next.end()) {
      by_next_use.erase({it->second, page});
    } else {
      ++faults;
      if (cached_next.size() == k) {
        const auto victim = std::prev(by_next_use.end());
        cached_next.erase(victim->second);
        by_next_use.erase(victim);
      }
    }
    cached_next[page] = next_use[i];
    by_next_use.insert({next_use[i], page});
  }
  return faults;
}

}  // namespace treecache
