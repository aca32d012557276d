// Buffers that own whole cache lines.
//
// A sharded run steps each shard's instance on a worker thread while the
// demux thread reads the universe and the plan. A buffer that one thread
// writes on every request and that shares a cache line with data another
// thread reads (false sharing) costs both threads a cache miss per write,
// and where it lands depends only on the heap's layout. LineVector gives
// such a buffer lines of its own: it starts on a line boundary and its
// allocation is rounded up to whole lines.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace treecache {

inline constexpr std::size_t kCacheLine = 64;

template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes =
        (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
    return static_cast<T*>(
        ::operator new(bytes, std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t /*n*/) {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) = default;
};

/// A vector whose buffer shares no cache line with any other allocation.
template <typename T>
using LineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace treecache
