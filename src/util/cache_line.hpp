// The cache-line size that state written by one thread is aligned to.
//
// A sharded run steps each shard's instance on a worker thread while the
// demux thread reads the universe and the plan. An object that one thread
// writes on every request and that shares a cache line with data another
// thread reads (false sharing) costs both threads a cache miss per write,
// and where it lands depends only on the heap's layout. alignas(kCacheLine)
// gives such an object lines of its own.
#pragma once

#include <cstddef>

namespace treecache {

inline constexpr std::size_t kCacheLine = 64;

}  // namespace treecache
