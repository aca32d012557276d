// Unit tests for Subforest: descendant-closure, changeset validity,
// tree-cap helpers.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/changeset_enum.hpp"
#include "tree/subforest.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"

namespace treecache {
namespace {

/// Builds the cache {leaf-side suffix} on a path tree.
Subforest path_cache_suffix(const Tree& t, NodeId from) {
  Subforest cache(t);
  for (NodeId v = static_cast<NodeId>(t.size()); v-- > from;) cache.insert(v);
  return cache;
}

TEST(Subforest, StartsEmptyAndValid) {
  const Tree t = trees::complete_kary(3, 2);
  const Subforest cache(t);
  EXPECT_TRUE(cache.empty());
  EXPECT_TRUE(cache.is_valid());
  EXPECT_TRUE(cache.maximal_roots().empty());
}

TEST(Subforest, InsertBottomUpKeepsValidity) {
  const Tree t = trees::path(4);
  Subforest cache(t);
  cache.insert(3);
  cache.insert(2);
  EXPECT_TRUE(cache.is_valid());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.contains(3));
  EXPECT_FALSE(cache.contains(1));
}

TEST(Subforest, RankSpaceAndNodeIdSpaceShareOneBitmap) {
  // Breadth-first ids: 0; 1, 2; 3, 4 under 1; 5, 6 under 2. Preorder
  // ranks differ from them (node 2 sits at rank 4), so every check below
  // crosses the NodeId -> rank translation.
  const Tree t = trees::complete_kary(3, 2);
  ASSERT_FALSE(t.is_preorder_labeled());
  ASSERT_NE(t.preorder_index(2), 2u);

  // Write T(1) in rank space, bottom-up, then read it by NodeId.
  Subforest cache(t);
  const std::uint32_t r1 = t.preorder_index(1);
  for (std::uint32_t r = r1 + t.subtree_size(1); r-- > r1;) {
    cache.set_rank(r);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.as_vector(), (std::vector<NodeId>{1, 3, 4}));
  EXPECT_TRUE(cache.is_valid());
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_FALSE(cache.contains(5));

  // The reverse: write T(2) by NodeId, read it in rank space.
  cache.insert(5);
  cache.insert(6);
  cache.insert(2);
  const std::uint32_t r2 = t.preorder_index(2);
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    EXPECT_EQ(cache.contains_rank(r), r != t.preorder_index(0)) << r;
  }
  // The root's missing scan visits the root, then jumps T(1) and T(2).
  std::vector<std::uint32_t> missing;
  EXPECT_EQ(cache.missing_ranks(0, t.size(), missing), 3u);
  EXPECT_EQ(missing, (std::vector<std::uint32_t>{t.preorder_index(0)}));

  // A rank clear shows up by NodeId, a NodeId erase in rank space.
  cache.clear_rank(r2);
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(5));
  cache.erase(1);
  EXPECT_FALSE(cache.contains_rank(r1));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.as_vector(), (std::vector<NodeId>{3, 4, 5, 6}));
  EXPECT_TRUE(cache.is_valid());
}

TEST(Subforest, ClearSliceWithinAndAcrossWords) {
  // A star's leaves are whole subtrees under an uncached root, so any run
  // of leaf ranks is a descendant-closed eviction. Ids are ranks here.
  const Tree t = trees::star(300);
  ASSERT_TRUE(t.is_preorder_labeled());
  Subforest cache(t);
  for (NodeId v = 1; v <= 300; ++v) cache.insert(v);
  ASSERT_EQ(cache.size(), 300u);

  cache.clear_slice(5, 20);  // inside word 0
  EXPECT_EQ(cache.size(), 285u);
  cache.clear_slice(40, 200);  // words 0 to 3: head, two full words, tail
  EXPECT_EQ(cache.size(), 125u);
  cache.clear_slice(250, 256);  // ends on the edge of word 3
  EXPECT_EQ(cache.size(), 119u);
  cache.clear_slice(7, 7);  // empty slice: no-op
  EXPECT_EQ(cache.size(), 119u);

  std::vector<NodeId> expected;
  for (NodeId v = 1; v <= 300; ++v) {
    const bool erased = (v >= 5 && v < 20) || (v >= 40 && v < 200) ||
                        (v >= 250 && v < 256);
    if (!erased) expected.push_back(v);
  }
  EXPECT_EQ(cache.as_vector(), expected);
  EXPECT_TRUE(cache.is_valid());
}

TEST(Subforest, MaximalRootsOnStar) {
  const Tree t = trees::star(4);
  Subforest cache(t);
  cache.insert(1);
  cache.insert(3);
  const auto roots = cache.maximal_roots();
  EXPECT_EQ(roots, (std::vector<NodeId>{1, 3}));
}

TEST(Subforest, CachedTreeRootWalksUp) {
  const Tree t = trees::path(5);
  const Subforest cache = path_cache_suffix(t, 2);
  EXPECT_EQ(cache.cached_tree_root(4), 2u);
  EXPECT_EQ(cache.cached_tree_root(2), 2u);
}

TEST(Subforest, MissingSubtreeIsWholeSubtreeWhenEmpty) {
  const Tree t = trees::complete_kary(3, 2);
  const Subforest cache(t);
  auto missing = cache.missing_subtree(t.root());
  EXPECT_EQ(missing.size(), t.size());
}

TEST(Subforest, MissingSubtreeSkipsCachedParts) {
  const Tree t = trees::path(5);
  const Subforest cache = path_cache_suffix(t, 3);  // {3, 4} cached
  auto missing = cache.missing_subtree(1);
  std::sort(missing.begin(), missing.end());
  EXPECT_EQ(missing, (std::vector<NodeId>{1, 2}));
}

TEST(Subforest, OutputBufferOverloadsMatchConvenienceForms) {
  Rng rng(29);
  const Tree t = trees::random_recursive(50, rng);
  Subforest cache(t);
  // Buffers pre-filled with garbage: the overloads must clear, not append.
  std::vector<NodeId> missing_buf{kNoNode, kNoNode};
  std::vector<NodeId> roots_buf{kNoNode};
  std::vector<NodeId> cached_buf{kNoNode, kNoNode, kNoNode};
  for (int step = 0; step < 300; ++step) {
    const NodeId u = static_cast<NodeId>(rng.below(t.size()));
    if (!cache.contains(u)) {
      cache.missing_subtree(u, missing_buf);
      EXPECT_EQ(missing_buf, cache.missing_subtree(u));
      if (rng.chance(0.6)) {
        for (auto it = missing_buf.rbegin(); it != missing_buf.rend(); ++it) {
          cache.insert(*it);
        }
      }
    } else if (rng.chance(0.3)) {
      const NodeId r = cache.cached_tree_root(u);
      std::vector<NodeId> subtree;
      Subforest empty(t);
      empty.missing_subtree(r, subtree);  // whole T(r), preorder
      for (const NodeId v : subtree) cache.erase(v);
    }
    cache.maximal_roots(roots_buf);
    EXPECT_EQ(roots_buf, cache.maximal_roots());
    cache.as_vector(cached_buf);
    EXPECT_EQ(cached_buf, cache.as_vector());
    ASSERT_TRUE(cache.is_valid());
  }
}

TEST(Subforest, SetBitScanMatchesAllNodeScan) {
  // maximal_roots() and as_vector() scan the set bits of the rank bitmap:
  // the roots come in rank order and the cached ids sorted. The reference
  // is the all-node scan they replace, over ranks for the roots and over
  // ids for the cache. The tree's ids are not its preorder ranks, so a
  // missing translation or a root sorted by id shows; its 200 ranks end in
  // a partial word.
  Rng rng(31);
  const Tree t = trees::random_recursive(200, rng);
  ASSERT_FALSE(t.is_preorder_labeled());
  const auto from = t.preorder();
  const auto cache_subtree = [&](Subforest& cache, NodeId u) {
    if (cache.contains(u)) return;
    const std::vector<NodeId> missing = cache.missing_subtree(u);
    for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
      cache.insert(*it);
    }
  };
  // Ranks on the word edges and in the last, partial word.
  const std::uint32_t edges[] = {63, 64, 127, 128, 192, 199};
  for (int trial = 0; trial < 200; ++trial) {
    Subforest cache(t);
    for (const std::uint32_t r : edges) {
      if (rng.chance(0.5)) cache_subtree(cache, from[r]);
    }
    const std::size_t extra = rng.below(6);
    for (std::size_t i = 0; i < extra; ++i) {
      cache_subtree(cache, static_cast<NodeId>(rng.below(t.size())));
    }
    ASSERT_TRUE(cache.is_valid());
    std::vector<NodeId> roots;
    for (const NodeId v : from) {
      const NodeId p = t.parent(v);
      if (cache.contains(v) && (p == kNoNode || !cache.contains(p))) {
        roots.push_back(v);
      }
    }
    std::vector<NodeId> cached;
    for (NodeId v = 0; v < t.size(); ++v) {
      if (cache.contains(v)) cached.push_back(v);
    }
    ASSERT_EQ(cache.maximal_roots(), roots) << "trial " << trial;
    ASSERT_EQ(cache.as_vector(), cached) << "trial " << trial;
  }
}

TEST(Subforest, PositiveChangesetValidity) {
  const Tree t = trees::path(4);
  const Subforest cache = path_cache_suffix(t, 3);  // {3} cached
  // {2} extends the cached tree upward: valid.
  EXPECT_TRUE(cache.is_valid_positive_changeset(std::vector<NodeId>{2}));
  // {1} would cache a node whose child 2 is absent: invalid.
  EXPECT_FALSE(cache.is_valid_positive_changeset(std::vector<NodeId>{1}));
  // {1, 2} together: valid.
  EXPECT_TRUE(cache.is_valid_positive_changeset(std::vector<NodeId>{1, 2}));
  // Already cached node: invalid.
  EXPECT_FALSE(cache.is_valid_positive_changeset(std::vector<NodeId>{3}));
  // Empty: invalid.
  EXPECT_FALSE(cache.is_valid_positive_changeset(std::vector<NodeId>{}));
  // Duplicates: invalid.
  EXPECT_FALSE(cache.is_valid_positive_changeset(std::vector<NodeId>{2, 2}));
}

TEST(Subforest, NegativeChangesetValidity) {
  const Tree t = trees::path(4);
  const Subforest cache = path_cache_suffix(t, 2);  // {2, 3} cached
  // Evicting the top of the cached tree: valid.
  EXPECT_TRUE(cache.is_valid_negative_changeset(std::vector<NodeId>{2}));
  EXPECT_TRUE(cache.is_valid_negative_changeset(std::vector<NodeId>{2, 3}));
  // Evicting a node while keeping its cached ancestor: invalid.
  EXPECT_FALSE(cache.is_valid_negative_changeset(std::vector<NodeId>{3}));
  // Evicting a non-cached node: invalid.
  EXPECT_FALSE(cache.is_valid_negative_changeset(std::vector<NodeId>{1}));
  EXPECT_FALSE(cache.is_valid_negative_changeset(std::vector<NodeId>{}));
}

TEST(Subforest, EnumerationMatchesManualCountOnPath) {
  // Path of 4, cache {2,3}. Valid positive changesets: {1}? no (child 2
  // cached — yes it is! 1's only child is 2 which IS cached → {1} valid).
  const Tree t = trees::path(4);
  const Subforest cache = path_cache_suffix(t, 2);
  const auto pos = enumerate_positive_changesets(cache);
  // Non-cached nodes: {0, 1}. Valid: {1}, {0,1}. ({0} alone: child 1 absent.)
  EXPECT_EQ(pos.size(), 2u);
  const auto neg = enumerate_negative_changesets(cache);
  // Valid: {2}, {2,3}. ({3} alone keeps cached parent 2.)
  EXPECT_EQ(neg.size(), 2u);
}

TEST(Subforest, EnumerationCountsOnStar) {
  const Tree t = trees::star(3);  // root 0, leaves 1..3
  Subforest cache(t);
  // Empty cache: valid positive changesets are any non-empty union of
  // leaves, optionally with the root only when all leaves are included:
  // 2^3 - 1 leaf combinations + 1 (everything) = 8.
  const auto pos = enumerate_positive_changesets(cache);
  EXPECT_EQ(pos.size(), 8u);

  cache.insert(1);
  cache.insert(2);
  // Valid negative changesets: subsets of {1,2} → 3.
  const auto neg = enumerate_negative_changesets(cache);
  EXPECT_EQ(neg.size(), 3u);
}

TEST(Subforest, EraseTopDown) {
  const Tree t = trees::path(3);
  Subforest cache(t);
  cache.insert(2);
  cache.insert(1);
  cache.insert(0);
  cache.erase(0);
  cache.erase(1);
  EXPECT_TRUE(cache.is_valid());
  EXPECT_EQ(cache.as_vector(), (std::vector<NodeId>{2}));
}

TEST(Subforest, RandomChurnKeepsValidity) {
  Rng rng(123);
  const Tree t = trees::random_recursive(40, rng);
  Subforest cache(t);
  for (int step = 0; step < 2000; ++step) {
    if (cache.empty() || rng.chance(0.55)) {
      // fetch a random missing candidate set P(u)
      const NodeId u = static_cast<NodeId>(rng.below(t.size()));
      if (cache.contains(u)) continue;
      const auto missing = cache.missing_subtree(u);
      ASSERT_TRUE(cache.is_valid_positive_changeset(missing));
      for (auto it = missing.rbegin(); it != missing.rend(); ++it) {
        cache.insert(*it);
      }
    } else {
      const auto roots = cache.maximal_roots();
      const NodeId r = rng.pick(roots);
      // evict the complete subtree T(r)
      const std::vector<NodeId> subtree = [&] {
        std::vector<NodeId> out, stack{r};
        while (!stack.empty()) {
          const NodeId v = stack.back();
          stack.pop_back();
          out.push_back(v);
          for (const NodeId c : t.children(v)) stack.push_back(c);
        }
        return out;
      }();
      ASSERT_TRUE(cache.is_valid_negative_changeset(subtree));
      for (const NodeId v : subtree) cache.erase(v);
    }
    ASSERT_TRUE(cache.is_valid());
  }
}

/// Random universes for the randomized case: bushy and narrow random
/// trees, paths, stars and a complete tree, of varied sizes.
Tree random_universe(std::size_t which, Rng& rng) {
  switch (which % 5) {
    case 0:
      return trees::random_recursive(2 + rng.below(300), rng);
    case 1:
      return trees::random_bounded_degree(2 + rng.below(200), 3, rng);
    case 2:
      return trees::path(1 + rng.below(150));
    case 3:
      return trees::star(1 + rng.below(150));
    default:
      return trees::complete_kary(4, 3);
  }
}

/// Reference P_t(u): walks T(u)'s preorder slice rank by rank off the
/// contains() flags, skipping each cached subtree as one jump.
std::vector<NodeId> naive_missing(const Subforest& sub, NodeId u) {
  const Tree& tree = sub.tree();
  std::vector<NodeId> out;
  const auto from = tree.preorder();
  const std::uint32_t ru = tree.preorder_index(u);
  const std::uint32_t end = ru + tree.subtree_size(u);
  for (std::uint32_t r = ru; r < end;) {
    const NodeId v = from[r];
    if (sub.contains(v)) {
      r += tree.preorder_subtree_size(r);
      continue;
    }
    out.push_back(v);
    ++r;
  }
  return out;
}

TEST(Subforest, MissingSubtreeMatchesNaiveOnRandomUniverses) {
  Rng rng(413);
  for (std::size_t round = 0; round < 25; ++round) {
    const Tree tree = random_universe(round, rng);
    const std::uint32_t n = tree.size();
    // A random descendant-closed set: a union of whole-subtree rank
    // slices, inserted children first (descending rank) as fetches are.
    const auto sizes = tree.preorder_sizes();
    std::vector<bool> cached(n, false);
    for (std::size_t i = rng.below(8); i > 0; --i) {
      const auto r = static_cast<std::uint32_t>(rng.below(n));
      std::fill(cached.begin() + r, cached.begin() + r + sizes[r], true);
    }
    Subforest sub(tree);
    const auto from = tree.preorder();
    for (std::uint32_t r = n; r-- > 0;) {
      if (cached[r]) sub.insert(from[r]);
    }
    for (std::size_t probe = 0; probe < 4; ++probe) {
      const auto u = static_cast<NodeId>(rng.below(n));
      if (sub.contains(u)) continue;  // P_t(u) needs non-cached u
      EXPECT_EQ(sub.missing_subtree(u), naive_missing(sub, u));
    }
  }
}

}  // namespace
}  // namespace treecache
