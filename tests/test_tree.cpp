// Unit tests for the Tree substrate: construction, derived quantities,
// generators, serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "tree/tree.hpp"
#include "tree/tree_builder.hpp"
#include "tree/tree_io.hpp"
#include "util/rng.hpp"

namespace treecache {
namespace {

TEST(Tree, SingleNode) {
  const Tree t({kNoNode});
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.subtree_size(0), 1u);
  EXPECT_TRUE(t.is_leaf(0));
  EXPECT_EQ(t.max_degree(), 0u);
}

TEST(Tree, PathShape) {
  const Tree t = trees::path(5);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.height(), 5u);
  EXPECT_EQ(t.max_degree(), 1u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(t.depth(v), v);
    EXPECT_EQ(t.subtree_size(v), 5 - v);
  }
  EXPECT_TRUE(t.is_ancestor_or_self(0, 4));
  EXPECT_TRUE(t.is_ancestor_or_self(2, 2));
  EXPECT_FALSE(t.is_ancestor_or_self(3, 1));
}

TEST(Tree, StarShape) {
  const Tree t = trees::star(7);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.height(), 2u);
  EXPECT_EQ(t.max_degree(), 7u);
  EXPECT_EQ(t.leaves().size(), 7u);
  for (NodeId v = 1; v < 8; ++v) {
    EXPECT_EQ(t.parent(v), 0u);
    EXPECT_EQ(t.subtree_size(v), 1u);
  }
}

TEST(Tree, StarRefusesMoreLeavesThanNodeIds) {
  // leaf_count + 1 nodes must fit a NodeId; SIZE_MAX used to wrap to an
  // empty parent vector that star() then wrote past.
  EXPECT_THROW((void)trees::star(std::numeric_limits<std::size_t>::max()),
               CheckFailure);
}

TEST(Tree, CompleteBinary) {
  const Tree t = trees::complete_kary(4, 2);
  EXPECT_EQ(t.size(), 15u);  // 1 + 2 + 4 + 8
  EXPECT_EQ(t.height(), 4u);
  EXPECT_EQ(t.max_degree(), 2u);
  EXPECT_EQ(t.subtree_size(t.root()), 15u);
  EXPECT_EQ(t.leaves().size(), 8u);
}

TEST(Tree, CaterpillarShape) {
  const Tree t = trees::caterpillar(4, 3);
  EXPECT_EQ(t.size(), 16u);
  EXPECT_EQ(t.height(), 5u);  // spine of 4 plus a leaf level
  EXPECT_EQ(t.max_degree(), 4u);  // spine child + 3 legs
}

TEST(Tree, SpiderShape) {
  const Tree t = trees::spider(3, 4);
  EXPECT_EQ(t.size(), 13u);
  EXPECT_EQ(t.height(), 5u);
  EXPECT_EQ(t.max_degree(), 3u);
  EXPECT_EQ(t.leaves().size(), 3u);
}

TEST(Tree, PreorderParentsFirst) {
  Rng rng(42);
  const Tree t = trees::random_recursive(200, rng);
  std::vector<std::uint32_t> position(t.size());
  const auto pre = t.preorder();
  for (std::size_t i = 0; i < pre.size(); ++i) position[pre[i]] = static_cast<std::uint32_t>(i);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (v != t.root()) {
      EXPECT_LT(position[t.parent(v)], position[v]);
    }
  }
}

TEST(Tree, PostorderChildrenFirst) {
  Rng rng(7);
  const Tree t = trees::random_recursive(200, rng);
  std::vector<std::uint32_t> position(t.size());
  const auto post = t.postorder();
  for (std::size_t i = 0; i < post.size(); ++i) position[post[i]] = static_cast<std::uint32_t>(i);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (v != t.root()) {
      EXPECT_GT(position[t.parent(v)], position[v]);
    }
  }
}

TEST(Tree, SubtreeSizesSumOverChildren) {
  Rng rng(3);
  const Tree t = trees::random_bounded_degree(300, 4, rng);
  for (NodeId v = 0; v < t.size(); ++v) {
    std::uint32_t sum = 1;
    for (const NodeId c : t.children(v)) sum += t.subtree_size(c);
    EXPECT_EQ(t.subtree_size(v), sum);
    EXPECT_LE(t.num_children(v), 4u);
  }
}

TEST(Tree, AncestorQueriesAgreeWithPathWalk) {
  Rng rng(11);
  const Tree t = trees::random_recursive(60, rng);
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId d = 0; d < t.size(); ++d) {
      const auto path = t.path_to_root(d);
      const bool expected =
          std::find(path.begin(), path.end(), a) != path.end();
      EXPECT_EQ(t.is_ancestor_or_self(a, d), expected)
          << "a=" << a << " d=" << d;
    }
  }
}

TEST(Tree, BoundedHeightGeneratorRespectsBound) {
  Rng rng(5);
  for (const std::size_t h : {2u, 3u, 6u}) {
    const Tree t = trees::random_bounded_height(50, h, rng);
    EXPECT_LE(t.height(), h);
  }
  // Height 1 only admits a single node; more must be rejected.
  const Tree single = trees::random_bounded_height(1, 1, rng);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_THROW(trees::random_bounded_height(2, 1, rng), CheckFailure);
}

TEST(Tree, RejectsMultipleRoots) {
  EXPECT_THROW(Tree({kNoNode, kNoNode}), CheckFailure);
}

TEST(Tree, RejectsCycle) {
  // 1 -> 2 -> 1 cycle, 0 is the root.
  EXPECT_THROW(Tree({kNoNode, 2, 1}), CheckFailure);
}

TEST(Tree, RejectsSelfParent) {
  EXPECT_THROW(Tree({kNoNode, 1}), CheckFailure);
}

TEST(Tree, RejectsOutOfRangeParent) {
  EXPECT_THROW(Tree({kNoNode, 5}), CheckFailure);
}

TEST(TreeIo, ParentStringRoundTrip) {
  Rng rng(9);
  const Tree t = trees::random_recursive(40, rng);
  const std::string text = to_parent_string(t);
  const Tree back = from_parent_string(text);
  EXPECT_EQ(back.parent_array(), t.parent_array());
}

TEST(TreeIo, FromParentStringRejectsGarbage) {
  EXPECT_THROW(from_parent_string("-1 0 x"), CheckFailure);
  EXPECT_THROW(from_parent_string(""), CheckFailure);
  EXPECT_THROW(from_parent_string("-2"), CheckFailure);
}

TEST(TreeIo, FromParentStringRefusesIdsPastNodeId) {
  // 2^32 once narrowed to node 0 and loaded as "-1 0 1".
  try {
    (void)from_parent_string("-1 4294967296 1");
    FAIL() << "an id past NodeId loaded";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message().find("parent of node 1 ('4294967296')"),
              std::string::npos)
        << e.message();
  }
  // kNoNode itself is the sentinel, not an id; signs other than the
  // root's "-1", and tokens with junk, are refused as well.
  EXPECT_THROW(from_parent_string("-1 4294967295"), CheckFailure);
  EXPECT_THROW(from_parent_string("-1 18446744073709551616"), CheckFailure);
  EXPECT_THROW(from_parent_string("-1 +0"), CheckFailure);
  EXPECT_THROW(from_parent_string("-1 -0"), CheckFailure);
  EXPECT_THROW(from_parent_string("-1 0x1"), CheckFailure);
  EXPECT_THROW(from_parent_string("-1 1.0"), CheckFailure);
  // Any whitespace separates tokens.
  EXPECT_EQ(from_parent_string(" -1\t0\n0\r\n 1 \n").parent_array(),
            (std::vector<NodeId>{kNoNode, 0, 0, 1}));
}

TEST(TreeIo, AsciiContainsEveryNode) {
  const Tree t = trees::caterpillar(3, 2);
  const std::string art = to_ascii(t);
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_NE(art.find(std::to_string(v)), std::string::npos);
  }
}

TEST(TreeIo, DotHasOneEdgePerNonRoot) {
  const Tree t = trees::complete_kary(3, 2);
  const std::string dot = to_dot(t);
  std::size_t edges = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, t.size() - 1);
}

TEST(TreePreorder, RemapTablesAreInversePermutations) {
  Rng rng(11);
  const Tree t = trees::random_recursive(60, rng);
  const auto from = t.preorder();
  ASSERT_EQ(from.size(), t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_EQ(from[t.preorder_index(v)], v);
    EXPECT_EQ(t.preorder_index(from[v]), v);
  }
}

TEST(TreePreorder, RankTopologyMatchesNodeTopology) {
  Rng rng(23);
  const Tree t = trees::random_bounded_degree(50, 3, rng);
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    const NodeId v = t.from_preorder(r);
    EXPECT_EQ(t.preorder_subtree_size(r), t.subtree_size(v));
    const NodeId p = t.parent(v);
    EXPECT_EQ(t.preorder_parent(r),
              p == kNoNode ? kNoNode : t.preorder_index(p));
  }
}

TEST(TreePreorder, FirstChildNextSiblingScanEnumeratesChildren) {
  // Child iteration in rank space needs no adjacency array: first child is
  // r + 1, next sibling is c + subtree_size(c).
  Rng rng(7);
  const Tree t = trees::random_recursive(40, rng);
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    std::vector<NodeId> scanned;
    const std::uint32_t end = r + t.preorder_subtree_size(r);
    for (std::uint32_t c = r + 1; c < end; c += t.preorder_subtree_size(c)) {
      scanned.push_back(t.from_preorder(c));
    }
    const auto kids = t.children(t.from_preorder(r));
    std::vector<NodeId> expected(kids.begin(), kids.end());
    // The scan yields children in preorder; children() is construction
    // order. Compare as sets.
    std::sort(scanned.begin(), scanned.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(scanned, expected);
  }
}

TEST(TreePreorder, RelabeledTreeIsIdentityPermutation) {
  Rng rng(5);
  const Tree t = trees::random_recursive(45, rng);
  // Relabel by rank: the node at rank k of t becomes node k, whose parent
  // is the rank of its parent.
  std::vector<NodeId> rank_parent(t.size());
  for (std::uint32_t k = 0; k < t.size(); ++k) {
    rank_parent[k] = t.preorder_parent(k);
  }
  const Tree r(std::move(rank_parent));
  EXPECT_TRUE(r.is_preorder_labeled());
  ASSERT_EQ(r.size(), t.size());
  // Same shape: parenthood, subtree sizes and depths carry over.
  for (std::uint32_t k = 0; k < t.size(); ++k) {
    const NodeId v = t.from_preorder(k);
    EXPECT_EQ(r.from_preorder(k), k);
    EXPECT_EQ(r.subtree_size(k), t.subtree_size(v));
    EXPECT_EQ(r.depth(k), t.depth(v));
  }
  // A tree built in preorder (a path is) reports identity; a level-order
  // build (complete k-ary, 3 levels) does not.
  EXPECT_TRUE(trees::path(4).is_preorder_labeled());
  EXPECT_FALSE(trees::complete_kary(3, 2).is_preorder_labeled());
}

/// What a parent array alone says about its tree: children in id order,
/// the preorder that visits them that way, and depths by walking up.
struct ParentArrayFacts {
  std::vector<std::vector<NodeId>> children;
  std::vector<NodeId> preorder;
  std::vector<std::uint32_t> depth;
  std::size_t max_degree = 0;
};

ParentArrayFacts facts_of(const std::vector<NodeId>& parent) {
  ParentArrayFacts f;
  f.children.resize(parent.size());
  NodeId root = kNoNode;
  for (NodeId v = 0; v < parent.size(); ++v) {
    if (parent[v] == kNoNode) {
      root = v;
    } else {
      f.children[parent[v]].push_back(v);
    }
  }
  for (const auto& kids : f.children) {
    f.max_degree = std::max(f.max_degree, kids.size());
  }
  for (std::vector<NodeId> stack{root}; !stack.empty();) {
    const NodeId v = stack.back();
    stack.pop_back();
    f.preorder.push_back(v);
    const auto& kids = f.children[v];
    stack.insert(stack.end(), kids.rbegin(), kids.rend());
  }
  for (NodeId v = 0; v < parent.size(); ++v) {
    std::uint32_t d = 0;
    for (NodeId u = v; parent[u] != kNoNode; u = parent[u]) ++d;
    f.depth.push_back(d);
  }
  return f;
}

TEST(TreePreorder, DerivedAccessorsMatchTheParentArray) {
  // children(), preorder(), postorder(), parent_array() and depth() are
  // derived from the rank arrays; each must say what the parent array
  // says, whether or not the tree stores the rank <-> id pair.
  Rng rng(19);
  const Tree recursive = trees::random_recursive(120, rng);
  const Tree bounded = trees::random_bounded_degree(90, 3, rng);
  const Tree kary = trees::complete_kary(4, 3);
  std::vector<NodeId> by_rank(recursive.size());
  for (std::uint32_t r = 0; r < recursive.size(); ++r) {
    by_rank[r] = recursive.preorder_parent(r);
  }
  const Tree labeled(by_rank);
  ASSERT_TRUE(labeled.is_preorder_labeled());
  ASSERT_FALSE(recursive.is_preorder_labeled());
  ASSERT_FALSE(kary.is_preorder_labeled());
  for (const Tree* t : {&recursive, &bounded, &kary, &labeled}) {
    SCOPED_TRACE(testing::Message() << t->size() << " nodes, labeled "
                                    << t->is_preorder_labeled());
    const std::vector<NodeId> parent = t->parent_array();
    const Tree rebuilt(parent);
    EXPECT_EQ(rebuilt.parent_array(), parent);
    const ParentArrayFacts f = facts_of(parent);
    for (NodeId v = 0; v < t->size(); ++v) {
      EXPECT_EQ(t->parent(v), parent[v]);
      const auto kids = t->children(v);
      EXPECT_EQ(std::vector<NodeId>(kids.begin(), kids.end()), f.children[v])
          << "v=" << v;
      EXPECT_EQ(t->num_children(v), f.children[v].size()) << "v=" << v;
      EXPECT_EQ(t->is_leaf(v), f.children[v].empty()) << "v=" << v;
      EXPECT_EQ(t->depth(v), f.depth[v]) << "v=" << v;
    }
    EXPECT_EQ(t->max_degree(), f.max_degree);
    EXPECT_EQ(t->height(),
              1 + *std::max_element(f.depth.begin(), f.depth.end()));
    const auto pre = t->preorder();
    EXPECT_EQ(std::vector<NodeId>(pre.begin(), pre.end()), f.preorder);
    const auto post = t->postorder();
    EXPECT_EQ(std::vector<NodeId>(post.begin(), post.end()),
              std::vector<NodeId>(f.preorder.rbegin(), f.preorder.rend()));
    for (std::uint32_t r = 0; r < t->size(); ++r) {
      EXPECT_EQ(pre[r], f.preorder[r]);
      EXPECT_EQ(t->from_preorder(r), f.preorder[r]);
      EXPECT_EQ(t->preorder_index(f.preorder[r]), r);
    }
  }
  // Labeled trees store no rank <-> id pair, so the labeled copy of a
  // tree is its own preorder: ids 0..n-1 in order.
  const auto pre = labeled.preorder();
  for (std::uint32_t r = 0; r < labeled.size(); ++r) EXPECT_EQ(pre[r], r);
}

TEST(TreePreorder, TopLevelSliceKeepsWholeSubtreesOnly) {
  // Root 0 with top-level subtrees at ranks 1 (size 3), 4 (size 1) and
  // 5 (size 2).
  const Tree t({kNoNode, 0, 1, 1, 0, 0, 5});
  const Tree head = Tree::top_level_slice(t, 0, 4);
  EXPECT_EQ(head.parent_array(), (std::vector<NodeId>{kNoNode, 0, 1, 1}));
  EXPECT_EQ(head.height(), 3u);
  EXPECT_EQ(head.max_degree(), 2u);
  // Past the root, local 0 is a replica root over the slice's subtrees.
  const Tree tail = Tree::top_level_slice(t, 4, 7);
  EXPECT_EQ(tail.parent_array(), (std::vector<NodeId>{kNoNode, 0, 0, 2}));
  EXPECT_EQ(tail.subtree_size(0), 4u);
  EXPECT_EQ(tail.depth(3), 2u);
  EXPECT_TRUE(tail.is_preorder_labeled());
  // A slice must start and end on top-level subtree boundaries.
  EXPECT_THROW((void)Tree::top_level_slice(t, 2, 4), CheckFailure);
  EXPECT_THROW((void)Tree::top_level_slice(t, 1, 3), CheckFailure);
  EXPECT_THROW((void)Tree::top_level_slice(t, 4, 8), CheckFailure);
  EXPECT_THROW((void)Tree::top_level_slice(t, 4, 4), CheckFailure);
}

TEST(TwoSubtreeGadget, Shape) {
  const Tree t = trees::two_subtree_gadget(4);
  // root + two full binary subtrees of size 7.
  EXPECT_EQ(t.size(), 15u);
  EXPECT_EQ(t.num_children(0), 2u);
  EXPECT_EQ(t.subtree_size(1), 7u);
  EXPECT_EQ(t.subtree_size(8), 7u);
}

}  // namespace
}  // namespace treecache
