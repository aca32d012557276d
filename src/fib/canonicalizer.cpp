#include "fib/canonicalizer.hpp"

#include <algorithm>
#include <string>

namespace treecache::fib {

namespace {
/// Applies one recorded modification to the shadow cache, in a validity-
/// preserving order, and returns the number of changed nodes.
std::size_t apply_to_shadow(Subforest& shadow, const Tree& tree,
                            ChangeKind kind, std::span<const NodeId> nodes) {
  std::vector<NodeId> order(nodes.begin(), nodes.end());
  switch (kind) {
    case ChangeKind::kFetch:
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return tree.depth(a) > tree.depth(b);  // deepest first
      });
      for (const NodeId v : order) {
        if (!shadow.contains(v)) shadow.insert(v);
      }
      break;
    case ChangeKind::kEvict:
    case ChangeKind::kPhaseRestart:
      std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return tree.depth(a) < tree.depth(b);  // shallowest first
      });
      for (const NodeId v : order) {
        if (shadow.contains(v)) shadow.erase(v);
      }
      break;
    case ChangeKind::kNone:
      break;
  }
  return order.size();
}
}  // namespace

CanonicalizationReport run_canonicalized(const Tree& tree,
                                         std::span<const Request> trace,
                                         std::uint64_t alpha,
                                         OnlineAlgorithm& alg) {
  TC_CHECK(alpha >= 1, "alpha must be positive");
  CanonicalizationReport report;

  Subforest shadow(tree);
  struct PendingChange {
    ChangeKind kind;
    std::vector<NodeId> nodes;
  };
  std::vector<PendingChange> pending;
  NodeId chunk_node = 0;
  std::uint64_t chunk_left = 0;  // negatives left in the open chunk
  bool chunk_dirty = false;  // a change happened strictly inside the chunk

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request r = trace[i];
    // Every negative request belongs to one update's α-chunk: a run of
    // negatives to one node is whole chunks, and only the trace's end may
    // cut its last one short.
    const bool in_chunk = r.sign == Sign::kNegative;
    if (chunk_left > 0) {
      TC_CHECK(in_chunk && r.node == chunk_node,
               "round " + std::to_string(i + 1) +
                   " cuts an update chunk short after " +
                   std::to_string(alpha - chunk_left) + " of alpha=" +
                   std::to_string(alpha) + " negatives to node " +
                   std::to_string(chunk_node));
    } else if (in_chunk) {
      chunk_node = r.node;
      chunk_left = alpha;
      ++report.chunks;
    }
    if (in_chunk) --chunk_left;
    const bool chunk_last = in_chunk && chunk_left == 0;

    // The canonical solution serves from the shadow cache.
    const bool shadow_pays =
        in_chunk ? shadow.contains(r.node) : !shadow.contains(r.node);
    if (shadow_pays) ++report.canonical_cost.service;

    const StepOutcome out = alg.step(r);
    if (out.change != ChangeKind::kNone) {
      if (!out.also_evicted.empty()) {  // room-making evictions come first
        pending.push_back(
            PendingChange{ChangeKind::kEvict,
                          std::vector<NodeId>(out.also_evicted.begin(),
                                              out.also_evicted.end())});
      }
      pending.push_back(PendingChange{
          out.change,
          std::vector<NodeId>(out.changed.begin(), out.changed.end())});
      // A change at the chunk's LAST round already happens after the whole
      // chunk was served — it is canonical as-is. Only changes strictly
      // inside the chunk get postponed (and can raise the service cost).
      if (in_chunk && !chunk_last) chunk_dirty = true;
    }

    // Outside chunks, or at a chunk's last round, sync the shadow cache.
    // (Node-movement costs are identical to the algorithm's — the moves
    // merely happen later — so reorg is copied wholesale at the end.)
    if (!in_chunk || chunk_last) {
      if (chunk_last && chunk_dirty) ++report.dirty_chunks;
      chunk_dirty = false;
      for (const PendingChange& change : pending) {
        apply_to_shadow(shadow, tree, change.kind, change.nodes);
      }
      pending.clear();
    }
  }
  // Any modifications pending after the last round are applied (trace may
  // end mid-chunk).
  for (const PendingChange& change : pending) {
    apply_to_shadow(shadow, tree, change.kind, change.nodes);
  }
  pending.clear();

  report.raw_cost = alg.cost();
  // The canonical solution performs exactly the same node movements, only
  // later; its reorganization cost equals the algorithm's.
  report.canonical_cost.reorg = report.raw_cost.reorg;
  return report;
}

}  // namespace treecache::fib
