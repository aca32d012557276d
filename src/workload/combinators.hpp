// Source combinators: build composite scenarios out of registered
// workloads without writing a new generator.
//
// Registered names (parts resolve recursively through the
// WorkloadRegistry, so combinators compose — a part may itself be a
// combinator, just not the combinator's own name):
//
//   concat        parts=a,b,...          phase changes: runs each part to
//                 exhaustion in order, splitting "length" evenly across
//                 the parts (remainder to the earliest parts).
//   mix           parts=a,b,...          statistical blend: each request
//                 weights=w1,w2,...      comes from part i with probability
//                                        proportional to w_i; "length" is
//                                        split across parts by weight.
//   churn-inject  inner=<name>           wraps a workload and injects an
//                 churn-period=N         alpha-chunk of negative requests
//                                        to a uniformly random node after
//                                        every N inner requests.
//
// Open loops only: every part must be open-loop (every registered
// generator is), and each constructor throws CheckFailure otherwise. A
// combinator is itself an open loop: it keeps the default observe_batch
// and is_closed_loop, so its outcomes reach no part and the sharded
// engine demuxes it like any generator. A closed-loop part would run
// without the feedback its stream depends on, so none is accepted.
#pragma once

#include <memory>
#include <vector>

#include "core/request_source.hpp"
#include "tree/tree.hpp"
#include "util/rng.hpp"

namespace treecache::workload {

/// Plays each part to exhaustion, in order; parts must be open-loop.
class ConcatSource final : public RequestSource {
 public:
  explicit ConcatSource(std::vector<std::unique_ptr<RequestSource>> parts);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;

 private:
  std::vector<std::unique_ptr<RequestSource>> parts_;
  std::size_t active_ = 0;  // part that emitted the last batch
};

/// Weighted random interleaving: each request is drawn from part i with
/// probability w_i / Σw among the parts that still have requests;
/// exhausted when every part is. Parts must be open-loop (see above).
class MixSource final : public RequestSource {
 public:
  MixSource(std::vector<std::unique_ptr<RequestSource>> parts,
            std::vector<double> weights, Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;

 private:
  std::vector<std::unique_ptr<RequestSource>> parts_;
  std::vector<double> weights_;
  Rng start_rng_;
  Rng rng_;
  std::vector<std::uint8_t> exhausted_;
};

/// Periodic churn injection: after every `period` requests of the inner
/// source, an alpha-chunk of negative requests to a uniformly random node
/// is spliced into the stream (modelling background rule updates that the
/// base workload does not know about). The inner source must be open-loop.
class ChurnInjectSource final : public RequestSource {
 public:
  ChurnInjectSource(std::unique_ptr<RequestSource> inner, const Tree& tree,
                    std::uint64_t period, std::uint64_t alpha, Rng rng);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  void reset() override;

 private:
  std::unique_ptr<RequestSource> inner_;
  const Tree* tree_;
  std::uint64_t period_;
  std::uint64_t alpha_;
  Rng start_rng_;
  Rng rng_;
  std::uint64_t since_chunk_ = 0;  // inner requests since the last chunk
  NodeId pending_node_ = 0;
  std::uint64_t pending_ = 0;
};

}  // namespace treecache::workload
