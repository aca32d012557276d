// The Figure-1 switch/controller event loop as per-shard closed-loop
// RequestSources.
//
// A RouterSource is the stream: its config, and the packet sampler and RNG
// state every producer of the stream starts from. It is not a source
// itself; split() turns it into one RouterMirrorSource per shard of an
// engine::ShardPlan (one for the trivial plan), which
// engine::ShardedEngine::run_split drives. Together the mirrors replay
// exactly the event stream of run_router_sim (fib/router_sim.hpp, the
// reference implementation — equality is enforced by tests), but instead
// of stepping the algorithm themselves they emit one request per event
// for the shard's algorithm instance: a packet as packet(match), which the
// instance's step_batch resolves against its own cache (a cached match is
// a hit and steps nothing, an uncached one is the controller's positive
// request), and a rule update as its α-chunk of negative requests
// (Appendix B). The cache is descendant-closed, so LPM over the cached
// rules is the full-table match if that match is cached and nothing
// otherwise: a packet hits iff its match is cached, which is exactly the
// instance's lookup. No event reads the cache when it is drawn, so fill()
// ends at no miss: it hands over every event its shard has taken, up to a
// whole buffer, and pumps the shared stream only when it has nothing to
// hand over.
//
// A mirror keeps no copy of the cache. It counts its shard's events from
// the StepOutcome feedback handed to observe_batch(): one outcome per
// emitted request, in order. A packet hit when its outcome is unpaid and
// missed when it is paid; an update was cached when the first negative of
// its chunk is paid, since a negative request is charged exactly when its
// node is cached.
//
// The producer/consumer split: split() builds ONE RouterEventProducer plus
// one RouterMirrorSource per shard. Events — event types, sampled rules
// and addresses — are pure RNG, independent of any cache state, so the
// producer generates the global stream ONCE and routes each event into the
// queue of the shard owning its full-table match (the plan partitions the
// rule tree by top-level prefix: a match's ancestors share its shard,
// except the default rule, whose per-shard replica each line card holds
// locally). The producer shares the RouterSource's packet sampler and
// starts from its post-shuffle RNG state, so a stream builds its rank
// table once however often it is split.
// A mirror pulls only its own queue and counts only its own shard's
// outcomes, so feedback never crosses shards: each mirror needs exactly
// its shard's outcomes, in per-shard order, while outcomes may complete
// out of order globally. Requests are emitted in shard-LOCAL node ids and
// observe_batch() expects shard-local outcomes — a mirror plugs straight
// into the shard's algorithm instance with no translation in the engine.
//
// Threading: every producer call holds the producer's one mutex, so sibling
// mirrors may take() from different threads. run_split drives each mirror
// on the engine worker that owns its shard, one thread per mirror at a
// time. All mirrors of one split are reset together while none runs:
// reset() on any of them rewinds the shared producer, so resetting one
// mid-run invalidates its siblings. The producers of one stream share a
// sampler that nothing writes after construction, so they draw from it on
// any thread without a lock.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/request_source.hpp"
#include "engine/shard_plan.hpp"
#include "fib/router_sim.hpp"
#include "fib/traffic.hpp"

namespace treecache::fib {

/// One router event stream: its config, and the packet sampler and
/// post-shuffle RNG state that every producer of the stream starts from.
/// split() is the only way to run the stream.
class RouterSource {
 public:
  /// Builds the stream's sampler from `config.seed`, drawing the rank
  /// permutation in the reference loop's order. `rules` must outlive the
  /// source and every mirror split from it.
  RouterSource(const RuleTree& rules, const RouterSimConfig& config);

  /// One RouterMirrorSource per shard of `plan`, all sharing a single
  /// RouterEventProducer (see the header comment): generation runs once,
  /// whatever the shard count, and the producer draws from this source's
  /// own sampler. `plan` must be built over this source's rule tree and
  /// outlive the mirrors; every element is a RouterMirrorSource, so
  /// callers that need per-shard router statistics may downcast.
  [[nodiscard]] std::vector<std::unique_ptr<RequestSource>> split(
      const engine::ShardPlan& plan) const;

 private:
  friend class RouterEventProducer;

  RouterSimConfig config_;
  // Seeded, consumed by the sampler's permutation draw, then never written
  // again: the stream's first state, which every producer copies.
  Rng start_rng_;
  std::shared_ptr<const PacketSampler> sampler_;  // one per stream
};

/// Generates the global event stream ONCE — in exactly the RNG order of
/// the reference loop — and routes every event into a per-shard queue
/// keyed by the shard owning `node`. Generation is pull-driven: a mirror
/// that has consumed its events calls take(), which pumps the stream while
/// the shard's queue is empty and hands the whole queue over. Buffering is
/// NOT bounded by the inter-shard skew: a shard whose mirror consumes its
/// events more slowly than its siblings (a busier worker) sees its queue
/// grow with the stream.
///
/// Thread-safe: every public call holds one mutex, so sibling mirrors may
/// take() from different threads and generation still runs once, in
/// reference order, whichever thread pumps it.
class RouterEventProducer {
 public:
  /// The producer of RouterSource(rules, config) over `plan`. `rules` and
  /// `plan` must outlive the producer.
  RouterEventProducer(const RuleTree& rules, const RouterSimConfig& config,
                      const engine::ShardPlan& plan);

  /// A producer of `stream` over a plan of its rule tree: it shares the
  /// stream's sampler and starts from its post-shuffle RNG state. `plan`
  /// must outlive the producer.
  RouterEventProducer(const RouterSource& stream,
                      const engine::ShardPlan& plan);

  RouterEventProducer(const RouterEventProducer&) = delete;
  RouterEventProducer& operator=(const RouterEventProducer&) = delete;

  /// Generates up to `budget` further events of the global stream into the
  /// per-shard queues; returns how many were generated (0 = exhausted).
  std::size_t pump(std::size_t budget);

  /// Replaces `events` with every event queued for `shard`, pumping the
  /// stream first while that queue is empty. The previous contents of
  /// `events` are dropped and its storage becomes the shard's new queue.
  /// Returns false once the stream is exhausted and nothing is left for
  /// `shard`.
  bool take(std::size_t shard, std::vector<RouterEvent>& events);

  /// Events generated but not yet taken by `shard` — test hook for the
  /// stable-partition property.
  [[nodiscard]] std::size_t buffered(std::size_t shard) const;
  /// True once the global stream has generated its last event. Queues may
  /// still hold untaken events.
  [[nodiscard]] bool exhausted() const;

  /// Rewinds generation to the first event and drops every queued one.
  /// All sibling mirrors must be reset together (see the header comment).
  void reset();

  [[nodiscard]] const RouterSimConfig& config() const { return config_; }
  [[nodiscard]] const engine::ShardPlan& plan() const { return *plan_; }

 private:
  /// pump() without the lock; the caller holds mutex_.
  std::size_t generate(std::size_t budget);

  RouterSimConfig config_;
  const engine::ShardPlan* plan_;
  Rng start_rng_;  // the stream's post-shuffle state, for reset()
  std::shared_ptr<const PacketSampler> sampler_;  // the stream's
  mutable std::mutex mutex_;  // guards everything below
  Rng rng_;
  std::vector<std::vector<RouterEvent>> queues_;  // one per shard
  std::uint64_t packets_generated_ = 0;  // global termination condition
};

/// One shard's slice of the closed loop: consumes its shard's events from
/// a (usually shared) RouterEventProducer, emits the requests those events
/// imply (in shard-local ids), and counts them from the outcomes of the
/// shard's algorithm instance, handed to observe_batch() in per-shard
/// order. On the trivial one-shard plan it is the whole unsharded loop.
class RouterMirrorSource final : public RequestSource {
 public:
  /// Producer-fed mirror sharing `producer` with its sibling shards (the
  /// shape RouterSource::split builds): generation runs once for all of
  /// them. See the threading contract in the header comment.
  RouterMirrorSource(std::shared_ptr<RouterEventProducer> producer,
                     std::size_t shard);

  [[nodiscard]] std::size_t fill(std::span<Request> buffer) override;
  /// Resets the mirror AND rewinds its producer — with a shared producer,
  /// all sibling mirrors must be reset together.
  void reset() override;
  void observe_batch(std::span<const StepOutcome> outcomes) override;
  [[nodiscard]] bool is_closed_loop() const override { return true; }

  /// Statistics of the events this shard owns, complete once every
  /// emitted request's outcome has been observed. Summing over all mirrors
  /// of a plan reconstructs the full event stream: every packet and every
  /// update is owned by exactly one shard.
  [[nodiscard]] const RouterSimResult& stats() const { return stats_; }

 private:
  /// What the outcome of an emitted request counts for.
  enum class Emitted : std::uint8_t {
    kPacket,     // a hit if unpaid, a miss if paid
    kChunkHead,  // an update's first negative: paid iff the rule was cached
    kChunkTail,  // the rest of the chunk: counts nothing
  };

  std::shared_ptr<RouterEventProducer> producer_;
  const engine::ShardPlan* plan_;
  std::size_t shard_;
  std::uint64_t alpha_;
  RouterSimResult stats_;            // owned events only
  std::vector<RouterEvent> events_;  // the last take(), consumed in order
  std::size_t next_event_ = 0;       // first unconsumed entry of events_
  std::vector<Emitted> emitted_;     // the last fill(), in order
  std::size_t observed_ = 0;         // entries of emitted_ observed so far
  NodeId pending_local_ = 0;
  std::uint64_t pending_ = 0;  // negatives left in the current α-chunk
};

}  // namespace treecache::fib
