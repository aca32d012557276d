#include "fib/router_source.hpp"

#include <algorithm>
#include <utility>

#include "core/online_algorithm.hpp"
#include "engine/shard_plan.hpp"

namespace treecache::fib {
namespace {

/// Events generated per pump round of take(): large enough to amortize the
/// loop, small enough that a mirror never runs far ahead of its siblings.
constexpr std::size_t kPumpChunk = 256;

std::shared_ptr<RouterEventProducer> require_producer(
    std::shared_ptr<RouterEventProducer> producer) {
  TC_CHECK(producer != nullptr, "router mirror needs an event producer");
  return producer;
}

}  // namespace

// --- RouterSource ---------------------------------------------------------

RouterSource::RouterSource(const RuleTree& rules,
                           const RouterSimConfig& config)
    : config_(config),
      // Identical construction order to the reference loop: the sampler's
      // permutation draw consumes the same seed state, so every producer —
      // whatever its plan — ranks rules identically.
      start_rng_(config.seed),
      sampler_(std::make_shared<const PacketSampler>(
          rules, config.zipf_skew, start_rng_)) {
  TC_CHECK(config_.update_probability >= 0.0 &&
               config_.update_probability < 1.0,
           "update probability must lie in [0, 1) so packet events can "
           "finish the run");
}

std::vector<std::unique_ptr<RequestSource>> RouterSource::split(
    const engine::ShardPlan& plan) const {
  // ONE producer, shared by every mirror: the global stream is generated
  // once, and each mirror consumes exactly its shard's slice of it. It
  // draws from this source's sampler, so no split builds another.
  auto producer = std::make_shared<RouterEventProducer>(*this, plan);
  std::vector<std::unique_ptr<RequestSource>> out;
  out.reserve(plan.num_shards());
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    out.push_back(std::make_unique<RouterMirrorSource>(producer, s));
  }
  return out;
}

// --- RouterEventProducer --------------------------------------------------

RouterEventProducer::RouterEventProducer(const RuleTree& rules,
                                         const RouterSimConfig& config,
                                         const engine::ShardPlan& plan)
    : RouterEventProducer(RouterSource(rules, config), plan) {}

RouterEventProducer::RouterEventProducer(const RouterSource& stream,
                                         const engine::ShardPlan& plan)
    : config_(stream.config_),
      plan_(&plan),
      start_rng_(stream.start_rng_),
      sampler_(stream.sampler_),
      rng_(start_rng_),
      queues_(plan.num_shards()) {
  TC_CHECK(&plan.universe() == &rules().tree,
           "the shard plan was built over a different tree than the "
           "stream's rule tree");
}

std::size_t RouterEventProducer::pump(std::size_t budget) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return generate(budget);
}

std::size_t RouterEventProducer::generate(std::size_t budget) {
  std::size_t generated = 0;
  while (generated < budget && packets_generated_ < config_.packets) {
    // The sampler resolves a packet's full-table match here, once; a
    // mirror needs nothing else of the packet. No event names the default
    // rule: sample_rule ranks only the non-root rules, and sample_packet
    // descends from the drawn rule.
    const RouterEvent event =
        sampler_->sample_event(rng_, config_.update_probability);
    if (event.kind == RouterEventKind::kPacket) ++packets_generated_;
    queues_[plan_->shard_of(event.node)].push_back(event);
    ++generated;
  }
  return generated;
}

bool RouterEventProducer::take(std::size_t shard,
                               std::vector<RouterEvent>& events) {
  events.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RouterEvent>& queue = queues_[shard];
  while (queue.empty() && packets_generated_ < config_.packets) {
    generate(kPumpChunk);
  }
  // The caller's drained storage becomes the queue, so the steady state
  // allocates nothing.
  queue.swap(events);
  return !events.empty();
}

std::size_t RouterEventProducer::buffered(std::size_t shard) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queues_[shard].size();
}

bool RouterEventProducer::exhausted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return packets_generated_ >= config_.packets;
}

void RouterEventProducer::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  rng_ = start_rng_;
  packets_generated_ = 0;
  for (std::vector<RouterEvent>& queue : queues_) queue.clear();
}

// --- RouterMirrorSource ---------------------------------------------------

RouterMirrorSource::RouterMirrorSource(
    std::shared_ptr<RouterEventProducer> producer, std::size_t shard)
    : producer_(require_producer(std::move(producer))),
      rules_(&producer_->rules()),
      plan_(&producer_->plan()),
      shard_(shard),
      alpha_(producer_->config().alpha),
      cached_(plan_->shard_tree(shard).size(), 0) {
  TC_CHECK(shard_ < plan_->num_shards(), "shard index outside the plan");
}

bool RouterMirrorSource::cached_rule(NodeId v) const {
  if (plan_->shard_of(v) == shard_) return cached_[plan_->to_local(v)] != 0;
  // The ancestors of an owned rule are rules of this shard, plus the
  // default rule. The latter reads as this shard's replica root (local
  // node 0), never as foreign state.
  return v == rules_->tree.root() && cached_[0] != 0;
}

bool RouterMirrorSource::cached_ancestor(NodeId v) const {
  for (v = rules_->tree.parent(v); v != kNoNode; v = rules_->tree.parent(v)) {
    if (cached_rule(v)) return true;
  }
  return false;
}

std::size_t RouterMirrorSource::fill(std::span<Request> buffer) {
  std::size_t n = 0;
  // A pending update chunk is predetermined: drain it (or as much as fits)
  // and return, so its outcomes are observed before the next owned event
  // reads the cache mirror.
  while (pending_ > 0 && n < buffer.size()) {
    --pending_;
    buffer[n++] = negative(pending_local_);
  }
  if (n > 0) return n;

  // Consume this shard's slice of the pre-generated global stream, one
  // take() at a time. The producer's termination is global — all mirrors
  // stop after the same event — while stats_ counts only the events this
  // shard owns.
  for (;;) {
    if (next_event_ == events_.size()) {
      next_event_ = 0;
      if (!producer_->take(shard_, events_)) return 0;
    }
    const RouterEvent event = events_[next_event_++];
    TC_DCHECK(plan_->shard_of(event.node) == shard_,
              "the producer queued another shard's event");
    const NodeId local = plan_->to_local(event.node);
    if (event.kind == RouterEventKind::kUpdate) {
      ++stats_.updates;
      if (cached_[local] != 0) ++stats_.cached_updates;
      pending_local_ = local;
      pending_ = alpha_;
      while (pending_ > 0 && n < buffer.size()) {
        --pending_;
        buffer[n++] = negative(pending_local_);
      }
      return n;
    }

    ++stats_.packets;
    // The switch looks up the packet over this card's cached rules only.
    // The cache is descendant-closed, so that lookup returns the
    // full-table match if it is cached and nothing otherwise: a cached
    // ancestor would have its whole subtree cached, the match included.
    if (cached_[local] != 0) {
      ++stats_.hits;
      continue;
    }
    TC_DCHECK(!cached_ancestor(event.node),
              "a cached rule would mis-forward a packet its uncached "
              "descendant matches: the cache is not descendant-closed");
    ++stats_.misses;
    buffer[n++] = positive(local);
    // Stop here: the fetch this request may trigger changes the mirror
    // the next owned packet lookup depends on.
    return n;
  }
}

void RouterMirrorSource::reset() {
  producer_->reset();
  std::ranges::fill(cached_, 0);
  stats_ = {};
  pending_ = 0;
  events_.clear();
  next_event_ = 0;
}

void RouterMirrorSource::observe_batch(
    std::span<const StepOutcome> outcomes) {
  // Outcomes arrive in shard-LOCAL ids, straight from this shard's
  // algorithm instance, in per-shard stream order.
  for (const StepOutcome& outcome : outcomes) {
    for (const NodeId v : outcome.also_evicted) cached_[v] = 0;
    switch (outcome.change) {
      case ChangeKind::kNone:
        break;
      case ChangeKind::kFetch:
        for (const NodeId v : outcome.changed) cached_[v] = 1;
        break;
      case ChangeKind::kEvict:
        for (const NodeId v : outcome.changed) cached_[v] = 0;
        break;
      case ChangeKind::kPhaseRestart:
        std::ranges::fill(cached_, 0);
        break;
    }
  }
}

}  // namespace treecache::fib
