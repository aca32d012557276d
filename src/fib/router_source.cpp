#include "fib/router_source.hpp"

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
  TC_CHECK(&plan.universe() == &sampler_->rules().tree,
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
      plan_(&producer_->plan()),
      shard_(shard),
      alpha_(producer_->config().alpha) {
  TC_CHECK(shard_ < plan_->num_shards(), "shard index outside the plan");
}

std::size_t RouterMirrorSource::fill(std::span<Request> buffer) {
  TC_DCHECK(observed_ == emitted_.size(),
            "fill() before the last fill's outcomes were all observed");
  emitted_.clear();
  observed_ = 0;
  // Consume this shard's slice of the pre-generated global stream. No
  // request depends on an outcome not yet observed, so the fill runs until
  // the buffer is full or the taken events run out. It takes again only
  // when it has nothing to hand over: a take() pumps the shared stream
  // while this shard's queue is empty, so taking for a part-filled buffer
  // would generate the siblings' events far ahead of them. The producer's
  // termination is global — all mirrors stop after the same event — while
  // stats_ counts only the events this shard owns.
  std::size_t n = 0;
  while (n < buffer.size()) {
    if (pending_ > 0) {
      emitted_.push_back(pending_ == alpha_ ? Emitted::kChunkHead
                                            : Emitted::kChunkTail);
      --pending_;
      buffer[n++] = negative(pending_local_);
      continue;
    }
    if (next_event_ == events_.size()) {
      if (n > 0) break;
      next_event_ = 0;
      if (!producer_->take(shard_, events_)) break;
    }
    const RouterEvent event = events_[next_event_++];
    TC_DCHECK(plan_->shard_of(event.node) == shard_,
              "the producer queued another shard's event");
    const NodeId local = plan_->to_local(event.node);
    if (event.kind == RouterEventKind::kUpdate) {
      // A chunk of α negative requests (Appendix B), emitted above.
      ++stats_.updates;
      pending_local_ = local;
      pending_ = alpha_;
      continue;
    }
    // The switch looks the packet up in the instance's cache: step_batch
    // answers a cached match and steps an uncached one.
    ++stats_.packets;
    emitted_.push_back(Emitted::kPacket);
    buffer[n++] = packet(local);
  }
  return n;
}

void RouterMirrorSource::reset() {
  producer_->reset();
  stats_ = {};
  pending_ = 0;
  events_.clear();
  next_event_ = 0;
  emitted_.clear();
  observed_ = 0;
}

void RouterMirrorSource::observe_batch(
    std::span<const StepOutcome> outcomes) {
  // Outcomes arrive from this shard's algorithm instance, one per emitted
  // request, in per-shard stream order.
  TC_DCHECK(outcomes.size() <= emitted_.size() - observed_,
            "more outcomes than emitted requests");
  for (const StepOutcome& outcome : outcomes) {
    switch (emitted_[observed_++]) {
      case Emitted::kPacket:
        if (outcome.paid) {
          ++stats_.misses;
        } else {
          ++stats_.hits;
        }
        break;
      case Emitted::kChunkHead:
        if (outcome.paid) ++stats_.cached_updates;
        break;
      case Emitted::kChunkTail:
        break;
    }
  }
}

}  // namespace treecache::fib
