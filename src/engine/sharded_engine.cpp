#include "engine/sharded_engine.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/outcome_buffer.hpp"
#include "core/tree_cache.hpp"
#include "util/stopwatch.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace treecache::engine {
namespace {

/// Pins the calling thread to the CPU owned by worker `w` (w modulo the
/// hardware concurrency — the same mapping every pool uses, so a worker
/// lands on the same core at construction and on every run). Returns the
/// CPU, or -1 when pinning is unavailable or denied (reported, not fatal).
int pin_to_cpu(std::size_t w) {
#if defined(__linux__)
  const unsigned hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const int cpu = static_cast<int>(w % hardware);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) == 0) return cpu;
#else
  (void)w;
#endif
  return -1;
}

/// Bound on chunks buffered per worker by the open-loop demux. Generation
/// outruns stepping, so every queue sits at this bound and it sets the
/// demux's resident memory (workers × bound × EngineConfig::batch
/// requests). A slow shard backpressures the producer instead of growing
/// memory; four chunks already keep a worker fed through each refill.
constexpr std::size_t kMaxQueuedChunks = 4;

/// FIFO of (shard, chunk) pairs feeding one worker. A shard is pinned to
/// exactly one worker, so per-shard order is the queue order.
struct WorkerQueue {
  std::mutex mutex;
  std::condition_variable ready;  // consumer: work available or shutdown
  std::condition_variable space;  // producer: below the chunk bound
  std::deque<std::pair<std::size_t, std::vector<Request>>> chunks;
  bool done = false;
};

/// Per-shard outcome feedback of a closed-loop run, shared by the producer
/// (drains into the mirrors' observe_batch()) and the workers (publish
/// flattened sub-chunks, blocking while the shard's single ring slot is
/// occupied). One mutex guards all rings: feedback traffic is sub-chunk
/// grained, never per outcome.
struct Feedback {
  explicit Feedback(std::size_t shards, std::size_t bound)
      : rings(shards), bound(bound) {}

  std::mutex mutex;
  std::condition_variable ready;  // producer: outcomes to drain, or abort
  std::condition_variable space;  // workers: the shard's ring was drained
  std::vector<OutcomeBuffer> rings;  // one published sub-chunk per shard
  std::size_t pending = 0;  // total buffered outcomes across shards
  std::size_t bound;        // worker-side flush threshold (outcomes)
  bool aborted = false;

  /// Producer-side shutdown: discard everything and release every blocked
  /// worker. Without the drain a worker waiting out an occupied ring would
  /// never observe shutdown and the join below would deadlock.
  void abort_and_drain() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      aborted = true;
      for (auto& ring : rings) ring.clear();
      pending = 0;
    }
    space.notify_all();
    ready.notify_all();
  }
};

/// Thrown out of a worker's sink when the run is being torn down; filtered
/// by the worker loop (it is shutdown, not an error to report).
struct AbortRun {};

/// The worker-side sink of a closed-loop shard: accounts every round into
/// the shard's RunResult (worker-local — the shard is pinned) and appends
/// the outcome to a flattened worker-local OutcomeBuffer — no per-outcome
/// heap copies — published to the shard's feedback ring in sub-chunks of
/// at most `feedback.bound` outcomes.
class FeedbackSink final : public OutcomeSink {
 public:
  FeedbackSink(sim::RunResult& result, const OnlineAlgorithm& alg,
               Feedback& feedback, std::size_t shard, OutcomeBuffer& local)
      : result_(&result),
        alg_(&alg),
        feedback_(&feedback),
        shard_(shard),
        local_(&local) {}

  void on_outcome(const Request& request,
                  const StepOutcome& outcome) override {
    sim::accumulate_outcome(*result_, request, outcome,
                            alg_->cache().size());
    local_->append(outcome);
    if (local_->size() >= feedback_->bound) publish();
  }

  /// Hands the buffered outcomes to the shard's ring slot — an O(1) buffer
  /// swap (the drained slot's storage comes back as the new local buffer),
  /// waiting out the producer when the previous sub-chunk is still there.
  /// The worker loop calls this once more after each chunk for the tail.
  void publish() {
    if (local_->empty()) return;
    {
      std::unique_lock<std::mutex> lock(feedback_->mutex);
      feedback_->space.wait(lock, [&] {
        return feedback_->rings[shard_].empty() || feedback_->aborted;
      });
      if (feedback_->aborted) throw AbortRun{};
      feedback_->rings[shard_].swap(*local_);
      feedback_->pending += feedback_->rings[shard_].size();
    }
    feedback_->ready.notify_one();
  }

 private:
  sim::RunResult* result_;
  const OnlineAlgorithm* alg_;
  Feedback* feedback_;
  std::size_t shard_;
  OutcomeBuffer* local_;
};

}  // namespace

ShardedEngine::ShardedEngine(const Tree& tree, const std::string& algorithm,
                             const sim::Params& params, EngineConfig config)
    : plan_(tree, config.shards), config_(config) {
  TC_CHECK(config_.batch >= 1, "engine batch size must be at least 1");
  TC_CHECK(config_.feedback >= 1,
           "engine feedback bound must be at least 1");
  // Single-shard plans delegate to run_source, whose batch is fixed:
  // normalize so config() never claims a geometry that was not used.
  if (plan_.num_shards() == 1) config_.batch = sim::kDriverBatchSize;
  // Pinning only matters where worker threads exist; normalize it away on
  // single-worker geometries so config() reports what was done.
  if (effective_threads() <= 1) config_.pin_threads = false;

  const std::size_t num_shards = plan_.num_shards();
  algs_.resize(num_shards);
  tc_.resize(num_shards);
  if (config_.pin_threads) {
    // Build shard s on pinned worker s % workers — the owner under the
    // run-time mapping of every pool. The instance's NodeState block and
    // scratch arena are first-touched on that worker's core, so their
    // pages are placed on its NUMA node. The registry is read-only after
    // static init, so concurrent make_algorithm calls are safe; each
    // thread writes disjoint algs_/tc_/worker_cpus_ slots and the join
    // publishes them.
    const std::size_t workers = effective_threads();
    worker_cpus_.assign(workers, -1);
    std::exception_ptr error;
    std::mutex error_mutex;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        worker_cpus_[w] = pin_to_cpu(w);
        try {
          for (std::size_t s = w; s < num_shards; s += workers) {
            algs_[s] =
                sim::make_algorithm(algorithm, plan_.shard_tree(s), params);
            tc_[s] = dynamic_cast<TreeCache*>(algs_[s].get());
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      });
    }
    for (auto& worker : pool) worker.join();
    if (error) std::rethrow_exception(error);
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) {
      algs_[s] = sim::make_algorithm(algorithm, plan_.shard_tree(s), params);
      // Downcast once here; step_shard then calls the final TreeCache
      // directly, off the virtual path, for every chunk of the run.
      tc_[s] = dynamic_cast<TreeCache*>(algs_[s].get());
    }
  }
}

void ShardedEngine::step_shard(std::size_t s,
                               std::span<const Request> requests,
                               OutcomeSink& sink) {
  if (TreeCache* const tc = tc_[s]) {
    tc->step_batch(requests, sink);  // direct call: TreeCache is final
  } else {
    algs_[s]->step_batch(requests, sink);
  }
}

std::size_t ShardedEngine::effective_threads() const {
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t requested =
      config_.threads == 0 ? hardware : config_.threads;
  return std::min(requested, plan_.num_shards());
}

EngineResult ShardedEngine::run(RequestSource& source) {
  const std::size_t num_shards = plan_.num_shards();
  if (num_shards > 1 && source.is_closed_loop()) {
    // Closed loop: split into one mirror per shard, so each shard's
    // feedback stays local (see the header comment). The mirrors replay
    // the stream from its start; open loops below run on from the
    // source's current position.
    const auto mirrors = source.split(plan_);
    TC_CHECK(mirrors.size() == num_shards,
             "closed-loop source cannot split into per-shard mirrors "
             "(RequestSource::split); run it with a single shard");
    return run_split(mirrors);
  }
  for (auto& alg : algs_) alg->reset();

  EngineResult out;
  out.shards = num_shards;
  out.pinned = config_.pin_threads;
  out.worker_cpus = worker_cpus_;
  const Stopwatch timer;

  if (num_shards == 1) {
    // Unsharded: the plain driver, which also feeds closed-loop sources.
    out.threads = 1;
    out.per_shard.push_back(sim::run_source(*algs_[0], source));
    out.total = out.per_shard.front();
    out.total.wall_seconds = timer.seconds();
    // Per-shard results uniformly carry no wall time (only the aggregate
    // does), matching the multi-shard path.
    out.per_shard.front().wall_seconds = 0.0;
    return out;
  }

  const std::size_t workers = effective_threads();
  out.threads = workers;
  out.per_shard.resize(num_shards);

  std::vector<sim::AccountingSink> sinks;
  sinks.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    sinks.emplace_back(out.per_shard[s], *algs_[s], nullptr);
  }

  // Per-shard demux buffers, flushed to the shard's executor when full.
  std::vector<std::vector<Request>> pending(num_shards);
  for (auto& p : pending) p.reserve(config_.batch);
  std::array<Request, sim::kDriverBatchSize> buffer;

  if (workers <= 1) {
    // Sequential demux: identical routing and per-shard chunking, stepped
    // inline. Per-shard results match the threaded path by construction.
    const auto flush = [&](std::size_t s) {
      step_shard(s, pending[s], sinks[s]);
      pending[s].clear();
    };
    for (;;) {
      const std::size_t n = source.fill(buffer);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = plan_.shard_of(buffer[i].node);
        pending[s].push_back(plan_.to_local(buffer[i]));
        if (pending[s].size() >= config_.batch) flush(s);
      }
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (!pending[s].empty()) flush(s);
    }
  } else {
    // Threaded: shard s is pinned to worker s % workers; the caller thread
    // demuxes and the workers drain their queues through step_batch.
    std::vector<WorkerQueue> queues(workers);
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        if (config_.pin_threads) pin_to_cpu(w);  // same core as construction
        WorkerQueue& queue = queues[w];
        for (;;) {
          std::pair<std::size_t, std::vector<Request>> item;
          {
            std::unique_lock<std::mutex> lock(queue.mutex);
            queue.ready.wait(lock, [&] {
              return !queue.chunks.empty() || queue.done;
            });
            if (queue.chunks.empty()) return;  // done and drained
            item = std::move(queue.chunks.front());
            queue.chunks.pop_front();
          }
          queue.space.notify_one();
          try {
            step_shard(item.first, item.second, sinks[item.first]);
          } catch (...) {
            {
              const std::lock_guard<std::mutex> lock(error_mutex);
              if (!error) error = std::current_exception();
            }
            // The producer may be blocked on this queue's bound; flip
            // `failed` under the queue mutex so it cannot evaluate the wait
            // predicate between the store and the wakeup (a lost notify
            // would deadlock run()), then wake it.
            {
              const std::lock_guard<std::mutex> lock(queue.mutex);
              failed.store(true, std::memory_order_relaxed);
            }
            queue.space.notify_all();
            return;
          }
        }
      });
    }

    const auto enqueue = [&](std::size_t s) {
      WorkerQueue& queue = queues[s % workers];
      {
        std::unique_lock<std::mutex> lock(queue.mutex);
        queue.space.wait(lock, [&] {
          return queue.chunks.size() < kMaxQueuedChunks ||
                 failed.load(std::memory_order_relaxed);
        });
        queue.chunks.emplace_back(s, std::move(pending[s]));
      }
      queue.ready.notify_one();
      pending[s] = {};
      pending[s].reserve(config_.batch);
    };

    // A demux-side throw (source.fill, shard_of on an out-of-range node)
    // must not unwind past joinable workers — that would std::terminate.
    // Capture it, run the regular shutdown, and rethrow after the join.
    std::exception_ptr producer_error;
    try {
      while (!failed.load(std::memory_order_relaxed)) {
        const std::size_t n = source.fill(buffer);
        if (n == 0) break;
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t s = plan_.shard_of(buffer[i].node);
          pending[s].push_back(plan_.to_local(buffer[i]));
          if (pending[s].size() >= config_.batch) enqueue(s);
        }
      }
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (!pending[s].empty() &&
            !failed.load(std::memory_order_relaxed)) {
          enqueue(s);
        }
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
    for (auto& queue : queues) {
      {
        const std::lock_guard<std::mutex> lock(queue.mutex);
        queue.done = true;
      }
      queue.ready.notify_one();
      // A failed run may leave a producer-side wait pending in theory;
      // wake it so shutdown cannot stall.
      queue.space.notify_all();
    }
    for (auto& worker : pool) worker.join();
    if (producer_error) std::rethrow_exception(producer_error);
    if (error) std::rethrow_exception(error);
  }

  finalize(out);
  out.total.wall_seconds = timer.seconds();
  return out;
}

void ShardedEngine::finalize(EngineResult& out) const {
  // Finalize each shard from its instance, then aggregate in shard order
  // (a fixed order, so the totals are reproducible bit for bit).
  for (std::size_t s = 0; s < plan_.num_shards(); ++s) {
    sim::RunResult& r = out.per_shard[s];
    r.cost = algs_[s]->cost();
    r.final_cache_size = algs_[s]->cache().size();
    // Per-shard results uniformly carry no wall time; only the aggregate
    // does (some paths, e.g. run_source per shard, measure one).
    r.wall_seconds = 0.0;
    out.total.cost += r.cost;
    out.total.rounds += r.rounds;
    out.total.paid_requests += r.paid_requests;
    out.total.paid_positive += r.paid_positive;
    out.total.paid_negative += r.paid_negative;
    out.total.fetched_nodes += r.fetched_nodes;
    out.total.evicted_nodes += r.evicted_nodes;
    out.total.phase_restarts += r.phase_restarts;
    out.total.restart_evictions += r.restart_evictions;
    out.total.max_cache_size =
        std::max(out.total.max_cache_size, r.max_cache_size);
    out.total.final_cache_size += r.final_cache_size;
  }
}

EngineResult ShardedEngine::run_split(
    std::span<const std::unique_ptr<RequestSource>> mirrors) {
  const std::size_t num_shards = plan_.num_shards();
  TC_CHECK(mirrors.size() == num_shards,
           "run_split needs exactly one source per shard");
  for (const auto& mirror : mirrors) {
    TC_CHECK(mirror != nullptr, "run_split was handed a null source");
  }
  for (auto& alg : algs_) alg->reset();

  EngineResult out;
  out.shards = num_shards;
  out.pinned = config_.pin_threads;
  out.worker_cpus = worker_cpus_;
  out.per_shard.resize(num_shards);
  const Stopwatch timer;
  const std::size_t workers = num_shards == 1 ? 1 : effective_threads();
  out.threads = workers;

  if (workers <= 1) {
    // Sequential reference shape: each shard's loop is the exact
    // fill → step → observe alternation of sim::run_source. Shards are
    // interleaved round-robin, one chunk per pass, rather than run to
    // exhaustion one by one: mirrors of a shared-generation split
    // (SplitKind::kShared) pull from one producer, and draining shard 0
    // first would buffer almost the whole stream for its siblings —
    // interleaving keeps the producer's queues bounded by the inter-shard
    // skew. Shards share no state, so the order is free and per-shard
    // results are unchanged.
    std::vector<Request> buffer(config_.batch);
    std::vector<sim::AccountingSink> sinks;
    sinks.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      sinks.emplace_back(out.per_shard[s], *algs_[s], mirrors[s].get());
    }
    std::vector<bool> done(num_shards, false);
    std::size_t remaining = num_shards;
    while (remaining > 0) {
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (done[s]) continue;
        const std::size_t n =
            mirrors[s]->fill({buffer.data(), buffer.size()});
        if (n == 0) {
          // fill() contract: 0 is final until reset — the shard is done
          // even while its siblings keep consuming the shared stream.
          done[s] = true;
          --remaining;
          continue;
        }
        step_shard(s, {buffer.data(), n}, sinks[s]);
      }
    }
  } else {
    run_split_threaded(mirrors, out, workers);
  }
  finalize(out);
  out.total.wall_seconds = timer.seconds();
  return out;
}

void ShardedEngine::run_split_threaded(
    std::span<const std::unique_ptr<RequestSource>> mirrors,
    EngineResult& out, std::size_t workers) {
  const std::size_t num_shards = plan_.num_shards();
  // Worker chunk queues carry at most one in-flight chunk per pinned shard
  // (the producer refills a mirror only after draining its feedback), so
  // unlike the open-loop demux they need no capacity bound — and must not
  // have one: a producer blocked on chunk space could never drain the
  // feedback a blocked worker is waiting on.
  std::vector<WorkerQueue> queues(workers);
  Feedback feedback(num_shards, config_.feedback);
  std::exception_ptr worker_error;
  std::mutex error_mutex;

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      if (config_.pin_threads) pin_to_cpu(w);  // same core as construction
      WorkerQueue& queue = queues[w];
      // One recycled flat buffer per worker: the publish() swap protocol
      // rotates storage between worker and producer, so the steady state
      // allocates nothing. A worker drains it fully after every chunk, so
      // sharing it across this worker's pinned shards cannot mix outcomes.
      OutcomeBuffer scratch;
      for (;;) {
        std::pair<std::size_t, std::vector<Request>> item;
        {
          std::unique_lock<std::mutex> lock(queue.mutex);
          queue.ready.wait(lock, [&] {
            return !queue.chunks.empty() || queue.done;
          });
          if (queue.chunks.empty()) return;  // done and drained
          item = std::move(queue.chunks.front());
          queue.chunks.pop_front();
        }
        const std::size_t s = item.first;
        FeedbackSink sink(out.per_shard[s], *algs_[s], feedback, s,
                          scratch);
        try {
          step_shard(s, item.second, sink);
          sink.publish();  // the sub-bound tail of the chunk
        } catch (const AbortRun&) {
          return;  // torn down mid-chunk: shutdown, not an error
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!worker_error) worker_error = std::current_exception();
          }
          // Wake the producer (waiting on feedback.ready) and any peers
          // blocked on a full outcome queue.
          feedback.abort_and_drain();
          return;
        }
      }
    });
  }

  // Producer: fill every mirror whose previous chunk has fully fed back,
  // dispatch to the shard's pinned worker, then drain the feedback rings
  // into the mirrors' observe_batch() — per-shard FIFO order, one swap and
  // one virtual call per published sub-chunk — which readies the next
  // fill. Closed-loop strict alternation per shard, pipelined across
  // shards.
  enum class MirrorState : std::uint8_t { kReady, kInFlight, kDone };
  std::vector<MirrorState> state(num_shards, MirrorState::kReady);
  std::vector<std::size_t> expected(num_shards, 0);  // outcomes to drain
  std::size_t active = num_shards;
  std::size_t in_flight = 0;
  std::vector<Request> chunk(config_.batch);
  std::vector<OutcomeBuffer> drained(num_shards);
  std::exception_ptr producer_error;
  try {
    while (active > 0) {
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (state[s] != MirrorState::kReady) continue;
        const std::size_t n = mirrors[s]->fill({chunk.data(), chunk.size()});
        if (n == 0) {
          state[s] = MirrorState::kDone;
          --active;
          continue;
        }
        WorkerQueue& queue = queues[s % workers];
        {
          const std::lock_guard<std::mutex> lock(queue.mutex);
          queue.chunks.emplace_back(
              s, std::vector<Request>(chunk.begin(),
                                      chunk.begin() +
                                          static_cast<std::ptrdiff_t>(n)));
        }
        queue.ready.notify_one();
        expected[s] = n;
        state[s] = MirrorState::kInFlight;
        ++in_flight;
      }
      // Every active shard is now in flight (fills above leave a shard
      // either dispatched or done), so in_flight == 0 implies active == 0.
      if (in_flight == 0) break;
      {
        std::unique_lock<std::mutex> lock(feedback.mutex);
        feedback.ready.wait(lock, [&] {
          return feedback.pending > 0 || feedback.aborted;
        });
        if (feedback.aborted) break;  // a worker failed; rethrown below
        for (std::size_t s = 0; s < num_shards; ++s) {
          // O(1) swap: the ring slot's storage moves out for draining and
          // the (empty, capacity-bearing) drained buffer moves in, to be
          // recycled by the next worker publish.
          if (!feedback.rings[s].empty()) feedback.rings[s].swap(drained[s]);
        }
        feedback.pending = 0;
      }
      feedback.space.notify_all();
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (drained[s].empty()) continue;
        mirrors[s]->observe_batch(drained[s].views());
        expected[s] -= drained[s].size();
        drained[s].clear();
        if (expected[s] == 0 && state[s] == MirrorState::kInFlight) {
          state[s] = MirrorState::kReady;
          --in_flight;
        }
      }
    }
  } catch (...) {
    producer_error = std::current_exception();
  }
  // Shutdown. Drain the per-shard outcome queues and flip the abort flag
  // BEFORE joining: a worker waiting out a full queue never checks the
  // chunk queue's `done`, so joining without the drain deadlocks when the
  // producer bailed mid-run (fill() threw, a worker failed, ...). Tested
  // by the fault-injection case in tests/test_engine_closed_loop.cpp.
  feedback.abort_and_drain();
  for (auto& queue : queues) {
    {
      const std::lock_guard<std::mutex> lock(queue.mutex);
      queue.done = true;
    }
    queue.ready.notify_one();
  }
  for (auto& worker : pool) worker.join();
  if (producer_error) std::rethrow_exception(producer_error);
  if (worker_error) std::rethrow_exception(worker_error);
}

}  // namespace treecache::engine
