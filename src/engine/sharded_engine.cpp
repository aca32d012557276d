#include "engine/sharded_engine.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "util/stopwatch.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace treecache::engine {
namespace {

/// Pins the calling thread to the CPU owned by worker `w` (w modulo the
/// hardware concurrency, so a worker lands on the same core on every run).
/// Returns the CPU, or -1 when pinning is unavailable or denied (reported,
/// not fatal).
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

/// Bound on the chunks the open-loop demux keeps queued, per worker: all
/// workers share one pool of kMaxQueuedChunks × workers chunks. Generation
/// outruns stepping, so the pool sits at this bound and it sets the demux's
/// resident memory (workers × bound × EngineConfig::batch requests). A slow
/// shard backpressures the producer instead of growing memory; four chunks
/// per worker already keep every worker fed through each refill.
constexpr std::size_t kMaxQueuedChunks = 4;

/// One shard's tally: the RunResult its AccountingSink bumps every round,
/// alone in a 128-byte slot (two cache lines, because the L2 spatial
/// prefetcher pulls lines in pairs), so workers stepping neighbouring
/// shards never write to one line. Copied into EngineResult::per_shard
/// after the join.
struct alignas(128) Tally {
  sim::RunResult result;
};

/// Copies each shard's tally into out.per_shard, finalized from its
/// instance, and sums them into out.total in shard order (a fixed order, so
/// the totals are reproducible bit for bit).
void finalize(EngineResult& out, std::span<const Tally> tallies,
              std::span<const std::unique_ptr<OnlineAlgorithm>> algs) {
  out.per_shard.reserve(tallies.size());
  for (std::size_t s = 0; s < tallies.size(); ++s) {
    sim::RunResult& r = out.per_shard.emplace_back(tallies[s].result);
    r.cost = algs[s]->cost();
    r.final_cache_size = algs[s]->cache().size();
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

/// The engine's one thread pool. Spawns `workers` threads, worker w running
/// work(w) — pinned first, when `pin` is set, to the CPU of pin_to_cpu(w),
/// which it records in out.worker_cpus[w] — and runs caller() on the
/// calling thread. The first exception thrown by any of them wins: stop()
/// is called, which must make every sibling return, and the exception is
/// rethrown once every thread has joined. With one worker it spawns
/// nothing: the calling thread runs caller() and then work(0).
template <typename Work, typename Caller, typename Stop>
void run_pool(std::size_t workers, bool pin, EngineResult& out,
              const Work& work, const Caller& caller, const Stop& stop) {
  out.threads = workers;
  out.pinned = pin;
  // -1 until a worker's affinity call succeeds (a denied call, or a spawn
  // that failed, keeps it).
  if (pin) out.worker_cpus.assign(workers, -1);
  if (workers <= 1) {
    caller();
    work(0);
    return;
  }
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto guarded = [&](const auto& part) {
    try {
      part();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
      stop();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  // A failed spawn counts as the caller's throw: the workers already
  // running are stopped and joined before it is rethrown.
  guarded([&] {
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        if (pin) out.worker_cpus[w] = pin_to_cpu(w);
        guarded([&] { work(w); });
      });
    }
    caller();
  });
  for (auto& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace

ShardedEngine::ShardedEngine(const Tree& tree, const std::string& algorithm,
                             const sim::Params& params, EngineConfig config)
    : plan_(tree, config.shards), config_(config) {
  TC_CHECK(config_.batch >= 1, "engine batch size must be at least 1");
  // Single-shard plans delegate to run_source, whose batch is fixed:
  // normalize so config() never claims a geometry that was not used.
  if (plan_.num_shards() == 1) config_.batch = sim::kDriverBatchSize;
  // Pinning only matters where worker threads exist; normalize it away on
  // single-worker geometries so config() reports what was done.
  if (effective_threads() <= 1) config_.pin_threads = false;

  algs_.reserve(plan_.num_shards());
  for (std::size_t s = 0; s < plan_.num_shards(); ++s) {
    algs_.push_back(
        sim::make_algorithm(algorithm, plan_.shard_tree(s), params));
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
  // Refused before any instance is reset or the stream is read: the demux
  // hands no outcome back, which a closed loop depends on.
  TC_CHECK(!source.is_closed_loop(),
           "ShardedEngine::run takes open loops only; run a closed loop's "
           "per-shard mirrors through run_split");
  const std::size_t num_shards = plan_.num_shards();
  for (auto& alg : algs_) alg->reset();

  EngineResult out;
  out.shards = num_shards;
  const Stopwatch timer;

  if (num_shards == 1) {
    // Unsharded: sim::run_source, on the caller (pin_threads is normalized
    // off).
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
  std::vector<Tally> tallies(num_shards);
  std::vector<sim::AccountingSink> sinks;
  sinks.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    sinks.emplace_back(tallies[s].result, *algs_[s], nullptr);
  }

  // The caller thread demuxes each filled batch into per-shard chunks. With
  // one worker it steps every full chunk inline, so the pool's drain(0),
  // which runs after it on the same thread, finds the run done. Otherwise
  // it appends the chunk to its shard's FIFO, and any idle worker steps any
  // runnable shard — one with queued chunks that no other worker is
  // running — staying on it while chunks remain. A shard thus runs on one
  // worker at a time, in FIFO order. `runnable` holds a shard exactly when
  // it has chunks and is not running. A chunk is ~0.4 ms of stepping at the
  // default batch, so the one mutex is taken rarely.
  std::vector<std::vector<Request>> pending(num_shards);
  for (auto& p : pending) p.reserve(config_.batch);
  std::array<Request, sim::kDriverBatchSize> buffer;
  std::mutex mutex;
  std::condition_variable work;   // workers: a runnable shard, done, failed
  std::condition_variable space;  // demux: below the bound, or failed
  std::vector<std::deque<std::vector<Request>>> chunks(num_shards);
  std::vector<char> running(num_shards, 0);
  std::deque<std::size_t> runnable;
  std::size_t queued = 0;  // chunks in every FIFO
  const std::size_t bound = kMaxQueuedChunks * workers;
  bool done = false;
  // Written under `mutex`; read without it by the demux's fill loop.
  std::atomic<bool> failed{false};

  const auto drain = [&](std::size_t /*worker*/) {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      work.wait(lock, [&] {
        return !runnable.empty() || done ||
               failed.load(std::memory_order_relaxed);
      });
      // Done and drained: chunks left belong to shards still running.
      if (runnable.empty() || failed.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t s = runnable.front();
      runnable.pop_front();
      running[s] = 1;
      while (!chunks[s].empty() && !failed.load(std::memory_order_relaxed)) {
        std::vector<Request> chunk = std::move(chunks[s].front());
        chunks[s].pop_front();
        --queued;
        lock.unlock();
        space.notify_one();
        algs_[s]->step_batch(chunk, sinks[s]);
        chunk = {};  // free outside the lock
        lock.lock();
      }
      running[s] = 0;
    }
  };

  const auto flush = [&](std::size_t s) {
    if (workers == 1) {
      algs_[s]->step_batch(pending[s], sinks[s]);
      pending[s].clear();
      return;
    }
    bool wake = false;
    {
      std::unique_lock<std::mutex> lock(mutex);
      space.wait(lock, [&] {
        return queued < bound || failed.load(std::memory_order_relaxed);
      });
      wake = chunks[s].empty() && running[s] == 0;
      if (wake) runnable.push_back(s);
      chunks[s].push_back(std::move(pending[s]));
      ++queued;
    }
    if (wake) work.notify_one();
    pending[s] = {};
    pending[s].reserve(config_.batch);
  };

  const auto demux = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t n = source.fill(buffer);
      if (n == 0) break;
      for (std::size_t i = 0; i < n; ++i) {
        const auto [s, local] = plan_.route(buffer[i]);
        pending[s].push_back(local);
        if (pending[s].size() >= config_.batch) flush(s);
      }
    }
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (!pending[s].empty() && !failed.load(std::memory_order_relaxed)) {
        flush(s);
      }
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      done = true;
    }
    work.notify_all();
  };

  // Flip `failed` under the mutex, so a demux blocked on the bound cannot
  // evaluate its predicate between the store and the wakeup (a lost notify
  // would deadlock run()); wake every waiter.
  const auto stop = [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      failed.store(true, std::memory_order_relaxed);
    }
    space.notify_all();
    work.notify_all();
  };

  run_pool(workers, config_.pin_threads, out, drain, demux, stop);
  finalize(out, tallies, algs_);
  out.total.wall_seconds = timer.seconds();
  return out;
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
  const Stopwatch timer;
  const std::size_t workers = num_shards == 1 ? 1 : effective_threads();

  std::vector<Tally> tallies(num_shards);
  std::vector<sim::AccountingSink> sinks;
  sinks.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    sinks.emplace_back(tallies[s].result, *algs_[s], mirrors[s].get());
  }

  // Worker w runs the closed loops of the shards it owns (s % workers == w):
  // each alternates fill → step_batch → observe, and the worker interleaves
  // them round-robin, one chunk per pass, rather than running them to
  // exhaustion one by one — the mirrors of a router split
  // (fib::RouterSource::split) pull from one producer, and draining one
  // shard first would queue most of the stream for its siblings. Shards
  // share no state but that producer, so the order is free and per-shard
  // results are unchanged; no outcome crosses a thread. Ownership stays
  // static, unlike run()'s work-conserving pool. It was measured when a
  // router fill ended at every miss (~1.24 requests per fill): on a 4-vCPU
  // KVM guest, a variant that claimed any free shard per pass ran a
  // 1M-route FIB at 8 shards on 3 workers at 1.69–1.77M ops/s against
  // 1.99–2.25M, with CPU per op up from 784–875 to 1,061–1,119 ns.
  std::atomic<bool> failed{false};
  const auto drive = [&](std::size_t w) {
    std::vector<Request> buffer(config_.batch);
    std::vector<std::size_t> live;
    for (std::size_t s = w; s < num_shards; s += workers) live.push_back(s);
    while (!live.empty() && !failed.load(std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < live.size();) {
        const std::size_t s = live[i];
        const std::size_t n = mirrors[s]->fill(buffer);
        if (n == 0) {
          // fill() contract: 0 is final until reset — the shard is done
          // even while its siblings keep consuming the shared stream.
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        algs_[s]->step_batch({buffer.data(), n}, sinks[s]);
        ++i;
      }
    }
  };
  // A throw on one worker stops its siblings at their next pass.
  run_pool(workers, config_.pin_threads, out, drive, [] {},
           [&] { failed.store(true, std::memory_order_relaxed); });
  finalize(out, tallies, algs_);
  out.total.wall_seconds = timer.seconds();
  return out;
}

}  // namespace treecache::engine
