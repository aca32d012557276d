#include "core/request_source.hpp"

#include <algorithm>

// Only the .cpp sees the plan type: core headers stay engine-free, and the
// whole library is one object target, so there is no link-level cycle.
#include "engine/shard_plan.hpp"
#include "util/check.hpp"

namespace treecache {

std::vector<std::unique_ptr<RequestSource>> RequestSource::split(
    const engine::ShardPlan& plan) const {
  // Closed loops need genuine per-shard mirrors (the stream itself depends
  // on per-shard feedback); a filter over a replay cannot provide them.
  if (is_closed_loop()) return {};
  std::vector<std::unique_ptr<RequestSource>> out;
  out.reserve(plan.num_shards());
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    auto replay = fork();
    if (replay == nullptr) return {};
    out.push_back(
        std::make_unique<ShardFilterSource>(std::move(replay), plan, s));
  }
  return out;
}

ShardFilterSource::ShardFilterSource(std::unique_ptr<RequestSource> inner,
                                     const engine::ShardPlan& plan,
                                     std::size_t shard)
    : inner_(std::move(inner)), plan_(&plan), shard_(shard) {
  TC_CHECK(inner_ != nullptr, "shard filter needs a source to filter");
  TC_CHECK(shard_ < plan.num_shards(), "shard index outside the plan");
  inner_->reset();  // always a from-the-start replay, whatever fork() did
}

std::size_t ShardFilterSource::fill(std::span<Request> buffer) {
  scratch_.resize(buffer.size());
  std::size_t n = 0;
  while (n < buffer.size()) {
    // Pull at most the space left: the filtered yield can only shrink, so
    // owned requests always fit without carry-over between calls.
    const std::size_t got =
        inner_->fill({scratch_.data(), buffer.size() - n});
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      const engine::RoutedRequest routed = plan_->route(scratch_[i]);
      if (routed.shard == shard_) buffer[n++] = routed.local;
    }
  }
  return n;
}

std::size_t TraceSource::fill(std::span<Request> buffer) {
  const std::size_t n =
      std::min(buffer.size(), view_.size() - position_);
  std::copy_n(view_.begin() + static_cast<std::ptrdiff_t>(position_), n,
              buffer.begin());
  position_ += n;
  return n;
}

FileTraceSource::FileTraceSource(std::string path, std::size_t tree_size)
    : path_(std::move(path)), tree_size_(tree_size), in_(path_) {
  TC_CHECK(static_cast<bool>(in_), "cannot open " + path_);
}

std::size_t FileTraceSource::fill(std::span<Request> buffer) {
  return read_requests(in_, buffer, tree_size_, line_number_);
}

void FileTraceSource::reset() {
  in_.clear();
  in_.seekg(0);
  TC_CHECK(static_cast<bool>(in_), "cannot rewind " + path_);
  line_number_ = 0;
}

Trace materialize(RequestSource& source, std::size_t max_requests) {
  Trace trace;
  Request buffer[1024];
  while (trace.size() < max_requests) {
    const std::size_t want =
        std::min<std::size_t>(std::size(buffer), max_requests - trace.size());
    const std::size_t n = source.fill({buffer, want});
    if (n == 0) break;
    trace.insert(trace.end(), buffer, buffer + n);
  }
  return trace;
}

}  // namespace treecache
