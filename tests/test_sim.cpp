// Simulation harness: run_trace accounting, metrics, trace I/O, scenarios.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/tree_cache.hpp"
#include "sim/metrics.hpp"
#include "sim/reporting.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "tree/tree_builder.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

namespace treecache {
namespace {

TEST(Simulator, AccountingMatchesAlgorithmCost) {
  Rng rng(1);
  const Tree t = trees::random_recursive(30, rng);
  const Trace trace = workload::uniform_trace(t, 800, 0.3, rng);
  const std::uint64_t alpha = 3;
  TreeCache tc(t, {.alpha = alpha, .capacity = 8});
  const auto result = sim::run_trace(tc, trace);

  EXPECT_EQ(result.rounds, trace.size());
  EXPECT_EQ(result.cost, tc.cost());
  EXPECT_EQ(result.cost.service, result.paid_requests);
  // Every reorganized node costs alpha.
  EXPECT_EQ(result.cost.reorg,
            alpha * (result.fetched_nodes + result.evicted_nodes +
                     result.restart_evictions));
  EXPECT_LE(result.max_cache_size, 8u);
  EXPECT_EQ(result.final_cache_size, tc.cache().size());
}

TEST(Metrics, SummaryBasics) {
  const auto s = sim::summarize({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Metrics, SummaryOfEmptyIsZero) {
  const auto s = sim::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

// Nearest-rank quantiles: rank ⌈q·n⌉ clamped to [1, n]. Median and p95
// must follow the same convention.
TEST(Metrics, QuantileNearestRankOddSample) {
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(sim::quantile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sim::quantile(sorted, 0.5), 3.0);   // rank ⌈2.5⌉ = 3
  EXPECT_DOUBLE_EQ(sim::quantile(sorted, 0.95), 5.0);  // rank ⌈4.75⌉ = 5
  EXPECT_DOUBLE_EQ(sim::quantile(sorted, 1.0), 5.0);
}

TEST(Metrics, QuantileNearestRankEvenSample) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
  // q·n lands exactly on a rank boundary: ⌈2⌉ = 2, the lower middle.
  EXPECT_DOUBLE_EQ(sim::quantile(sorted, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(sim::quantile(sorted, 0.25), 10.0);  // ⌈1⌉ = 1
  EXPECT_DOUBLE_EQ(sim::quantile(sorted, 0.75), 30.0);  // ⌈3⌉ = 3
  EXPECT_DOUBLE_EQ(sim::quantile(sorted, 0.76), 40.0);  // ⌈3.04⌉ = 4
}

TEST(Metrics, QuantileSmallSamples) {
  EXPECT_DOUBLE_EQ(sim::quantile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(sim::quantile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(sim::quantile({7.0}, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(sim::quantile({1.0, 2.0}, 0.5), 1.0);  // ⌈1⌉ = 1
  EXPECT_DOUBLE_EQ(sim::quantile({1.0, 2.0}, 0.51), 2.0);
  EXPECT_THROW((void)sim::quantile({}, 0.5), CheckFailure);
}

TEST(Metrics, SummaryQuantilesMatchQuantileHelper) {
  std::vector<double> samples;
  for (int i = 40; i >= 1; --i) samples.push_back(i);  // 1..40, reversed
  const auto s = sim::summarize(samples);
  std::sort(samples.begin(), samples.end());
  EXPECT_DOUBLE_EQ(s.median, sim::quantile(samples, 0.5));
  EXPECT_DOUBLE_EQ(s.median, 20.0);  // even n: lower middle element
  EXPECT_DOUBLE_EQ(s.p95, sim::quantile(samples, 0.95));
  EXPECT_DOUBLE_EQ(s.p95, 38.0);  // rank ⌈0.95·40⌉ = 38
}

TEST(TraceIo, SaveLoadRoundTrip) {
  const Tree t = trees::path(5);
  Rng rng(3);
  const Trace trace = workload::uniform_trace(t, 200, 0.5, rng);
  std::stringstream buffer;
  save_trace(buffer, trace);
  const Trace loaded = load_trace(buffer, t.size());
  EXPECT_EQ(loaded, trace);
}

TEST(TraceIo, LoadRejectsOutOfRange) {
  std::stringstream buffer("+7\n");
  EXPECT_THROW(load_trace(buffer, 5), CheckFailure);
}

/// Serves `text`, then fails: the next underflow throws, which the istream
/// reading it turns into badbit — a disk error in the middle of a file.
class FailingStreambuf final : public std::streambuf {
 public:
  explicit FailingStreambuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override { throw std::ios_base::failure("disk"); }

 private:
  std::string text_;
};

TEST(TraceIo, LoadRefusesAStreamReadError) {
  // Both readers of the format share one line loop, so load_trace refuses
  // a read error exactly as FileTraceSource does, not a truncated trace.
  FailingStreambuf failing("+1\n-2\n+3");
  std::istream in(&failing);
  try {
    (void)load_trace(in, 5);
    ADD_FAILURE() << "a read error loaded as a truncated trace";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("read error"), std::string::npos)
        << e.what();
  }
}

TEST(Scenario, TraceFileRunsLikeItsWorkload) {
  Rng rng(5);
  const Tree tree = trees::random_recursive(40, rng);
  sim::Params params;
  params.set("length", "3000");
  params.set("capacity", "8");
  params.set("alpha", "3");
  const sim::Scenario workload{
      .algorithm = "tc", .workload = "zipf", .params = params, .seed = 9};
  const std::string path = "/tmp/treecache_test_scenario_trace.txt";
  {
    std::ofstream out(path);
    save_trace(out, materialize(*sim::open_source(tree, workload)));
  }
  sim::Scenario trace = workload;
  trace.workload.clear();
  trace.trace = path;

  // The file replays the workload's stream, so the runs are equal.
  const sim::ScenarioResult from_workload = sim::run_scenario(tree, workload);
  const sim::ScenarioResult from_trace = sim::run_scenario(tree, trace);
  EXPECT_EQ(from_trace.run, from_workload.run);
  EXPECT_EQ(from_trace.run.rounds, 3000u);

  // A trace scenario names its file last and no workload.
  const std::string doc = sim::to_json(trace).dump();
  EXPECT_EQ(doc.find("\"workload\""), std::string::npos) << doc;
  const std::size_t trace_at = doc.find("\"trace\": \"" + path + "\"");
  ASSERT_NE(trace_at, std::string::npos) << doc;
  EXPECT_GT(trace_at, doc.find("\"params\"")) << doc;
  EXPECT_EQ(sim::to_json(workload).dump().find("\"trace\""),
            std::string::npos);

  // Exactly one of the two names the stream.
  sim::Scenario both = trace;
  both.workload = "zipf";
  EXPECT_THROW((void)sim::open_source(tree, both), CheckFailure);
  sim::Scenario neither = trace;
  neither.trace.clear();
  EXPECT_THROW((void)sim::open_source(tree, neither), CheckFailure);
  std::remove(path.c_str());
}

TEST(ConsoleTable, AlignsAndCounts) {
  ConsoleTable table({"name", "value"});
  table.add_row({"alpha", "2"});
  table.add_row({"capacity", "1024"});
  EXPECT_EQ(table.rows(), 2u);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("1024"), std::string::npos);
  // Every rendered line has the same width (alignment).
  std::size_t expected_width = std::string::npos;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    const std::size_t width = end - start;
    if (expected_width == std::string::npos) expected_width = width;
    EXPECT_EQ(width, expected_width);
    start = end + 1;
  }
  EXPECT_THROW(table.add_row({"too", "many", "cells"}), CheckFailure);
}

}  // namespace
}  // namespace treecache
