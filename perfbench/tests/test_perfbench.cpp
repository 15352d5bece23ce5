// Tests of the benchmark's own helpers: order statistics, the tail rule,
// spread, span arithmetic, and the transparency of the counting decorator.
#include <gtest/gtest.h>

#include <memory>

#include "ledger.hpp"
#include "noisypull/noisypull.hpp"
#include "observed_protocol.hpp"

namespace perfbench {
namespace {

TEST(Midmean, AveragesTheMiddleHalf) {
  EXPECT_DOUBLE_EQ(midmean({1.0, 2.0, 3.0, 100.0}), 2.5);
  EXPECT_DOUBLE_EQ(midmean({5.0, 1.0, 9.0, 2.0, 3.0, 4.0, 7.0, 8.0}), 4.75);
  EXPECT_DOUBLE_EQ(midmean({7.0}), 7.0);
  EXPECT_THROW(midmean({}), std::invalid_argument);
}

TEST(Quantile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.99), 7.0);
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
}

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(271), 90.0);  // SF's horizon at n = 10⁶, h = n
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(1464), 99.0);  // SF's at n = 10⁵, h = 64
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
}

// Reference values from Python's statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  const Quartiles b = quartiles({1, 3});
  EXPECT_DOUBLE_EQ(b.q1, 0.5);
  EXPECT_DOUBLE_EQ(b.q3, 3.5);
  const Quartiles c = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(c.q1, 1.5);
  EXPECT_DOUBLE_EQ(c.q3, 4.5);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

TEST(Spread, IsInterquartileRangeOverMedian) {
  EXPECT_DOUBLE_EQ(spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5);
  EXPECT_NEAR(spread({2.0, 2.1, 2.05, 2.3, 1.9, 2.2, 2.15, 2.0, 2.4, 2.1}),
              (2.225 - 2.0) / 2.1, 1e-12);
  EXPECT_DOUBLE_EQ(spread({4, 4, 4, 4}), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1},
      {"a", 1.0, 3.0, 0},
      {"b", 2.0, 5.0, 0},   // overlaps a: the union, not the sum, counts
      {"c", 7.0, 8.0, 0},
      {"d", 9.0, 12.0, 0},  // clipped to the parent's end
      {"grandchild", 1.0, 2.0, 1},
  };
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 10.0 - (4.0 + 1.0 + 1.0));
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 1.0);
  EXPECT_DOUBLE_EQ(self_time(spans, 2), 3.0);
}

TEST(Spans, CoverageIsChildSumOverLaneTotal) {
  const std::vector<Span> spans = {
      {"run", 0.0, 10.0, -1},
      {"step", 0.0, 6.0, 0},
      {"count_correct", 6.0, 9.5, 0},
      {"rep", 0.0, 10.0, -1},
      {"x", 0.0, 10.0, 3},
      {"y", 0.0, 5.0, 3},
  };
  EXPECT_DOUBLE_EQ(child_sum(spans, 0), 9.5);
  EXPECT_DOUBLE_EQ(coverage(spans, 0), 0.95);
  EXPECT_DOUBLE_EQ(coverage(spans, 3, 2), 0.75);
}

TEST(Trace, OpenCloseRecordsParentage) {
  Trace trace;
  const int root = trace.open("root", -1);
  const int child = trace.add("child", trace.now(), trace.now(), root);
  trace.close(root);
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[static_cast<std::size_t>(child)].parent, root);
  EXPECT_GE(spans[0].end, spans[0].start);
}

// ---- counting decorator transparency ---------------------------------

using namespace noisypull;

struct Digested {
  RunResult result;
  std::uint64_t digest = 0;
  std::uint64_t virtual_updates = 0;
};

Digested run_sf(bool compiled, bool wrapped, unsigned lanes) {
  const PopulationConfig pop{.n = 9000, .s1 = 60, .s0 = 0};
  const Holdings h{64};
  const Delta delta{0.2};
  std::unique_ptr<PullProtocol> protocol;
  if (compiled) {
    protocol = make_compiled_sf(pop, make_sf_schedule(pop, h, delta));
  } else {
    protocol = std::make_unique<SourceFilter>(pop, h, delta);
  }
  const std::uint64_t rounds = protocol->planned_rounds();
  ObservedProtocol* observed = nullptr;
  if (wrapped) {
    auto w = std::make_unique<ObservedProtocol>(std::move(protocol));
    observed = w.get();
    protocol = std::move(w);
  }
  AggregateEngine engine;
  Rng rng(2024, 1);
  Digested out;
  out.result = run(*protocol, engine, NoiseMatrix::uniform(2, delta.get()),
                   pop.correct_opinion(),
                   RunConfig{.h = h.get(),
                             .max_rounds = rounds,
                             .engine_threads = lanes,
                             .compiled = compiled},
                   rng);
  out.digest = engine.replay_digest();
  if (observed != nullptr) out.virtual_updates = observed->virtual_updates();
  return out;
}

void expect_same(const Digested& a, const Digested& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.result.correct_at_end, b.result.correct_at_end);
  EXPECT_EQ(a.result.first_all_correct, b.result.first_all_correct);
  EXPECT_EQ(a.result.rounds_run, b.result.rounds_run);
}

TEST(ObservedProtocol, InterpretedRunIsDigestTransparent) {
  const Digested bare = run_sf(false, false, 1);
  const Digested wrapped = run_sf(false, true, 1);
  const Digested wrapped_lanes = run_sf(false, true, 4);
  expect_same(bare, wrapped);
  expect_same(bare, wrapped_lanes);
  // Every update of an interpreted run goes through the virtual path, and
  // none is lost when lanes update concurrently.
  EXPECT_EQ(wrapped.virtual_updates, 9000 * wrapped.result.rounds_run);
  EXPECT_EQ(wrapped_lanes.virtual_updates, wrapped.virtual_updates);
}

TEST(ObservedProtocol, CompiledRunIsDigestTransparentAtAnyLaneCount) {
  const Digested bare = run_sf(true, false, 1);
  const Digested wrapped = run_sf(true, true, 1);
  const Digested wrapped_lanes = run_sf(true, true, 4);
  expect_same(bare, wrapped);
  expect_same(bare, wrapped_lanes);
  // compiled_access() reaches the population, so compiled rounds bypass
  // update(); the count is a function of the trajectory, not of lanes.
  EXPECT_LT(wrapped.virtual_updates, 9000 * wrapped.result.rounds_run);
  EXPECT_EQ(wrapped.virtual_updates, wrapped_lanes.virtual_updates);
  // The compiled and interpreted representations agree draw for draw.
  expect_same(bare, run_sf(false, false, 1));
}

}  // namespace
}  // namespace perfbench
