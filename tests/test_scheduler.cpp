#include "noisypull/analysis/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "noisypull/analysis/table.hpp"
#include "noisypull/core/source_filter.hpp"

namespace noisypull {
namespace {

namespace fs = std::filesystem;

PopulationConfig pop(std::uint64_t n, std::uint64_t s1, std::uint64_t s0) {
  return PopulationConfig{.n = n, .s1 = s1, .s0 = s0};
}

ProtocolFactory sf_factory(const PopulationConfig& p, double delta) {
  return [p, delta](Rng&) -> std::unique_ptr<PullProtocol> {
    return std::make_unique<SourceFilter>(p, Holdings{p.n}, Delta{delta},
                                          C1{2.0});
  };
}

std::uint64_t sf_digest(const PopulationConfig& p, double delta) {
  return CellKey()
      .str("SourceFilter")
      .u64(p.n)
      .u64(p.s1)
      .u64(p.s0)
      .u64(p.n)
      .f64(delta)
      .f64(2.0)
      .digest();
}

ExperimentCell sf_cell(const PopulationConfig& p, double delta,
                       std::uint64_t seed) {
  return ExperimentCell{.label = "sf n=" + std::to_string(p.n),
                        .make_protocol = sf_factory(p, delta),
                        .noise = NoiseMatrix::uniform(2, delta),
                        .correct = p.correct_opinion(),
                        .cfg = RunConfig{.h = p.n},
                        .seed = seed,
                        .protocol_digest = sf_digest(p, delta)};
}

// A truncated cell: the run stops right after weak opinions form, so
// correct_at_end (and success) is genuinely random across repetitions —
// the interesting regime for early stopping and cache tests.
ExperimentCell truncated_cell(const PopulationConfig& p, double delta,
                              std::uint64_t seed) {
  const SourceFilter ref(p, Holdings{p.n}, Delta{delta}, C1{2.0});
  ExperimentCell cell = sf_cell(p, delta, seed);
  cell.cfg.max_rounds = ref.schedule().boosting_start();
  return cell;
}

// Field-by-field bit equality: the scheduler's determinism contract is
// "identical statistics", not "statistically close".
void expect_same(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.reps, b.reps);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.stable_successes, b.stable_successes);
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.stable_success_rate, b.stable_success_rate);
  EXPECT_EQ(a.wilson.lower, b.wilson.lower);
  EXPECT_EQ(a.wilson.upper, b.wilson.upper);
  EXPECT_EQ(a.ci_halfwidth, b.ci_halfwidth);
  EXPECT_EQ(a.mean_convergence_round, b.mean_convergence_round);
  EXPECT_EQ(a.convergence_stddev, b.convergence_stddev);
  EXPECT_EQ(a.mean_rounds_run, b.mean_rounds_run);
  EXPECT_EQ(a.early_stopped, b.early_stopped);
  EXPECT_EQ(a.cache_key, b.cache_key);
}

std::vector<RepOutcome> synthetic_outcomes(const std::string& pattern) {
  std::vector<RepOutcome> outcomes;
  for (const char c : pattern) {
    RepOutcome o;
    o.all_correct_at_end = c == '1';
    o.stable = o.all_correct_at_end;
    o.rounds_run = 10;
    outcomes.push_back(o);
  }
  return outcomes;
}

TEST(StopPoint, DisabledRuleAlwaysRunsMaxReps) {
  const auto outcomes = synthetic_outcomes("0101");
  const StopRule rule{.max_reps = 4, .min_reps = 2, .ci_halfwidth = 0.0};
  EXPECT_EQ(stop_point(outcomes, rule), 4u);
}

TEST(StopPoint, StopsAtSmallestQualifyingPrefix) {
  const auto outcomes = synthetic_outcomes(std::string(32, '1'));
  const StopRule rule{.max_reps = 32, .min_reps = 4, .ci_halfwidth = 0.15};
  const std::uint64_t m = stop_point(outcomes, rule);
  ASSERT_GE(m, rule.min_reps);
  ASSERT_LE(m, rule.max_reps);
  // The returned prefix qualifies...
  EXPECT_LE(wilson_halfwidth(m, m), rule.ci_halfwidth);
  // ...and no shorter prefix >= min_reps does (all-success prefixes have
  // monotonically shrinking half-widths, so checking m-1 suffices).
  if (m > rule.min_reps) {
    EXPECT_GT(wilson_halfwidth(m - 1, m - 1), rule.ci_halfwidth);
  }
  // An all-success run at this target must stop well before 32.
  EXPECT_LT(m, 32u);
}

TEST(StopPoint, MixedPrefixNeverStopsBelowTarget) {
  // Alternating outcomes keep p-hat at 1/2, where Wilson intervals are
  // widest; a tight target cannot be met within 16 reps.
  const auto outcomes = synthetic_outcomes("0101010101010101");
  const StopRule rule{.max_reps = 16, .min_reps = 4, .ci_halfwidth = 0.05};
  EXPECT_EQ(stop_point(outcomes, rule), 16u);
}

TEST(Aggregation, SuccessRate) {
  auto outcomes = synthetic_outcomes("1101");
  const StopRule rule{.max_reps = 4};
  EXPECT_DOUBLE_EQ(finalize_prefix(outcomes, 4, rule).success_rate, 0.75);
  outcomes[1].stable = false;
  outcomes[3].stable = false;
  EXPECT_DOUBLE_EQ(finalize_prefix(outcomes, 4, rule).stable_success_rate,
                   0.25);
}

TEST(Aggregation, StabilityOnTheWrongOpinionIsNotSuccess) {
  // A run that settled (stable) on the WRONG consensus never counts as
  // success: RepOutcome is a plain struct (cache records, tests), so the
  // aggregation reads both bits.
  auto outcomes = synthetic_outcomes("01");
  outcomes[0].stable = true;  // stable, but on the wrong opinion
  const CellStats stats = finalize_prefix(outcomes, 2, StopRule{.max_reps = 2});
  EXPECT_EQ(stats.successes, 1u);
  EXPECT_EQ(stats.stable_successes, 1u);
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.5);
  EXPECT_DOUBLE_EQ(stats.stable_success_rate, 0.5);
}

TEST(Aggregation, MeanConvergenceRound) {
  auto outcomes = synthetic_outcomes("110");
  outcomes[0].first_all_correct = 10;
  outcomes[1].first_all_correct = 20;  // outcomes[2] never converged
  const StopRule rule{.max_reps = 3};
  const CellStats stats = finalize_prefix(outcomes, 3, rule);
  ASSERT_TRUE(stats.mean_convergence_round.has_value());
  EXPECT_DOUBLE_EQ(*stats.mean_convergence_round, 15.0);

  // No converged run → empty optional, never a numeric sentinel that could
  // leak into tables as if it were a round count.
  EXPECT_FALSE(finalize_prefix(synthetic_outcomes("00"), 2, rule)
                   .mean_convergence_round.has_value());
}

TEST(Aggregation, MeanConvergenceRoundRendersAsNeverInTables) {
  const CellStats stats =
      finalize_prefix(synthetic_outcomes("0"), 1, StopRule{.max_reps = 1});
  Table table({"mcr"});
  table.cell(stats.mean_convergence_round, 1).end_row();
  EXPECT_EQ(table.rows()[0][0], "never");
}

// The reference the scheduler must reproduce: a serial loop where
// repetition r builds its protocol from Rng(seed, 2r) and runs on
// Rng(seed, 2r+1).
std::vector<RepOutcome> serial_outcomes(const ExperimentCell& cell,
                                        std::uint64_t reps) {
  std::unique_ptr<Engine> engine;
  if (cell.use_aggregate_engine) {
    engine = std::make_unique<AggregateEngine>();
  } else {
    engine = std::make_unique<ExactEngine>();
  }
  std::vector<RepOutcome> outcomes;
  for (std::uint64_t r = 0; r < reps; ++r) {
    Rng init_rng(cell.seed, 2 * r);
    Rng run_rng(cell.seed, 2 * r + 1);
    const auto protocol = cell.make_protocol(init_rng);
    outcomes.push_back(to_outcome(run(*protocol, *engine, cell.noise,
                                      cell.correct, cell.cfg, run_rng)));
  }
  return outcomes;
}

// The scheduler's statistics equal those of the serial reference loop.
TEST(Scheduler, MatchesRunRepetitions) {
  const auto p = pop(150, 1, 0);
  const std::vector<ExperimentCell> cells = {sf_cell(p, 0.2, 21),
                                             truncated_cell(p, 0.3, 22)};
  const SchedulerOptions opts{.threads = 2, .stop = StopRule{.max_reps = 5}};
  const auto stats = run_experiment(cells, opts);
  ASSERT_EQ(stats.size(), cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellStats expected =
        finalize_prefix(serial_outcomes(cells[c], 5), 5, opts.stop);
    EXPECT_EQ(stats[c].success_rate, expected.success_rate);
    EXPECT_EQ(stats[c].mean_convergence_round,
              expected.mean_convergence_round);
    EXPECT_EQ(stats[c].mean_rounds_run, expected.mean_rounds_run);
    EXPECT_EQ(stats[c].reps, 5u);
    EXPECT_EQ(stats[c].reps_computed, 5u);
    EXPECT_EQ(stats[c].reps_cached, 0u);
  }
}

// finalize_prefix's aggregates are the plain per-repetition counts over the
// serial loop's outcomes.
TEST(FinalizePrefix, MatchesRepeatHelpers) {
  const auto outcomes = serial_outcomes(sf_cell(pop(120, 1, 0), 0.25, 7), 6);
  const CellStats stats = finalize_prefix(outcomes, 6, StopRule{.max_reps = 6});
  std::uint64_t good = 0, stable = 0, converged = 0;
  double rounds = 0.0;
  for (const RepOutcome& o : outcomes) {
    good += o.all_correct_at_end ? 1 : 0;
    stable += o.all_correct_at_end && o.stable ? 1 : 0;
    if (o.first_all_correct != kNever) {
      ++converged;
      rounds += static_cast<double>(o.first_all_correct);
    }
  }
  EXPECT_EQ(stats.success_rate, static_cast<double>(good) / 6.0);
  EXPECT_EQ(stats.stable_success_rate, static_cast<double>(stable) / 6.0);
  ASSERT_EQ(stats.mean_convergence_round.has_value(), converged > 0);
  if (converged > 0) {
    EXPECT_DOUBLE_EQ(*stats.mean_convergence_round,
                     rounds / static_cast<double>(converged));
  }
}

TEST(Repeat, ProducesOneResultPerRepetition) {
  const auto stats = run_experiment({sf_cell(pop(100, 1, 0), 0.1, 1)},
                                    SchedulerOptions{.stop = {.max_reps = 5}});
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].reps, 5u);
  EXPECT_EQ(stats[0].reps_computed, 5u);
  EXPECT_GT(stats[0].mean_rounds_run, 0.0);
}

TEST(Repeat, DeterministicForSameSeed) {
  const std::vector<ExperimentCell> cells = {
      sf_cell(pop(100, 1, 0), 0.1, 33), truncated_cell(pop(100, 1, 0), 0.3, 33)};
  const SchedulerOptions opts{.stop = {.max_reps = 4}};
  const auto a = run_experiment(cells, opts);
  const auto b = run_experiment(cells, opts);
  for (std::size_t c = 0; c < cells.size(); ++c) expect_same(a[c], b[c]);
}

TEST(Repeat, ThreadCountDoesNotChangeResults) {
  const std::vector<ExperimentCell> cells = {
      sf_cell(pop(100, 1, 0), 0.1, 44), truncated_cell(pop(100, 1, 0), 0.3, 44)};
  const StopRule rule{.max_reps = 6};
  const auto seq =
      run_experiment(cells, SchedulerOptions{.threads = 1, .stop = rule});
  const auto par =
      run_experiment(cells, SchedulerOptions{.threads = 4, .stop = rule});
  for (std::size_t c = 0; c < cells.size(); ++c) expect_same(seq[c], par[c]);
}

TEST(Repeat, RepetitionsAreIndependentAcrossSeeds) {
  // The truncated cell's correct counts are random, so two seeds must
  // disagree somewhere.
  const ExperimentCell cell = truncated_cell(pop(100, 1, 0), 0.3, 1);
  ExperimentCell reseeded = cell;
  ++reseeded.seed;
  const auto a = serial_outcomes(cell, 4);
  const auto b = serial_outcomes(reseeded, 4);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a[i].correct_at_end != b[i].correct_at_end ||
                a[i].first_all_correct != b[i].first_all_correct;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Repeat, ExactEngineOptionRuns) {
  ExperimentCell exact = sf_cell(pop(60, 1, 0), 0.1, 5);
  exact.cfg.h = 4;
  exact.use_aggregate_engine = false;
  const StopRule rule{.max_reps = 2};
  const auto stats = run_experiment({exact}, SchedulerOptions{.stop = rule});
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].reps, 2u);
  const CellStats expected =
      finalize_prefix(serial_outcomes(exact, 2), 2, rule);
  EXPECT_EQ(stats[0].success_rate, expected.success_rate);
  EXPECT_EQ(stats[0].mean_convergence_round, expected.mean_convergence_round);
  EXPECT_EQ(stats[0].mean_rounds_run, expected.mean_rounds_run);
}

TEST(Scheduler, EngineThreadsDoNotChangeStats) {
  // Engine lanes inside each repetition compose with the workers without
  // changing a single statistic bit.
  const auto p = pop(100, 1, 0);
  const std::vector<ExperimentCell> cells = {sf_cell(p, 0.1, 77),
                                             truncated_cell(p, 0.3, 78)};
  const StopRule rule{.max_reps = 4};
  const auto serial = run_experiment(
      cells, SchedulerOptions{.threads = 2, .stop = rule, .engine_threads = 1});
  const auto lanes = run_experiment(
      cells, SchedulerOptions{.threads = 2, .stop = rule, .engine_threads = 3});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    expect_same(serial[c], lanes[c]);
  }
}

TEST(Repeat, FactoryExceptionsPropagateToTheCaller) {
  ExperimentCell cell = sf_cell(pop(50, 1, 0), 0.1, 1);
  cell.make_protocol = [](Rng&) -> std::unique_ptr<PullProtocol> {
    throw std::invalid_argument("factory failure");
  };
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW(
        run_experiment({cell}, SchedulerOptions{.threads = threads,
                                                .stop = {.max_reps = 6}}),
        std::invalid_argument)
        << threads << " workers";
  }
}

TEST(Repeat, RunExceptionsPropagateToTheCaller) {
  // Alphabet mismatch between protocol (binary) and noise (3 symbols)
  // surfaces from inside the run.
  ExperimentCell cell = sf_cell(pop(50, 1, 0), 0.1, 1);
  cell.noise = NoiseMatrix::uniform(3, 0.1);
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_THROW(
        run_experiment({cell}, SchedulerOptions{.threads = threads,
                                                .stop = {.max_reps = 4}}),
        std::invalid_argument)
        << threads << " workers";
  }
}

TEST(Scheduler, RejectsZeroMaxReps) {
  EXPECT_THROW(run_experiment({sf_cell(pop(50, 1, 0), 0.1, 1)},
                              SchedulerOptions{.stop = {.max_reps = 0}}),
               std::invalid_argument);
}

TEST(Scheduler, BitIdenticalAcrossWorkerCounts) {
  // The determinism contract's core test: identical statistics AND stop
  // points for 1, 2, and 8 workers, with adaptive early stopping on and a
  // nonzero fault plan in the mix.
  FaultPlan plan;
  plan.seed = 5;
  plan.first_eligible = 1;
  plan.drop.p = 0.1;
  plan.byzantine.fraction = 0.05;

  std::vector<ExperimentCell> cells;
  for (std::uint64_t i = 0; i < 4; ++i) {
    ExperimentCell cell = truncated_cell(pop(100 + 30 * i, 1, 0), 0.3, 40 + i);
    if (i % 2 == 1) cell.fault_plan = plan;
    cells.push_back(cell);
  }
  const StopRule rule{.max_reps = 12, .min_reps = 3, .ci_halfwidth = 0.22};

  std::vector<std::vector<CellStats>> runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    runs.push_back(run_experiment(
        cells, SchedulerOptions{.threads = threads, .stop = rule}));
  }
  bool any_early = false;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    expect_same(runs[0][c], runs[1][c]);
    expect_same(runs[0][c], runs[2][c]);
    any_early |= runs[0][c].early_stopped;
  }
  // The rule must actually have fired somewhere, or this test exercises
  // nothing adaptive.
  EXPECT_TRUE(any_early);
}

TEST(Scheduler, CacheColdWarmAndBypassAgree) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "noisypull_sched_cache";
  fs::remove_all(dir);

  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 60),
      truncated_cell(pop(140, 1, 0), 0.25, 61)};
  const StopRule rule{.max_reps = 8, .min_reps = 3, .ci_halfwidth = 0.25};
  SchedulerOptions cached{.threads = 2, .stop = rule,
                          .cache_dir = dir.string()};
  SchedulerOptions bypass{.threads = 2, .stop = rule};

  const auto cold = run_experiment(cells, cached);
  const auto warm = run_experiment(cells, cached);
  const auto off = run_experiment(cells, bypass);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    expect_same(cold[c], warm[c]);
    expect_same(cold[c], off[c]);
    EXPECT_EQ(warm[c].reps_computed, 0u);
    EXPECT_EQ(warm[c].reps_cached, warm[c].reps);
    EXPECT_EQ(off[c].reps_cached, 0u);
  }
  fs::remove_all(dir);
}

TEST(Scheduler, WarmRunExtendsCachedPrefixWhenBudgetGrows) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "noisypull_sched_extend";
  fs::remove_all(dir);

  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 70)};
  SchedulerOptions small{.threads = 1,
                         .stop = StopRule{.max_reps = 4},
                         .cache_dir = dir.string()};
  SchedulerOptions large{.threads = 1,
                         .stop = StopRule{.max_reps = 9},
                         .cache_dir = dir.string()};

  const auto first = run_experiment(cells, small);
  EXPECT_EQ(first[0].reps_computed, 4u);
  const auto second = run_experiment(cells, large);
  // The 4 cached repetitions are replayed; only the 5 new ones simulate.
  EXPECT_EQ(second[0].reps, 9u);
  EXPECT_EQ(second[0].reps_cached, 4u);
  EXPECT_EQ(second[0].reps_computed, 5u);

  // And the superset must match a cache-bypassing run bit for bit.
  const auto reference = run_experiment(
      cells, SchedulerOptions{.threads = 1, .stop = StopRule{.max_reps = 9}});
  expect_same(second[0], reference[0]);
  fs::remove_all(dir);
}

TEST(Scheduler, CorruptCacheFileIsAMissNotAnError) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "noisypull_sched_corrupt";
  fs::remove_all(dir);

  const std::vector<ExperimentCell> cells = {
      truncated_cell(pop(100, 1, 0), 0.3, 80)};
  SchedulerOptions opts{.threads = 1,
                        .stop = StopRule{.max_reps = 3},
                        .cache_dir = dir.string()};
  const auto cold = run_experiment(cells, opts);

  // Truncate the cell's cache file mid-record.
  std::string file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    file = entry.path().string();
  }
  ASSERT_FALSE(file.empty());
  {
    std::ofstream out(file, std::ios::trunc);
    out << "noisypull-cell-cache 1 deadbeef 3\n0 1";
  }
  const auto recovered = run_experiment(cells, opts);
  expect_same(cold[0], recovered[0]);
  EXPECT_EQ(recovered[0].reps_computed, 3u);  // full recompute, no crash
  fs::remove_all(dir);
}

TEST(Scheduler, CacheKeyDistinguishesEveryTrajectoryInput) {
  const ExperimentCell base = sf_cell(pop(100, 1, 0), 0.2, 90);
  const std::uint64_t key = cell_cache_key(base);

  ExperimentCell changed = base;
  changed.seed = 91;
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.cfg.max_rounds = 17;
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.noise = NoiseMatrix::uniform(2, 0.21);
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.use_aggregate_engine = false;
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.protocol_digest ^= 1;
  EXPECT_NE(cell_cache_key(changed), key);

  changed = base;
  changed.fault_plan = FaultPlan{};
  EXPECT_NE(cell_cache_key(changed), key);

  // Trajectory-invariant knobs must NOT shift the key: a cache filled on
  // one machine serves another with a different worker count.
  changed = base;
  changed.label = "different label";
  EXPECT_EQ(cell_cache_key(changed), key);
}

TEST(Scheduler, RejectsTrajectoryRecording) {
  ExperimentCell cell = sf_cell(pop(100, 1, 0), 0.2, 95);
  cell.cfg.record_trajectory = true;
  EXPECT_THROW(run_experiment({cell}, SchedulerOptions{.threads = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace noisypull
