// Unit and integration tests for sim/lumped_engine: determinism and digest
// contracts, population-count conservation, overflow hardening at the
// 2⁶³-scale boundary, huge-n feasibility, and the scheduler seam (lumped
// cells, engine-kind cache keys, thread-count invariance).
//
// Distribution-level correctness against theory/ExactChain lives in the
// oracle binary (test_oracle_lumped.cpp); this file covers everything that
// must hold bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "noisypull/noisypull.hpp"

namespace noisypull {
namespace {

constexpr std::uint64_t kSeed = 0x10c0ffee;

PopulationConfig small_pop() { return PopulationConfig{.n = 40, .s1 = 2, .s0 = 1}; }

SfSchedule small_schedule() {
  return make_sf_schedule_with_m(small_pop(), Holdings{2}, Delta{0.2},
                                 MemoryBudget{8});
}

// Steps `engine` through `rounds` rounds on Rng(seed, 0) and returns the
// final digest.
std::uint64_t digest_after(LumpedEngine& engine, Holdings h,
                           std::uint64_t rounds, std::uint64_t seed) {
  Rng rng(seed, 0);
  for (std::uint64_t r = 0; r < rounds; ++r) engine.step(h, r, rng);
  return engine.replay_digest();
}

TEST(LumpedEngine, DigestIsDeterministicAndSeedSensitive) {
  const auto pop = small_pop();
  const auto sched = small_schedule();
  const NoiseMatrix noise = NoiseMatrix::uniform(2, 0.2);

  auto a = make_lumped_sf(pop, sched, noise);
  auto b = make_lumped_sf(pop, sched, noise);
  auto c = make_lumped_sf(pop, sched, noise);
  // Listening-phase displays are deterministic, so the digest can only
  // separate seeds once boosting rounds (stochastic displays) are included —
  // run the whole schedule.
  const std::uint64_t rounds = sched.total_rounds();
  const std::uint64_t da = digest_after(*a.engine, Holdings{2}, rounds, kSeed);
  const std::uint64_t db = digest_after(*b.engine, Holdings{2}, rounds, kSeed);
  const std::uint64_t dc =
      digest_after(*c.engine, Holdings{2}, rounds, kSeed + 1);
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
}

// A LumpedClass whose fault fields are explicitly "no fault" must be
// bit-identical to one that never mentions them: the fault machinery is
// exercised per round, so an inactive schedule must be a true no-op.
TEST(LumpedEngine, InactiveFaultFieldsAreBitIdentical) {
  const std::vector<TableState> states = {
      TableState{.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                 .if_less = 1, .tie_a = 0, .tie_b = 1},
      TableState{.show = 1, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                 .if_less = 1, .tie_a = 1, .tie_b = 0}};
  const TableAutomaton table(2, states);
  const Matrix channel = NoiseMatrix::uniform(2, 0.1).matrix();

  const auto build = [&](bool explicit_no_fault) {
    std::vector<LumpedClass> classes;
    LumpedClass cls{.count = AgentCount{25},
                    .automaton = &table,
                    .initial = 0,
                    .channel = channel};
    if (explicit_no_fault) {
      cls.forged = DisplayOverride::none();
      cls.stall = StallWindow{.start = 0, .rounds = 0};
    }
    classes.push_back(cls);
    classes.push_back(LumpedClass{.count = AgentCount{15},
                                  .automaton = &table,
                                  .initial = 1,
                                  .channel = channel});
    return std::make_unique<LumpedEngine>(std::move(classes));
  };
  auto defaulted = build(false);
  auto explicit_none = build(true);
  EXPECT_EQ(digest_after(*defaulted, Holdings{2}, 8, kSeed),
            digest_after(*explicit_none, Holdings{2}, 8, kSeed));
}

TEST(LumpedEngine, DisplayHistogramConservesPopulation) {
  const auto pop = small_pop();
  const auto sched = small_schedule();
  auto setup = make_lumped_sf(pop, sched, NoiseMatrix::uniform(2, 0.2));
  LumpedEngine& engine = *setup.engine;
  Rng rng(kSeed, 0);
  for (std::uint64_t round = 0; round < sched.total_rounds(); ++round) {
    const auto hist = engine.display_histogram(round);
    ASSERT_EQ(hist.size(), engine.alphabet_size());
    std::uint64_t sum = 0;
    for (const std::uint64_t count : hist) sum += count;
    EXPECT_EQ(sum, pop.n) << "round " << round;
    engine.step(Holdings{2}, round, rng);
  }
  EXPECT_LE(engine.count_correct(pop.correct_opinion()), pop.n);
  EXPECT_GE(engine.support_size(), 1u);
}

// --- overflow hardening ----------------------------------------------------

TEST(LumpedEngine, ConstructorRejectsPopulationOverflow) {
  const std::vector<TableState> states = {
      TableState{.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                 .if_less = 0, .tie_a = 0, .tie_b = 0}};
  const TableAutomaton table(2, states);
  const Matrix channel = NoiseMatrix::noiseless(2).matrix();
  std::vector<LumpedClass> classes;
  classes.push_back(LumpedClass{.count = AgentCount{1ULL << 63},
                                .automaton = &table,
                                .initial = 0,
                                .channel = channel});
  classes.push_back(LumpedClass{.count = AgentCount{1ULL << 63},
                                .automaton = &table,
                                .initial = 0,
                                .channel = channel});
  EXPECT_THROW(LumpedEngine{std::move(classes)}, std::invalid_argument);
}

// One class holding 2⁶² agents: a single round exercises sample_binomial and
// the multinomial splits at counts no agent-array engine can represent, and
// the count must be conserved exactly (no double round-off, no wraparound).
TEST(LumpedEngine, StepConservesCountsNearTwoToTheSixtyTwo) {
  const std::vector<TableState> states = {
      TableState{.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                 .if_less = 1, .tie_a = 0, .tie_b = 1},
      TableState{.show = 1, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                 .if_less = 1, .tie_a = 1, .tie_b = 0}};
  const TableAutomaton table(2, states);
  const Matrix channel = NoiseMatrix::uniform(2, 0.3).matrix();
  const std::uint64_t huge = 1ULL << 62;
  std::vector<LumpedClass> classes;
  classes.push_back(LumpedClass{.count = AgentCount{huge},
                                .automaton = &table,
                                .initial = 0,
                                .channel = channel});
  LumpedEngine engine(std::move(classes));
  Rng rng(kSeed, 0);
  for (std::uint64_t round = 0; round < 3; ++round) {
    engine.step(Holdings{2}, round, rng);
    const auto hist = engine.display_histogram(round + 1);
    std::uint64_t sum = 0;
    for (const std::uint64_t count : hist) sum += count;
    EXPECT_EQ(sum, huge) << "round " << round;
  }
}

// n = 10¹² through the real SF builder: construction plus a handful of
// rounds must be effectively instant — per-round cost is O(#occupied
// states), never O(n).
TEST(LumpedEngine, TrillionAgentStepIsCheap) {
  const std::uint64_t n = 1'000'000'000'000ULL;
  const PopulationConfig pop{.n = n, .s1 = 1'000'000, .s0 = 0};
  const auto sched =
      make_sf_schedule_with_m(pop, Holdings{16}, Delta{0.2}, MemoryBudget{64});
  auto setup = make_lumped_sf(pop, sched, NoiseMatrix::uniform(2, 0.2));
  LumpedEngine& engine = *setup.engine;
  EXPECT_EQ(engine.num_agents(), n);
  Rng rng(kSeed, 0);
  for (std::uint64_t round = 0; round < 5; ++round) {
    engine.step(Holdings{16}, round, rng);
    const auto hist = engine.display_histogram(round + 1);
    std::uint64_t sum = 0;
    for (const std::uint64_t count : hist) sum += count;
    ASSERT_EQ(sum, n);
  }
}

// --- run_lumped ------------------------------------------------------------

TEST(RunLumped, MirrorsRunnerBookkeeping) {
  const auto pop = small_pop();
  const auto sched = small_schedule();
  auto setup = make_lumped_sf(pop, sched, NoiseMatrix::uniform(2, 0.1));
  Rng rng(kSeed, 1);
  RunConfig cfg;
  cfg.h = 2;
  cfg.max_rounds = 0;  // planned_rounds from the builder
  cfg.stability_window = 3;
  cfg.record_trajectory = true;
  const RunResult r = run_lumped(*setup.engine, pop.correct_opinion(), cfg, rng);
  // The stability window only runs while consensus holds, so rounds_run is
  // the planned horizon plus at most the window.
  EXPECT_GE(r.rounds_run, sched.total_rounds());
  EXPECT_LE(r.rounds_run, sched.total_rounds() + cfg.stability_window);
  EXPECT_EQ(r.trajectory.size(), sched.total_rounds());
  EXPECT_LE(r.correct_at_end, pop.n);
  if (r.stable) {
    EXPECT_EQ(r.rounds_run, sched.total_rounds() + cfg.stability_window);
  }
  if (r.all_correct_at_end) {
    EXPECT_EQ(r.correct_at_end, pop.n);
    EXPECT_LT(r.first_all_correct, sched.total_rounds());
  }
}

// run_lumped shares the runner's bookkeeping: an unset cancel token leaves
// a run with a stability window unchanged, and a set one unwinds before the
// first round is stepped.
TEST(RunLumped, CancelTokenIsPolledAndTrajectoryInvariantWhileUnset) {
  const PopulationConfig pop{.n = 200, .s1 = 1, .s0 = 0};
  const SfSchedule sched =
      make_sf_schedule(pop, Holdings{pop.n}, Delta{0.1}, kDefaultC1);
  RunConfig cfg;
  cfg.h = pop.n;
  cfg.stability_window = 4;
  cfg.record_trajectory = true;

  auto plain = make_lumped_sf(pop, sched, NoiseMatrix::uniform(2, 0.1));
  Rng plain_rng(kSeed, 3);
  const RunResult a =
      run_lumped(*plain.engine, pop.correct_opinion(), cfg, plain_rng);
  // Consensus at the horizon, so the window's rounds run too.
  ASSERT_TRUE(a.all_correct_at_end);
  EXPECT_GT(a.rounds_run, sched.total_rounds());

  CancelToken token;
  cfg.cancel = &token;
  auto polled = make_lumped_sf(pop, sched, NoiseMatrix::uniform(2, 0.1));
  Rng polled_rng(kSeed, 3);
  const RunResult b =
      run_lumped(*polled.engine, pop.correct_opinion(), cfg, polled_rng);
  EXPECT_EQ(a.all_correct_at_end, b.all_correct_at_end);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_EQ(a.rounds_run, b.rounds_run);
  EXPECT_EQ(a.first_all_correct, b.first_all_correct);
  EXPECT_EQ(a.correct_at_end, b.correct_at_end);
  EXPECT_EQ(a.trajectory, b.trajectory);
  EXPECT_EQ(plain.engine->replay_digest(), polled.engine->replay_digest());

  token.cancel();
  auto cancelled = make_lumped_sf(pop, sched, NoiseMatrix::uniform(2, 0.1));
  const std::uint64_t initial = cancelled.engine->replay_digest();
  Rng cancelled_rng(kSeed, 3);
  EXPECT_THROW(
      run_lumped(*cancelled.engine, pop.correct_opinion(), cfg, cancelled_rng),
      OperationCancelled);
  EXPECT_EQ(cancelled.engine->replay_digest(), initial);
}

TEST(RunLumped, SsfBuilderInstallsConvergenceDeadline) {
  const PopulationConfig pop{.n = 30, .s1 = 1, .s0 = 0};
  const MemoryBudget m{8};
  auto setup =
      make_lumped_ssf(pop, Holdings{2}, m, NoiseMatrix::uniform(4, 0.1));
  const std::uint64_t cycle = (m.get() + 1) / 2;  // ⌈m/h⌉ with h = 2
  EXPECT_EQ(setup.engine->planned_rounds(), 4 * cycle + 1);
  Rng rng(kSeed, 2);
  RunConfig cfg;
  cfg.h = 2;
  const RunResult r = run_lumped(*setup.engine, pop.correct_opinion(), cfg, rng);
  EXPECT_EQ(r.rounds_run, setup.engine->planned_rounds());
}

// --- scheduler seam --------------------------------------------------------

ExperimentCell lumped_cell(std::uint64_t seed) {
  const auto pop = small_pop();
  const auto sched = small_schedule();
  const NoiseMatrix noise = NoiseMatrix::uniform(2, 0.2);
  ExperimentCell cell;
  cell.label = "lumped-sf";
  cell.noise = noise;
  cell.correct = pop.correct_opinion();
  cell.cfg.h = 2;
  cell.cfg.max_rounds = sched.total_rounds();
  cell.seed = seed;
  cell.protocol_digest = CellKey{}
                             .str("lumped-sf-test")
                             .u64(pop.n)
                             .u64(pop.s1)
                             .u64(pop.s0)
                             .digest();
  cell.make_lumped = [pop, sched, noise] {
    return make_lumped_sf(pop, sched, noise);
  };
  return cell;
}

TEST(SchedulerLumped, StatisticsAreThreadCountInvariant) {
  std::vector<ExperimentCell> cells = {lumped_cell(kSeed), lumped_cell(kSeed + 7)};
  SchedulerOptions serial;
  serial.threads = 1;
  serial.stop.max_reps = 6;
  serial.stop.min_reps = 6;
  SchedulerOptions parallel = serial;
  parallel.threads = 4;
  const auto a = run_experiment(cells, serial);
  const auto b = run_experiment(cells, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].reps, b[c].reps);
    EXPECT_EQ(a[c].successes, b[c].successes);
    EXPECT_EQ(a[c].stable_successes, b[c].stable_successes);
    EXPECT_EQ(a[c].mean_convergence_round, b[c].mean_convergence_round);
    EXPECT_EQ(a[c].mean_rounds_run, b[c].mean_rounds_run);
  }
}

TEST(SchedulerLumped, EngineKindKeysNeverAlias) {
  ExperimentCell lumped = lumped_cell(kSeed);
  ExperimentCell aggregate = lumped_cell(kSeed);
  aggregate.make_lumped = {};
  aggregate.use_aggregate_engine = true;
  ExperimentCell exact = lumped_cell(kSeed);
  exact.make_lumped = {};
  exact.use_aggregate_engine = false;
  const std::uint64_t kl = cell_cache_key(lumped);
  const std::uint64_t ka = cell_cache_key(aggregate);
  const std::uint64_t ke = cell_cache_key(exact);
  EXPECT_NE(kl, ka);
  EXPECT_NE(kl, ke);
  EXPECT_NE(ka, ke);
}

TEST(SchedulerLumped, RejectsFaultPlansAndSteadyState) {
  SchedulerOptions opts;
  opts.stop.max_reps = 1;
  opts.stop.min_reps = 1;
  {
    std::vector<ExperimentCell> cells = {lumped_cell(kSeed)};
    cells[0].fault_plan = FaultPlan{};
    EXPECT_THROW(run_experiment(cells, opts), std::invalid_argument);
  }
  {
    std::vector<ExperimentCell> cells = {lumped_cell(kSeed)};
    cells[0].steady_state = SteadyStateSpec{.warmup = 1, .measure = 2};
    EXPECT_THROW(run_experiment(cells, opts), std::invalid_argument);
  }
}

}  // namespace
}  // namespace noisypull
