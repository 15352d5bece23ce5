// Engine-vs-oracle differential tests: every Monte-Carlo engine is held to
// theory/ExactChain's per-round display distributions with TV-distance and
// exact-mean assertions (tolerances from tv_tolerance; see oracle_util.hpp).
// These are the pinned, human-chosen configurations; test_oracle_fuzz.cpp
// sweeps randomized ones.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "oracle_util.hpp"

namespace noisypull {
namespace {

using oracle_test::compare_to_oracle;
using oracle_test::run_replicates;

constexpr std::uint64_t kReps = 20000;
constexpr std::uint64_t kSeed = 0x0acc1e5eed0001ULL;

// Shared: the replicate populations (CompiledPopulation on its virtual
// update path) hold the same automaton as the chain classes.
std::shared_ptr<const TableAutomaton> make_automaton() {
  return std::make_shared<const TableAutomaton>(
      2,
      std::vector<TableState>{
          TableState{.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                     .if_less = 1, .tie_a = 0, .tie_b = 2},
          TableState{.show = 1, .watch_a = 1, .watch_b = 0, .if_greater = 1,
                     .if_less = 2, .tie_a = 1, .tie_b = 1},
          TableState{.show = 1, .watch_a = 0, .watch_b = 1, .if_greater = 2,
                     .if_less = 0, .tie_a = 0, .tie_b = 1}});
}

TEST(OracleEngines, AggregateMatchesExactChain) {
  const auto automaton = make_automaton();
  const auto noise = NoiseMatrix::uniform(2, 0.2);
  const Holdings h{2};
  const std::uint64_t rounds = 3;

  std::vector<ChainClass> classes(2);
  classes[0] = {.size = 5,
                .automaton = automaton.get(),
                .initial = 0,
                .channel = noise.matrix()};
  classes[1] = {.size = 3,
                .automaton = automaton.get(),
                .initial = 1,
                .channel = noise.matrix()};
  ExactChain chain(classes, {.h = h});

  const auto empirical = run_replicates(
      [&] {
        return std::make_unique<CompiledPopulation>(
            std::vector<CompiledGroup>{
                {.count = 5, .automaton = automaton, .initial = 0},
                {.count = 3, .automaton = automaton, .initial = 1}},
            /*planned_rounds=*/0);
      },
      [] { return std::make_unique<AggregateEngine>(); }, noise, h, rounds,
      kReps, kSeed);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

TEST(OracleEngines, SequentialAscendingMatchesExactChain) {
  const auto automaton = make_automaton();
  Rng mat_rng(42);
  const auto noise = NoiseMatrix::random_upper_bounded(2, 0.3, mat_rng);
  const Holdings h{1};
  const std::uint64_t rounds = 3;

  std::vector<ChainClass> classes(2);
  classes[0] = {.size = 4,
                .automaton = automaton.get(),
                .initial = 0,
                .channel = noise.matrix()};
  classes[1] = {.size = 2,
                .automaton = automaton.get(),
                .initial = 2,
                .channel = noise.matrix()};
  ExactChain chain(
      classes,
      {.h = h, .kernel = ExactChainOptions::Kernel::SequentialAscending});

  const auto empirical = run_replicates(
      [&] {
        return std::make_unique<CompiledPopulation>(
            std::vector<CompiledGroup>{
                {.count = 4, .automaton = automaton, .initial = 0},
                {.count = 2, .automaton = automaton, .initial = 2}},
            /*planned_rounds=*/0);
      },
      [] {
        return std::make_unique<SequentialEngine>(
            SequentialEngine::Order::FixedAscending);
      },
      noise, h, rounds, kReps, kSeed + 1);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

TEST(OracleEngines, HeterogeneousMatchesExactChain) {
  const auto automaton = make_automaton();
  const auto clean = NoiseMatrix::uniform(2, 0.05);
  Rng mat_rng(43);
  const auto dirty = NoiseMatrix::random_upper_bounded(2, 0.35, mat_rng);
  const Holdings h{2};
  const std::uint64_t rounds = 3;

  std::vector<ChainClass> classes(2);
  classes[0] = {.size = 4,
                .automaton = automaton.get(),
                .initial = 0,
                .channel = clean.matrix()};
  classes[1] = {.size = 3,
                .automaton = automaton.get(),
                .initial = 1,
                .channel = dirty.matrix()};
  ExactChain chain(classes, {.h = h});

  std::vector<NoiseMatrix> per_agent;
  for (int i = 0; i < 4; ++i) per_agent.push_back(clean);
  for (int i = 0; i < 3; ++i) per_agent.push_back(dirty);

  const auto empirical = run_replicates(
      [&] {
        return std::make_unique<CompiledPopulation>(
            std::vector<CompiledGroup>{
                {.count = 4, .automaton = automaton, .initial = 0},
                {.count = 3, .automaton = automaton, .initial = 1}},
            /*planned_rounds=*/0);
      },
      [&] { return std::make_unique<AggregateEngine>(per_agent); },
      // The noise argument is only alphabet-validated with per-agent
      // channels; the per-agent matrices above are what corrupt observations.
      clean, h, rounds, kReps, kSeed + 2);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

TEST(OracleEngines, FaultyEngineMatchesExactChain) {
  // Deterministic-schedule faults all at once: FlipFlop Byzantine displays
  // on the 2 highest-indexed agents, a synchronized blackout stalling the 2
  // lowest-indexed agents for rounds 1-2, and seed-scheduled noise bursts.
  const auto automaton = make_automaton();
  const auto noise = NoiseMatrix::uniform(2, 0.15);
  const Holdings h{2};
  const std::uint64_t rounds = 4;
  const std::uint64_t n = 8;

  FaultPlan plan;
  plan.seed = 99;
  plan.byzantine.fraction = 0.25;  // ⌊0.25·8⌋ = 2 agents: indices 6, 7
  plan.byzantine.strategy = ByzantineStrategy::FlipFlop;
  plan.byzantine.wrong_symbol = 1;
  plan.byzantine.honest_symbol = 0;
  plan.stall.blackout_fraction = 0.25;  // agents 0, 1
  plan.stall.blackout_start = 1;
  plan.stall.blackout_rounds = 2;
  plan.burst.rate = 0.45;
  plan.burst.rounds = 1;
  plan.burst.delta = 0.4;
  ASSERT_EQ(oracle_test::byzantine_count(plan, n), 2u);
  ASSERT_EQ(oracle_test::blackout_count(plan, n), 2u);

  std::vector<ChainClass> classes(3);
  classes[0] = {.size = 2,
                .automaton = automaton.get(),
                .initial = 0,
                .channel = noise.matrix(),
                .forged = DisplayOverride::none(),
                .stall = StallWindow{.start = 1, .rounds = 2}};
  classes[1] = {.size = 4,
                .automaton = automaton.get(),
                .initial = 0,
                .channel = noise.matrix()};
  classes[2] = {.size = 2,
                .automaton = automaton.get(),
                .initial = 1,
                .channel = noise.matrix(),
                .forged = oracle_test::byzantine_override(plan)};
  ExactChain chain(classes,
                   {.h = h,
                    .channel_override =
                        oracle_test::burst_overrides(plan, 2, rounds)});

  const auto empirical = run_replicates(
      [&] {
        return std::make_unique<CompiledPopulation>(
            std::vector<CompiledGroup>{
                {.count = 2, .automaton = automaton, .initial = 0},
                {.count = 4, .automaton = automaton, .initial = 0},
                {.count = 2, .automaton = automaton, .initial = 1}},
            /*planned_rounds=*/0);
      },
      [&] { return std::make_unique<oracle_test::OwnedFaultyAggregate>(plan); },
      noise, h, rounds, kReps, kSeed + 3, oracle_test::faulted_view(plan, n));
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

TEST(OracleEngines, SourceFilterMatchesExactChain) {
  // The real core/SourceFilter under AggregateEngine vs the SfAutomaton
  // mirror — a full tiny schedule including the terminated tail round.
  const PopulationConfig pop{.n = 5, .s1 = 1, .s0 = 1};
  const SfSchedule sched{.h = 2,
                         .m = 2,
                         .phase_rounds = 1,
                         .w = 2,
                         .subphase_rounds = 1,
                         .num_subphases = 1,
                         .final_rounds = 1};
  const auto noise = NoiseMatrix::uniform(2, 0.15);
  const Holdings h{2};
  const std::uint64_t rounds = sched.total_rounds() + 1;  // 5: past the end

  SfAutomaton source1(sched, true, 1);
  SfAutomaton source0(sched, true, 0);
  SfAutomaton plain(sched, false, 0);
  std::vector<ChainClass> classes(3);
  classes[0] = {.size = 1,
                .automaton = &source1,
                .initial = source1.initial_state(),
                .channel = noise.matrix()};
  classes[1] = {.size = 1,
                .automaton = &source0,
                .initial = source0.initial_state(),
                .channel = noise.matrix()};
  classes[2] = {.size = 3,
                .automaton = &plain,
                .initial = plain.initial_state(),
                .channel = noise.matrix()};
  // SF's counter states make the joint support large; pruning at
  // 1e-8 bounds it, and compare_to_oracle widens every tolerance by the
  // truncated mass.
  ExactChain chain(classes, {.h = h, .prune_epsilon = 1e-8});

  const auto empirical = run_replicates(
      [&] { return std::make_unique<SourceFilter>(pop, sched); },
      [] { return std::make_unique<AggregateEngine>(); }, noise, h, rounds,
      kReps, kSeed + 4);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

TEST(OracleEngines, SsfMatchesExactChain) {
  // The real core/SelfStabilizingSourceFilter vs the SsfAutomaton mirror on
  // the tagged 4-symbol alphabet, h = 1 so flushes land every other round.
  const PopulationConfig pop{.n = 5, .s1 = 1, .s0 = 0};
  const MemoryBudget m{2};
  const auto noise = NoiseMatrix::uniform(4, 0.1);
  const Holdings h{1};
  const std::uint64_t rounds = 4;

  SsfAutomaton source(m, true, 1);
  SsfAutomaton plain(m, false, 0);
  std::vector<ChainClass> classes(2);
  classes[0] = {.size = 1,
                .automaton = &source,
                .initial = 0,
                .channel = noise.matrix()};
  classes[1] = {.size = 4,
                .automaton = &plain,
                .initial = 0,
                .channel = noise.matrix()};
  ExactChain chain(classes, {.h = h});

  const auto empirical = run_replicates(
      [&] {
        return std::make_unique<SelfStabilizingSourceFilter>(
            SelfStabilizingSourceFilter::with_memory_budget(pop, h, m));
      },
      [] { return std::make_unique<AggregateEngine>(); }, noise, h, rounds,
      kReps, kSeed + 5);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

}  // namespace
}  // namespace noisypull
