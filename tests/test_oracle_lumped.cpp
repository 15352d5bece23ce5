// LumpedEngine vs theory/ExactChain differential tests: the lumped engine
// claims its sampled histogram trajectory is distribution-identical to the
// agent-level engines, and the exact chain is the ground truth both are
// measured against.  Three legs:
//
//   * pinned small-n configurations (SF, SSF, faulted table automata) with
//     the TV / exact-mean assertions of oracle_util.hpp,
//   * a randomized fuzz campaign over (table automaton × classes × noise ×
//     deterministic faults) tuples, bounded by NOISYPULL_ORACLE_MAX_TUPLES
//     exactly like test_oracle_fuzz.cpp,
//   * a two-sample chi-square homogeneity test against AggregateEngine at
//     n = 10⁵ — far beyond the oracle's reach, pinning that the lumped and
//     agent-level samplers agree where only each other can check them.
//
// Reproducibility: every tuple/replicate derives from a fixed seed; failures
// print the tuple index for bit-identical replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oracle_util.hpp"

namespace noisypull {
namespace {

using oracle_test::compare_to_oracle;

using LumpedFactory = std::function<LumpedSetup()>;

// Lumped counterpart of oracle_test::run_replicates: each replicate builds a
// fresh engine (class histograms are mutable state) and runs on the
// substream Rng(seed, rep); the per-round display histogram is read straight
// off the engine — forged displays and stalls are already folded in.
std::vector<DisplayDistribution> lumped_replicates(const LumpedFactory& make,
                                                   Holdings h,
                                                   std::uint64_t rounds,
                                                   std::uint64_t reps,
                                                   std::uint64_t seed) {
  std::vector<DisplayDistribution> per_round(rounds + 1);
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    LumpedSetup setup = make();
    Rng rng(seed, rep);
    for (std::uint64_t round = 0; round <= rounds; ++round) {
      per_round[round][setup.engine->display_histogram(round)] += 1.0;
      if (round < rounds) setup.engine->step(h, round, rng);
    }
  }
  const double inv = 1.0 / static_cast<double>(reps);
  for (auto& dist : per_round) {
    for (auto& [key, mass] : dist) mass *= inv;
  }
  return per_round;
}

constexpr std::uint64_t kReps = 2500;
constexpr double kPrune = 1e-9;

// --- pinned configurations --------------------------------------------------

TEST(OracleLumped, SourceFilterSmallN) {
  const PopulationConfig pop{.n = 6, .s1 = 1, .s0 = 1};
  const SfSchedule sched{.h = 2,
                         .m = 2,
                         .phase_rounds = 1,
                         .w = 2,
                         .subphase_rounds = 2,
                         .num_subphases = 1,
                         .final_rounds = 1};
  const NoiseMatrix noise = NoiseMatrix::uniform(2, 0.15);
  const std::uint64_t rounds = sched.total_rounds() + 1;

  // Oracle classes mirror make_lumped_sf's layout exactly.
  std::vector<std::unique_ptr<AgentAutomaton>> automata;
  automata.push_back(std::make_unique<SfAutomaton>(sched, true, 1));
  automata.push_back(std::make_unique<SfAutomaton>(sched, true, 0));
  automata.push_back(std::make_unique<SfAutomaton>(sched, false, 0));
  const std::vector<ChainClass> classes = {
      {.size = 1, .automaton = automata[0].get(),
       .initial = automata[0]->initial_state(), .channel = noise.matrix()},
      {.size = 1, .automaton = automata[1].get(),
       .initial = automata[1]->initial_state(), .channel = noise.matrix()},
      {.size = 4, .automaton = automata[2].get(),
       .initial = automata[2]->initial_state(), .channel = noise.matrix()}};
  ExactChainOptions options;
  options.h = Holdings{2};
  options.prune_epsilon = kPrune;
  ExactChain chain(classes, options);

  const auto empirical = lumped_replicates(
      [&] { return make_lumped_sf(pop, sched, noise); }, Holdings{2}, rounds,
      kReps, 0x5f01);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

TEST(OracleLumped, SelfStabilizingSourceFilterSmallN) {
  const PopulationConfig pop{.n = 5, .s1 = 1, .s0 = 0};
  const MemoryBudget m{2};
  const NoiseMatrix noise = NoiseMatrix::uniform(4, 0.1);
  const std::uint64_t rounds = 5;

  std::vector<std::unique_ptr<AgentAutomaton>> automata;
  automata.push_back(std::make_unique<SsfAutomaton>(m, true, 1));
  automata.push_back(std::make_unique<SsfAutomaton>(m, false, 0));
  const std::vector<ChainClass> classes = {
      {.size = 1, .automaton = automata[0].get(), .initial = 0,
       .channel = noise.matrix()},
      {.size = 4, .automaton = automata[1].get(), .initial = 0,
       .channel = noise.matrix()}};
  ExactChainOptions options;
  options.h = Holdings{1};
  options.prune_epsilon = kPrune;
  ExactChain chain(classes, options);

  const auto empirical = lumped_replicates(
      [&] { return make_lumped_ssf(pop, Holdings{1}, m, noise); }, Holdings{1},
      rounds, kReps, 0x55f02);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

// Deterministic fault schedules: a forged (Byzantine-style) class plus a
// stalled class, checked against the oracle's identical overrides.
TEST(OracleLumped, ForgedAndStalledClasses) {
  const std::vector<TableState> states = {
      TableState{.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                 .if_less = 1, .tie_a = 0, .tie_b = 1},
      TableState{.show = 1, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                 .if_less = 1, .tie_a = 1, .tie_b = 0}};
  const TableAutomaton table(2, states);
  const NoiseMatrix noise = NoiseMatrix::uniform(2, 0.2);
  const std::uint64_t rounds = 4;
  const DisplayOverride forged = DisplayOverride::even_odd(1, 0);
  const StallWindow stall{.start = 1, .rounds = 2};

  const std::vector<ChainClass> classes = {
      {.size = 3, .automaton = &table, .initial = 0,
       .channel = noise.matrix()},
      {.size = 2, .automaton = &table, .initial = 1,
       .channel = noise.matrix(), .forged = forged},
      {.size = 2, .automaton = &table, .initial = 0,
       .channel = noise.matrix(), .forged = DisplayOverride::none(),
       .stall = stall}};
  ExactChainOptions options;
  options.h = Holdings{2};
  options.prune_epsilon = kPrune;
  ExactChain chain(classes, options);

  const auto make = [&] {
    LumpedSetup setup;
    std::vector<LumpedClass> lumped = {
        {.count = AgentCount{3}, .automaton = &table, .initial = 0,
         .channel = noise.matrix()},
        {.count = AgentCount{2}, .automaton = &table, .initial = 1,
         .channel = noise.matrix(), .forged = forged},
        {.count = AgentCount{2}, .automaton = &table, .initial = 0,
         .channel = noise.matrix(), .forged = DisplayOverride::none(),
         .stall = stall}};
    setup.engine = std::make_unique<LumpedEngine>(std::move(lumped));
    return setup;
  };
  const auto empirical =
      lumped_replicates(make, Holdings{2}, rounds, kReps, 0xfa07);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

// Artificial post-channel noise (Definition 6) composes identically on both
// sides: the chain takes N·P as its class channel, the engine composes it
// via set_artificial_noise.
TEST(OracleLumped, ArtificialNoiseComposition) {
  const std::vector<TableState> states = {
      TableState{.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                 .if_less = 1, .tie_a = 1, .tie_b = 0},
      TableState{.show = 1, .watch_a = 1, .watch_b = 0, .if_greater = 1,
                 .if_less = 0, .tie_a = 0, .tie_b = 1}};
  const TableAutomaton table(2, states);
  const NoiseMatrix noise = NoiseMatrix::uniform(2, 0.1);
  const Matrix artificial = NoiseMatrix::uniform(2, 0.25).matrix();
  const std::uint64_t rounds = 4;

  const std::vector<ChainClass> classes = {
      {.size = 4, .automaton = &table, .initial = 0,
       .channel = noise.matrix() * artificial},
      {.size = 3, .automaton = &table, .initial = 1,
       .channel = noise.matrix() * artificial}};
  ExactChainOptions options;
  options.h = Holdings{1};
  options.prune_epsilon = kPrune;
  ExactChain chain(classes, options);

  const auto make = [&] {
    LumpedSetup setup;
    std::vector<LumpedClass> lumped = {
        {.count = AgentCount{4}, .automaton = &table, .initial = 0,
         .channel = noise.matrix()},
        {.count = AgentCount{3}, .automaton = &table, .initial = 1,
         .channel = noise.matrix()}};
    setup.engine = std::make_unique<LumpedEngine>(std::move(lumped));
    setup.engine->set_artificial_noise(artificial);
    return setup;
  };
  const auto empirical =
      lumped_replicates(make, Holdings{1}, rounds, kReps, 0xa27f);
  EXPECT_EQ(compare_to_oracle(chain, empirical, kReps), "");
}

// --- fuzz campaign ----------------------------------------------------------

constexpr std::uint64_t kLumpedFuzzSeed = 0x10fedfadefc0ffeeULL;
constexpr std::uint64_t kLumpedNumTuples = 60;

TableAutomaton random_table_automaton(Rng& rng, std::size_t d) {
  const std::uint64_t num_states = 2 + rng.next_below(3);  // 2..4
  std::vector<TableState> states;
  for (std::uint64_t s = 0; s < num_states; ++s) {
    TableState ts;
    ts.show = static_cast<Symbol>(rng.next_below(d));
    ts.watch_a = static_cast<Symbol>(rng.next_below(d));
    ts.watch_b = static_cast<Symbol>(rng.next_below(d));
    ts.if_greater = static_cast<AutomatonState>(rng.next_below(num_states));
    ts.if_less = static_cast<AutomatonState>(rng.next_below(num_states));
    ts.tie_a = static_cast<AutomatonState>(rng.next_below(num_states));
    ts.tie_b = static_cast<AutomatonState>(rng.next_below(num_states));
    states.push_back(ts);
  }
  return TableAutomaton(d, std::move(states));
}

struct TupleOutcome {
  std::string description;
  std::string failure;  // empty on success
};

TupleOutcome run_lumped_tuple(std::uint64_t index) {
  Rng rng(kLumpedFuzzSeed, index);
  const std::size_t d = 2 + rng.next_below(2);  // 2 or 3
  const std::uint64_t h = 1 + rng.next_below(3);
  const double delta_cap = 0.9 / static_cast<double>(d);
  const double delta = 0.05 + rng.next_double() * (delta_cap - 0.05);
  const NoiseMatrix noise = NoiseMatrix::random_upper_bounded(d, delta, rng);
  const std::uint64_t rounds = 2 + rng.next_below(3);  // 2..4

  const TableAutomaton table = random_table_automaton(rng, d);
  const std::uint64_t num_states = table.num_states();
  const std::uint64_t num_classes = 1 + rng.next_below(3);  // 1..3

  std::ostringstream desc;
  desc << "lumped tuple " << index << ": d=" << d << " h=" << h
       << " delta=" << delta << " classes=" << num_classes
       << " rounds=" << rounds;

  std::vector<ChainClass> classes;
  std::vector<LumpedClass> lumped;
  for (std::uint64_t c = 0; c < num_classes; ++c) {
    const std::uint64_t size = 2 + rng.next_below(3);  // 2..4 agents
    const auto init = static_cast<AutomatonState>(rng.next_below(num_states));
    DisplayOverride forged = DisplayOverride::none();
    StallWindow stall{};
    // At most one deterministic fault per class, never on class 0 — keep a
    // live majority so tuples stay informative.
    if (c > 0 && rng.next_below(3) == 0) {
      forged = rng.next_below(2) == 0
                   ? DisplayOverride::constant(
                         static_cast<Symbol>(rng.next_below(d)))
                   : DisplayOverride::even_odd(
                         static_cast<Symbol>(rng.next_below(d)),
                         static_cast<Symbol>(rng.next_below(d)));
      desc << " forged@" << c;
    } else if (c > 0 && rng.next_below(3) == 0) {
      stall = StallWindow{.start = rng.next_below(2),
                          .rounds = 1 + rng.next_below(2)};
      desc << " stall@" << c;
    }
    desc << " class" << c << "={n=" << size << ",init=" << init << "}";
    classes.push_back({.size = size,
                       .automaton = &table,
                       .initial = init,
                       .channel = noise.matrix(),
                       .forged = forged,
                       .stall = stall});
    lumped.push_back({.count = AgentCount{size},
                      .automaton = &table,
                      .initial = init,
                      .channel = noise.matrix(),
                      .forged = forged,
                      .stall = stall});
  }

  ExactChainOptions options;
  options.h = Holdings{h};
  options.prune_epsilon = kPrune;
  ExactChain chain(classes, options);

  const auto make = [&] {
    LumpedSetup setup;
    auto copy = lumped;  // fresh histograms per replicate
    setup.engine = std::make_unique<LumpedEngine>(std::move(copy));
    return setup;
  };
  const auto empirical = lumped_replicates(make, Holdings{h}, rounds, kReps,
                                           kLumpedFuzzSeed ^ index);
  return {desc.str(), compare_to_oracle(chain, empirical, kReps)};
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

TEST(OracleLumpedFuzz, RandomTuplesMatchExactChain) {
  const std::uint64_t only =
      env_u64("NOISYPULL_ORACLE_TUPLE", kLumpedNumTuples);  // sentinel: all
  const std::uint64_t max_tuples =
      env_u64("NOISYPULL_ORACLE_MAX_TUPLES", kLumpedNumTuples);

  std::uint64_t ran = 0;
  for (std::uint64_t i = 0; i < kLumpedNumTuples && ran < max_tuples; ++i) {
    if (only < kLumpedNumTuples && i != only) continue;
    ++ran;
    const auto outcome = run_lumped_tuple(i);
    if (!outcome.failure.empty()) {
      ADD_FAILURE() << outcome.description << "\n"
                    << outcome.failure
                    << "repro: NOISYPULL_ORACLE_TUPLE=" << i
                    << " ./tests/noisypull_oracle_tests"
                       " --gtest_filter='OracleLumpedFuzz.*'";
    }
  }
  ASSERT_GT(ran, 0u);
}

// --- chi-square homogeneity vs AggregateEngine at n = 10⁵ -------------------
//
// The oracle cannot reach n = 10⁵, so the two samplers check each other: R
// independent replicates of the same SF configuration under each engine, the
// statistic is the number of agents displaying 1 at the first boosting round
// (the earliest round where displays are stochastic — listening-phase
// displays are a deterministic function of the round).  Replicate counts are
// binned on pooled quantiles and tested for homogeneity at the 99.9% level.
TEST(OracleLumped, AggregateAgreementAtHundredThousandAgents) {
  const PopulationConfig pop{.n = 100'000, .s1 = 316, .s0 = 0};
  const Holdings h{8};
  const NoiseMatrix noise = NoiseMatrix::uniform(2, 0.2);
  const SfSchedule sched =
      make_sf_schedule_with_m(pop, h, Delta{0.2}, MemoryBudget{64});
  const std::uint64_t probe = sched.boosting_start();
  constexpr std::uint64_t kGofReps = 120;
  constexpr std::uint64_t kGofSeed = 0x60f5eed;

  std::vector<std::uint64_t> lumped_ones;
  for (std::uint64_t rep = 0; rep < kGofReps; ++rep) {
    auto setup = make_lumped_sf(pop, sched, noise);
    Rng rng(kGofSeed, rep);
    for (std::uint64_t round = 0; round < probe; ++round) {
      setup.engine->step(h, round, rng);
    }
    lumped_ones.push_back(setup.engine->display_histogram(probe)[1]);
  }

  std::vector<std::uint64_t> agent_ones;
  for (std::uint64_t rep = 0; rep < kGofReps; ++rep) {
    SourceFilter protocol(pop, sched);
    AggregateEngine engine;
    Rng rng(kGofSeed ^ 0x517e, rep);
    for (std::uint64_t round = 0; round < probe; ++round) {
      engine.step(protocol, noise, h, round, rng);
    }
    std::uint64_t ones = 0;
    for (std::uint64_t agent = 0; agent < pop.n; ++agent) {
      if (protocol.display(agent, probe) == 1) ++ones;
    }
    agent_ones.push_back(ones);
  }

  // Bin edges at pooled-sample quantiles (deduplicated): every bin holds a
  // healthy expected count under homogeneity.
  std::vector<std::uint64_t> pooled = lumped_ones;
  pooled.insert(pooled.end(), agent_ones.begin(), agent_ones.end());
  std::sort(pooled.begin(), pooled.end());
  constexpr std::size_t kBins = 6;
  std::vector<std::uint64_t> edges;  // upper-exclusive interior edges
  for (std::size_t b = 1; b < kBins; ++b) {
    const std::uint64_t edge = pooled[pooled.size() * b / kBins];
    if (edges.empty() || edge > edges.back()) edges.push_back(edge);
  }
  const std::size_t bins = edges.size() + 1;
  ASSERT_GE(bins, 3u) << "degenerate pooled sample; widen the configuration";

  const auto bin_of = [&](std::uint64_t value) {
    std::size_t b = 0;
    while (b < edges.size() && value >= edges[b]) ++b;
    return b;
  };
  std::vector<std::uint64_t> lumped_bins(bins, 0);
  std::vector<std::uint64_t> agent_bins(bins, 0);
  for (const std::uint64_t v : lumped_ones) ++lumped_bins[bin_of(v)];
  for (const std::uint64_t v : agent_ones) ++agent_bins[bin_of(v)];

  std::vector<double> pooled_probs(bins, 0.0);
  for (std::size_t b = 0; b < bins; ++b) {
    pooled_probs[b] =
        static_cast<double>(lumped_bins[b] + agent_bins[b]) /
        static_cast<double>(2 * kGofReps);
  }
  // Two-sample homogeneity statistic: each sample against the pooled bin
  // law, summed; dof = bins − 1 (2 groups).
  const double stat = chi_square_statistic(lumped_bins, pooled_probs) +
                      chi_square_statistic(agent_bins, pooled_probs);
  EXPECT_LT(stat, chi_square_critical_999(bins - 1))
      << "lumped vs aggregate display counts diverge at n=1e5 (probe round "
      << probe << ")";
}

}  // namespace
}  // namespace noisypull
