#include "noisypull/core/source_filter.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "noisypull/core/variants.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/sim/runner.hpp"

namespace noisypull {
namespace {

PopulationConfig pop(std::uint64_t n, std::uint64_t s1, std::uint64_t s0) {
  return PopulationConfig{.n = n, .s1 = s1, .s0 = s0};
}

SymbolCounts obs2(std::uint64_t zeros, std::uint64_t ones) {
  SymbolCounts c(2);
  c[0] = zeros;
  c[1] = ones;
  return c;
}

// A small fixed schedule: m = 6, h = 2 → phases of 3 rounds each.
SfSchedule tiny_schedule(const PopulationConfig& p) {
  return make_sf_schedule_with_m(p, Holdings{2}, Delta{0.1}, MemoryBudget{6});
}

TEST(SourceFilter, DisplaysFollowThePhaseScript) {
  const auto p = pop(10, 2, 1);  // agents 0,1 prefer 1; agent 2 prefers 0
  SourceFilter sf(p, tiny_schedule(p));
  const auto& sched = sf.schedule();

  for (std::uint64_t t = 0; t < sched.phase_rounds; ++t) {
    EXPECT_EQ(sf.display(0, t), 1);  // source, preference 1
    EXPECT_EQ(sf.display(2, t), 0);  // source, preference 0
    EXPECT_EQ(sf.display(5, t), 0);  // non-source displays 0 in Phase 0
  }
  for (std::uint64_t t = sched.phase_rounds; t < sched.boosting_start(); ++t) {
    EXPECT_EQ(sf.display(0, t), 1);
    EXPECT_EQ(sf.display(2, t), 0);
    EXPECT_EQ(sf.display(5, t), 1);  // non-source displays 1 in Phase 1
  }
}

TEST(SourceFilter, CountersAccumulateTheRightSymbols) {
  const auto p = pop(10, 1, 0);
  SourceFilter sf(p, tiny_schedule(p));
  Rng rng(1);
  const auto& sched = sf.schedule();

  // Phase 0: only observed 1s count.
  for (std::uint64_t t = 0; t < sched.phase_rounds; ++t) {
    sf.update(4, t, obs2(1, 1), rng);
  }
  EXPECT_EQ(sf.counter1(4), sched.phase_rounds);
  EXPECT_EQ(sf.counter0(4), 0u);

  // Phase 1: only observed 0s count.
  for (std::uint64_t t = sched.phase_rounds; t < sched.boosting_start(); ++t) {
    sf.update(4, t, obs2(2, 0), rng);
  }
  EXPECT_EQ(sf.counter1(4), sched.phase_rounds);
  EXPECT_EQ(sf.counter0(4), 2 * sched.phase_rounds);
}

TEST(SourceFilter, WeakOpinionComparesCounters) {
  const auto p = pop(10, 1, 0);
  const auto sched = tiny_schedule(p);
  Rng rng(2);

  // More 1s in Phase 0 than 0s in Phase 1 → weak opinion 1.
  {
    SourceFilter sf(p, sched);
    for (std::uint64_t t = 0; t < sched.boosting_start(); ++t) {
      sf.update(3, t, t < sched.phase_rounds ? obs2(0, 2) : obs2(1, 1), rng);
    }
    EXPECT_EQ(sf.weak_opinion(3), 1);
    EXPECT_EQ(sf.opinion(3), 1);  // opinion initialized to the weak opinion
  }
  // Fewer 1s than 0s → weak opinion 0.
  {
    SourceFilter sf(p, sched);
    for (std::uint64_t t = 0; t < sched.boosting_start(); ++t) {
      sf.update(3, t, t < sched.phase_rounds ? obs2(2, 0) : obs2(2, 0), rng);
    }
    EXPECT_EQ(sf.weak_opinion(3), 0);
  }
}

TEST(SourceFilter, WeakOpinionTieBreaksWithFairCoin) {
  const auto p = pop(10, 1, 0);
  const auto sched = tiny_schedule(p);
  int ones = 0;
  const int kReps = 2000;
  for (int rep = 0; rep < kReps; ++rep) {
    SourceFilter sf(p, sched);
    Rng rng(1000 + rep);
    for (std::uint64_t t = 0; t < sched.boosting_start(); ++t) {
      sf.update(3, t, obs2(1, 1), rng);  // counters end equal
    }
    ones += sf.weak_opinion(3);
  }
  EXPECT_GT(ones, kReps / 2 - 150);
  EXPECT_LT(ones, kReps / 2 + 150);
}

TEST(SourceFilter, BoostingAdoptsSubphaseMajority) {
  const auto p = pop(10, 1, 0);
  const auto sched = tiny_schedule(p);
  SourceFilter sf(p, sched);
  Rng rng(3);

  // Drive through listening so that Counter1 = 6 > Counter0 = 3 and the
  // weak opinion is deterministically 1.
  for (std::uint64_t t = 0; t < sched.boosting_start(); ++t) {
    sf.update(6, t, t < sched.phase_rounds ? obs2(0, 2) : obs2(1, 1), rng);
  }
  ASSERT_EQ(sf.opinion(6), 1);

  // First boosting sub-phase: feed a 0-majority; at the sub-phase end the
  // opinion must flip to 0.
  std::uint64_t t = sched.boosting_start();
  for (std::uint64_t r = 0; r < sched.subphase_rounds; ++r, ++t) {
    EXPECT_EQ(sf.opinion(6), 1);  // unchanged until the sub-phase ends
    sf.update(6, t, obs2(2, 0), rng);
  }
  EXPECT_EQ(sf.opinion(6), 0);

  // Second sub-phase: 1-majority flips it back.
  for (std::uint64_t r = 0; r < sched.subphase_rounds; ++r, ++t) {
    sf.update(6, t, obs2(0, 2), rng);
  }
  EXPECT_EQ(sf.opinion(6), 1);
}

TEST(SourceFilter, SubphaseEndDetection) {
  const auto p = pop(10, 1, 0);
  const auto sched = tiny_schedule(p);
  SourceFilter sf(p, sched);

  EXPECT_FALSE(sf.is_subphase_end(0));
  EXPECT_FALSE(sf.is_subphase_end(sched.boosting_start() - 1));
  // End of each short sub-phase.
  for (std::uint64_t k = 1; k <= sched.num_subphases; ++k) {
    EXPECT_TRUE(sf.is_subphase_end(sched.boosting_start() +
                                   k * sched.subphase_rounds - 1));
  }
  // Last round overall ends the final sub-phase.
  EXPECT_TRUE(sf.is_subphase_end(sched.total_rounds() - 1));
  EXPECT_FALSE(sf.is_subphase_end(sched.total_rounds() - 2));
}

TEST(SourceFilter, UpdatesBeyondHorizonAreIgnored) {
  const auto p = pop(10, 1, 0);
  const auto sched = tiny_schedule(p);
  SourceFilter sf(p, sched);
  Rng rng(4);
  for (std::uint64_t t = 0; t < sched.total_rounds(); ++t) {
    sf.update(5, t, obs2(0, 2), rng);
  }
  const Opinion before = sf.opinion(5);
  for (std::uint64_t t = sched.total_rounds(); t < sched.total_rounds() + 50;
       ++t) {
    sf.update(5, t, obs2(2, 0), rng);
  }
  EXPECT_EQ(sf.opinion(5), before);
}

TEST(SourceFilter, PlannedRoundsMatchesSchedule) {
  const auto p = pop(100, 1, 0);
  SourceFilter sf(p, Holdings{4}, Delta{0.1}, C1{1.0});
  EXPECT_EQ(sf.planned_rounds(), sf.schedule().total_rounds());
  EXPECT_GT(sf.planned_rounds(), 0u);
}

TEST(SourceFilter, AgentIndexValidation) {
  const auto p = pop(10, 1, 0);
  SourceFilter sf(p, tiny_schedule(p));
  Rng rng(1);
  EXPECT_THROW(sf.opinion(10), std::invalid_argument);
  EXPECT_THROW(sf.weak_opinion(10), std::invalid_argument);
  EXPECT_THROW(sf.counter1(10), std::invalid_argument);
  EXPECT_THROW(sf.update(10, 0, obs2(0, 1), rng), std::invalid_argument);
  SymbolCounts wrong(4);
  EXPECT_THROW(sf.update(0, 0, wrong, rng), std::invalid_argument);
}

TEST(SourceFilter, ConvergesWithFullSampling) {
  // n = 300, h = n, δ = 0.15, single source: Theorem 4's headline regime.
  const auto p = pop(300, 1, 0);
  const auto noise = NoiseMatrix::uniform(2, 0.15);
  int successes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    SourceFilter sf(p, Holdings{p.n}, Delta{0.15}, C1{2.0});
    AggregateEngine engine;
    Rng rng(900 + rep);
    const auto result =
        run(sf, engine, noise, p.correct_opinion(), RunConfig{.h = p.n}, rng);
    successes += result.all_correct_at_end ? 1 : 0;
  }
  EXPECT_GE(successes, 4);
}

TEST(SourceFilter, ConvergesToZeroWhenZeroSourcesDominate) {
  const auto p = pop(300, 1, 3);  // correct opinion is 0
  ASSERT_EQ(p.correct_opinion(), 0);
  const auto noise = NoiseMatrix::uniform(2, 0.1);
  SourceFilter sf(p, Holdings{p.n}, Delta{0.1}, C1{2.0});
  AggregateEngine engine;
  Rng rng(7);
  const auto result =
      run(sf, engine, noise, p.correct_opinion(), RunConfig{.h = p.n}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
}

TEST(SourceFilter, MinoritySourcesAreOverruled) {
  // Sources preferring the wrong value must converge to the majority
  // preference too (Definition 2).
  const auto p = pop(400, 5, 2);
  const auto noise = NoiseMatrix::uniform(2, 0.1);
  SourceFilter sf(p, Holdings{p.n}, Delta{0.1}, C1{2.0});
  AggregateEngine engine;
  Rng rng(11);
  const auto result =
      run(sf, engine, noise, p.correct_opinion(), RunConfig{.h = p.n}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
  // In particular the 0-preferring sources (agents 5 and 6) hold opinion 1.
  EXPECT_EQ(sf.opinion(5), 1);
  EXPECT_EQ(sf.opinion(6), 1);
}

TEST(SourceFilter, CountOpinionMatchesPerAgentOpinions) {
  // The override reads the agent states directly; it must agree with the
  // default per-agent opinion() loop for SF and both variants, through the
  // listening phases, the boosting sub-phases and past the horizon.
  const auto p = pop(300, 3, 1);
  const auto sched = make_sf_schedule_with_m(p, Holdings{4}, Delta{0.1},
                                             MemoryBudget{24});
  const auto noise = NoiseMatrix::uniform(2, 0.1);
  for (int variant = 0; variant < 3; ++variant) {
    Rng init(5);
    std::unique_ptr<SourceFilter> sf;
    if (variant == 0) sf = std::make_unique<SourceFilter>(p, sched);
    if (variant == 1) sf = std::make_unique<EagerSourceFilter>(p, sched, init);
    if (variant == 2) {
      sf = std::make_unique<AlternatingSourceFilter>(p, sched, init);
    }
    AggregateEngine engine;
    Rng rng(17 + variant);
    bool saw_mixed = false;
    for (std::uint64_t r = 0; r < sched.total_rounds() + 2; ++r) {
      engine.step(*sf, noise, Holdings{4}, r, rng);
      for (const Opinion o : {Opinion{0}, Opinion{1}}) {
        ASSERT_EQ(sf->count_opinion(o), sf->PullProtocol::count_opinion(o))
            << "variant " << variant << " round " << r << " opinion "
            << int{o};
      }
      const std::uint64_t ones = sf->count_opinion(1);
      saw_mixed |= ones > 0 && ones < p.n;
    }
    // Both opinions were held at once in some round: the comparisons are
    // not all trivial 0 == 0 or n == n.
    EXPECT_TRUE(saw_mixed) << "variant " << variant;
  }
}

}  // namespace
}  // namespace noisypull
