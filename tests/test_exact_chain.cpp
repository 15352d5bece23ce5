// Self-tests for theory/ExactChain: the oracle itself is held to a second,
// even more literal reference — full enumeration over *labelled* state
// vectors with no exchangeability lumping — plus structural checks (mass
// conservation, pruning accounting, kernel agreement at n = 1) and
// deterministic trajectory cross-checks of the SF/SSF automaton mirrors
// against the real core/ protocols.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "noisypull/noisypull.hpp"

namespace noisypull {
namespace {

// ---------------------------------------------------------------------------
// Labelled brute force: distributions over explicit per-agent state vectors.

using Labelled = std::vector<AutomatonState>;
using LDist = std::map<Labelled, double>;

double factorial(std::uint64_t k) {
  double f = 1.0;
  for (std::uint64_t i = 2; i <= k; ++i) f *= static_cast<double>(i);
  return f;
}

std::vector<std::vector<std::uint64_t>> all_outcomes(std::uint64_t h,
                                                     std::size_t d) {
  std::vector<std::vector<std::uint64_t>> out;
  std::vector<std::uint64_t> cur(d, 0);
  auto rec = [&](auto&& self, std::size_t cell, std::uint64_t left) -> void {
    if (cell + 1 == d) {
      cur[cell] = left;
      out.push_back(cur);
      return;
    }
    for (std::uint64_t k = 0; k <= left; ++k) {
      cur[cell] = k;
      self(self, cell + 1, left - k);
    }
  };
  rec(rec, 0, h);
  return out;
}

double mult_pmf(const std::vector<std::uint64_t>& counts, std::uint64_t total,
                const std::vector<double>& p) {
  double pmf = factorial(total);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (p[i] <= 0.0) return 0.0;
    pmf *= std::pow(p[i], static_cast<double>(counts[i])) /
           factorial(counts[i]);
  }
  return pmf;
}

// The per-agent view of a ChainClass list: class index of each agent, in
// the declared (index-contiguous) order.
std::vector<std::size_t> expand_agents(const std::vector<ChainClass>& classes) {
  std::vector<std::size_t> of;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    for (std::uint64_t k = 0; k < classes[i].size; ++k) of.push_back(i);
  }
  return of;
}

Symbol brute_display(const ChainClass& cls, AutomatonState s,
                     std::uint64_t round) {
  switch (cls.forged.kind) {
    case DisplayOverride::Kind::Constant:
      return cls.forged.even;
    case DisplayOverride::Kind::EvenOdd:
      return (round % 2 == 0) ? cls.forged.even : cls.forged.odd;
    case DisplayOverride::Kind::None:
      break;
  }
  return cls.automaton->display(s, round);
}

std::vector<double> brute_q(const ChainClass& cls,
                            const std::vector<std::uint64_t>& c,
                            std::uint64_t round,
                            const std::map<std::uint64_t, Matrix>& ovr) {
  const auto it = ovr.find(round);
  const Matrix& channel = (it != ovr.end()) ? it->second : cls.channel;
  const std::size_t d = c.size();
  std::vector<double> q(d, 0.0);
  double total = 0.0;
  for (std::size_t to = 0; to < d; ++to) {
    for (std::size_t from = 0; from < d; ++from) {
      q[to] += static_cast<double>(c[from]) * channel(from, to);
    }
    total += q[to];
  }
  for (auto& v : q) v /= total;
  return q;
}

std::vector<WeightedState> brute_agent_law(
    const ChainClass& cls, AutomatonState s, std::uint64_t round,
    const std::vector<double>& q,
    const std::vector<std::vector<std::uint64_t>>& outcomes,
    std::uint64_t h) {
  if (cls.stall.active(round)) return {{s, 1.0}};
  std::map<AutomatonState, double> law;
  for (const auto& outcome : outcomes) {
    const double pmf = mult_pmf(outcome, h, q);
    if (pmf <= 0.0) continue;
    SymbolCounts obs(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) obs[i] = outcome[i];
    for (const auto& ws : cls.automaton->transition(s, round, obs)) {
      law[ws.state] += pmf * ws.prob;
    }
  }
  std::vector<WeightedState> out;
  for (const auto& [st, p] : law) out.push_back({st, p});
  return out;
}

std::vector<std::uint64_t> brute_histogram(
    const Labelled& vec, const std::vector<ChainClass>& classes,
    const std::vector<std::size_t>& of, std::size_t d, std::uint64_t round) {
  std::vector<std::uint64_t> c(d, 0);
  for (std::size_t a = 0; a < vec.size(); ++a) {
    ++c[brute_display(classes[of[a]], vec[a], round)];
  }
  return c;
}

// One synchronous round: every agent transitions against the start-of-round
// histogram; the joint law is the product over agents.
LDist brute_sync_step(const LDist& dist, const std::vector<ChainClass>& classes,
                      const std::vector<std::size_t>& of, std::size_t d,
                      Holdings h, std::uint64_t round,
                      const std::map<std::uint64_t, Matrix>& ovr) {
  const auto outcomes = all_outcomes(h.get(), d);
  LDist next;
  for (const auto& [vec, p] : dist) {
    const auto c = brute_histogram(vec, classes, of, d, round);
    std::vector<std::vector<WeightedState>> laws;
    for (std::size_t a = 0; a < vec.size(); ++a) {
      const auto q = brute_q(classes[of[a]], c, round, ovr);
      laws.push_back(
          brute_agent_law(classes[of[a]], vec[a], round, q, outcomes, h.get()));
    }
    Labelled out(vec.size());
    auto rec = [&](auto&& self, std::size_t a, double w) -> void {
      if (a == vec.size()) {
        next[out] += w;
        return;
      }
      for (const auto& ws : laws[a]) {
        out[a] = ws.state;
        self(self, a + 1, w * ws.prob);
      }
    };
    rec(rec, 0, p);
  }
  return next;
}

// One sequential-ascending round: agents 0..n−1 update one at a time
// against the live labelled display vector.
LDist brute_seq_step(const LDist& dist, const std::vector<ChainClass>& classes,
                     const std::vector<std::size_t>& of, std::size_t d,
                     Holdings h, std::uint64_t round,
                     const std::map<std::uint64_t, Matrix>& ovr) {
  const auto outcomes = all_outcomes(h.get(), d);
  LDist cur = dist;
  const std::size_t n = of.size();
  for (std::size_t a = 0; a < n; ++a) {
    LDist next;
    for (const auto& [vec, p] : cur) {
      const auto c = brute_histogram(vec, classes, of, d, round);
      const auto q = brute_q(classes[of[a]], c, round, ovr);
      for (const auto& ws : brute_agent_law(classes[of[a]], vec[a], round, q,
                                            outcomes, h.get())) {
        Labelled moved = vec;
        moved[a] = ws.state;
        next[std::move(moved)] += p * ws.prob;
      }
    }
    cur = std::move(next);
  }
  return cur;
}

DisplayDistribution brute_display_dist(const LDist& dist,
                                       const std::vector<ChainClass>& classes,
                                       const std::vector<std::size_t>& of,
                                       std::size_t d, std::uint64_t round) {
  DisplayDistribution out;
  for (const auto& [vec, p] : dist) {
    out[brute_histogram(vec, classes, of, d, round)] += p;
  }
  return out;
}

// A 3-state binary-alphabet table automaton with non-trivial dynamics: the
// states disagree on what they display and where ties go.
TableAutomaton make_test_automaton() {
  return TableAutomaton(
      2, {TableState{.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
                     .if_less = 1, .tie_a = 0, .tie_b = 2},
          TableState{.show = 1, .watch_a = 1, .watch_b = 0, .if_greater = 1,
                     .if_less = 2, .tie_a = 1, .tie_b = 1},
          TableState{.show = 1, .watch_a = 0, .watch_b = 1, .if_greater = 2,
                     .if_less = 0, .tie_a = 0, .tie_b = 1}});
}

std::vector<ChainClass> make_test_classes(const TableAutomaton& automaton) {
  Rng rng(101);
  std::vector<ChainClass> classes(2);
  classes[0] = {.size = 2,
                .automaton = &automaton,
                .initial = 0,
                .channel = NoiseMatrix::uniform(2, 0.2).matrix()};
  classes[1] = {.size = 1,
                .automaton = &automaton,
                .initial = 1,
                .channel =
                    NoiseMatrix::random_upper_bounded(2, 0.3, rng).matrix()};
  return classes;
}

void expect_dist_near(const DisplayDistribution& a,
                      const DisplayDistribution& b, double tol) {
  EXPECT_LE(total_variation(a, b), tol);
}

TEST(ExactChain, SynchronousMatchesLabelledBruteForce) {
  const auto automaton = make_test_automaton();
  const auto classes = make_test_classes(automaton);
  const auto of = expand_agents(classes);
  const Holdings h{2};

  ExactChain chain(classes, {.h = h});
  LDist brute;
  brute[{0, 0, 1}] = 1.0;

  for (std::uint64_t round = 0; round < 4; ++round) {
    expect_dist_near(chain.display_distribution(),
                     brute_display_dist(brute, classes, of, 2, round), 1e-9);
    chain.step();
    brute = brute_sync_step(brute, classes, of, 2, h, round, {});
  }
  EXPECT_EQ(chain.truncated_mass(), 0.0);
}

TEST(ExactChain, SequentialMatchesLabelledBruteForce) {
  const auto automaton = make_test_automaton();
  const auto classes = make_test_classes(automaton);
  const auto of = expand_agents(classes);
  const Holdings h{1};

  ExactChain chain(
      classes,
      {.h = h, .kernel = ExactChainOptions::Kernel::SequentialAscending});
  LDist brute;
  brute[{0, 0, 1}] = 1.0;

  for (std::uint64_t round = 0; round < 4; ++round) {
    expect_dist_near(chain.display_distribution(),
                     brute_display_dist(brute, classes, of, 2, round), 1e-9);
    chain.step();
    brute = brute_seq_step(brute, classes, of, 2, h, round, {});
  }
}

TEST(ExactChain, FaultSemanticsMatchLabelledBruteForce) {
  // Forged displays (even/odd flip-flop), a stall window, and a channel
  // override all at once — exactly the deterministic FaultPlan subset.
  const auto automaton = make_test_automaton();
  auto classes = make_test_classes(automaton);
  classes[1].forged = DisplayOverride::even_odd(1, 0);
  classes[0].stall = StallWindow{.start = 1, .rounds = 2};
  const auto of = expand_agents(classes);
  const Holdings h{2};
  std::map<std::uint64_t, Matrix> ovr;
  ovr.emplace(2, NoiseMatrix::uniform(2, 0.45).matrix());

  ExactChain chain(classes, {.h = h, .channel_override = ovr});
  LDist brute;
  brute[{0, 0, 1}] = 1.0;

  for (std::uint64_t round = 0; round < 5; ++round) {
    expect_dist_near(chain.display_distribution(),
                     brute_display_dist(brute, classes, of, 2, round), 1e-9);
    chain.step();
    brute = brute_sync_step(brute, classes, of, 2, h, round, ovr);
  }
}

TEST(ExactChain, MassIsConservedAndPruningIsAccounted) {
  // A near-noiseless channel from an all-zeros start makes "saw a 1"
  // configurations carry ~1e-5 mass, guaranteeing the pruning path fires.
  const auto automaton = make_test_automaton();
  std::vector<ChainClass> classes(1);
  classes[0] = {.size = 3,
                .automaton = &automaton,
                .initial = 0,
                .channel = NoiseMatrix::uniform(2, 1e-5).matrix()};

  ExactChain exact(classes, {.h = Holdings{2}});
  ExactChain pruned(classes, {.h = Holdings{2}, .prune_epsilon = 1e-4});
  for (int round = 0; round < 5; ++round) {
    exact.step();
    pruned.step();
  }
  auto mass = [](const DisplayDistribution& d) {
    double m = 0.0;
    for (const auto& [k, p] : d) m += p;
    return m;
  };
  EXPECT_NEAR(mass(exact.display_distribution()), 1.0, 1e-12);
  EXPECT_EQ(exact.truncated_mass(), 0.0);
  EXPECT_GT(pruned.truncated_mass(), 0.0);
  EXPECT_NEAR(mass(pruned.display_distribution()) + pruned.truncated_mass(),
              1.0, 1e-9);
  EXPECT_LE(pruned.support_size(), exact.support_size());
  // The pruned chain still tracks the exact one to within the lost mass.
  EXPECT_LE(total_variation(exact.display_distribution(),
                            pruned.display_distribution()),
            pruned.truncated_mass() + 1e-12);
}

TEST(ExactChain, KernelsAgreeForOneAgent) {
  // With a single agent there is no mid-round interaction, so the
  // synchronous and sequential kernels define the same chain.
  const auto automaton = make_test_automaton();
  std::vector<ChainClass> classes(1);
  classes[0] = {.size = 1,
                .automaton = &automaton,
                .initial = 2,
                .channel = NoiseMatrix::uniform(2, 0.1).matrix()};
  ExactChain sync(classes, {.h = Holdings{3}});
  ExactChain seq(classes,
                 {.h = Holdings{3},
                  .kernel = ExactChainOptions::Kernel::SequentialAscending});
  for (int round = 0; round < 4; ++round) {
    sync.step();
    seq.step();
    expect_dist_near(sync.display_distribution(), seq.display_distribution(),
                     1e-12);
  }
}

TEST(ExactChain, DisplayMeanMatchesDistribution) {
  const auto automaton = make_test_automaton();
  const auto classes = make_test_classes(automaton);
  ExactChain chain(classes, {.h = Holdings{2}});
  chain.step();
  chain.step();
  const auto dist = chain.display_distribution();
  const auto mean = chain.display_mean();
  std::vector<double> expect(mean.size(), 0.0);
  for (const auto& [hist, p] : dist) {
    for (std::size_t s = 0; s < hist.size(); ++s) {
      expect[s] += p * static_cast<double>(hist[s]);
    }
  }
  for (std::size_t s = 0; s < mean.size(); ++s) {
    EXPECT_NEAR(mean[s], expect[s], 1e-12);
  }
}

TEST(ExactChain, TotalVariationAndToleranceBasics) {
  DisplayDistribution a;
  a[{2, 0}] = 0.5;
  a[{1, 1}] = 0.5;
  EXPECT_DOUBLE_EQ(total_variation(a, a), 0.0);
  DisplayDistribution b;
  b[{0, 2}] = 1.0;
  EXPECT_DOUBLE_EQ(total_variation(a, b), 1.0);
  DisplayDistribution c;
  c[{2, 0}] = 0.25;
  c[{1, 1}] = 0.75;
  EXPECT_NEAR(total_variation(a, c), 0.25, 1e-12);
  // Tolerance shrinks with more samples and grows with support size.
  EXPECT_LT(tv_tolerance(8, 10000, 9.0), tv_tolerance(8, 1000, 9.0));
  EXPECT_LT(tv_tolerance(8, 10000, 9.0), tv_tolerance(64, 10000, 9.0));
}

// ---------------------------------------------------------------------------
// Automaton mirrors vs the real core/ protocols, on tie-free deterministic
// trajectories (coin-splitting paths are covered statistically by
// test_oracle_engines.cpp).

SymbolCounts obs2(std::uint64_t zeros, std::uint64_t ones) {
  SymbolCounts obs(2);
  obs[0] = zeros;
  obs[1] = ones;
  return obs;
}

TEST(ExactChain, SfAutomatonTracksSourceFilterOnTieFreeRuns) {
  const PopulationConfig pop{.n = 4, .s1 = 1, .s0 = 0};
  const SfSchedule sched{.h = 2,
                         .m = 2,
                         .phase_rounds = 1,
                         .w = 2,
                         .subphase_rounds = 1,
                         .num_subphases = 2,
                         .final_rounds = 2};
  SourceFilter sf(pop, sched);
  SfAutomaton source(sched, true, 1);
  SfAutomaton plain(sched, false, 0);

  // Asymmetric batches at every decision round keep every majority strict.
  const std::vector<SymbolCounts> stream = {obs2(0, 2), obs2(1, 2), obs2(1, 2),
                                            obs2(2, 0), obs2(0, 2), obs2(2, 1),
                                            obs2(2, 0)};
  Rng rng(7);
  AutomatonState src_state = source.initial_state();
  AutomatonState plain_state = plain.initial_state();
  for (std::uint64_t round = 0; round < stream.size(); ++round) {
    ASSERT_EQ(source.display(src_state, round), sf.display(0, round))
        << "round " << round;
    ASSERT_EQ(plain.display(plain_state, round), sf.display(2, round))
        << "round " << round;
    sf.update(0, round, stream[round], rng);
    sf.update(2, round, stream[round], rng);
    const auto src_law = source.transition(src_state, round, stream[round]);
    const auto plain_law = plain.transition(plain_state, round, stream[round]);
    ASSERT_EQ(src_law.size(), 1u) << "tie-free stream split at " << round;
    ASSERT_EQ(plain_law.size(), 1u) << "tie-free stream split at " << round;
    src_state = src_law[0].state;
    plain_state = plain_law[0].state;
  }
  ASSERT_EQ(plain.display(plain_state, stream.size()),
            sf.display(2, stream.size()));
}

// SfAutomaton lumps SourceFilter's counter pairs into one signed balance
// and drops the weak opinion once it is copied into current (both exact:
// later rounds read only the balance's sign and current).  On this pinned
// config the chain's support must shrink against the counter-pair encoding
// — whose supports are recorded below — while the exact display means
// stay what that encoding computed, to the last digits.
TEST(ExactChain, SfLumpingShrinksSupportAndKeepsTheLaw) {
  const SfSchedule sched{.h = 2,
                         .m = 2,
                         .phase_rounds = 3,
                         .w = 2,
                         .subphase_rounds = 3,
                         .num_subphases = 1,
                         .final_rounds = 3};
  const auto noise = NoiseMatrix::uniform(2, 0.2);
  SfAutomaton source(sched, true, 1);
  SfAutomaton plain(sched, false, 0);
  std::vector<ChainClass> classes(2);
  classes[0] = {.size = 1,
                .automaton = &source,
                .initial = source.initial_state(),
                .channel = noise.matrix()};
  classes[1] = {.size = 3,
                .automaton = &plain,
                .initial = plain.initial_state(),
                .channel = noise.matrix()};
  ExactChain chain(classes, {.h = Holdings{2}});

  struct Pin {
    std::uint64_t after_round;
    std::size_t unlumped_support;  // (counter1, counter0, boost_ones,
                                   //  boost_total, weak, current) states
    std::size_t support;
    double mean1;  // E[#agents displaying 1] — unchanged by the lumping
  };
  const Pin pins[] = {
      {5, 271950, 3146, 4.0},         // listening phase 1, before finish
      {6, 8, 8, 2.861230575170},      // after finish_listening
      {9, 80, 8, 2.822906762217},     // after the sub-phase end
      {11, 30800, 2200, 2.822906762217},
      {12, 80, 8, 2.759622059309},    // after the final stretch
  };
  std::uint64_t round = 0;
  for (const Pin& pin : pins) {
    while (round < pin.after_round) {
      chain.step();
      ++round;
    }
    EXPECT_EQ(chain.support_size(), pin.support) << "after round " << round;
    EXPECT_LE(chain.support_size(), pin.unlumped_support);
    EXPECT_NEAR(chain.display_mean()[1], pin.mean1, 1e-11)
        << "after round " << round;
  }
}

SymbolCounts obs4(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2,
                  std::uint64_t s3) {
  SymbolCounts obs(4);
  obs[0] = s0;
  obs[1] = s1;
  obs[2] = s2;
  obs[3] = s3;
  return obs;
}

TEST(ExactChain, SsfAutomatonTracksSsfOnTieFreeRuns) {
  const PopulationConfig pop{.n = 4, .s1 = 1, .s0 = 0};
  auto ssf = SelfStabilizingSourceFilter::with_memory_budget(pop, Holdings{2},
                                                             MemoryBudget{3});
  SsfAutomaton plain(MemoryBudget{3}, false, 0);

  const std::vector<SymbolCounts> stream = {
      obs4(0, 0, 0, 2), obs4(0, 0, 1, 0), obs4(0, 2, 0, 0), obs4(0, 0, 2, 1),
      obs4(2, 0, 0, 0), obs4(0, 1, 0, 2)};
  Rng rng(8);
  AutomatonState state = 0;
  for (std::uint64_t round = 0; round < stream.size(); ++round) {
    ASSERT_EQ(plain.display(state, round), ssf.display(2, round))
        << "round " << round;
    ssf.update(2, round, stream[round], rng);
    const auto law = plain.transition(state, round, stream[round]);
    ASSERT_EQ(law.size(), 1u) << "tie-free stream split at round " << round;
    state = law[0].state;
  }
  ASSERT_EQ(plain.display(state, stream.size()),
            ssf.display(2, stream.size()));
}

TEST(ExactChain, RejectsInvalidConfigurations) {
  const auto automaton = make_test_automaton();
  ChainClass good{.size = 2,
                  .automaton = &automaton,
                  .initial = 0,
                  .channel = NoiseMatrix::uniform(2, 0.2).matrix()};
  EXPECT_THROW(ExactChain({}, {}), std::invalid_argument);
  {
    auto bad = good;
    bad.size = 0;
    EXPECT_THROW(ExactChain({bad}, {.h = Holdings{1}}), std::invalid_argument);
  }
  {
    auto bad = good;
    bad.automaton = nullptr;
    EXPECT_THROW(ExactChain({bad}, {.h = Holdings{1}}), std::invalid_argument);
  }
  {
    auto bad = good;
    bad.channel = NoiseMatrix::uniform(4, 0.1).matrix();
    EXPECT_THROW(ExactChain({bad}, {.h = Holdings{1}}), std::invalid_argument);
  }
  {
    auto bad = good;
    bad.forged = DisplayOverride::constant(5);
    EXPECT_THROW(ExactChain({bad}, {.h = Holdings{1}}), std::invalid_argument);
  }
  EXPECT_THROW(ExactChain({good}, {.h = Holdings{0}}), std::invalid_argument);
}

}  // namespace
}  // namespace noisypull
