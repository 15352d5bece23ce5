// Property-based suites: paper invariants checked over parameter grids with
// randomized instances (TEST_P sweeps standing in for quick-check style
// properties).
#include <gtest/gtest.h>

#include <cmath>

#include "noisypull/noisypull.hpp"

namespace noisypull {
namespace {

// ---------------------------------------------------------------------------
// Corollary 14: every δ-upper-bounded matrix is invertible and
// ‖N⁻¹‖∞ ≤ (d−1)/(1−dδ).
// ---------------------------------------------------------------------------

struct AlphabetLevel {
  std::size_t d;
  double frac;  // δ as a fraction of 1/d
};

class Corollary14 : public ::testing::TestWithParam<AlphabetLevel> {};

TEST_P(Corollary14, InverseExistsWithBoundedNorm) {
  const auto [d, frac] = GetParam();
  const double delta = frac / static_cast<double>(d);
  Rng rng(1000 + d * 17 + static_cast<int>(frac * 100));
  const double bound =
      static_cast<double>(d - 1) / (1.0 - static_cast<double>(d) * delta);
  for (int rep = 0; rep < 40; ++rep) {
    const auto n = NoiseMatrix::random_upper_bounded(d, delta, rng);
    const auto inv = invert(n.matrix());
    ASSERT_TRUE(inv.has_value());
    EXPECT_LE(inv->inf_norm(), bound + 1e-8);
    // Claim 12: the inverse of a (weakly-)stochastic matrix is weakly
    // stochastic.
    EXPECT_TRUE(inv->is_weakly_stochastic(1e-7));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Corollary14,
    ::testing::Values(AlphabetLevel{2, 0.3}, AlphabetLevel{2, 0.7},
                      AlphabetLevel{2, 0.95}, AlphabetLevel{3, 0.5},
                      AlphabetLevel{4, 0.5}, AlphabetLevel{4, 0.9},
                      AlphabetLevel{6, 0.6}, AlphabetLevel{8, 0.8}),
    [](const ::testing::TestParamInfo<AlphabetLevel>& param_info) {
      std::string name = "d";
      name += std::to_string(param_info.param.d);
      name += "_frac";
      name += std::to_string(static_cast<int>(param_info.param.frac * 100));
      return name;
    });

// ---------------------------------------------------------------------------
// Theorem 8 / Proposition 16: the artificial-noise matrix is stochastic and
// the composed channel is exactly f(δ)-uniform — for random instances.
// ---------------------------------------------------------------------------

class Theorem8 : public ::testing::TestWithParam<AlphabetLevel> {};

TEST_P(Theorem8, ReductionProducesUniformChannel) {
  const auto [d, frac] = GetParam();
  const double delta = frac / static_cast<double>(d);
  Rng rng(2000 + d * 31 + static_cast<int>(frac * 100));
  for (int rep = 0; rep < 25; ++rep) {
    const auto n = NoiseMatrix::random_upper_bounded(d, delta, rng);
    const auto red = reduce_to_uniform(n, delta);
    EXPECT_TRUE(red.artificial.is_stochastic(1e-8));
    EXPECT_NEAR(red.delta_prime, uniform_noise_level(d, delta), 1e-12);
    EXPECT_TRUE(red.effective.is_uniform(red.delta_prime, 1e-7));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem8,
    ::testing::Values(AlphabetLevel{2, 0.4}, AlphabetLevel{2, 0.9},
                      AlphabetLevel{3, 0.6}, AlphabetLevel{4, 0.4},
                      AlphabetLevel{4, 0.9}, AlphabetLevel{5, 0.7}),
    [](const ::testing::TestParamInfo<AlphabetLevel>& param_info) {
      std::string name = "d";
      name += std::to_string(param_info.param.d);
      name += "_frac";
      name += std::to_string(static_cast<int>(param_info.param.frac * 100));
      return name;
    });

// ---------------------------------------------------------------------------
// Engines: a protocol run is invariant in distribution under the engine
// choice — here, the mean observed-1 count for a fixed display population.
// ---------------------------------------------------------------------------

struct EngineEquivalenceCase {
  std::uint64_t n;
  std::uint64_t h;
  double delta;
};

class EngineEquivalence
    : public ::testing::TestWithParam<EngineEquivalenceCase> {};

TEST_P(EngineEquivalence, MeanObservedOnesAgree) {
  const auto [n, h, delta] = GetParam();
  const auto noise = NoiseMatrix::uniform(2, delta);

  class Fixed : public PullProtocol {
   public:
    explicit Fixed(std::uint64_t n) : n_(n) {}
    std::size_t alphabet_size() const override { return 2; }
    std::uint64_t num_agents() const override { return n_; }
    Symbol display(std::uint64_t agent, std::uint64_t) const override {
      return agent % 4 == 0 ? 1 : 0;  // 1/4 of agents display 1 (about)
    }
    void update(std::uint64_t, std::uint64_t, const SymbolCounts& obs,
                Rng&) override {
      total_ones += obs[1];
      total_msgs += obs.total();
    }
    Opinion opinion(std::uint64_t) const override { return 0; }
    std::uint64_t n_;
    std::uint64_t total_ones = 0;
    std::uint64_t total_msgs = 0;
  };

  auto fraction = [&](Engine& engine, std::uint64_t seed) {
    Fixed protocol(n);
    Rng rng(seed);
    for (int t = 0; t < 40; ++t) engine.step(protocol, noise, Holdings{h}, t,
                                             rng);
    return static_cast<double>(protocol.total_ones) /
           static_cast<double>(protocol.total_msgs);
  };

  ExactEngine exact;
  AggregateEngine aggregate;
  const double fe = fraction(exact, 1);
  const double fa = fraction(aggregate, 2);
  const double nd = static_cast<double>(n);
  const double ones_displayed = std::floor((nd + 3) / 4.0);
  const double p1 = (ones_displayed / nd) * (1 - delta) +
                    (1 - ones_displayed / nd) * delta;
  const double sigma =
      std::sqrt(p1 * (1 - p1) / (40.0 * static_cast<double>(n * h)));
  EXPECT_NEAR(fe, p1, 6 * sigma + 1e-6);
  EXPECT_NEAR(fa, p1, 6 * sigma + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineEquivalence,
    ::testing::Values(EngineEquivalenceCase{8, 1, 0.1},
                      EngineEquivalenceCase{16, 4, 0.25},
                      EngineEquivalenceCase{64, 16, 0.4},
                      EngineEquivalenceCase{100, 100, 0.05}),
    [](const ::testing::TestParamInfo<EngineEquivalenceCase>& param_info) {
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_h";
      name += std::to_string(param_info.param.h);
      name += "_d";
      name += std::to_string(static_cast<int>(param_info.param.delta * 100));
      return name;
    });

// ---------------------------------------------------------------------------
// SF end-to-end over a (n, h, δ, sources) grid: converges on the plurality
// preference.
// ---------------------------------------------------------------------------

struct SfCase {
  std::uint64_t n;
  std::uint64_t h;  // 0 → h = n
  double delta;
  std::uint64_t s1;
  std::uint64_t s0;
};

class SfConvergence : public ::testing::TestWithParam<SfCase> {};

TEST_P(SfConvergence, ReachesCorrectConsensus) {
  const auto c = GetParam();
  const PopulationConfig p{.n = c.n, .s1 = c.s1, .s0 = c.s0};
  const std::uint64_t h = c.h == 0 ? c.n : c.h;
  const auto noise = NoiseMatrix::uniform(2, c.delta);
  const auto stats = run_experiment(
      {ExperimentCell{
          .label = "sf",
          .make_protocol = [&](Rng&) -> std::unique_ptr<PullProtocol> {
            return std::make_unique<SourceFilter>(p, Holdings{h},
                                                  Delta{c.delta}, C1{2.0});
          },
          .noise = noise,
          .correct = p.correct_opinion(),
          .cfg = RunConfig{.h = h},
          .seed = 77}},
      SchedulerOptions{.stop = StopRule{.max_reps = 5}});
  EXPECT_GE(stats[0].success_rate, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SfConvergence,
    ::testing::Values(SfCase{200, 0, 0.1, 1, 0},    // single source, h = n
                      SfCase{200, 0, 0.3, 1, 0},    // heavier noise
                      SfCase{200, 0, 0.0, 1, 0},    // noiseless edge
                      SfCase{400, 20, 0.1, 1, 0},   // h = √n
                      SfCase{400, 0, 0.1, 3, 1},    // conflicting sources
                      SfCase{400, 0, 0.1, 10, 0},   // many sources
                      SfCase{100, 0, 0.1, 25, 0},   // s = n/4 boundary
                      SfCase{300, 0, 0.2, 0, 1}),   // correct opinion is 0
    [](const ::testing::TestParamInfo<SfCase>& param_info) {
      const auto& c = param_info.param;
      std::string name = "n";
      name += std::to_string(c.n);
      name += "_h";
      name += std::to_string(c.h);
      name += "_d";
      name += std::to_string(static_cast<int>(c.delta * 100));
      name += "_s";
      name += std::to_string(c.s1);
      name += "v";
      name += std::to_string(c.s0);
      return name;
    });

// ---------------------------------------------------------------------------
// SSF end-to-end across corruption policies and parameters.
// ---------------------------------------------------------------------------

struct SsfCase {
  std::uint64_t n;
  double delta;
  CorruptionPolicy policy;
};

class SsfRecovery : public ::testing::TestWithParam<SsfCase> {};

TEST_P(SsfRecovery, ConvergesDespiteCorruption) {
  const auto c = GetParam();
  const PopulationConfig p{.n = c.n, .s1 = 2, .s0 = 0};
  const auto noise = NoiseMatrix::uniform(4, c.delta);
  const auto stats = run_experiment(
      {ExperimentCell{
          .label = "ssf",
          .make_protocol = [&](Rng& init) -> std::unique_ptr<PullProtocol> {
            auto ssf = std::make_unique<SelfStabilizingSourceFilter>(
                p, Holdings{p.n}, Delta{c.delta}, C1{2.0});
            corrupt_population(*ssf, c.policy, p.correct_opinion(), init);
            return ssf;
          },
          .noise = noise,
          .correct = p.correct_opinion(),
          .cfg = RunConfig{.h = p.n,
                           .max_rounds = SelfStabilizingSourceFilter(
                                             p, Holdings{p.n}, Delta{c.delta},
                                             C1{2.0})
                                             .convergence_deadline()},
          .seed = 88}},
      SchedulerOptions{.stop = StopRule{.max_reps = 4}});
  EXPECT_GE(stats[0].success_rate, 0.75) << to_string(c.policy);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SsfRecovery,
    ::testing::Values(
        SsfCase{200, 0.05, CorruptionPolicy::None},
        SsfCase{200, 0.05, CorruptionPolicy::RandomState},
        SsfCase{200, 0.05, CorruptionPolicy::WrongConsensus},
        SsfCase{200, 0.05, CorruptionPolicy::OverflowMemory},
        SsfCase{200, 0.05, CorruptionPolicy::DesyncClocks},
        SsfCase{400, 0.1, CorruptionPolicy::WrongConsensus},
        SsfCase{400, 0.0, CorruptionPolicy::WrongConsensus}),
    [](const ::testing::TestParamInfo<SsfCase>& param_info) {
      std::string policy = to_string(param_info.param.policy);
      for (auto& ch : policy) {
        if (ch == '-') ch = '_';
      }
      std::string name = "n";
      name += std::to_string(param_info.param.n);
      name += "_d";
      name += std::to_string(static_cast<int>(param_info.param.delta * 100));
      name += "_";
      name += policy;
      return name;
    });

// ---------------------------------------------------------------------------
// Weak-opinion independence (SF): the empirical correlation between the weak
// opinions of two fixed agents across repetitions is ~0 (the mutual
// independence of Lemma 28).
// ---------------------------------------------------------------------------

TEST(WeakOpinionProperties, PairwiseCorrelationIsSmall) {
  const PopulationConfig p{.n = 60, .s1 = 1, .s0 = 0};
  const double delta = 0.3;
  const auto noise = NoiseMatrix::uniform(2, delta);
  const int kReps = 400;
  int a = 0, b = 0, ab = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    SourceFilter sf(p, Holdings{p.n}, Delta{delta}, C1{1.0});
    AggregateEngine engine;
    Rng rng(500 + rep);
    for (std::uint64_t t = 0; t < sf.schedule().boosting_start(); ++t) {
      engine.step(sf, noise, Holdings{p.n}, t, rng);
    }
    const int ya = sf.weak_opinion(10);
    const int yb = sf.weak_opinion(20);
    a += ya;
    b += yb;
    ab += ya * yb;
  }
  const double pa = static_cast<double>(a) / kReps;
  const double pb = static_cast<double>(b) / kReps;
  const double pab = static_cast<double>(ab) / kReps;
  // Covariance ≈ 0 within ~4 standard errors of a product of Bernoullis.
  EXPECT_NEAR(pab, pa * pb, 4.0 * 0.5 / std::sqrt(static_cast<double>(kReps)));
}

}  // namespace
}  // namespace noisypull
