// End-to-end integration tests: protocols under engines, adversaries, and
// noise reductions working together, each a miniature of a bench experiment.
#include <gtest/gtest.h>

#include "noisypull/noisypull.hpp"

namespace noisypull {
namespace {

PopulationConfig pop(std::uint64_t n, std::uint64_t s1, std::uint64_t s0) {
  return PopulationConfig{.n = n, .s1 = s1, .s0 = s0};
}

TEST(Integration, SfFullSamplingSingleSource) {
  // Theorem 4's flagship regime: h = n, s = 1, constant noise.
  const auto p = pop(1000, 1, 0);
  const double delta = 0.2;
  const auto noise = NoiseMatrix::uniform(2, delta);
  SourceFilter sf(p, Holdings{p.n}, Delta{delta}, C1{2.0});
  AggregateEngine engine;
  Rng rng(1);
  const auto result =
      run(sf, engine, noise, p.correct_opinion(), RunConfig{.h = p.n}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
}

TEST(Integration, SfSqrtNSampling) {
  const auto p = pop(900, 1, 0);
  const double delta = 0.1;
  const auto noise = NoiseMatrix::uniform(2, delta);
  SourceFilter sf(p, Holdings{30}, Delta{delta}, C1{2.0});  // h = √n
  AggregateEngine engine;
  Rng rng(2);
  const auto result =
      run(sf, engine, noise, p.correct_opinion(), RunConfig{.h = 30}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
}

TEST(Integration, SfUnderExactEngineMatchesAggregateOutcome) {
  // The literal per-message engine reaches the same conclusion (small n to
  // keep Θ(n·h) affordable).
  const auto p = pop(150, 2, 0);
  const double delta = 0.1;
  const auto noise = NoiseMatrix::uniform(2, delta);
  int ok = 0;
  for (int rep = 0; rep < 3; ++rep) {
    SourceFilter sf(p, Holdings{p.n}, Delta{delta}, C1{2.0});
    ExactEngine engine;
    Rng rng(100 + rep);
    ok += run(sf, engine, noise, p.correct_opinion(), RunConfig{.h = p.n}, rng)
              .all_correct_at_end
              ? 1
              : 0;
  }
  EXPECT_GE(ok, 2);
}

TEST(Integration, SfWithNonUniformNoiseViaTheorem8Reduction) {
  // A lopsided binary channel; agents add artificial noise P so the
  // effective channel is f(δ)-uniform, then run SF tuned to f(δ).
  const auto p = pop(800, 1, 0);
  const NoiseMatrix raw(Matrix{0.95, 0.05, 0.2, 0.8});
  const auto red = reduce_to_uniform(raw);
  SourceFilter sf(p, Holdings{p.n}, Delta{red.delta_prime}, C1{2.0});
  AggregateEngine engine;
  engine.set_artificial_noise(red.artificial);
  Rng rng(3);
  const auto result = run(sf, engine, raw, p.correct_opinion(),
                          RunConfig{.h = p.n}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
}

TEST(Integration, SfPluralityWithConflictingSources) {
  // 6 sources for 1, 4 for 0 → plurality 1 must win despite the conflict.
  const auto p = pop(1000, 6, 4);
  const double delta = 0.15;
  const auto noise = NoiseMatrix::uniform(2, delta);
  SourceFilter sf(p, Holdings{p.n}, Delta{delta}, C1{2.0});
  AggregateEngine engine;
  Rng rng(4);
  const auto result =
      run(sf, engine, noise, p.correct_opinion(), RunConfig{.h = p.n}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
}

TEST(Integration, SsfRecoversFromEveryCorruptionPolicy) {
  const auto p = pop(400, 2, 0);
  const double delta = 0.05;
  const auto noise = NoiseMatrix::uniform(4, delta);
  for (const auto policy : kAllCorruptionPolicies) {
    SelfStabilizingSourceFilter ssf(p, Holdings{p.n}, Delta{delta}, C1{2.0});
    Rng init(10 + static_cast<int>(policy));
    corrupt_population(ssf, policy, p.correct_opinion(), init);
    AggregateEngine engine;
    Rng rng(20 + static_cast<int>(policy));
    const auto result =
        run(ssf, engine, noise, p.correct_opinion(),
            RunConfig{.h = p.n, .max_rounds = ssf.convergence_deadline()},
            rng);
    EXPECT_TRUE(result.all_correct_at_end)
        << "policy=" << to_string(policy);
  }
}

TEST(Integration, SsfWithNonUniformNoiseViaReduction) {
  // Note: for d = 4 the reduction level f(δ) is much larger than δ (see
  // Figure 1), so keep the raw channel mild and the bias comfortable.
  const auto p = pop(600, 4, 0);
  Rng gen(5);
  const auto raw = NoiseMatrix::random_upper_bounded(4, 0.03, gen);
  const auto red = reduce_to_uniform(raw);
  SelfStabilizingSourceFilter ssf(p, Holdings{p.n}, Delta{red.delta_prime},
                                  C1{2.0});
  AggregateEngine engine;
  engine.set_artificial_noise(red.artificial);
  Rng rng(6);
  const auto result =
      run(ssf, engine, raw, p.correct_opinion(),
          RunConfig{.h = p.n, .max_rounds = ssf.convergence_deadline()}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
}

TEST(Integration, RepeatHarnessEstimatesHighSuccessForSf) {
  const auto p = pop(400, 1, 0);
  const double delta = 0.15;
  const auto noise = NoiseMatrix::uniform(2, delta);
  const auto stats = run_experiment(
      {ExperimentCell{
          .label = "sf",
          .make_protocol = [&](Rng&) -> std::unique_ptr<PullProtocol> {
            return std::make_unique<SourceFilter>(p, Holdings{p.n},
                                                  Delta{delta}, C1{2.0});
          },
          .noise = noise,
          .correct = p.correct_opinion(),
          .cfg = RunConfig{.h = p.n},
          .seed = 7}},
      SchedulerOptions{.stop = StopRule{.max_reps = 10}});
  EXPECT_GE(stats[0].success_rate, 0.9);
}

TEST(Integration, WeakOpinionAdvantageIsPositive) {
  // Lemma 28's measurable consequence: after the listening phases the
  // fraction of correct weak opinions exceeds 1/2.
  const auto p = pop(2000, 1, 0);
  const double delta = 0.2;
  const auto noise = NoiseMatrix::uniform(2, delta);
  SourceFilter sf(p, Holdings{p.n}, Delta{delta}, C1{2.0});
  AggregateEngine engine;
  Rng rng(8);
  for (std::uint64_t t = 0; t < sf.schedule().boosting_start(); ++t) {
    engine.step(sf, noise, Holdings{p.n}, t, rng);
  }
  std::uint64_t correct_weak = 0;
  for (std::uint64_t i = 0; i < p.n; ++i) {
    if (sf.weak_opinion(i) == p.correct_opinion()) ++correct_weak;
  }
  EXPECT_GT(correct_weak, p.n / 2);
}

TEST(Integration, BoostingTrajectoryGrows) {
  // Lemma 33's measurable consequence: the correct-opinion count increases
  // through the boosting sub-phases.
  const auto p = pop(1000, 1, 0);
  const double delta = 0.2;
  const auto noise = NoiseMatrix::uniform(2, delta);
  SourceFilter sf(p, Holdings{p.n}, Delta{delta}, C1{2.0});
  AggregateEngine engine;
  Rng rng(9);
  const auto result = run(sf, engine, noise, p.correct_opinion(),
                          RunConfig{.h = p.n, .record_trajectory = true},
                          rng);
  ASSERT_TRUE(result.all_correct_at_end);
  const auto& traj = result.trajectory;
  const std::uint64_t at_start = traj[sf.schedule().boosting_start()];
  EXPECT_LT(at_start, p.n);  // not yet converged after listening
  EXPECT_EQ(traj.back(), p.n);
}

}  // namespace
}  // namespace noisypull
