// Heterogeneous (per-agent) channels: AggregateEngine constructed with one
// noise matrix per agent.  The suite keeps the name of the engine class the
// per-agent configuration used to be.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "noisypull/analysis/stats.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/sim/runner.hpp"

namespace noisypull {
namespace {

PopulationConfig pop(std::uint64_t n, std::uint64_t s1, std::uint64_t s0) {
  return PopulationConfig{.n = n, .s1 = s1, .s0 = s0};
}

// Fixed displays, records observations per agent (same as in
// test_engines.cpp but local to keep the suites independent).
class Recorder : public PullProtocol {
 public:
  Recorder(std::vector<Symbol> displays)
      : displays_(std::move(displays)),
        last_obs_(displays_.size(), SymbolCounts(2)) {}
  std::size_t alphabet_size() const override { return 2; }
  std::uint64_t num_agents() const override { return displays_.size(); }
  Symbol display(std::uint64_t agent, std::uint64_t) const override {
    return displays_[agent];
  }
  void update(std::uint64_t agent, std::uint64_t, const SymbolCounts& obs,
              Rng&) override {
    last_obs_[agent] = obs;
  }
  Opinion opinion(std::uint64_t) const override { return 0; }

  std::vector<Symbol> displays_;
  std::vector<SymbolCounts> last_obs_;
};

std::vector<NoiseMatrix> mixed_noise(std::uint64_t n, double low,
                                     double high) {
  std::vector<NoiseMatrix> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(NoiseMatrix::uniform(2, i % 2 == 0 ? low : high));
  }
  return out;
}

TEST(HeterogeneousEngine, Validation) {
  EXPECT_THROW(AggregateEngine(std::vector<NoiseMatrix>{}),
               std::invalid_argument);
  std::vector<NoiseMatrix> mismatched;
  mismatched.push_back(NoiseMatrix::uniform(2, 0.1));
  mismatched.push_back(NoiseMatrix::uniform(3, 0.1));
  EXPECT_THROW(AggregateEngine(std::move(mismatched)),
               std::invalid_argument);

  // Wrong matrix count for the protocol.
  Recorder protocol(std::vector<Symbol>(4, 0));
  AggregateEngine engine(mixed_noise(3, 0.0, 0.1));
  Rng rng(1);
  EXPECT_THROW(engine.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{1},
                           0, rng),
               std::invalid_argument);
}

TEST(HeterogeneousEngine, WorstUpperBound) {
  AggregateEngine engine(mixed_noise(10, 0.05, 0.25));
  EXPECT_NEAR(engine.worst_upper_bound(), 0.25, 1e-12);
}

TEST(HeterogeneousEngine, PerAgentChannelsAreApplied) {
  // Agent 0 is noiseless, agent 1 has a fully scrambling channel; all
  // displays are 1.
  std::vector<NoiseMatrix> noise;
  noise.push_back(NoiseMatrix::noiseless(2));
  noise.push_back(NoiseMatrix(Matrix{0.5, 0.5, 0.5, 0.5}));
  Recorder protocol(std::vector<Symbol>(2, 1));
  AggregateEngine engine(std::move(noise));
  Rng rng(2);

  std::array<std::uint64_t, 2> scrambled{};
  for (int t = 0; t < 600; ++t) {
    engine.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{10}, t, rng);
    EXPECT_EQ(protocol.last_obs_[0][1], 10u);  // noiseless: all 1s
    scrambled[0] += protocol.last_obs_[1][0];
    scrambled[1] += protocol.last_obs_[1][1];
  }
  const std::array<double, 2> half = {0.5, 0.5};
  EXPECT_LT(chi_square_statistic(scrambled, half),
            chi_square_critical_999(1));
}

TEST(HeterogeneousEngine, UniformSpecialCaseMatchesAggregateLaw) {
  // All agents share one matrix: the observation law must equal the
  // homogeneous one (30% displays of 1 through δ = 0.1 → P(see 1) = 0.34).
  const std::uint64_t n = 10;
  std::vector<Symbol> displays(n, 0);
  displays[0] = displays[1] = displays[2] = 1;
  Recorder protocol(displays);
  AggregateEngine engine(
      std::vector<NoiseMatrix>(n, NoiseMatrix::uniform(2, 0.1)));
  Rng rng(3);
  std::array<std::uint64_t, 2> totals{};
  for (int t = 0; t < 400; ++t) {
    engine.step(protocol, NoiseMatrix::uniform(2, 0.1), Holdings{50}, t, rng);
    for (const auto& obs : protocol.last_obs_) {
      totals[0] += obs[0];
      totals[1] += obs[1];
    }
  }
  const std::array<double, 2> probs = {0.66, 0.34};
  EXPECT_LT(chi_square_statistic(totals, probs), chi_square_critical_999(1));
}

TEST(HeterogeneousEngine, ArtificialNoiseComposesPerAgent) {
  // Noiseless per-agent channels + scrambling artificial noise → uniform.
  Recorder protocol(std::vector<Symbol>(4, 1));
  AggregateEngine engine(
      std::vector<NoiseMatrix>(4, NoiseMatrix::noiseless(2)));
  engine.set_artificial_noise(Matrix{0.5, 0.5, 0.5, 0.5});
  Rng rng(4);
  std::array<std::uint64_t, 2> totals{};
  for (int t = 0; t < 500; ++t) {
    engine.step(protocol, NoiseMatrix::noiseless(2), Holdings{10}, t, rng);
    for (const auto& obs : protocol.last_obs_) {
      totals[0] += obs[0];
      totals[1] += obs[1];
    }
  }
  const std::array<double, 2> half = {0.5, 0.5};
  EXPECT_LT(chi_square_statistic(totals, half), chi_square_critical_999(1));
}

TEST(HeterogeneousEngine, SfTunedToWorstAgentConverges) {
  // Half the agents observe at δ = 0.02, half at δ = 0.25; SF tuned to the
  // worst level converges (a δ-upper-bounded mixture is δ_max-upper-bounded
  // from every receiver's perspective).
  const auto p = pop(600, 1, 0);
  auto noise = mixed_noise(p.n, 0.02, 0.25);
  AggregateEngine engine(std::move(noise));
  SourceFilter sf(p, Holdings{p.n}, Delta{engine.worst_upper_bound()}, C1{2.0});
  Rng rng(5);
  const auto result =
      run(sf, engine, NoiseMatrix::uniform(2, engine.worst_upper_bound()),
          p.correct_opinion(), RunConfig{.h = p.n}, rng);
  EXPECT_TRUE(result.all_correct_at_end);
}

// Identical per-agent channels are one channel group, so the per-agent
// engine must reproduce the homogeneous engine's trajectory bit for bit —
// interpreted and compiled, serial and on several blocks across lanes.
TEST(HeterogeneousEngine, IdenticalChannelsMatchHomogeneousDigest) {
  constexpr PopulationConfig kPop{.n = 2 * 4096 + 321, .s1 = 30, .s0 = 10};
  constexpr SfSchedule kSchedule{.h = 8,
                                 .m = 8,
                                 .phase_rounds = 4,
                                 .w = 8,
                                 .subphase_rounds = 3,
                                 .num_subphases = 4,
                                 .final_rounds = 4};
  const NoiseMatrix noise = NoiseMatrix::uniform(2, 0.2);
  const auto digest = [&](Engine& engine, bool compiled, unsigned lanes) {
    engine.set_compiled(compiled);
    engine.set_threads(lanes);
    std::unique_ptr<PullProtocol> protocol;
    if (compiled) {
      protocol = make_compiled_sf(kPop, kSchedule);
    } else {
      protocol = std::make_unique<SourceFilter>(kPop, kSchedule);
    }
    Rng rng(9);
    for (std::uint64_t r = 0; r < kSchedule.total_rounds() + 2; ++r) {
      engine.step(*protocol, noise, Holdings{kSchedule.h}, r, rng);
    }
    return engine.replay_digest();
  };
  for (const bool compiled : {false, true}) {
    for (const unsigned lanes : {1u, 4u}) {
      AggregateEngine homogeneous;
      AggregateEngine per_agent(std::vector<NoiseMatrix>(kPop.n, noise));
      EXPECT_EQ(digest(per_agent, compiled, lanes),
                digest(homogeneous, compiled, lanes))
          << (compiled ? "compiled" : "interpreted") << ", " << lanes
          << " lanes";
    }
  }
}

}  // namespace
}  // namespace noisypull
