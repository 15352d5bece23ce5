// Determinism contract of the block-parallel round kernel.
//
// The kernel draws one u64 round key from the master stream per step and
// derives every agent block's substream as Rng(round_key, block); the block
// grid is fixed (kBlockSize agents) independent of the lane count.  The
// displays absorbed into the replay digest are therefore a pure function of
// (config, seed) — never of how many threads executed the round.  These
// tests pin that contract:
//   * digest identical for 1, 2, and 8 lanes on every engine, with the
//     serial run as the reference;
//   * the same under a nonzero FaultPlan (fault sampling stays on the
//     serial proxy path; only per-agent observation work is parallel);
//   * lane invariance on a k-ary (d > 2) alphabet, which exercises the
//     NEXCOM composition enumeration instead of the binary fast path.
// The sampler's cached and uncached walks realize one uniform→outcome map;
// tests/test_observation_cache.cpp pins that draw for draw.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "noisypull/common/fnv.hpp"
#include "noisypull/core/kary.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"

namespace noisypull {
namespace {

// Heterogeneous = AggregateEngine over per-agent channels.
enum class EngineKind { Exact, Aggregate, Sequential, Heterogeneous };

std::string kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::Exact: return "Exact";
    case EngineKind::Aggregate: return "Aggregate";
    case EngineKind::Sequential: return "Sequential";
    case EngineKind::Heterogeneous: return "Heterogeneous";
  }
  return "?";
}

constexpr std::uint64_t kN = 48;
constexpr std::uint64_t kH = 16;
constexpr double kDelta = 0.2;

std::unique_ptr<Engine> make_engine(EngineKind kind, std::size_t d = 2) {
  switch (kind) {
    case EngineKind::Exact:
      return std::make_unique<ExactEngine>();
    case EngineKind::Aggregate:
      return std::make_unique<AggregateEngine>();
    case EngineKind::Sequential:
      return std::make_unique<SequentialEngine>();
    case EngineKind::Heterogeneous:
      return std::make_unique<AggregateEngine>(std::vector<NoiseMatrix>(
          kN, NoiseMatrix::uniform(d, kDelta)));
  }
  return nullptr;
}

// Full SourceFilter horizon, as in test_replay_digest: only a complete run
// makes the display trajectory depend on the sampling randomness.
std::uint64_t digest_of_run(Engine& engine, std::uint64_t seed) {
  const PopulationConfig pop{.n = kN, .s1 = 1, .s0 = 0};
  SourceFilter protocol(pop, Holdings{kH}, Delta{kDelta}, C1{2.0});
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(seed);
  const std::uint64_t rounds = protocol.planned_rounds() + 4;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.step(protocol, noise, Holdings{kH}, r, rng);
  }
  return engine.replay_digest();
}

std::uint64_t digest_of_kary_run(Engine& engine, std::uint64_t seed) {
  const KaryPopulation pop{.n = kN, .sources = {0, 1, 0}};
  KarySourceFilter protocol(pop, Holdings{kH}, Delta{0.05});
  const auto noise = NoiseMatrix::uniform(3, 0.05);
  Rng rng(seed);
  const std::uint64_t rounds = protocol.planned_rounds() + 4;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.step(protocol, noise, Holdings{kH}, r, rng);
  }
  return engine.replay_digest();
}

class ParallelKernel : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ParallelKernel, LaneCountNeverChangesTheDigest) {
  const auto serial = make_engine(GetParam());
  const std::uint64_t reference = digest_of_run(*serial, 7);
  ASSERT_NE(reference, fnv::kOffsetBasis) << "digest absorbed nothing";
  for (unsigned lanes : {2u, 8u}) {
    const auto engine = make_engine(GetParam());
    engine->set_threads(lanes);
    EXPECT_EQ(digest_of_run(*engine, 7), reference) << lanes << " lanes";
  }
}

TEST_P(ParallelKernel, LaneCountNeverChangesTheDigestUnderFaults) {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 99;
  plan.first_eligible = 1;  // the source stays honest
  plan.byzantine.fraction = 0.25;
  plan.drop.p = 0.2;
  plan.stall.crash_rate = 0.05;
  plan.burst.rate = 0.1;
  plan.burst.rounds = 2;
  plan.burst.delta = 0.5;

  const auto serial_inner = make_engine(GetParam());
  FaultyEngine serial(*serial_inner, plan);
  const std::uint64_t reference = digest_of_run(serial, 7);
  for (unsigned lanes : {2u, 8u}) {
    const auto inner = make_engine(GetParam());
    FaultyEngine faulty(*inner, plan);
    faulty.set_threads(lanes);
    EXPECT_EQ(digest_of_run(faulty, 7), reference) << lanes << " lanes";
    // The relaxed-atomic fault accumulators fold to the same totals as the
    // serial run: per-round sums are order-independent.
    EXPECT_EQ(faulty.stats().stalled_updates, serial.stats().stalled_updates)
        << lanes << " lanes";
    EXPECT_EQ(faulty.stats().dropped_observations,
              serial.stats().dropped_observations)
        << lanes << " lanes";
  }
}

TEST_P(ParallelKernel, KaryLaneAndCacheInvariance) {
  // Lanes only: the engines no longer have a sampler-cache toggle (the name
  // is kept for continuity).  d = 3 exercises the composition-enumeration
  // sampler (NEXCOM order) rather than the binary index decode.
  const auto serial = make_engine(GetParam(), 3);
  const std::uint64_t reference = digest_of_kary_run(*serial, 13);
  ASSERT_NE(reference, fnv::kOffsetBasis);

  const auto parallel = make_engine(GetParam(), 3);
  parallel->set_threads(8);
  EXPECT_EQ(digest_of_kary_run(*parallel, 13), reference);
}

TEST_P(ParallelKernel, SetThreadsRejectsZeroLanes) {
  const auto engine = make_engine(GetParam());
  EXPECT_THROW(engine->set_threads(0), std::invalid_argument);
}

TEST_P(ParallelKernel, ThreadsAccessorRoundTrips) {
  const auto engine = make_engine(GetParam());
  EXPECT_EQ(engine->threads(), 1u);
  engine->set_threads(3);
  EXPECT_EQ(engine->threads(), 3u);
  engine->set_threads(1);
  EXPECT_EQ(engine->threads(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ParallelKernel,
    ::testing::Values(EngineKind::Exact, EngineKind::Aggregate,
                      EngineKind::Sequential, EngineKind::Heterogeneous),
    [](const ::testing::TestParamInfo<EngineKind>& param_info) {
      return kind_name(param_info.param);
    });

}  // namespace
}  // namespace noisypull
