// Replay-digest auditor regression tests (the dynamic half of the
// determinism tooling; the static half is tools/noisypull_lint.cpp).
//
// The digest is a chained FNV-1a over (round, display vector) of every
// executed round.  The contract under test:
//   * the FNV-1a primitive matches the published reference vectors, so the
//     digest algorithm itself cannot drift silently;
//   * same configuration + same seed ⇒ identical digest for every engine
//     (Exact, Aggregate, Sequential, and Heterogeneous — AggregateEngine over
//     per-agent channels) and for FaultyEngine at
//     a nonzero fault plan;
//   * different seeds ⇒ different digests (a constant digest would audit
//     nothing);
//   * a zero fault plan is digest-transparent (FaultyEngine == inner).
//
// Digests here are intentionally NOT pinned to cross-build golden
// constants: the trajectory depends on floating-point rounding, which
// -ffp-contract makes compiler-specific.  Within one binary, bit-for-bit
// equality is exactly the nondeterminism probe --verify-replay ships.
// Cross-commit pinning lives in test_golden_digest.cpp, which commits
// digests for three (engine, seed, FaultPlan) tuples under tests/golden/
// and gates enforcement on a toolchain-calibration tuple.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "noisypull/common/fnv.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"

namespace noisypull {
namespace {

std::uint64_t fnv1a_string(const char* s) {
  std::uint64_t d = fnv::kOffsetBasis;
  for (; *s != '\0'; ++s) {
    d = fnv::hash_byte(d, static_cast<std::uint8_t>(*s));
  }
  return d;
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo).
  EXPECT_EQ(fnv1a_string(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a_string("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a_string("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, U64LittleEndianOrder) {
  // hash_u64 must fold bytes little-endian first regardless of host order.
  const std::uint64_t via_u64 = fnv::hash_u64(fnv::kOffsetBasis,
                                              0x0102030405060708ULL);
  std::uint64_t via_bytes = fnv::kOffsetBasis;
  constexpr std::uint8_t kBytes[] = {0x08, 0x07, 0x06, 0x05,
                                     0x04, 0x03, 0x02, 0x01};
  for (const std::uint8_t b : kBytes) {
    via_bytes = fnv::hash_byte(via_bytes, b);
  }
  EXPECT_EQ(via_u64, via_bytes);
}

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

std::unique_ptr<Engine> make_engine(EngineKind kind) {
  switch (kind) {
    case EngineKind::Exact:
      return std::make_unique<ExactEngine>();
    case EngineKind::Aggregate:
      return std::make_unique<AggregateEngine>();
    case EngineKind::Sequential:
      return std::make_unique<SequentialEngine>();
    case EngineKind::Heterogeneous:
      return std::make_unique<AggregateEngine>(std::vector<NoiseMatrix>(
          kN, NoiseMatrix::uniform(2, kDelta)));
  }
  return nullptr;
}

// Steps a fresh SourceFilter over its full horizon (displays are phase-fixed
// early in the schedule; only a full run makes the display trajectory — and
// hence the digest — depend on the sampling randomness) and returns the
// engine's final digest.
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

class ReplayDigest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ReplayDigest, FreshEngineStartsAtOffsetBasis) {
  EXPECT_EQ(make_engine(GetParam())->replay_digest(), fnv::kOffsetBasis);
}

TEST_P(ReplayDigest, SameSeedReproducesBitForBit) {
  const auto e1 = make_engine(GetParam());
  const auto e2 = make_engine(GetParam());
  const std::uint64_t d1 = digest_of_run(*e1, 7);
  const std::uint64_t d2 = digest_of_run(*e2, 7);
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, fnv::kOffsetBasis) << "digest absorbed nothing";
}

TEST_P(ReplayDigest, DifferentSeedsDiverge) {
  const auto e1 = make_engine(GetParam());
  const auto e2 = make_engine(GetParam());
  EXPECT_NE(digest_of_run(*e1, 7), digest_of_run(*e2, 8));
}

TEST_P(ReplayDigest, DigestAdvancesEveryRound) {
  const auto engine = make_engine(GetParam());
  const PopulationConfig pop{.n = kN, .s1 = 1, .s0 = 0};
  SourceFilter protocol(pop, Holdings{kH}, Delta{kDelta}, C1{2.0});
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(11);
  std::uint64_t previous = engine->replay_digest();
  for (std::uint64_t r = 0; r < 4; ++r) {
    engine->step(protocol, noise, Holdings{kH}, r, rng);
    EXPECT_NE(engine->replay_digest(), previous) << "round " << r;
    previous = engine->replay_digest();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ReplayDigest,
    ::testing::Values(EngineKind::Exact, EngineKind::Aggregate,
                      EngineKind::Sequential, EngineKind::Heterogeneous),
    [](const ::testing::TestParamInfo<EngineKind>& param_info) {
      return kind_name(param_info.param);
    });

FaultPlan nonzero_plan() {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 99;
  plan.first_eligible = 1;  // the source stays honest
  plan.byzantine.fraction = 0.25;
  plan.drop.p = 0.2;
  plan.stall.crash_rate = 0.05;
  plan.burst.rate = 0.1;
  plan.burst.rounds = 2;
  plan.burst.delta = 0.5;
  return plan;
}

class FaultyReplayDigest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(FaultyReplayDigest, SameSeedSamePlanReproducesBitForBit) {
  const auto inner1 = make_engine(GetParam());
  const auto inner2 = make_engine(GetParam());
  FaultyEngine f1(*inner1, nonzero_plan());
  FaultyEngine f2(*inner2, nonzero_plan());
  const std::uint64_t d1 = digest_of_run(f1, 7);
  const std::uint64_t d2 = digest_of_run(f2, 7);
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, fnv::kOffsetBasis);
}

TEST_P(FaultyReplayDigest, ByzantineDisplaysChangeTheDigest) {
  // The inner engine observes forged displays through the fault proxy, so a
  // nonzero plan must shift the digest relative to the fault-free run.
  const auto bare = make_engine(GetParam());
  const auto inner = make_engine(GetParam());
  FaultyEngine faulty(*inner, nonzero_plan());
  EXPECT_NE(digest_of_run(*bare, 7), digest_of_run(faulty, 7));
}

TEST_P(FaultyReplayDigest, ZeroPlanIsDigestTransparent) {
  const auto bare = make_engine(GetParam());
  const auto inner = make_engine(GetParam());
  FaultyEngine faulty(*inner, FaultPlan::for_binary(/*correct=*/1));
  EXPECT_EQ(digest_of_run(*bare, 7), digest_of_run(faulty, 7));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, FaultyReplayDigest,
    ::testing::Values(EngineKind::Exact, EngineKind::Aggregate,
                      EngineKind::Sequential, EngineKind::Heterogeneous),
    [](const ::testing::TestParamInfo<EngineKind>& param_info) {
      return kind_name(param_info.param);
    });

}  // namespace
}  // namespace noisypull
