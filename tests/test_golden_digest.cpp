// Golden replay-digest regression tests: six pinned (engine, seed,
// FaultPlan, h) tuples whose full-run replay digests are committed under
// tests/golden/ and re-verified by ctest.  Four sample h = 16 of n = 48
// agents (the InverseCdf sampler); two sample h = n, where the outcome
// space outgrows the draws and every round runs the Decomposition sampler.
//
// Purpose: catch *semantic* drift.  Any change to engine sampling, runner
// sequencing, or fault realization that alters trajectories for identical
// inputs must either be intentional (bump kCellCacheSchemaVersion and
// regenerate the goldens) or is a bug this test pins down to the commit.
//
// Toolchain calibration: the display trajectory depends on floating-point
// code generation (-ffp-contract, libm), so a digest pinned by one
// compiler need not reproduce under another.  Each golden file therefore
// carries an extra, *calibration* tuple and the writing toolchain's
// fingerprint (compiler id and version, glibc version, target arch).
// When the current build reproduces the calibration digest, it is
// trajectory-compatible with the build that wrote the goldens and the
// pinned tuples are enforced bit-for-bit.  When it does not and the
// fingerprint differs too, the pinned comparisons are skipped with a
// diagnostic (the within-binary determinism contract is still covered by
// test_replay_digest.cpp and --verify-replay).  Under the writing
// toolchain a moved calibration digest fails: a change that moves every
// digest moves that one too, and must not pass as a toolchain change.
//
// Regenerate after an intentional semantics change:
//   NOISYPULL_UPDATE_GOLDEN=1 ./noisypull_tests --gtest_filter='GoldenDigest.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "noisypull/common/atomic_io.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"

#ifdef __GLIBC__
#include <gnu/libc-version.h>
#endif

#ifndef NOISYPULL_GOLDEN_DIR
#error "NOISYPULL_GOLDEN_DIR must point at tests/golden (set in CMakeLists)"
#endif

namespace noisypull {
namespace {

constexpr std::uint64_t kN = 48;
constexpr std::uint64_t kH = 16;
constexpr double kDelta = 0.2;

// Same full-horizon construction as test_replay_digest.cpp: only a full run
// makes the display trajectory — and hence the digest — depend on the
// sampling randomness.
std::uint64_t digest_of_run(Engine& engine, std::uint64_t seed,
                            std::uint64_t h) {
  const PopulationConfig pop{.n = kN, .s1 = 1, .s0 = 0};
  SourceFilter protocol(pop, Holdings{h}, Delta{kDelta}, C1{2.0});
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(seed);
  const std::uint64_t rounds = protocol.planned_rounds() + 4;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.step(protocol, noise, Holdings{h}, r, rng);
  }
  return engine.replay_digest();
}

enum class EngineKind {
  Aggregate,  // AggregateEngine(): one channel, the step's noise matrix
  Exact,      // ExactEngine
  PerAgent,   // AggregateEngine over two per-agent channel tiers
};

struct GoldenTuple {
  const char* name;
  EngineKind engine;
  std::uint64_t seed;
  bool faulted;
  FaultPlan plan;
  std::uint64_t h = kH;
};

FaultPlan byz_drop_plan() {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 99;
  plan.first_eligible = 1;
  plan.byzantine.fraction = 0.25;
  plan.drop.p = 0.2;
  return plan;
}

// At a quarter Byzantine the whole run is pinned to one display trajectory
// whatever the seed, so the Byzantine tuples take a lighter set under which
// their digests move with every draw (ByzDropTuplesDependOnTheSeed).
FaultPlan light_byz_drop_plan() {
  FaultPlan plan = byz_drop_plan();
  plan.byzantine.fraction = 0.05;
  return plan;
}

FaultPlan stall_burst_plan() {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 17;
  plan.first_eligible = 1;
  plan.stall.crash_rate = 0.1;
  plan.stall.min_rounds = 2;
  plan.stall.max_rounds = 6;
  plan.burst.rate = 0.3;
  plan.burst.rounds = 2;
  plan.burst.delta = 0.4;
  return plan;
}

// "calibration" must stay first: it decides whether the rest are enforced.
const std::vector<GoldenTuple>& tuples() {
  static const std::vector<GoldenTuple> kTuples = {
      {"calibration", EngineKind::Aggregate, /*seed=*/3, /*faulted=*/false,
       {}},
      {"aggregate-seed7-clean", EngineKind::Aggregate, 7, false, {}},
      {"exact-seed11-byz-drop", EngineKind::Exact, 11, true,
       light_byz_drop_plan()},
      {"aggregate-seed13-stall-burst", EngineKind::Aggregate, 13, true,
       stall_burst_plan()},
      {"peragent-seed19-byz-drop", EngineKind::PerAgent, 19, true,
       light_byz_drop_plan()},
      {"aggregate-seed23-hn-clean", EngineKind::Aggregate, 23, false, {}, kN},
      {"peragent-seed29-hn-byz-drop", EngineKind::PerAgent, 29, true,
       light_byz_drop_plan(), kN},
  };
  return kTuples;
}

// Two channel tiers: even agents see δ = 0.05, odd agents δ = 0.2.
std::vector<NoiseMatrix> two_tier_channels() {
  std::vector<NoiseMatrix> per_agent;
  per_agent.reserve(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    per_agent.push_back(NoiseMatrix::uniform(2, i % 2 == 0 ? 0.05 : kDelta));
  }
  return per_agent;
}

std::unique_ptr<Engine> make_engine(EngineKind kind) {
  switch (kind) {
    case EngineKind::Aggregate:
      return std::make_unique<AggregateEngine>();
    case EngineKind::Exact:
      return std::make_unique<ExactEngine>();
    case EngineKind::PerAgent:
      return std::make_unique<AggregateEngine>(two_tier_channels());
  }
  return nullptr;
}

std::uint64_t compute(const GoldenTuple& t) {
  const std::unique_ptr<Engine> inner = make_engine(t.engine);
  if (!t.faulted) return digest_of_run(*inner, t.seed, t.h);
  FaultyEngine faulty(*inner, t.plan);
  return digest_of_run(faulty, t.seed, t.h);
}

std::string golden_path() {
  return std::string(NOISYPULL_GOLDEN_DIR) + "/replay_digests.txt";
}

// The build's toolchain: compiler id and version, the glibc it runs
// against (libm's results are part of the trajectory), target arch.
std::string toolchain_fingerprint() {
  std::ostringstream os;
#if defined(__clang__)
  os << "clang-" << __clang_major__ << "." << __clang_minor__ << "."
     << __clang_patchlevel__;
#elif defined(__GNUC__)
  os << "gcc-" << __GNUC__ << "." << __GNUC_MINOR__ << "."
     << __GNUC_PATCHLEVEL__;
#else
  os << "unknown-compiler";
#endif
#ifdef __GLIBC__
  os << " glibc-" << gnu_get_libc_version();
#else
  os << " no-glibc";
#endif
#if defined(__x86_64__)
  os << " x86_64";
#elif defined(__aarch64__)
  os << " aarch64";
#else
  os << " other-arch";
#endif
  return os.str();
}

constexpr const char* kToolchainKey = "toolchain ";

std::string render(const std::map<std::string, std::uint64_t>& digests) {
  std::ostringstream os;
  os << "# Golden replay digests (test_golden_digest.cpp).  Regenerate with\n"
     << "# NOISYPULL_UPDATE_GOLDEN=1 after an intentional trajectory-\n"
     << "# semantics change; the calibration line gates enforcement to\n"
     << "# builds that reproduce the writing toolchain's trajectories, and\n"
     << "# the toolchain line names that toolchain: under it, a moved\n"
     << "# calibration digest fails instead of skipping.\n"
     << kToolchainKey << toolchain_fingerprint() << "\n";
  for (const GoldenTuple& t : tuples()) {
    os << t.name << " " << std::hex << std::setfill('0') << std::setw(16)
       << digests.at(t.name) << std::dec << "\n";
  }
  return os.str();
}

// The committed file's toolchain line, without its key ("" if absent).
std::string committed_toolchain(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with(kToolchainKey)) {
      return line.substr(std::string(kToolchainKey).size());
    }
  }
  return "";
}

std::map<std::string, std::uint64_t> parse(const std::string& text) {
  std::map<std::string, std::uint64_t> digests;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.starts_with(kToolchainKey)) {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    std::uint64_t digest = 0;
    if (fields >> name >> std::hex >> digest) digests[name] = digest;
  }
  return digests;
}

// Whether the committed digests bind this build: true when it reproduces
// the calibration digest.  When it does not, a build of the writing
// toolchain fails here (every digest moved, the calibration one
// included); any other build returns false, and the caller skips.
bool calibration_holds(const std::string& payload, std::uint64_t current) {
  const std::uint64_t committed = parse(payload).at("calibration");
  if (committed == current) return true;
  const std::string written_by = committed_toolchain(payload);
  EXPECT_NE(written_by, toolchain_fingerprint())
      << "the calibration digest moved (" << std::hex << committed << " -> "
      << current << std::dec << ") under the toolchain that wrote the "
      << "goldens, so trajectory semantics changed, not code generation; if "
         "intentional, bump kCellCacheSchemaVersion and regenerate the "
         "goldens";
  return false;
}

TEST(GoldenDigest, PinnedTuplesMatchCommittedDigests) {
  std::map<std::string, std::uint64_t> current;
  for (const GoldenTuple& t : tuples()) current[t.name] = compute(t);

  if (std::getenv("NOISYPULL_UPDATE_GOLDEN") != nullptr) {
    ASSERT_TRUE(io::atomic_write_file(golden_path(), render(current)));
    GTEST_SKIP() << "golden file regenerated at " << golden_path();
  }

  const auto payload = io::read_file(golden_path());
  ASSERT_TRUE(payload.has_value())
      << "missing golden file " << golden_path()
      << " — regenerate with NOISYPULL_UPDATE_GOLDEN=1";
  const auto committed = parse(*payload);
  for (const GoldenTuple& t : tuples()) {
    ASSERT_TRUE(committed.count(t.name) != 0)
        << "golden file lacks tuple " << t.name;
  }

  if (!calibration_holds(*payload, current.at("calibration"))) {
    if (HasFailure()) return;
    GTEST_SKIP() << "this toolchain (" << toolchain_fingerprint()
                 << ") produces different trajectories than the one that "
                    "wrote the goldens (floating-point code generation); "
                    "pinned digests not enforced here — regenerate with "
                    "NOISYPULL_UPDATE_GOLDEN=1 to pin this toolchain instead";
  }
  for (const GoldenTuple& t : tuples()) {
    EXPECT_EQ(current.at(t.name), committed.at(t.name))
        << "replay digest drifted for pinned tuple '" << t.name
        << "' — trajectory semantics changed; if intentional, bump "
           "kCellCacheSchemaVersion and regenerate the goldens";
  }
}

// Runs whose display vector repeats in nearly every round, the display
// memo's hit-heavy case (DESIGN.md §8.3): SF at n = 250, h = 1 over its
// full 47,529-round horizon (the thm4_sweep benchmark's longest cell) and
// SF at perfbench's sf_h64_compiled configuration.  Their digests were
// captured before the engines detected repeated rounds, when every round
// was folded byte by byte.  Gated by the same calibration tuple and
// toolchain line.
TEST(GoldenDigest, RepeatHeavyRunsKeepTheirDigests) {
  const auto payload = io::read_file(golden_path());
  ASSERT_TRUE(payload.has_value()) << "missing golden file " << golden_path();
  const auto committed = parse(*payload);
  ASSERT_TRUE(committed.count("calibration") != 0);
  if (!calibration_holds(*payload, compute(tuples().front()))) {
    if (HasFailure()) return;
    GTEST_SKIP() << "this toolchain produces different trajectories than the "
                    "one that wrote the goldens; not enforced here";
  }
  enum class Kind { Aggregate, Compiled, Exact, ByzCompiled };
  struct RepeatRun {
    const char* name;
    Kind kind;
    PopulationConfig pop;
    std::uint64_t h;
    unsigned lanes;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  constexpr PopulationConfig kSmall{.n = 250, .s1 = 1, .s0 = 0};
  constexpr PopulationConfig kH64{.n = 10'000, .s1 = 100, .s0 = 0};
  const RepeatRun runs[] = {
      {"sf-n250-h1", Kind::Aggregate, kSmall, 1, 1, 41, 0xd1f98e2f8e044bf3ULL},
      {"exact-sf-n250-h1", Kind::Exact, kSmall, 1, 1, 41,
       0x5feb454165c9f57fULL},
      {"compiled-sf-h64", Kind::Compiled, kH64, 64, 1, 43,
       0x4a16f32cf76a4cd1ULL},
      {"interpreted-sf-h64-4-lanes", Kind::Aggregate, kH64, 64, 4, 43,
       0x4a16f32cf76a4cd1ULL},
      {"compiled-sf-h64-byz-4-lanes", Kind::ByzCompiled, kH64, 64, 4, 43,
       0xa9e60d4e09cc68a0ULL},
  };
  for (const RepeatRun& run : runs) {
    const SfSchedule schedule =
        make_sf_schedule(run.pop, Holdings{run.h}, Delta{kDelta});
    const bool compiled =
        run.kind == Kind::Compiled || run.kind == Kind::ByzCompiled;
    std::unique_ptr<PullProtocol> protocol;
    if (compiled) {
      protocol = make_compiled_sf(run.pop, schedule);
    } else {
      protocol = std::make_unique<SourceFilter>(run.pop, schedule);
    }
    std::unique_ptr<Engine> inner;
    if (run.kind == Kind::Exact) {
      inner = std::make_unique<ExactEngine>();
    } else {
      inner = std::make_unique<AggregateEngine>();
    }
    inner->set_compiled(compiled);
    inner->set_threads(run.lanes);
    // Byzantine agents only: light_byz_drop_plan() without its drops.
    std::optional<FaultyEngine> faulty;
    if (run.kind == Kind::ByzCompiled) {
      FaultPlan plan = light_byz_drop_plan();
      plan.drop.p = 0.0;
      faulty.emplace(*inner, plan);
    }
    Engine& engine = faulty ? static_cast<Engine&>(*faulty) : *inner;
    const auto noise = NoiseMatrix::uniform(2, kDelta);
    Rng rng(run.seed);
    for (std::uint64_t r = 0; r < protocol->planned_rounds(); ++r) {
      engine.step(*protocol, noise, Holdings{run.h}, r, rng);
    }
    EXPECT_EQ(engine.replay_digest(), run.digest) << run.name;
  }
}

TEST(GoldenDigest, TuplesAreMutuallyDistinct) {
  // A golden layer where two pinned tuples collide would silently halve its
  // coverage; the tuples are chosen to exercise different engines and fault
  // classes, so their digests must differ.
  std::map<std::string, std::uint64_t> current;
  for (const GoldenTuple& t : tuples()) current[t.name] = compute(t);
  EXPECT_NE(current.at("aggregate-seed7-clean"),
            current.at("exact-seed11-byz-drop"));
  EXPECT_NE(current.at("aggregate-seed7-clean"),
            current.at("aggregate-seed13-stall-burst"));
  EXPECT_NE(current.at("exact-seed11-byz-drop"),
            current.at("aggregate-seed13-stall-burst"));
  EXPECT_NE(current.at("exact-seed11-byz-drop"),
            current.at("peragent-seed19-byz-drop"));
  EXPECT_NE(current.at("calibration"), current.at("aggregate-seed7-clean"));
  EXPECT_NE(current.at("aggregate-seed23-hn-clean"),
            current.at("aggregate-seed7-clean"));
  EXPECT_NE(current.at("aggregate-seed23-hn-clean"),
            current.at("peragent-seed29-hn-byz-drop"));
}

TEST(GoldenDigest, ByzDropTuplesDependOnTheSeed) {
  // A pinned digest that every seed reproduces pins no sampling randomness;
  // re-running a Byzantine tuple under a neighbouring seed must move it.
  // The exact tuple's neighbour is seed 12, the per-agent tuples' seeds 20
  // and 30.
  for (const char* name : {"exact-seed11-byz-drop", "peragent-seed19-byz-drop",
                           "peragent-seed29-hn-byz-drop"}) {
    const auto it = std::find_if(
        tuples().begin(), tuples().end(),
        [&](const GoldenTuple& t) { return std::string(t.name) == name; });
    ASSERT_NE(it, tuples().end()) << name;
    GoldenTuple reseeded = *it;
    reseeded.seed += 1;
    EXPECT_NE(compute(reseeded), compute(*it)) << name;
  }
}

}  // namespace
}  // namespace noisypull
