// The display phase's repeat detection (DESIGN.md §8.3) and SourceFilter's
// cached opinion count.
//
//   FoldMemo.*       fnv::FoldMemo's O(1) fold and fnv::hash_bytes against
//                    the byte loop, over random byte vectors (the fold's
//                    with digests sharing a low byte).
//   DisplayFold*     every engine's replay digest, after every round, against
//                    the chained fold recomputed from displays read outside
//                    the engine; the repeat and memo-hit counters, equal at
//                    1 and 4 lanes; scripted display vectors that change
//                    anywhere, or not at all.
//   SfOpinionCount.* count_opinion() against a direct recount after every
//                    round, through the bulk hook, per-agent update(), every
//                    fault class and the ablation variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "noisypull/common/fnv.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/core/variants.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"

namespace noisypull {
namespace {

constexpr double kDelta = 0.2;

// ---- FoldMemo -------------------------------------------------------------

std::uint64_t byte_loop(std::uint64_t x, const std::vector<std::uint8_t>& d) {
  for (const std::uint8_t b : d) x = fnv::hash_byte(x, b);
  return x;
}

TEST(FoldMemo, PrimePowerMatchesRepeatedMultiplication) {
  std::uint64_t power = 1;
  for (std::uint64_t k = 0; k <= 300; ++k) {
    EXPECT_EQ(fnv::prime_power(k), power) << k;
    power *= fnv::kPrime;
  }
}

TEST(FoldMemo, HashBytesMatchesTheByteLoop) {
  Rng rng(0xb17e);
  // Every length up to 40 (each remainder of the eight-byte trips), then
  // longer random vectors.
  for (std::uint64_t n = 0; n < 60; ++n) {
    const std::uint64_t len = n <= 40 ? n : rng.next_below(5001);
    std::vector<std::uint8_t> d(len);
    for (std::uint8_t& b : d) b = static_cast<std::uint8_t>(rng.next_below(256));
    const std::uint64_t x = rng.next();
    ASSERT_EQ(fnv::hash_bytes(x, d), byte_loop(x, d)) << "length " << len;
  }
}

TEST(FoldMemo, MatchesTheByteLoopForDigestsSharingALowByte) {
  constexpr std::uint64_t kSeed = 0x5eed;
  Rng rng(kSeed);
  for (int trial = 0; trial < 300; ++trial) {
    // Lengths 0 and 5000 always, the rest uniform in between; every byte
    // value (every Symbol) can occur.
    const std::uint64_t n =
        trial == 0 ? 0 : trial == 1 ? 5000 : rng.next_below(5001);
    std::vector<std::uint8_t> d(n);
    for (std::uint8_t& b : d) b = static_cast<std::uint8_t>(rng.next_below(256));
    const std::uint64_t x = rng.next();
    fnv::FoldMemo memo;
    memo.reset(n);
    std::uint64_t folded = 0;
    ASSERT_FALSE(memo.fold(x, folded)) << "a reset memo knows nothing";
    memo.record(x, byte_loop(x, d));
    for (int k = 0; k < 8; ++k) {
      const std::uint64_t same_low = (rng.next() & ~std::uint64_t{0xff}) |
                                     (x & 0xff);
      ASSERT_TRUE(memo.fold(same_low, folded));
      ASSERT_EQ(folded, byte_loop(same_low, d))
          << "trial " << trial << ", n = " << n;
    }
    const std::uint64_t other_low = x ^ (1 + rng.next_below(255));
    EXPECT_FALSE(memo.fold(other_low, folded))
        << "the memo answered for a low byte it never saw";
    memo.reset(n);
    EXPECT_FALSE(memo.fold(x, folded)) << "reset() kept an entry";
  }
}

// ---- DisplayFold ----------------------------------------------------------

enum class EngineKind {
  Aggregate,
  Compiled,  // AggregateEngine over make_compiled_sf
  Exact,
  Sequential,
  ByzAggregate,  // FaultyEngine with Byzantine agents around the above
  ByzCompiled,
  ByzExact,
  ByzSequential,
};

bool compiled_kind(EngineKind k) {
  return k == EngineKind::Compiled || k == EngineKind::ByzCompiled;
}

bool byzantine_kind(EngineKind k) {
  return k == EngineKind::ByzAggregate || k == EngineKind::ByzCompiled ||
         k == EngineKind::ByzExact || k == EngineKind::ByzSequential;
}

std::unique_ptr<Engine> make_inner(EngineKind k) {
  switch (k) {
    case EngineKind::Exact:
    case EngineKind::ByzExact:
      return std::make_unique<ExactEngine>();
    case EngineKind::Sequential:
    case EngineKind::ByzSequential:
      return std::make_unique<SequentialEngine>();
    default:
      return std::make_unique<AggregateEngine>();
  }
}

FaultPlan byzantine_plan() {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 99;
  plan.first_eligible = 1;
  plan.byzantine.fraction = 0.05;
  return plan;
}

struct FoldCase {
  std::string name;
  EngineKind kind;
  PopulationConfig pop;
  std::uint64_t h;
  unsigned lanes;
  std::uint64_t rounds = 0;  // 0: the full horizon plus three more
};

struct FoldRun {
  std::uint64_t digest = 0;
  Engine::DisplayFoldStats stats;
  std::uint64_t rounds = 0;
  // The first round whose digest differed from the recomputed one.
  std::optional<std::uint64_t> first_mismatch;
};

// Runs the case for c.rounds rounds (by default over the full horizon plus
// a few terminated rounds).  Before
// each step the test reads every agent's display from the protocol (the
// Byzantine agents' forged symbol replaces theirs), and after it compares
// the engine's digest with the chained fold over those displays.
FoldRun run_fold_case(const FoldCase& c, std::uint64_t seed) {
  const SfSchedule schedule =
      make_sf_schedule(c.pop, Holdings{c.h}, Delta{kDelta});
  std::unique_ptr<PullProtocol> protocol;
  if (compiled_kind(c.kind)) {
    protocol = make_compiled_sf(c.pop, schedule);
  } else {
    protocol = std::make_unique<SourceFilter>(c.pop, schedule);
  }
  const std::unique_ptr<Engine> inner = make_inner(c.kind);
  inner->set_compiled(compiled_kind(c.kind));
  inner->set_threads(c.lanes);
  std::optional<FaultyEngine> faulty;
  if (byzantine_kind(c.kind)) faulty.emplace(*inner, byzantine_plan());
  Engine& engine = faulty ? static_cast<Engine&>(*faulty) : *inner;

  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(seed);
  FoldRun out;
  out.rounds = c.rounds != 0 ? c.rounds : protocol->planned_rounds() + 3;
  const std::uint64_t n = c.pop.n;
  std::vector<std::uint8_t> displays(n);
  std::uint64_t expected = fnv::kOffsetBasis;
  for (std::uint64_t r = 0; r < out.rounds; ++r) {
    for (std::uint64_t i = 0; i < n; ++i) displays[i] = protocol->display(i, r);
    engine.step(*protocol, noise, Holdings{c.h}, r, rng);
    // The Byzantine set is bound at the first step and fixed thereafter.
    if (faulty) {
      for (std::uint64_t i = 0; i < n; ++i) {
        if (faulty->is_byzantine(i)) {
          displays[i] = faulty->plan().byzantine.wrong_symbol;
        }
      }
    }
    expected = fnv::hash_bytes(fnv::hash_u64(expected, r), displays);
    if (engine.replay_digest() != expected && !out.first_mismatch) {
      out.first_mismatch = r;
    }
  }
  out.digest = engine.replay_digest();
  out.stats = engine.display_fold_stats();
  return out;
}

constexpr PopulationConfig kSmallPop{.n = 250, .s1 = 1, .s0 = 0};
// perfbench's sf_h64_compiled population: three engine blocks.
constexpr PopulationConfig kBlockPop{.n = 10'000, .s1 = 100, .s0 = 0};
constexpr std::uint64_t kFoldSeed = 41;

std::vector<FoldCase> fold_cases() {
  std::vector<FoldCase> cases;
  const std::pair<EngineKind, const char*> kinds[] = {
      {EngineKind::Aggregate, "Aggregate"},
      {EngineKind::Compiled, "Compiled"},
      {EngineKind::Exact, "Exact"},
      {EngineKind::Sequential, "Sequential"},
      {EngineKind::ByzAggregate, "ByzAggregate"},
      {EngineKind::ByzCompiled, "ByzCompiled"},
      {EngineKind::ByzExact, "ByzExact"},
      {EngineKind::ByzSequential, "ByzSequential"},
  };
  for (const auto& [kind, name] : kinds) {
    // h = 1: long listening phases and a long converged tail, mostly memo
    // hits; h = n: short phases, repeats that mostly miss the memo.
    for (const std::uint64_t h : {std::uint64_t{1}, kSmallPop.n}) {
      cases.push_back({std::string(name) + "_n250_h" + std::to_string(h), kind,
                       kSmallPop, h, 1});
    }
    // Lanes only matter with more than one block; the sequential engine
    // has no lanes.  The exact engine draws n·h messages a round, so it
    // runs the listening phases and the first sub-phases only.
    if (kind == EngineKind::Sequential || kind == EngineKind::ByzSequential) {
      continue;
    }
    const bool exact = kind == EngineKind::Exact || kind == EngineKind::ByzExact;
    for (const unsigned lanes : {1u, 4u}) {
      cases.push_back({std::string(name) + "_n10000_h64_lanes" +
                           std::to_string(lanes),
                       kind, kBlockPop, 64, lanes,
                       exact ? std::uint64_t{120} : 0});
    }
  }
  return cases;
}

class DisplayFold : public ::testing::TestWithParam<FoldCase> {};

TEST_P(DisplayFold, DigestIsTheChainedFoldOfTheRecordedDisplays) {
  const FoldRun run = run_fold_case(GetParam(), kFoldSeed);
  EXPECT_FALSE(run.first_mismatch.has_value())
      << "digest differs from the byte-for-byte fold from round "
      << *run.first_mismatch;
  EXPECT_GT(run.stats.repeats, 0u) << "no round repeated its predecessor";
  EXPECT_LE(run.stats.memo_hits, run.stats.repeats);
  EXPECT_LT(run.stats.repeats, run.rounds) << "the first round cannot repeat";
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DisplayFold, ::testing::ValuesIn(fold_cases()),
    [](const ::testing::TestParamInfo<FoldCase>& param_info) {
      return param_info.param.name;
    });

TEST(DisplayFoldStats, HitHeavyAndMissHeavyRunsCountAsTheyShould) {
  // h = 1: the display vector changes a handful of times in 47,532 rounds,
  // so nearly every round repeats and, once the memo has learned the low
  // bytes, folds in O(1).
  const FoldRun h1 = run_fold_case(
      {"h1", EngineKind::Aggregate, kSmallPop, 1, 1}, kFoldSeed);
  ASSERT_FALSE(h1.first_mismatch.has_value());
  EXPECT_GT(h1.stats.repeats, h1.rounds * 99 / 100);
  EXPECT_GT(h1.stats.memo_hits, h1.rounds * 9 / 10);
  // h = n: 281 rounds; the listening phases still repeat, but no display
  // vector lasts long enough for the memo to learn most low bytes.
  const FoldRun hn = run_fold_case(
      {"hn", EngineKind::Aggregate, kSmallPop, kSmallPop.n, 1}, kFoldSeed);
  ASSERT_FALSE(hn.first_mismatch.has_value());
  EXPECT_GT(hn.stats.repeats, 0u);
  EXPECT_GT(hn.stats.repeats - hn.stats.memo_hits, 0u) << "no memo miss";
}

TEST(DisplayFoldStats, CountersAndDigestsAreEqualAtOneAndFourLanes) {
  for (const EngineKind kind :
       {EngineKind::Aggregate, EngineKind::Compiled, EngineKind::ByzAggregate,
        EngineKind::ByzCompiled}) {
    const FoldRun one =
        run_fold_case({"one", kind, kBlockPop, 64, 1}, kFoldSeed);
    const FoldRun four =
        run_fold_case({"four", kind, kBlockPop, 64, 4}, kFoldSeed);
    EXPECT_EQ(one.digest, four.digest) << static_cast<int>(kind);
    EXPECT_EQ(one.stats.repeats, four.stats.repeats) << static_cast<int>(kind);
    EXPECT_EQ(one.stats.memo_hits, four.stats.memo_hits)
        << static_cast<int>(kind);
    EXPECT_GT(one.stats.memo_hits, 0u) << static_cast<int>(kind);
  }
}

TEST(DisplayFoldStats, FreshEngineCountsNothing) {
  AggregateEngine engine;
  EXPECT_EQ(engine.display_fold_stats().repeats, 0u);
  EXPECT_EQ(engine.display_fold_stats().memo_hits, 0u);
}

TEST(DisplayFoldStats, ANewPopulationSizeStartsOver) {
  // One engine stepping two protocols of different sizes: the second one's
  // first round cannot count as a repeat of the first one's last.
  AggregateEngine engine;
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(kFoldSeed);
  SourceFilter small(kSmallPop, Holdings{1}, Delta{kDelta});
  engine.step(small, noise, Holdings{1}, 0, rng);
  engine.step(small, noise, Holdings{1}, 1, rng);
  ASSERT_EQ(engine.display_fold_stats().repeats, 1u);
  const PopulationConfig larger{.n = 300, .s1 = 1, .s0 = 0};
  SourceFilter other(larger, Holdings{1}, Delta{kDelta});
  std::uint64_t expected = engine.replay_digest();
  std::vector<std::uint8_t> displays(larger.n);
  for (std::uint64_t i = 0; i < larger.n; ++i) {
    displays[i] = other.display(i, 2);
  }
  engine.step(other, noise, Holdings{1}, 2, rng);
  expected = fnv::hash_bytes(fnv::hash_u64(expected, 2), displays);
  EXPECT_EQ(engine.replay_digest(), expected);
  EXPECT_EQ(engine.display_fold_stats().repeats, 1u);
}

// Shows whatever the test writes into `shown` and records, per agent, the
// ones it observed in its last update: the display histogram the engine
// sampled from made visible.  update() writes only its own agent's slot,
// so it may run on pool lanes.
class ScriptedDisplays final : public PullProtocol {
 public:
  explicit ScriptedDisplays(std::uint64_t n) : shown(n, 0), ones_seen(n, 0) {}
  std::size_t alphabet_size() const override { return 2; }
  std::uint64_t num_agents() const override { return shown.size(); }
  Symbol display(std::uint64_t agent, std::uint64_t) const override {
    return shown[agent];
  }
  void update(std::uint64_t agent, std::uint64_t, const SymbolCounts& obs,
              Rng&) override {
    ones_seen[agent] = obs[1];
  }
  Opinion opinion(std::uint64_t agent) const override { return shown[agent]; }

  std::uint64_t total_ones_seen() const {
    std::uint64_t total = 0;
    for (const std::uint64_t k : ones_seen) total += k;
    return total;
  }

  std::vector<Symbol> shown;
  std::vector<std::uint64_t> ones_seen;
};

TEST(DisplayFoldScript, ChangesAnywhereInTheVectorAreSeen) {
  // Three blocks; display vectors that change in the last block only, in
  // one agent, or not at all.  The channel is noiseless, so an agent
  // observes a 1 exactly when the histogram the engine sampled from counts
  // one: a reused histogram after a change would show up here, and a
  // missed change in the digest.
  constexpr std::uint64_t kN = 2 * 4096 + 100;
  constexpr std::uint64_t kH = 4;
  constexpr std::uint64_t kScriptSeed = 77;
  const auto noiseless = NoiseMatrix::uniform(2, 0.0);
  for (const int engine_id : {0, 1, 2, 3, 4}) {
    std::unique_ptr<Engine> engine;
    if (engine_id <= 1) {
      engine = std::make_unique<AggregateEngine>();
    } else if (engine_id <= 3) {
      engine = std::make_unique<ExactEngine>();
    } else {
      engine = std::make_unique<SequentialEngine>();
    }
    const unsigned lanes = engine_id == 1 || engine_id == 3 ? 4 : 1;
    engine->set_threads(lanes);
    SCOPED_TRACE("engine " + std::to_string(engine_id) + ", " +
                 std::to_string(lanes) + " lanes");
    ScriptedDisplays protocol(kN);
    Rng script(kScriptSeed);
    Rng rng(kScriptSeed + 1);
    std::uint64_t expected = fnv::kOffsetBasis;
    const auto step = [&](std::uint64_t r) {
      engine->step(protocol, noiseless, Holdings{kH}, r, rng);
      expected = fnv::hash_bytes(fnv::hash_u64(expected, r), protocol.shown);
      ASSERT_EQ(engine->replay_digest(), expected) << "round " << r;
    };
    std::uint64_t r = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
      // All zeros, twice: nobody observes a one.
      for (int k = 0; k < 2; ++k) {
        step(r++);
        ASSERT_EQ(protocol.total_ones_seen(), 0u) << "round " << r - 1;
      }
      // The last block turns to 1, twice: ones are observed.
      std::fill(protocol.shown.begin() + 2 * 4096, protocol.shown.end(),
                Symbol{1});
      for (int k = 0; k < 2; ++k) {
        step(r++);
        ASSERT_GT(protocol.total_ones_seen(), 0u) << "round " << r - 1;
      }
      std::fill(protocol.shown.begin(), protocol.shown.end(), Symbol{0});
    }
    // Random single-agent flips, often in the last agent, between repeats.
    for (int k = 0; k < 200; ++k) {
      if (script.next_below(3) != 0) {
        const std::uint64_t i =
            script.next_bool() ? kN - 1 : script.next_below(kN);
        protocol.shown[i] ^= 1;
      }
      step(r++);
    }
    EXPECT_GT(engine->display_fold_stats().repeats, 0u);
  }
}

// ---- SfOpinionCount -------------------------------------------------------

// Σ_i 1{opinion(i) == o}, one virtual call per agent.
std::uint64_t direct_count(const PullProtocol& p, Opinion o) {
  std::uint64_t count = 0;
  for (std::uint64_t i = 0; i < p.num_agents(); ++i) {
    count += p.opinion(i) == o ? 1 : 0;
  }
  return count;
}

// Steps `sf` under `engine` over its horizon plus a few terminated rounds,
// asking count_opinion() after every round; returns the first round whose
// cached count differed from the direct recount.
std::optional<std::uint64_t> first_stale_count(SourceFilter& sf,
                                               Engine& engine,
                                               std::uint64_t h) {
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  constexpr std::uint64_t kSeed = 5;
  Rng rng(kSeed);
  for (std::uint64_t r = 0; r < sf.planned_rounds() + 3; ++r) {
    engine.step(sf, noise, Holdings{h}, r, rng);
    for (const Opinion o : {Opinion{0}, Opinion{1}, Opinion{2}}) {
      if (sf.count_opinion(o) != direct_count(sf, o)) return r;
    }
  }
  return std::nullopt;
}

// Rounds at which SF's opinions can move: the end of listening and every
// sub-phase end.
std::uint64_t finish_rounds(const SourceFilter& sf) {
  std::uint64_t count = 1;
  for (std::uint64_t r = 0; r < sf.planned_rounds(); ++r) {
    count += sf.is_subphase_end(r) ? 1 : 0;
  }
  return count;
}

// Two full blocks and a ragged third, so four lanes share the bulk hook.
constexpr PopulationConfig kLanePop{.n = 2 * 4096 + 100, .s1 = 60, .s0 = 0};

TEST(SfOpinionCount, BulkHookRunsRecountOnlyAfterFinishRounds) {
  std::optional<std::uint64_t> recounts;
  for (const unsigned lanes : {1u, 4u}) {
    SourceFilter sf(kLanePop, Holdings{64}, Delta{kDelta});
    AggregateEngine engine;
    engine.set_threads(lanes);
    EXPECT_EQ(first_stale_count(sf, engine, 64), std::nullopt)
        << lanes << " lanes";
    // The first count, then one after each round that can move an opinion.
    EXPECT_EQ(sf.opinion_recounts(), 1 + finish_rounds(sf))
        << lanes << " lanes";
    if (recounts) {
      EXPECT_EQ(sf.opinion_recounts(), *recounts);
    }
    recounts = sf.opinion_recounts();
  }
}

TEST(SfOpinionCount, PerAgentUpdatesKeepTheCountExact) {
  // ExactEngine and SequentialEngine call update() agent by agent.
  for (const bool sequential : {false, true}) {
    SourceFilter sf(kSmallPop, Holdings{16}, Delta{kDelta});
    std::unique_ptr<Engine> engine;
    if (sequential) {
      engine = std::make_unique<SequentialEngine>();
    } else {
      engine = std::make_unique<ExactEngine>();
    }
    EXPECT_EQ(first_stale_count(sf, *engine, 16), std::nullopt)
        << (sequential ? "sequential" : "exact");
  }
}

TEST(SfOpinionCount, EveryFaultClassKeepsTheCountExact) {
  std::vector<std::pair<const char*, FaultPlan>> plans;
  FaultPlan byz = byzantine_plan();
  byz.byzantine.strategy = ByzantineStrategy::FlipFlop;
  plans.emplace_back("byzantine", byz);
  FaultPlan stall = FaultPlan::for_binary(1);
  stall.seed = 17;
  stall.first_eligible = 1;
  stall.stall.crash_rate = 0.1;
  stall.stall.min_rounds = 2;
  stall.stall.max_rounds = 6;
  plans.emplace_back("stall", stall);
  FaultPlan drop = FaultPlan::for_binary(1);
  drop.seed = 23;
  drop.drop.p = 0.3;
  plans.emplace_back("drop", drop);
  FaultPlan burst = FaultPlan::for_binary(1);
  burst.seed = 29;
  burst.burst.rate = 0.3;
  burst.burst.rounds = 2;
  burst.burst.delta = 0.4;
  plans.emplace_back("burst", burst);
  // h = 256: three-round sub-phases keep every run short.
  for (const auto& [name, plan] : plans) {
    for (const unsigned lanes : {1u, 4u}) {
      SourceFilter sf(kLanePop, Holdings{256}, Delta{kDelta});
      AggregateEngine inner;
      inner.set_threads(lanes);
      FaultyEngine engine(inner, plan);
      EXPECT_EQ(first_stale_count(sf, engine, 256), std::nullopt)
          << name << ", " << lanes << " lanes";
    }
  }
}

TEST(SfOpinionCount, AblationVariantsKeepTheCountExact) {
  const SfSchedule schedule =
      make_sf_schedule(kLanePop, Holdings{64}, Delta{kDelta});
  for (const unsigned lanes : {1u, 4u}) {
    constexpr std::uint64_t kInitSeed = 3;
    Rng init(kInitSeed);
    EagerSourceFilter eager(kLanePop, schedule, init);
    AlternatingSourceFilter alternating(kLanePop, schedule, init);
    for (SourceFilter* sf :
         {static_cast<SourceFilter*>(&eager),
          static_cast<SourceFilter*>(&alternating)}) {
      AggregateEngine engine;
      engine.set_threads(lanes);
      EXPECT_EQ(first_stale_count(*sf, engine, 64), std::nullopt)
          << (sf == &eager ? "eager" : "alternating") << ", " << lanes
          << " lanes";
    }
  }
}

}  // namespace
}  // namespace noisypull
