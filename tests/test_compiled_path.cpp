// Bit-identity contract of the compiled automaton fast path (DESIGN.md §13).
//
// The compiled path replaces the virtual display/update dispatch with a flat
// SoA state vector, per-signature display memo tables and a memoized
// (state id, outcome index) → edge transition table.  None of that may ever
// change a trajectory: for every protocol family (Table / SF), engine
// (AggregateEngine with one channel or per-agent channels, bare or wrapped
// in FaultyEngine), lane count and fault plan, the replay digest AND the final
// per-agent opinions must be identical to the interpreted run, which in turn
// matches the mirrored production protocol draw for draw.  These tests pin:
//   * ObservationSampler::sample_index consumes the rng exactly like
//     sample() and returns that outcome's enumeration index (cached and
//     uncached, binary and k-ary);
//   * compiled == interpreted on the same CompiledPopulation, across lanes
//     {1, 4}, engines {Aggregate, Heterogeneous};
//   * CompiledPopulation == the production protocol it mirrors
//     (SourceFilter; for table automata the interpreted run is the
//     reference);
//   * the same under FaultyEngine with zero and nonzero FaultPlans — the
//     forged/stalled/drop fallbacks route exactly the faulted agents through
//     the virtual path and nobody else's draws move;
//   * heterogeneous channel groups too small to amortize the inverse-CDF
//     table fall back per agent without disturbing the fast-path agents;
//   * compile-on-miss: no fault-free InverseCdf round reaches the virtual
//     update(), and misses compiled concurrently by several engine blocks
//     leave digests and the table telemetry (cells_compiled, table_bytes,
//     table_restarts) independent of the lane count;
//   * the row tables: outcome windows widen on both sides, tagged edges
//     resolve like CompiledEdge::resolve, SF's s1 = 1 listening phase
//     restarts its tables and a restart releases the row index, and
//     full-horizon SF stays under 1 MB;
//   * the cached opinion histogram equals the per-agent count after every
//     round (any path, lanes, fault plan, restart or Decomposition round),
//     and full-horizon SF recounts and rebuilds its sampler only where its
//     inputs change, at every lane count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "noisypull/common/fnv.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/automaton/protocol_automata.hpp"
#include "noisypull/core/schedule.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/rng/observation_cache.hpp"

namespace noisypull {

// Test-only view of a population's persistent row tables.
struct CompiledPopulationTestPeer {
  static const RowTable& table(const CompiledPopulation& pop,
                               std::size_t group, std::uint64_t signature) {
    return pop.groups_.at(group).update_tables.at(signature).rows;
  }
  // Visits every (group, signature) table.
  template <typename Visit>
  static void for_each_table(const CompiledPopulation& pop, Visit&& visit) {
    for (const auto& g : pop.groups_) {
      for (const auto& [sig, t] : g.update_tables) visit(t.rows);
    }
  }
};

namespace {

using Peer = CompiledPopulationTestPeer;

constexpr std::uint64_t kN = 48;
constexpr double kDelta = 0.2;
// s1 = 2, s0 = 1: all three factory groups (sources preferring 1, sources
// preferring 0, non-sources) are non-empty and the schedule bias stays >= 1.
constexpr PopulationConfig kPop{.n = kN, .s1 = 2, .s0 = 1};

enum class Proto { Table, Sf };

std::string proto_name(Proto p) {
  return p == Proto::Table ? "Table" : "Sf";
}

// Per-family run geometry.
struct ProtoParams {
  std::size_t d;
  std::uint64_t h;
  std::uint64_t rounds;
};

ProtoParams params_of(Proto p) {
  switch (p) {
    case Proto::Table: return {.d = 2, .h = 16, .rounds = 32};
    case Proto::Sf: {
      const SfSchedule s = make_sf_schedule(kPop, Holdings{16}, Delta{kDelta});
      return {.d = 2, .h = 16, .rounds = s.total_rounds() + 4};
    }
  }
  return {};
}

// A two-state binary table automaton with a genuinely random tie edge, so
// the compiled InverseCdf rows exercise the coin mass and not just
// deterministic targets.
std::shared_ptr<const TableAutomaton> shared_table_automaton() {
  static const auto kAutomaton = std::make_shared<const TableAutomaton>(
      2, std::vector<TableState>{
             {.show = 0, .watch_a = 0, .watch_b = 1, .if_greater = 0,
              .if_less = 1, .tie_a = 0, .tie_b = 1},
             {.show = 1, .watch_a = 0, .watch_b = 1, .if_greater = 0,
              .if_less = 1, .tie_a = 1, .tie_b = 0},
         });
  return kAutomaton;
}

// d = 3 variant: exercises the NEXCOM composition enumeration end to end
// (outcome indices, table rows, sample_index decode) instead of the binary
// h+1 ladder.
std::shared_ptr<const TableAutomaton> shared_kary_automaton() {
  static const auto kAutomaton = std::make_shared<const TableAutomaton>(
      3, std::vector<TableState>{
             {.show = 0, .watch_a = 0, .watch_b = 2, .if_greater = 0,
              .if_less = 1, .tie_a = 0, .tie_b = 2},
             {.show = 1, .watch_a = 1, .watch_b = 2, .if_greater = 1,
              .if_less = 2, .tie_a = 1, .tie_b = 0},
             {.show = 2, .watch_a = 0, .watch_b = 1, .if_greater = 2,
              .if_less = 0, .tie_a = 2, .tie_b = 1},
         });
  return kAutomaton;
}

std::unique_ptr<CompiledPopulation> make_compiled(Proto p) {
  std::unique_ptr<CompiledPopulation> pop;
  switch (p) {
    case Proto::Table:
      pop = std::make_unique<CompiledPopulation>(
          std::vector<CompiledGroup>{
              {.count = 8, .automaton = shared_table_automaton(), .initial = 1},
              {.count = kN - 8, .automaton = shared_table_automaton(),
               .initial = 0}},
          /*planned_rounds=*/0);
      break;
    case Proto::Sf:
      pop = make_compiled_sf(kPop,
                             make_sf_schedule(kPop, Holdings{16}, Delta{kDelta}));
      break;
  }
  return pop;
}

// The production protocol each compiled population mirrors.  Table
// automata have no separate production class: their reference is the
// CompiledPopulation's own virtual update(), which consumes the rng as the
// inherited InverseCdf compile() + CompiledEdge::resolve do.
std::unique_ptr<PullProtocol> make_production(Proto p) {
  switch (p) {
    case Proto::Table:
      return make_compiled(Proto::Table);
    case Proto::Sf:
      return std::make_unique<SourceFilter>(
          kPop, make_sf_schedule(kPop, Holdings{16}, Delta{kDelta}));
  }
  return nullptr;
}

// Heterogeneous = AggregateEngine over per-agent channels.
enum class Eng { Aggregate, Heterogeneous };

std::string eng_name(Eng e) {
  return e == Eng::Aggregate ? "Aggregate" : "Heterogeneous";
}

// Two channel tiers (24 + 24 agents) so the per-agent engine builds two
// sampler groups, both within the inverse-CDF amortization gate for the
// binary families.
std::unique_ptr<Engine> make_engine(Eng e, std::size_t d) {
  if (e == Eng::Aggregate) return std::make_unique<AggregateEngine>();
  std::vector<NoiseMatrix> per_agent;
  per_agent.reserve(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    per_agent.push_back(NoiseMatrix::uniform(d, i < kN / 2 ? 0.1 : kDelta));
  }
  return std::make_unique<AggregateEngine>(std::move(per_agent));
}

struct RunOut {
  std::uint64_t digest = 0;
  std::vector<Opinion> opinions;

  bool operator==(const RunOut&) const = default;
};

RunOut run(PullProtocol& protocol, Engine& engine, const ProtoParams& pp,
           std::uint64_t seed) {
  const auto noise = NoiseMatrix::uniform(pp.d, kDelta);
  Rng rng(seed);
  for (std::uint64_t r = 0; r < pp.rounds; ++r) {
    engine.step(protocol, noise, Holdings{pp.h}, r, rng);
  }
  RunOut out;
  out.digest = engine.replay_digest();
  out.opinions.resize(protocol.num_agents());
  for (std::uint64_t i = 0; i < protocol.num_agents(); ++i) {
    out.opinions[i] = protocol.opinion(i);
  }
  return out;
}

FaultPlan nonzero_plan(bool with_drop) {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 99;
  plan.first_eligible = kPop.s0 + kPop.s1;  // sources stay honest
  plan.byzantine.fraction = 0.25;
  if (with_drop) plan.drop.p = 0.2;
  plan.stall.crash_rate = 0.05;
  plan.burst.rate = 0.1;
  plan.burst.rounds = 2;
  // Uniform burst level, capped at 1/|alphabet| by FaultPlan::validate.
  plan.burst.delta = 0.5;
  return plan;
}

// ---------------------------------------------------------------------------
// sample_index: same draws, same outcome, by index.

TEST(CompiledSampler, SampleIndexMatchesSampleDrawForDraw) {
  for (std::size_t d : {std::size_t{2}, std::size_t{3}}) {
    const std::vector<double> weights =
        d == 2 ? std::vector<double>{0.3, 0.7}
               : std::vector<double>{0.2, 0.5, 0.3};
    // h = 6: the linear partial-sum count (<= 64 outcomes); the larger h
    // (81 and 91 outcomes) takes the binary search.
    const std::uint64_t big_h = d == 2 ? 80 : 12;
    for (const std::uint64_t h : {std::uint64_t{6}, big_h}) {
      for (bool cache : {true, false}) {
        ObservationSampler sampler;
        sampler.reset(h, weights, cache);
        ASSERT_EQ(sampler.mode(), ObservationSampler::Mode::InverseCdf);

        Rng by_index(17);
        Rng by_counts(17);
        SymbolCounts obs(d);
        SymbolCounts decoded(d);
        for (int draw = 0; draw < 256; ++draw) {
          const std::uint64_t index = sampler.sample_index(by_index);
          sampler.sample(by_counts, obs);
          ASSERT_LT(index, sampler.num_outcomes());
          sampler.outcome_counts(index, decoded);
          for (std::size_t s = 0; s < d; ++s) {
            ASSERT_EQ(decoded[static_cast<Symbol>(s)],
                      obs[static_cast<Symbol>(s)])
                << "d=" << d << " h=" << h << " cache=" << cache
                << " draw=" << draw;
          }
        }
        // Identical rng consumption: the streams stay in lockstep.
        EXPECT_EQ(by_index.next(), by_counts.next());
      }
    }
  }
}

TEST(CompiledSampler, OutcomeCountsDecodesTheCanonicalEnumeration) {
  for (std::size_t d : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const std::vector<double> weights(d, 1.0);
    ObservationSampler cached;
    ObservationSampler uncached;
    cached.reset(/*h=*/5, weights, true);
    uncached.reset(/*h=*/5, weights, false);
    ASSERT_EQ(cached.num_outcomes(), uncached.num_outcomes());
    std::set<std::vector<std::uint64_t>> seen;
    SymbolCounts a(d);
    SymbolCounts b(d);
    for (std::uint64_t k = 0; k < cached.num_outcomes(); ++k) {
      cached.outcome_counts(k, a);
      uncached.outcome_counts(k, b);
      std::vector<std::uint64_t> v(a.c.begin(), a.c.begin() + d);
      EXPECT_EQ(v, std::vector<std::uint64_t>(b.c.begin(), b.c.begin() + d))
          << "d=" << d << " k=" << k;
      EXPECT_EQ(a.total(), 5u);
      seen.insert(v);
    }
    EXPECT_EQ(seen.size(), cached.num_outcomes()) << "d=" << d;
    cached.outcome_counts(0, a);  // NEXCOM starts at (h, 0, ..., 0)
    EXPECT_EQ(a[0], 5u);
    cached.outcome_counts(cached.num_outcomes() - 1, a);  // ends at (0, ..., h)
    EXPECT_EQ(a[d - 1], 5u);
  }
}

// ---------------------------------------------------------------------------
// The (protocol family × engine) bit-identity matrix.

struct Case {
  Proto proto;
  Eng eng;
};

class CompiledPath : public ::testing::TestWithParam<Case> {};

// Lanes only: the engines no longer have a sampler-cache toggle (the name is
// kept for continuity; the CompiledSampler tests pin cached == uncached).
TEST_P(CompiledPath, CompiledMatchesInterpretedAcrossLanesAndCache) {
  const auto [proto, eng] = GetParam();
  const ProtoParams pp = params_of(proto);

  const auto ref_protocol = make_compiled(proto);
  const auto ref_engine = make_engine(eng, pp.d);
  const RunOut reference = run(*ref_protocol, *ref_engine, pp, 7);
  ASSERT_NE(reference.digest, fnv::kOffsetBasis) << "digest absorbed nothing";

  for (unsigned lanes : {1u, 4u}) {
    const auto protocol = make_compiled(proto);
    const auto engine = make_engine(eng, pp.d);
    engine->set_compiled(true);
    engine->set_threads(lanes);
    EXPECT_EQ(run(*protocol, *engine, pp, 7), reference) << lanes << " lanes";
  }
}

TEST_P(CompiledPath, CompiledMatchesTheProductionProtocol) {
  const auto [proto, eng] = GetParam();
  const ProtoParams pp = params_of(proto);

  const auto production = make_production(proto);
  const auto prod_engine = make_engine(eng, pp.d);
  const RunOut reference = run(*production, *prod_engine, pp, 7);

  const auto compiled = make_compiled(proto);
  const auto engine = make_engine(eng, pp.d);
  engine->set_compiled(true);
  engine->set_threads(4);
  EXPECT_EQ(run(*compiled, *engine, pp, 7), reference);
}

TEST_P(CompiledPath, FaultPlanMatrixPreservesBitIdentity) {
  const auto [proto, eng] = GetParam();
  const ProtoParams pp = params_of(proto);

  // Zero plan: FaultyEngine is a transparent pass-through and the fast path
  // must stay engaged through it.  Nonzero plans route forged / stalled /
  // dropped agents through the per-agent virtual fallback; the drop-free
  // variant keeps the fast path live for the honest majority.
  struct PlanCase {
    const char* name;
    FaultPlan plan;
  };
  const PlanCase plans[] = {
      {"zero", FaultPlan{}},
      {"byz+stall", nonzero_plan(/*with_drop=*/false)},
      {"byz+stall+drop", nonzero_plan(/*with_drop=*/true)},
  };

  for (const PlanCase& pc : plans) {
    const auto ref_protocol = make_compiled(proto);
    const auto ref_inner = make_engine(eng, pp.d);
    FaultyEngine ref_engine(*ref_inner, pc.plan);
    const RunOut reference = run(*ref_protocol, ref_engine, pp, 7);

    for (unsigned lanes : {1u, 4u}) {
      const auto protocol = make_compiled(proto);
      const auto inner = make_engine(eng, pp.d);
      FaultyEngine faulty(*inner, pc.plan);
      faulty.set_compiled(true);
      faulty.set_threads(lanes);
      EXPECT_EQ(run(*protocol, faulty, pp, 7), reference)
          << pc.name << ", " << lanes << " lanes";
    }

    // And production-protocol equivalence under the same faults.
    const auto production = make_production(proto);
    const auto prod_inner = make_engine(eng, pp.d);
    FaultyEngine prod_engine(*prod_inner, pc.plan);
    EXPECT_EQ(run(*production, prod_engine, pp, 7), reference)
        << pc.name << " (production)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CompiledPath,
    ::testing::Values(Case{Proto::Table, Eng::Aggregate},
                      Case{Proto::Table, Eng::Heterogeneous},
                      Case{Proto::Sf, Eng::Aggregate},
                      Case{Proto::Sf, Eng::Heterogeneous}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return proto_name(param_info.param.proto) +
             eng_name(param_info.param.eng);
    });

// ---------------------------------------------------------------------------
// Channel groups below the amortization gate fall back per agent.

TEST(CompiledPathEdge, UndersizedHeterogeneousGroupFallsBackPerAgent) {
  // 44 + 4 split at h = 16, d = 2: the big tier's 17-outcome space passes
  // the gate (17 <= 44), the small tier's does not (17 > 4), so its four
  // agents run the virtual fallback while the rest stay compiled.
  const ProtoParams pp = params_of(Proto::Sf);
  const auto make_split_engine = [&] {
    std::vector<NoiseMatrix> per_agent;
    for (std::uint64_t i = 0; i < kN; ++i) {
      per_agent.push_back(
          NoiseMatrix::uniform(pp.d, i < kN - 4 ? kDelta : 0.1));
    }
    return std::make_unique<AggregateEngine>(std::move(per_agent));
  };

  const auto ref_protocol = make_compiled(Proto::Sf);
  const auto ref_engine = make_split_engine();
  const RunOut reference = run(*ref_protocol, *ref_engine, pp, 11);

  const auto protocol = make_compiled(Proto::Sf);
  const auto engine = make_split_engine();
  engine->set_compiled(true);
  engine->set_threads(4);
  EXPECT_EQ(run(*protocol, *engine, pp, 11), reference);
}

// ---------------------------------------------------------------------------
// Compile-on-miss: an InverseCdf round without faults never reaches the
// virtual update().

// Forwarding decorator that counts virtual update() calls while passing
// compiled_access() through, so the engine still drives the inner
// population's fast path directly.
class CountingProtocol final : public PullProtocol {
 public:
  explicit CountingProtocol(PullProtocol& inner) : inner_(inner) {}
  std::size_t alphabet_size() const override { return inner_.alphabet_size(); }
  std::uint64_t num_agents() const override { return inner_.num_agents(); }
  Symbol display(std::uint64_t agent, std::uint64_t round) const override {
    return inner_.display(agent, round);
  }
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override {
    updates_.fetch_add(1, std::memory_order_relaxed);
    inner_.update(agent, round, obs, rng);
  }
  Opinion opinion(std::uint64_t agent) const override {
    return inner_.opinion(agent);
  }
  std::uint64_t planned_rounds() const override {
    return inner_.planned_rounds();
  }
  CompiledAccess compiled_access() override {
    return inner_.compiled_access();
  }
  std::uint64_t virtual_updates() const {
    return updates_.load(std::memory_order_relaxed);
  }

 private:
  PullProtocol& inner_;
  std::atomic<std::uint64_t> updates_{0};
};

TEST(CompiledPathEdge, InverseCdfRoundsMakeNoVirtualUpdates) {
  for (Proto proto : {Proto::Table, Proto::Sf}) {
    const ProtoParams pp = params_of(proto);
    const auto reference_pop = make_compiled(proto);
    AggregateEngine reference_engine;
    const RunOut reference = run(*reference_pop, reference_engine, pp, 41);

    const auto pop = make_compiled(proto);
    CountingProtocol counted(*pop);
    AggregateEngine engine;
    engine.set_compiled(true);
    const RunOut got = run(counted, engine, pp, 41);
    EXPECT_EQ(got, reference) << proto_name(proto);
    EXPECT_EQ(counted.virtual_updates(), 0u) << proto_name(proto);
    EXPECT_GT(pop->cells_compiled(), 0u) << proto_name(proto);
  }
}

// ---------------------------------------------------------------------------
// Several engine blocks: misses compile concurrently into per-block
// journals.  Digests, opinions and the deterministic table telemetry must
// not depend on the lane count or on a pass-through FaultyEngine, and
// stall/drop plans must keep identity with the interpreted run.

constexpr std::uint64_t kBigN = 3 * 4096 + 517;  // four blocks, one ragged
constexpr PopulationConfig kBigPop{.n = kBigN, .s1 = 40, .s0 = 12};

// A short full SF schedule (listening, boosting, terminated tail) so the
// run crosses every update signature in a few dozen rounds.
constexpr SfSchedule kBigSchedule{.h = 8,
                                  .m = 8,
                                  .phase_rounds = 4,
                                  .w = 8,
                                  .subphase_rounds = 3,
                                  .num_subphases = 4,
                                  .final_rounds = 4};

struct BigCase {
  std::unique_ptr<CompiledPopulation> pop;
  ProtoParams pp;
};

BigCase make_big_sf() {
  return {make_compiled_sf(kBigPop, kBigSchedule),
          {.d = 2, .h = 8, .rounds = kBigSchedule.total_rounds() + 2}};
}

FaultPlan big_plan(bool with_drop) {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 5;
  plan.first_eligible = kBigPop.s0 + kBigPop.s1;
  plan.stall.crash_rate = 0.05;
  if (with_drop) plan.drop.p = 0.2;
  return plan;
}

struct BigOut {
  RunOut run;
  std::uint64_t cells_compiled = 0;
  std::uint64_t table_bytes = 0;
  bool operator==(const BigOut&) const = default;
};

BigOut run_big(bool compiled, unsigned lanes, const FaultPlan* plan) {
  BigCase c = make_big_sf();
  AggregateEngine inner;
  std::unique_ptr<FaultyEngine> faulty;
  Engine* engine = &inner;
  if (plan != nullptr) {
    faulty = std::make_unique<FaultyEngine>(inner, *plan);
    engine = faulty.get();
  }
  engine->set_compiled(compiled);
  engine->set_threads(lanes);
  BigOut out;
  out.run = run(*c.pop, *engine, c.pp, 77);
  out.cells_compiled = c.pop->cells_compiled();
  out.table_bytes = c.pop->table_bytes();
  return out;
}

TEST(CompiledPathEdge, ConcurrentMissesKeepIdentityAcrossLanes) {
  const BigOut reference = run_big(/*compiled=*/false, 1, nullptr);
  const BigOut base = run_big(/*compiled=*/true, 1, nullptr);
  EXPECT_EQ(base.run, reference.run);
  EXPECT_GT(base.cells_compiled, 0u);
  EXPECT_GT(base.table_bytes, 0u);
  const FaultPlan zero{};
  for (unsigned lanes : {1u, 2u, 4u}) {
    EXPECT_EQ(run_big(true, lanes, nullptr), base) << lanes << " lanes";
    EXPECT_EQ(run_big(true, lanes, &zero), base)
        << "zero plan, " << lanes << " lanes";
  }
  for (bool with_drop : {false, true}) {
    const FaultPlan plan = big_plan(with_drop);
    const RunOut faulted = run_big(false, 1, &plan).run;
    for (unsigned lanes : {1u, 2u, 4u}) {
      EXPECT_EQ(run_big(true, lanes, &plan).run, faulted)
          << (with_drop ? "stall+drop, " : "stall, ") << lanes << " lanes";
    }
  }
}

// SF's listening phase at s1 = 1, δ = 0.2 is long, and its balances keep
// spreading, so agents keep reaching cells no earlier round realized.  Its
// tables start over at kBytesPerAgent bytes per agent instead of keeping
// one cell per agent-round.
constexpr PopulationConfig kGridPop{.n = 500, .s1 = 1, .s0 = 0};

// The storage of the largest (group, signature) table.
std::uint64_t largest_table_bytes(const CompiledPopulation& pop) {
  std::uint64_t largest = 0;
  Peer::for_each_table(pop, [&](const RowTable& t) {
    largest = std::max<std::uint64_t>(largest, t.bytes());
  });
  return largest;
}

TEST(CompiledPathEdge, FreshStateTablesStayBounded) {
  const SfSchedule schedule =
      make_sf_schedule(kGridPop, Holdings{64}, Delta{kDelta});
  const ProtoParams pp{.d = 2, .h = 64, .rounds = schedule.total_rounds()};
  const auto ref_protocol = make_compiled_sf(kGridPop, schedule);
  AggregateEngine ref_engine;
  const RunOut reference = run(*ref_protocol, ref_engine, pp, 13);

  const auto pop = make_compiled_sf(kGridPop, schedule);
  AggregateEngine engine;
  engine.set_compiled(true);
  const auto noise = NoiseMatrix::uniform(pp.d, kDelta);
  Rng rng(13);
  std::uint64_t peak = 0;
  for (std::uint64_t r = 0; r < pp.rounds; ++r) {
    engine.step(*pop, noise, Holdings{pp.h}, r, rng);
    peak = std::max(peak, largest_table_bytes(*pop));
  }
  EXPECT_EQ(engine.replay_digest(), reference.digest);
  for (std::uint64_t i = 0; i < kGridPop.n; ++i) {
    EXPECT_EQ(pop->opinion(i), reference.opinions[i]) << i;
  }
  EXPECT_GE(pop->table_restarts(), 2u);
  // O(n) bytes per table at every round: a table enters each round below
  // its cap, one round's new cells add a few dozen bytes per agent, and
  // its vectors are at most twice as large as their contents.  Summed over
  // SF's several signatures the tables may exceed the bound.
  EXPECT_LE(peak, 2 * CompiledPopulation::kBytesPerAgent * kGridPop.n);
}

// ---------------------------------------------------------------------------
// The cached opinion histogram: count_opinion() answers from it and
// recounts only after a round that could have changed an opinion.  Held to
// the per-agent opinion() loop after every round.

// Agents per opinion, asking each agent: the reference the cache is held
// to.  Every protocol here has binary opinions.
std::array<std::uint64_t, 2> per_agent_counts(const PullProtocol& protocol) {
  std::array<std::uint64_t, 2> counts{};
  for (std::uint64_t i = 0; i < protocol.num_agents(); ++i) {
    ++counts.at(protocol.opinion(i));
  }
  return counts;
}

// count_opinion() against the per-agent loop for both opinions.
void expect_counts_exact(const CompiledPopulation& pop, const std::string& at) {
  const std::array<std::uint64_t, 2> want = per_agent_counts(pop);
  for (const Opinion o : {Opinion{0}, Opinion{1}}) {
    EXPECT_EQ(pop.count_opinion(o), want[o]) << at << ", opinion " << int{o};
  }
}

enum class CountPlan { Clean, ByzDrop, Crash };

std::string count_plan_name(CountPlan p) {
  switch (p) {
    case CountPlan::Clean: return "clean";
    case CountPlan::ByzDrop: return "byz+drop";
    case CountPlan::Crash: return "crash";
  }
  return "?";
}

FaultPlan make_count_plan(CountPlan kind) {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 17;
  plan.first_eligible = kBigPop.s0 + kBigPop.s1;
  if (kind == CountPlan::ByzDrop) {
    plan.byzantine.fraction = 0.25;
    plan.drop.p = 0.2;
  } else {
    plan.stall.crash_rate = 0.05;
  }
  return plan;
}

// The big SF case (all its rounds) and a four-block Table population.
BigCase make_count_case(Proto p) {
  if (p == Proto::Sf) return make_big_sf();
  const auto automaton = shared_table_automaton();
  return {std::make_unique<CompiledPopulation>(
              std::vector<CompiledGroup>{
                  {.count = 400, .automaton = automaton, .initial = 1},
                  {.count = kBigN - 400, .automaton = automaton,
                   .initial = 0}},
              /*planned_rounds=*/0),
          {.d = 2, .h = 16, .rounds = 12}};
}

// Checks the count after every round; returns the per-round count of 1s.
std::vector<std::uint64_t> counted_run(Proto proto, bool compiled,
                                       unsigned lanes, CountPlan kind) {
  BigCase c = make_count_case(proto);
  AggregateEngine inner;
  const FaultPlan plan = make_count_plan(kind);
  FaultyEngine faulty(inner, plan);
  Engine& engine = kind == CountPlan::Clean ? static_cast<Engine&>(inner)
                                            : static_cast<Engine&>(faulty);
  engine.set_compiled(compiled);
  engine.set_threads(lanes);
  const auto noise = NoiseMatrix::uniform(c.pp.d, kDelta);
  Rng rng(53);
  std::vector<std::uint64_t> ones;
  for (std::uint64_t r = 0; r < c.pp.rounds; ++r) {
    engine.step(*c.pop, noise, Holdings{c.pp.h}, r, rng);
    expect_counts_exact(*c.pop, "round " + std::to_string(r));
    ones.push_back(c.pop->count_opinion(1));
  }
  return ones;
}

// Every (protocol, compiled, lanes, plan) combination counts exactly, and
// the per-round counts do not depend on the path or the lane count.
TEST(CompiledPathEdge, CountOpinionMatchesPerAgentOpinions) {
  for (const Proto proto : {Proto::Table, Proto::Sf}) {
    for (const CountPlan kind :
         {CountPlan::Clean, CountPlan::ByzDrop, CountPlan::Crash}) {
      std::vector<std::uint64_t> reference;
      for (const bool compiled : {false, true}) {
        for (const unsigned lanes : {1u, 4u}) {
          SCOPED_TRACE(proto_name(proto) + ", " + count_plan_name(kind) +
                       (compiled ? ", compiled, " : ", interpreted, ") +
                       std::to_string(lanes) + " lanes");
          const std::vector<std::uint64_t> ones =
              counted_run(proto, compiled, lanes, kind);
          if (reference.empty()) reference = ones;
          EXPECT_EQ(ones, reference);
        }
      }
    }
  }
}

// SF's s1 = 1 listening phase at four blocks, h = 256: its tables start
// over several times within the first 400 rounds (three times at seed 29,
// the first at round 100).  Shared by the restart tests below.
constexpr PopulationConfig kBigGridPop{.n = kBigN, .s1 = 1, .s0 = 0};
constexpr std::uint64_t kBigGridH = 256;
constexpr std::uint64_t kBigGridRounds = 400;

std::unique_ptr<CompiledPopulation> make_big_grid_sf() {
  return make_compiled_sf(
      kBigGridPop,
      make_sf_schedule(kBigGridPop, Holdings{kBigGridH}, Delta{kDelta}));
}

// The rounds right after a restart are counted like any other.
TEST(CompiledPathCount, CountStaysExactAcrossTableRestarts) {
  for (const unsigned lanes : {1u, 4u}) {
    const auto pop = make_big_grid_sf();
    AggregateEngine engine;
    engine.set_compiled(true);
    engine.set_threads(lanes);
    const auto noise = NoiseMatrix::uniform(2, kDelta);
    Rng rng(29);
    std::uint64_t restart_rounds = 0;
    for (std::uint64_t r = 0; r < kBigGridRounds; ++r) {
      const std::uint64_t restarts = pop->table_restarts();
      engine.step(*pop, noise, Holdings{kBigGridH}, r, rng);
      if (pop->table_restarts() > restarts) ++restart_rounds;
      expect_counts_exact(*pop, "round " + std::to_string(r) + ", " +
                                    std::to_string(lanes) + " lanes");
    }
    EXPECT_GE(restart_rounds, 2u) << lanes << " lanes";
  }
}

// A round whose sampler falls back to Decomposition takes the virtual
// update() path for every agent and never opens an update phase.  Here it
// is the SF round ending listening, where opinions change — and the only
// round of its signature, so no table ever holds its cells: update() alone
// must invalidate the cached count.
TEST(CompiledPathCount, DecompositionRoundInvalidatesTheCount) {
  const SfSchedule schedule =
      make_sf_schedule(kPop, Holdings{16}, Delta{kDelta});
  const std::uint64_t listening_end = schedule.boosting_start() - 1;
  const auto pop = make_compiled(Proto::Sf);
  AggregateEngine engine;
  engine.set_compiled(true);
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(61);
  for (std::uint64_t r = 0; r < schedule.total_rounds(); ++r) {
    const std::uint64_t before = pop->count_opinion(1);
    const std::uint64_t recounts = pop->opinion_recounts();
    // h = 64: 65 outcomes over 48 draws fails the amortization gate.
    const std::uint64_t h = r == listening_end ? 64 : 16;
    engine.step(*pop, noise, Holdings{h}, r, rng);
    expect_counts_exact(*pop, "round " + std::to_string(r));
    if (r == listening_end) {
      EXPECT_EQ(pop->opinion_recounts(), recounts + 1);
      EXPECT_NE(pop->count_opinion(1), before)
          << "the listening end moved no opinion: the check has no teeth";
    }
  }
}

// Telemetry of the skipped work at perfbench's sf_h64_compiled
// configuration, full horizon.  The count is recomputed only for the first
// call and after the rounds that end listening (update signature 2) or a
// boosting sub-phase (4), the only SF rounds whose cells change an opinion.
// The sampler rebuilds only when the display histogram (its one varying
// input here) changes.  Both counts are lane-invariant.
TEST(CompiledPathCount, FullHorizonSfRecountsAndRebuildsOnlyOnChange) {
  constexpr PopulationConfig pop{.n = 10'000, .s1 = 100, .s0 = 0};
  const SfSchedule schedule = make_sf_schedule(pop, Holdings{64}, Delta{0.2});
  struct Telemetry {
    std::uint64_t recounts = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t histogram_changes = 0;
    std::uint64_t digest = 0;
    bool operator==(const Telemetry&) const = default;
  };
  // The display histograms are tallied (one virtual display() per agent
  // and round) only when `tally` is set; they are a function of the
  // trajectory, which the digest pins across lanes.
  const auto run_at = [&](unsigned lanes, bool tally) {
    const auto compiled = make_compiled_sf(pop, schedule);
    AggregateEngine engine;
    engine.set_compiled(true);
    engine.set_threads(lanes);
    const auto noise = NoiseMatrix::uniform(2, 0.2);
    Rng rng(21);
    Telemetry t;
    std::array<std::uint64_t, 2> previous{};
    for (std::uint64_t r = 0; r < compiled->planned_rounds(); ++r) {
      if (tally) {
        std::array<std::uint64_t, 2> histogram{};
        for (std::uint64_t i = 0; i < pop.n; ++i) {
          ++histogram.at(compiled->display(i, r));
        }
        if (r == 0 || histogram != previous) ++t.histogram_changes;
        previous = histogram;
      }
      engine.step(*compiled, noise, Holdings{64}, r, rng);
      // Both opinions, as a caller checking either side would.
      const std::uint64_t ones = compiled->count_opinion(1);
      EXPECT_EQ(ones + compiled->count_opinion(0), pop.n);
    }
    EXPECT_EQ(compiled->count_opinion(pop.correct_opinion()), pop.n);
    expect_counts_exact(*compiled, "end of the horizon");
    t.recounts = compiled->opinion_recounts();
    t.rebuilds = engine.sampler_rebuilds();
    t.digest = engine.replay_digest();
    return t;
  };

  const SfAutomaton probe(schedule, /*is_source=*/false, Opinion{0});
  std::uint64_t changing_rounds = 0;
  for (std::uint64_t r = 0; r < schedule.total_rounds(); ++r) {
    const std::uint64_t sig = probe.update_signature(r);
    if (sig == 2 || sig == 4) ++changing_rounds;
  }
  Telemetry one = run_at(1, /*tally=*/true);
  EXPECT_EQ(one.recounts, 1 + changing_rounds);
  EXPECT_EQ(one.recounts, 96u);  // of 1174 count_opinion() calls in run()
  EXPECT_GT(one.rebuilds, 0u);
  EXPECT_LE(one.rebuilds, one.histogram_changes);
  EXPECT_LT(one.histogram_changes, schedule.total_rounds());
  one.histogram_changes = 0;
  EXPECT_EQ(run_at(4, /*tally=*/false), one);
}

// ---------------------------------------------------------------------------
// Row tables: windows, tagged edges, restarts and concurrent merges.

// One agent per round, each still in its initial state when it updates:
// apply() must land where CompiledEdge::resolve lands on the same rng and
// consume the same draws, whether the cell hits or compiles on a miss.
struct OneAgentRounds {
  CompiledPopulation& pop;
  const AgentAutomaton& automaton;
  const ObservationSampler& sampler;
  AutomatonState from = 0;
  std::uint64_t round = 0;
  std::uint64_t agent = 0;

  AutomatonState apply(std::uint64_t outcome) {
    pop.begin_update_round(round, sampler.num_outcomes(), 1);
    SymbolCounts obs(automaton.alphabet_size());
    sampler.outcome_counts(outcome, obs);
    const CompiledEdge edge = automaton.compile(from, round, obs);
    Rng got(500 + agent);
    Rng want(500 + agent);
    pop.apply(0, agent, sampler, outcome, got);
    const AutomatonState expected = edge.resolve(want);
    EXPECT_EQ(pop.state(agent), expected)
        << "agent " << agent << ", outcome " << outcome;
    EXPECT_EQ(got.next(), want.next()) << "agent " << agent;
    pop.end_update_round();
    ++agent;
    return expected;
  }
};

TEST(CompiledPathRows, WindowGrowsBelowAndAboveItsFirstOutcome) {
  const auto automaton = shared_table_automaton();
  CompiledPopulation pop(
      std::vector<CompiledGroup>{
          {.count = 16, .automaton = automaton, .initial = 0}},
      /*planned_rounds=*/0);
  ObservationSampler sampler;
  sampler.reset(/*h=*/16, std::vector<double>{0.5, 0.5}, /*cache=*/true);
  ASSERT_EQ(sampler.num_outcomes(), 17u);
  OneAgentRounds rounds{.pop = pop, .automaton = *automaton,
                        .sampler = sampler};
  const auto window = [&] { return Peer::table(pop, 0, 0).row(0); };

  rounds.apply(8);
  EXPECT_EQ(window().lo, 8u);
  EXPECT_EQ(window().width, 1u);
  rounds.apply(3);  // below the first realized outcome
  EXPECT_LE(window().lo, 3u);
  EXPECT_GE(window().lo + window().width, 9u);
  rounds.apply(14);  // above it
  EXPECT_LE(window().lo, 3u);
  EXPECT_GE(window().lo + window().width, 15u);
  EXPECT_EQ(pop.cells_compiled(), 3u);

  // The realized cells survive both widenings: tagged (table automata
  // compile to inverse-CDF edges) and hit without compiling again.
  for (const std::uint64_t o : {8u, 3u, 14u}) {
    const std::uint32_t e =
        RowTable::find(Peer::table(pop, 0, 0).view(), 0, o);
    EXPECT_GE(e, EdgePool::kEdgeTag) << o;
    EXPECT_NE(e, EdgePool::kMissing) << o;
    rounds.apply(o);
  }
  EXPECT_EQ(pop.cells_compiled(), 3u);

  // An outcome inside the window but never realized is still a miss; it
  // compiles into the window without widening it.
  const RowTable::Row before = window();
  ASSERT_EQ(RowTable::find(Peer::table(pop, 0, 0).view(), 0, 5),
            EdgePool::kMissing);
  rounds.apply(5);
  EXPECT_EQ(pop.cells_compiled(), 4u);
  EXPECT_EQ(window().lo, before.lo);
  EXPECT_EQ(window().width, before.width);
}

// Runs 64 agents, all in state 0, through the first cell at `round` whose
// compiled edge satisfies `wanted`: the first agent compiles it on a miss,
// the rest hit its tagged row entry.
template <typename Wanted>
void expect_tagged_cell_resolves_like_edge(
    const std::shared_ptr<const AgentAutomaton>& automaton,
    std::uint64_t round, std::uint64_t h, Wanted wanted, const char* name) {
  const std::size_t d = automaton->alphabet_size();
  ObservationSampler sampler;
  sampler.reset(h, std::vector<double>(d, 1.0), /*cache=*/true);
  SymbolCounts obs(d);
  std::uint64_t outcome = 0;
  for (; outcome < sampler.num_outcomes(); ++outcome) {
    sampler.outcome_counts(outcome, obs);
    if (wanted(automaton->compile(0, round, obs))) break;
  }
  ASSERT_LT(outcome, sampler.num_outcomes()) << name << ": no such cell";

  constexpr std::uint64_t kAgents = 64;
  CompiledPopulation pop(
      std::vector<CompiledGroup>{
          {.count = kAgents, .automaton = automaton, .initial = 0}},
      /*planned_rounds=*/0);
  OneAgentRounds rounds{.pop = pop, .automaton = *automaton,
                        .sampler = sampler, .round = round};
  std::set<AutomatonState> landed;
  for (std::uint64_t i = 0; i < kAgents; ++i) {
    landed.insert(rounds.apply(outcome));
  }
  EXPECT_EQ(pop.cells_compiled(), 1u) << name;  // one miss, then hits
  const std::uint32_t e = RowTable::find(
      Peer::table(pop, 0, automaton->update_signature(round)).view(), 0,
      outcome);
  EXPECT_GE(e, EdgePool::kEdgeTag) << name;
  EXPECT_NE(e, EdgePool::kMissing) << name;
  EXPECT_GT(landed.size(), 1u) << name << ": only one side of the coin";
}

TEST(CompiledPathRows, TaggedEdgesResolveLikeCompiledEdge) {
  // Coin: a non-source SF agent with balance 0 ties at the end of
  // listening when it sees no zeros.
  const auto sf = std::make_shared<const SfAutomaton>(
      kBigSchedule, /*is_source=*/false, Opinion{0});
  expect_tagged_cell_resolves_like_edge(
      sf, kBigSchedule.boosting_start() - 1, kBigSchedule.h,
      [](const CompiledEdge& e) { return e.kind == CompiledEdge::Kind::Coin; },
      "Coin");
  // InverseCdf: TableAutomaton's default compile, at a tie (a two-entry
  // law).
  expect_tagged_cell_resolves_like_edge(
      shared_table_automaton(), 0, 16,
      [](const CompiledEdge& e) {
        return e.kind == CompiledEdge::Kind::InverseCdf && e.law.size() == 2;
      },
      "InverseCdf");
}

struct RestartOut {
  std::uint64_t digest = 0;
  std::uint64_t cells_compiled = 0;
  std::uint64_t table_bytes = 0;
  std::uint64_t table_restarts = 0;
  bool operator==(const RestartOut&) const = default;
};

// SF's s1 = 1 listening phase at four blocks (kBigGridPop): its tables
// restart several times within 400 rounds.  Listening displays do not
// depend on the balances, so the digest pins little here; the table
// telemetry does, and FreshStateTablesStayBounded carries restarted tables
// into boosting, where displays and opinions read them.
RestartOut run_big_grid_sf(bool compiled, unsigned lanes,
                           std::uint64_t* peak_bytes) {
  const auto pop = make_big_grid_sf();
  AggregateEngine engine;
  engine.set_compiled(compiled);
  engine.set_threads(lanes);
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(29);
  std::uint64_t restarts = 0;
  std::uint64_t bytes = 0;
  for (std::uint64_t r = 0; r < kBigGridRounds; ++r) {
    engine.step(*pop, noise, Holdings{kBigGridH}, r, rng);
    // A restart frees the table's storage, row index included.
    if (pop->table_restarts() > restarts) {
      EXPECT_LT(pop->table_bytes(), bytes / 2) << "round " << r;
    }
    restarts = pop->table_restarts();
    bytes = pop->table_bytes();
    if (peak_bytes != nullptr) {
      *peak_bytes = std::max(*peak_bytes, largest_table_bytes(*pop));
    }
  }
  if (compiled) {
    // The restarts released the index: some table's rows start past the
    // fresh agent's state, which no longer has one there.
    std::uint64_t released = 0;
    Peer::for_each_table(*pop, [&](const RowTable& t) {
      if (t.base() == 0) return;
      ++released;
      EXPECT_EQ(t.row(0).width, 0u);
    });
    EXPECT_GT(released, 0u);
  }
  return {engine.replay_digest(), pop->cells_compiled(), pop->table_bytes(),
          pop->table_restarts()};
}

TEST(CompiledPathRows, RestartReleasesTheRowIndexAndRefillsBitIdentically) {
  const RestartOut interpreted = run_big_grid_sf(false, 1, nullptr);
  std::uint64_t peak = 0;
  const RestartOut base = run_big_grid_sf(true, 1, &peak);
  EXPECT_EQ(base.digest, interpreted.digest);
  EXPECT_GE(base.table_restarts, 2u);
  EXPECT_LE(peak, 2 * CompiledPopulation::kBytesPerAgent * kBigN);
  // Cap checks, restart points and byte counts are functions of the
  // trajectory, so they match at every lane count.
  for (unsigned lanes : {2u, 4u}) {
    EXPECT_EQ(run_big_grid_sf(true, lanes, nullptr), base)
        << lanes << " lanes";
  }
}

// Every block compiles the same table cells in round 0; the merge keeps
// one per (state, outcome) whichever lane compiled it first.
TEST(CompiledPathRows, ConcurrentMissesMergeIntoRowsAcrossLanes) {
  const auto automaton = shared_kary_automaton();
  const auto run_table = [&](bool compiled, unsigned lanes) {
    CompiledPopulation pop(
        std::vector<CompiledGroup>{
            {.count = 100, .automaton = automaton, .initial = 1},
            {.count = 100, .automaton = automaton, .initial = 2},
            {.count = kBigN - 200, .automaton = automaton, .initial = 0}},
        /*planned_rounds=*/0);
    AggregateEngine engine;
    engine.set_compiled(compiled);
    engine.set_threads(lanes);
    const auto noise = NoiseMatrix::uniform(3, kDelta);
    Rng rng(37);
    for (std::uint64_t r = 0; r < 12; ++r) {
      engine.step(pop, noise, Holdings{4}, r, rng);
    }
    return RestartOut{engine.replay_digest(), pop.cells_compiled(),
                      pop.table_bytes(), pop.table_restarts()};
  };
  const RestartOut interpreted = run_table(false, 1);
  const RestartOut base = run_table(true, 1);
  EXPECT_EQ(base.digest, interpreted.digest);
  // Three states × 15 outcomes per group at most.
  EXPECT_GT(base.cells_compiled, 0u);
  EXPECT_LE(base.cells_compiled, 3u * 3u * 15u);
  for (unsigned lanes : {2u, 4u}) {
    EXPECT_EQ(run_table(true, lanes), base) << lanes << " lanes";
  }
}

// The perfbench sf_h64_compiled configuration, full horizon: its tables
// never start over and hold under 1 MB.
TEST(CompiledPathRows, FullHorizonSfStoresUnderOneMegabyte) {
  constexpr PopulationConfig pop{.n = 10'000, .s1 = 100, .s0 = 0};
  const auto compiled =
      make_compiled_sf(pop, make_sf_schedule(pop, Holdings{64}, Delta{0.2}));
  AggregateEngine engine;
  engine.set_compiled(true);
  const auto noise = NoiseMatrix::uniform(2, 0.2);
  Rng rng(21);
  for (std::uint64_t r = 0; r < compiled->planned_rounds(); ++r) {
    engine.step(*compiled, noise, Holdings{64}, r, rng);
  }
  EXPECT_EQ(compiled->count_opinion(pop.correct_opinion()), pop.n);
  EXPECT_EQ(compiled->table_restarts(), 0u);
  EXPECT_GT(compiled->cells_compiled(), 10'000u);
  EXPECT_LT(compiled->table_bytes(), 1u << 20);
}

// ---------------------------------------------------------------------------
// An SF agent stalled through the finish-listening round never runs it, so
// SourceFilter starts its boost counters from zero, not from its listening
// counts.  One-round sub-phases after 26-round listening phases make the
// stale listening balance outweigh a sub-phase's observations, so a mirror
// that carried it over would flip the stalled agents' first boosting
// decision.  A blackout over that round: the mirror, interpreted and
// compiled, must still match the production protocol.

TEST(CompiledPathEdge, SfBlackoutOverFinishListeningMatchesProduction) {
  const SfSchedule sched{.h = 16, .m = 416, .phase_rounds = 26, .w = 16,
                         .subphase_rounds = 1, .num_subphases = 8,
                         .final_rounds = 2};
  const ProtoParams pp{.d = 2, .h = 16, .rounds = sched.total_rounds() + 2};
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 5;
  plan.first_eligible = kPop.s0 + kPop.s1;
  plan.stall.blackout_fraction = 0.25;  // 11 non-sources
  plan.stall.blackout_start = sched.boosting_start() - 1;
  plan.stall.blackout_rounds = 1;

  SourceFilter production(kPop, sched);
  const auto prod_inner = make_engine(Eng::Aggregate, pp.d);
  FaultyEngine prod_engine(*prod_inner, plan);
  const RunOut reference = run(production, prod_engine, pp, 13);

  for (const bool compiled : {false, true}) {
    const auto protocol = make_compiled_sf(kPop, sched);
    const auto inner = make_engine(Eng::Aggregate, pp.d);
    FaultyEngine faulty(*inner, plan);
    faulty.set_compiled(compiled);
    faulty.set_threads(4);
    EXPECT_EQ(run(*protocol, faulty, pp, 13), reference)
        << (compiled ? "compiled" : "interpreted");
  }
}

// ---------------------------------------------------------------------------
// k-ary alphabet: the composition enumeration end to end.

TEST(CompiledPathEdge, KaryTableCompiledMatchesInterpretedAndProduction) {
  const ProtoParams pp{.d = 3, .h = 4, .rounds = 32};
  const auto automaton = shared_kary_automaton();
  const auto make_pop = [&] {
    auto pop = std::make_unique<CompiledPopulation>(
        std::vector<CompiledGroup>{
            {.count = 6, .automaton = automaton, .initial = 1},
            {.count = 6, .automaton = automaton, .initial = 2},
            {.count = kN - 12, .automaton = automaton, .initial = 0}},
        /*planned_rounds=*/0);
    return pop;
  };

  const auto ref_protocol = make_pop();
  AggregateEngine ref_engine;
  const RunOut reference = run(*ref_protocol, ref_engine, pp, 23);

  const auto compiled = make_pop();
  AggregateEngine engine;
  engine.set_compiled(true);
  engine.set_threads(4);
  // The interpreted run is the production reference for table automata
  // (see make_production).
  EXPECT_EQ(run(*compiled, engine, pp, 23), reference);
}

// ---------------------------------------------------------------------------
// Interned-state accessors stay consistent with reported opinions.

TEST(CompiledPathEdge, StateAccessorAgreesWithOpinion) {
  const ProtoParams pp = params_of(Proto::Sf);
  const auto automaton = std::make_shared<const SfAutomaton>(
      make_sf_schedule(kPop, Holdings{pp.h}, Delta{kDelta}),
      /*is_source=*/false, /*preference=*/0);
  CompiledPopulation protocol(
      std::vector<CompiledGroup>{{.count = kN, .automaton = automaton,
                                  .initial = 0}},
      /*planned_rounds=*/0);
  AggregateEngine engine;
  engine.set_compiled(true);
  run(protocol, engine, pp, 31);
  for (std::uint64_t i = 0; i < protocol.num_agents(); ++i) {
    // opinion() is a pure function of the interned SoA state.
    EXPECT_EQ(protocol.opinion(i), automaton->opinion(protocol.state(i))) << i;
  }
}

}  // namespace
}  // namespace noisypull
