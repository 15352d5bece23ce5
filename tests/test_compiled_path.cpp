// Bit-identity contract of the compiled automaton fast path (DESIGN.md §13).
//
// The compiled path replaces the virtual display/update dispatch with a flat
// SoA state vector and closed-form rules over state ids; automata without
// a closed form run their own compile() per agent.  None of that may ever
// change a trajectory: for every protocol family (Table / SF), engine
// (AggregateEngine with one channel or per-agent channels, bare or wrapped
// in FaultyEngine), lane count and fault plan, the replay digest AND the final
// per-agent opinions must be identical to the interpreted run, which in turn
// matches the mirrored production protocol draw for draw.  These tests pin:
//   * ObservationSampler::sample_index consumes the rng exactly like
//     sample() and returns that outcome's enumeration index (cached and
//     uncached, binary and k-ary);
//   * compiled == interpreted on the same CompiledPopulation (its rules
//     against every agent's compile() through a view that forwards no
//     bulk hook), across lanes {1, 4}, engines {Aggregate, Heterogeneous};
//   * CompiledPopulation == the production protocol it mirrors
//     (SourceFilter; for table automata the interpreted run is the
//     reference);
//   * the same under FaultyEngine with zero and nonzero FaultPlans — the
//     fault proxy forges, swallows and thins exactly the faulted agents and
//     nobody else's draws move;
//   * heterogeneous channel groups too small to amortize the inverse-CDF
//     table draw counts instead of indices without disturbing the others;
//   * no fault-free round of closed-form SF reaches the virtual update(),
//     while Table agents run their automaton's compile() every round, and
//     several engine blocks leave digests independent of the lane count;
//   * SF's closed-form rules: SfAutomaton's compile(), transition() and
//     update_rule() agree with a reference lumping of SourceFilter (edge
//     outcomes, sample sizes and balances at their bounds included), and
//     the rules match SF run through compile() draw for draw, whatever n
//     and the horizon (s1 = 1 listening included); an oversized schedule
//     is refused;
//   * the cached opinion histogram equals the per-agent count after every
//     round (any path, lanes, fault plan or Decomposition round), and
//     full-horizon SF recounts and rebuilds its sampler only where its
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
#include <tuple>
#include <utility>
#include <vector>

#include "compile_counter.hpp"
#include "noisypull/common/fnv.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/automaton/protocol_automata.hpp"
#include "noisypull/core/schedule.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/rng/observation_cache.hpp"

namespace noisypull {

namespace {

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
// (sampler, compile() on k-ary counts) instead of the binary h+1 ladder.
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

// SfAutomaton with its closed form hidden: CompiledPopulation runs every
// agent through its compile() + resolve().  The reference the closed-form
// rules are held to.
class CompileOnlySf final : public AgentAutomaton {
 public:
  explicit CompileOnlySf(const SfAutomaton& sf) : sf_(sf) {}
  std::size_t alphabet_size() const override { return sf_.alphabet_size(); }
  std::size_t num_states() const override { return sf_.num_states(); }
  AutomatonState initial_state() const override { return sf_.initial_state(); }
  Symbol display(AutomatonState s, std::uint64_t round) const override {
    return sf_.display(s, round);
  }
  std::vector<WeightedState> transition(
      AutomatonState s, std::uint64_t round,
      const SymbolCounts& obs) const override {
    return sf_.transition(s, round, obs);
  }
  Opinion opinion(AutomatonState s) const override { return sf_.opinion(s); }
  CompiledEdge compile(AutomatonState s, std::uint64_t round,
                       const SymbolCounts& obs) const override {
    return sf_.compile(s, round, obs);
  }

 private:
  SfAutomaton sf_;
};

// make_compiled_sf's layout, run through compile().
std::unique_ptr<CompiledPopulation> make_compile_only_sf(
    const PopulationConfig& pop, const SfSchedule& schedule) {
  std::vector<CompiledGroup> groups;
  const auto add = [&](std::uint64_t count, bool is_source, Opinion pref) {
    if (count == 0) return;
    auto automaton =
        std::make_shared<CompileOnlySf>(SfAutomaton(schedule, is_source, pref));
    const AutomatonState fresh = automaton->initial_state();
    groups.push_back({count, std::move(automaton), fresh});
  };
  add(pop.s1, true, 1);
  add(pop.s0, true, 0);
  add(pop.n - pop.num_sources(), false, 0);
  return std::make_unique<CompiledPopulation>(std::move(groups),
                                              schedule.total_rounds());
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

// Forwards the per-agent interface only: no bulk hooks, no
// compiled_access().  An engine driving it runs the default per-agent
// loops, so every agent of a CompiledPopulation behind it runs update() —
// its automaton's compile() + resolve() — and no closed-form rule: the
// interpreted reference the rules are held to.
class PerAgentView final : public PullProtocol {
 public:
  explicit PerAgentView(PullProtocol& inner) : inner_(inner) {}
  std::size_t alphabet_size() const override { return inner_.alphabet_size(); }
  std::uint64_t num_agents() const override { return inner_.num_agents(); }
  Symbol display(std::uint64_t agent, std::uint64_t round) const override {
    return inner_.display(agent, round);
  }
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override {
    inner_.update(agent, round, obs, rng);
  }
  Opinion opinion(std::uint64_t agent) const override {
    return inner_.opinion(agent);
  }
  std::uint64_t planned_rounds() const override {
    return inner_.planned_rounds();
  }

 private:
  PullProtocol& inner_;
};

// run() of `protocol` through a PerAgentView.
RunOut run_per_agent(PullProtocol& protocol, Engine& engine,
                     const ProtoParams& pp, std::uint64_t seed) {
  PerAgentView view(protocol);
  return run(view, engine, pp, seed);
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
  const RunOut reference = run_per_agent(*ref_protocol, *ref_engine, pp, 7);
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
  // must stay engaged through it.  Nonzero plans forge, swallow and thin
  // through the fault proxy, which forwards the live agents' runs to the
  // population; the drop-free variant keeps the rules for all of them.
  // The reference runs every agent's compile() through PerAgentView.
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
    const RunOut reference = run_per_agent(*ref_protocol, ref_engine, pp, 7);

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
// Channel groups below the amortization gate draw counts, not indices.

TEST(CompiledPathEdge, UndersizedHeterogeneousGroupFallsBackPerAgent) {
  // 44 + 4 split at h = 16, d = 2: the big tier's 17-outcome space passes
  // the gate (17 <= 44), the small tier's does not (17 > 4), so its four
  // agents draw from a Decomposition sampler and their rule reads k from
  // the drawn counts, while the rest draw outcome indices.
  const ProtoParams pp = params_of(Proto::Sf);
  const auto make_split_engine = [&] {
    std::vector<NoiseMatrix> per_agent;
    for (std::uint64_t i = 0; i < kN; ++i) {
      per_agent.push_back(
          NoiseMatrix::uniform(pp.d, i < kN - 4 ? kDelta : 0.1));
    }
    return std::make_unique<AggregateEngine>(std::move(per_agent));
  };

  const auto production = make_production(Proto::Sf);
  const auto ref_engine = make_split_engine();
  const RunOut reference = run(*production, *ref_engine, pp, 11);

  const auto protocol = make_compiled(Proto::Sf);
  const auto engine = make_split_engine();
  engine->set_compiled(true);
  engine->set_threads(4);
  EXPECT_EQ(run(*protocol, *engine, pp, 11), reference);
}

// ---------------------------------------------------------------------------
// Fault-free rounds: closed-form SF never reaches the virtual update(),
// and Table agents run their automaton's compile() once a round each.

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

using test_support::CompileCounter;

TEST(CompiledPathEdge, InverseCdfRoundsMakeNoVirtualUpdates) {
  for (Proto proto : {Proto::Table, Proto::Sf}) {
    const ProtoParams pp = params_of(proto);
    const auto production = make_production(proto);
    AggregateEngine reference_engine;
    const RunOut reference = run(*production, reference_engine, pp, 41);

    // make_compiled's layout, each group's automaton behind a counter.
    std::vector<std::shared_ptr<const CompileCounter>> counters;
    std::vector<CompiledGroup> groups;
    const auto add = [&](std::uint64_t count,
                         std::shared_ptr<const AgentAutomaton> automaton,
                         AutomatonState initial) {
      counters.push_back(
          std::make_shared<const CompileCounter>(std::move(automaton)));
      groups.push_back({count, counters.back(), initial});
    };
    if (proto == Proto::Table) {
      add(8, shared_table_automaton(), 1);
      add(kN - 8, shared_table_automaton(), 0);
    } else {
      const SfSchedule schedule =
          make_sf_schedule(kPop, Holdings{pp.h}, Delta{kDelta});
      for (const auto& [count, is_source, pref] :
           {std::tuple{kPop.s1, true, Opinion{1}},
            std::tuple{kPop.s0, true, Opinion{0}},
            std::tuple{kN - kPop.num_sources(), false, Opinion{0}}}) {
        auto sf = std::make_shared<const SfAutomaton>(schedule, is_source, pref);
        const AutomatonState fresh = sf->initial_state();
        add(count, std::move(sf), fresh);
      }
    }
    CompiledPopulation pop(std::move(groups), production->planned_rounds());
    CountingProtocol counted(pop);
    AggregateEngine engine;
    engine.set_compiled(true);
    const RunOut got = run(counted, engine, pp, 41);
    EXPECT_EQ(got, reference) << proto_name(proto);
    // The engine drives the population itself, never the decorator's
    // update().
    EXPECT_EQ(counted.virtual_updates(), 0u) << proto_name(proto);
    std::uint64_t compiles = 0;
    for (const auto& c : counters) compiles += c->compiles();
    // Table agents run their own compile() through update() every round;
    // SF's rules are closed-form.
    EXPECT_EQ(compiles, proto == Proto::Table ? kN * pp.rounds : 0u)
        << proto_name(proto);
  }
}

// ---------------------------------------------------------------------------
// Several engine blocks update concurrently.  Digests and opinions must
// not depend on the lane count or on a pass-through FaultyEngine, and
// stall/drop plans must keep identity with SourceFilter.

constexpr std::uint64_t kBigN = 3 * 4096 + 517;  // four blocks, one ragged
constexpr PopulationConfig kBigPop{.n = kBigN, .s1 = 40, .s0 = 12};

// A short full SF schedule (listening, boosting, terminated tail) so the
// run crosses every kind of round in a few dozen rounds.
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

// `compiled`: the CompiledPopulation with the toggle on; otherwise
// SourceFilter, the production protocol it mirrors.
RunOut run_big(bool compiled, unsigned lanes, const FaultPlan* plan) {
  BigCase c = make_big_sf();
  SourceFilter production(kBigPop, kBigSchedule);
  PullProtocol& protocol =
      compiled ? static_cast<PullProtocol&>(*c.pop) : production;
  AggregateEngine inner;
  std::unique_ptr<FaultyEngine> faulty;
  Engine* engine = &inner;
  if (plan != nullptr) {
    faulty = std::make_unique<FaultyEngine>(inner, *plan);
    engine = faulty.get();
  }
  engine->set_compiled(compiled);
  engine->set_threads(lanes);
  return run(protocol, *engine, c.pp, 77);
}

TEST(CompiledPathEdge, ConcurrentMissesKeepIdentityAcrossLanes) {
  const RunOut reference = run_big(/*compiled=*/false, 1, nullptr);
  const RunOut base = run_big(/*compiled=*/true, 1, nullptr);
  EXPECT_EQ(base, reference);
  const FaultPlan zero{};
  for (unsigned lanes : {1u, 2u, 4u}) {
    EXPECT_EQ(run_big(true, lanes, nullptr), base) << lanes << " lanes";
    EXPECT_EQ(run_big(true, lanes, &zero), base)
        << "zero plan, " << lanes << " lanes";
  }
  for (bool with_drop : {false, true}) {
    const FaultPlan plan = big_plan(with_drop);
    const RunOut faulted = run_big(false, 1, &plan);
    for (unsigned lanes : {1u, 2u, 4u}) {
      EXPECT_EQ(run_big(true, lanes, &plan), faulted)
          << (with_drop ? "stall+drop, " : "stall, ") << lanes << " lanes";
    }
  }
}

// SF's listening phase at s1 = 1, δ = 0.2 is long, and its balances keep
// spreading: agents keep reaching states no earlier round realized.  The
// closed-form rules store nothing per state, and the run over the whole
// horizon stays bit-identical to SourceFilter's.
constexpr PopulationConfig kGridPop{.n = 500, .s1 = 1, .s0 = 0};

TEST(CompiledPathEdge, FreshStateTablesStayBounded) {
  const SfSchedule schedule =
      make_sf_schedule(kGridPop, Holdings{64}, Delta{kDelta});
  const ProtoParams pp{.d = 2, .h = 64, .rounds = schedule.total_rounds()};
  SourceFilter production(kGridPop, schedule);
  AggregateEngine ref_engine;
  const RunOut reference = run(production, ref_engine, pp, 13);

  const auto pop = make_compiled_sf(kGridPop, schedule);
  AggregateEngine engine;
  engine.set_compiled(true);
  const auto noise = NoiseMatrix::uniform(pp.d, kDelta);
  Rng rng(13);
  for (std::uint64_t r = 0; r < pp.rounds; ++r) {
    engine.step(*pop, noise, Holdings{pp.h}, r, rng);
  }
  EXPECT_EQ(engine.replay_digest(), reference.digest);
  for (std::uint64_t i = 0; i < kGridPop.n; ++i) {
    EXPECT_EQ(pop->opinion(i), reference.opinions[i]) << i;
  }
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

// SF's s1 = 1 listening phase at four blocks, h = 256: the balances
// spread over thousands of states within 400 rounds.  This is the
// configuration that once restarted SF's row tables several times; closed
// form, it stores nothing per state.  Listening displays do not depend on the
// balances, so the digest pins little here; the final states do, and so
// does the opinion count after every round.
constexpr PopulationConfig kBigGridPop{.n = kBigN, .s1 = 1, .s0 = 0};
constexpr std::uint64_t kBigGridH = 256;
constexpr std::uint64_t kBigGridRounds = 400;

struct GridOut {
  std::uint64_t digest = 0;
  std::vector<AutomatonState> states;
  bool operator==(const GridOut&) const = default;
};

GridOut run_grid_sf(const PopulationConfig& pop, std::uint64_t rounds,
                    unsigned lanes) {
  const auto compiled = make_compiled_sf(
      pop, make_sf_schedule(pop, Holdings{kBigGridH}, Delta{kDelta}));
  AggregateEngine engine;
  engine.set_compiled(true);
  engine.set_threads(lanes);
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(29);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    engine.step(*compiled, noise, Holdings{kBigGridH}, r, rng);
    expect_counts_exact(*compiled, "round " + std::to_string(r) + ", " +
                                       std::to_string(lanes) + " lanes");
  }
  std::vector<AutomatonState> states;
  for (std::uint64_t i = 0; i < pop.n; ++i) {
    states.push_back(compiled->state(i));
  }
  return {.digest = engine.replay_digest(), .states = std::move(states)};
}

// No table restarts any more; the count must still stay exact after every
// round while the balances spread over many states, at one lane and at four.
TEST(CompiledPathCount, CountStaysExactAcrossTableRestarts) {
  for (const unsigned lanes : {1u, 4u}) {
    const GridOut out = run_grid_sf(kBigGridPop, kBigGridRounds, lanes);
    const std::set<AutomatonState> occupied(out.states.begin(),
                                            out.states.end());
    EXPECT_GT(occupied.size(), 100u) << lanes << " lanes";
  }
}

// A Decomposition round whose h exceeds the schedule's has no closed-form
// rule (has_update_rule), so it takes the virtual update() path for every
// agent.  Here it is the SF round ending listening, where opinions change,
// and no rule runs that round: update() alone must invalidate the cached
// count.
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

// h = n: n + 1 outcomes over n draws fail the amortization gate, so every
// round's sampler is Decomposition and has no outcome index.  The
// closed-form rules still run, indexed by the drawn counts
// (CompiledPopulation::update_run): no virtual update, the digest and the
// opinions of SourceFilter, and the count recounts only after the rounds
// whose rule is a sign step (the listening finish and sub-phase ends).
constexpr SfSchedule kBigHnSchedule{.h = kBigN,
                                    .m = 8,
                                    .phase_rounds = 4,
                                    .w = 8,
                                    .subphase_rounds = 3,
                                    .num_subphases = 4,
                                    .final_rounds = 4};

TEST(CompiledPathEdge, DecompositionRoundsMakeNoVirtualUpdates) {
  const ProtoParams pp{
      .d = 2, .h = kBigN, .rounds = kBigHnSchedule.total_rounds() + 2};
  SourceFilter production(kBigPop, kBigHnSchedule);
  AggregateEngine production_engine;
  const RunOut reference = run(production, production_engine, pp, 43);
  const SfAutomaton probe(kBigHnSchedule, /*is_source=*/false, Opinion{0});
  const auto noise = NoiseMatrix::uniform(pp.d, kDelta);
  for (const unsigned lanes : {1u, 4u}) {
    const auto pop = make_compiled_sf(kBigPop, kBigHnSchedule);
    CountingProtocol counted(*pop);
    AggregateEngine engine;
    engine.set_compiled(true);
    engine.set_threads(lanes);
    Rng rng(43);
    std::uint64_t sign_steps = 0;
    for (std::uint64_t r = 0; r < pp.rounds; ++r) {
      engine.step(counted, noise, Holdings{pp.h}, r, rng);
      if (probe.update_rule(r, pp.h).kind == UpdateRule::Kind::SignStep) {
        ++sign_steps;
      }
      const std::string at =
          "round " + std::to_string(r) + ", " + std::to_string(lanes) + " lanes";
      expect_counts_exact(*pop, at);
      // The first count, then one per sign-step round.
      EXPECT_EQ(pop->opinion_recounts(), 1 + sign_steps) << at;
    }
    EXPECT_GT(sign_steps, 1u);
    EXPECT_EQ(counted.virtual_updates(), 0u) << lanes << " lanes";
    RunOut got;
    got.digest = engine.replay_digest();
    for (std::uint64_t i = 0; i < kBigPop.n; ++i) {
      got.opinions.push_back(pop->opinion(i));
    }
    EXPECT_EQ(got, reference) << lanes << " lanes";
  }
}

// Telemetry of the skipped work at perfbench's sf_h64_compiled
// configuration, full horizon.  The count is recomputed only for the first
// call and after the rounds that end listening or a boosting sub-phase,
// the only SF rounds whose rule (a sign step) changes an opinion.
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
    if (probe.update_rule(r, 64).kind == UpdateRule::Kind::SignStep) {
      ++changing_rounds;
    }
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
// Long listening phases.

// Where the row tables used to restart and refill, closed-form SF's
// trajectory is bit-identical at every lane count and to the interpreted
// and production runs.
TEST(CompiledPathRows, RestartReleasesTheRowIndexAndRefillsBitIdentically) {
  const GridOut base = run_grid_sf(kBigGridPop, kBigGridRounds, 1);
  // The balances did spread: many distinct states, none of them stored.
  const std::set<AutomatonState> occupied(base.states.begin(),
                                          base.states.end());
  EXPECT_GT(occupied.size(), 100u);
  for (unsigned lanes : {2u, 4u}) {
    EXPECT_EQ(run_grid_sf(kBigGridPop, kBigGridRounds, lanes), base)
        << lanes << " lanes";
  }

  // Same trajectory as the interpreted mirror and the production protocol.
  const auto interpreted = make_compiled_sf(
      kBigGridPop,
      make_sf_schedule(kBigGridPop, Holdings{kBigGridH}, Delta{kDelta}));
  SourceFilter production(
      kBigGridPop,
      make_sf_schedule(kBigGridPop, Holdings{kBigGridH}, Delta{kDelta}));
  const ProtoParams pp{.d = 2, .h = kBigGridH, .rounds = kBigGridRounds};
  AggregateEngine interpreted_engine;
  AggregateEngine production_engine;
  EXPECT_EQ(run(*interpreted, interpreted_engine, pp, 29).digest, base.digest);
  EXPECT_EQ(run(production, production_engine, pp, 29).digest, base.digest);
  for (std::uint64_t i = 0; i < kBigGridPop.n; ++i) {
    ASSERT_EQ(interpreted->state(i), base.states[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// SF's closed form.

// A reference lumping of SourceFilter's agent state, written from the
// protocol (core/source_filter.cpp), and the id layout SfAutomaton
// documents: listening ids 2·(balance + P·h) + current, then boosting ids
// from 2·(2·P·h + 1) on, 2·(balance + B·h) + current, with P listening
// rounds per phase and B boosting rounds.
struct SfReference {
  SfSchedule sched;
  bool is_source;
  Opinion preference;

  std::int64_t listen_bound() const {
    return static_cast<std::int64_t>(sched.phase_rounds * sched.h);
  }
  std::int64_t boost_bound() const {
    return static_cast<std::int64_t>(
        (sched.num_subphases * sched.subphase_rounds + sched.final_rounds) *
        sched.h);
  }
  AutomatonState id(bool boosting, std::int64_t balance, Opinion c) const {
    if (!boosting) {
      return static_cast<AutomatonState>(2 * (balance + listen_bound()) + c);
    }
    return static_cast<AutomatonState>(2 * (2 * listen_bound() + 1) +
                                       2 * (balance + boost_bound()) + c);
  }
  bool subphase_end(std::uint64_t round) const {
    const std::uint64_t off = round - sched.boosting_start();
    const std::uint64_t short_span = sched.num_subphases * sched.subphase_rounds;
    return off < short_span ? (off + 1) % sched.subphase_rounds == 0
                            : off + 1 == short_span + sched.final_rounds;
  }
  Symbol display(bool /*boosting*/, Opinion c, std::uint64_t round) const {
    if (round >= sched.boosting_start()) return c;
    if (is_source) return preference;
    return round < sched.phase_rounds ? 0 : 1;
  }
  // Successors {tails, heads} of (boosting, balance, c) in `round` on
  // counts (zeros, ones); equal unless the round decides a tie.
  std::array<AutomatonState, 2> next(bool boosting, std::int64_t balance,
                                     Opinion c, std::uint64_t round,
                                     std::int64_t zeros,
                                     std::int64_t ones) const {
    const auto one = [](AutomatonState s) {
      return std::array<AutomatonState, 2>{s, s};
    };
    const auto decide = [&](std::int64_t b) {
      if (b == 0) return std::array<AutomatonState, 2>{id(true, 0, 0),
                                                       id(true, 0, 1)};
      return one(id(true, 0, b > 0 ? 1 : 0));
    };
    if (round < sched.phase_rounds) return one(id(false, balance + ones, c));
    if (round < sched.boosting_start()) {
      if (round + 1 < sched.boosting_start()) {
        return one(id(false, balance - zeros, c));
      }
      return decide(balance - zeros);  // finish_listening
    }
    if (round >= sched.total_rounds()) return one(id(boosting, balance, c));
    // A listening agent here was stalled through the finish: its boost
    // counters start at zero.
    const std::int64_t boost = (boosting ? balance : 0) + ones - zeros;
    if (subphase_end(round)) return decide(boost);  // finish_subphase
    return one(id(true, boost, c));
  }
};

TEST(SfClosedForm, CompileTransitionAndRulesMatchTheReference) {
  const SfSchedule sched{.h = 6, .m = 24, .phase_rounds = 4, .w = 12,
                         .subphase_rounds = 2, .num_subphases = 3,
                         .final_rounds = 4};
  const std::uint64_t h = sched.h;
  Rng pick(71);
  std::uint64_t ties = 0;
  std::uint64_t stalled = 0;
  for (const bool is_source : {false, true}) {
    const Opinion preference = is_source ? 1 : 0;
    const SfAutomaton sf(sched, is_source, preference);
    const SfReference ref{sched, is_source, preference};
    EXPECT_EQ(sf.initial_state(), ref.id(false, 0, 0));
    EXPECT_EQ(sf.num_states(), ref.id(true, ref.boost_bound(), 1) + 1u);
    for (int trial = 0; trial < 20000; ++trial) {
      const std::uint64_t round = pick.next_below(sched.total_rounds() + 2);
      // Boosting ids only exist from the first boosting round on; a
      // listening id there is an agent stalled through the finish.
      const bool boosting =
          round >= sched.boosting_start() && pick.next_below(4) != 0;
      stalled += round >= sched.boosting_start() && !boosting ? 1 : 0;
      // One round away from either bound, so no successor leaves it.
      const std::int64_t room =
          (boosting ? ref.boost_bound() : ref.listen_bound()) -
          static_cast<std::int64_t>(h);
      const std::int64_t balance =
          static_cast<std::int64_t>(pick.next_below(2 * room + 1)) - room;
      const auto c = static_cast<Opinion>(pick.next_below(2));
      const AutomatonState s = ref.id(boosting, balance, c);
      // Full samples and, as fault drops deliver, smaller totals.
      const std::uint64_t total = pick.next_below(3) == 0
                                      ? pick.next_below(h + 1)
                                      : h;
      const std::uint64_t ones = pick.next_below(total + 1);
      SymbolCounts obs(2);
      obs[0] = total - ones;
      obs[1] = ones;
      const auto want = ref.next(boosting, balance, c, round,
                                 static_cast<std::int64_t>(total - ones),
                                 static_cast<std::int64_t>(ones));
      const std::string at = "state " + std::to_string(s) + ", round " +
                             std::to_string(round) + ", obs (" +
                             std::to_string(total - ones) + ", " +
                             std::to_string(ones) + ")";

      ASSERT_EQ(sf.opinion(s), c) << at;
      ASSERT_EQ(sf.display(s, round), ref.display(boosting, c, round)) << at;
      const DisplayRule display = sf.display_rule(round);
      ASSERT_EQ(display.kind == DisplayRule::Kind::OpinionBit
                    ? static_cast<Symbol>(s & 1)
                    : display.symbol,
                sf.display(s, round))
          << at;

      const CompiledEdge edge = sf.compile(s, round, obs);
      const std::vector<WeightedState> law = sf.transition(s, round, obs);
      if (want[0] == want[1]) {
        ASSERT_EQ(edge.kind, CompiledEdge::Kind::Deterministic) << at;
        ASSERT_EQ(edge.target[0], want[0]) << at;
        ASSERT_EQ(law.size(), 1u) << at;
        ASSERT_EQ(law[0].state, want[0]) << at;
      } else {
        ++ties;
        ASSERT_EQ(edge.kind, CompiledEdge::Kind::Coin) << at;
        ASSERT_EQ(edge.target[0], want[0]) << at;  // tails → opinion 0
        ASSERT_EQ(edge.target[1], want[1]) << at;
        ASSERT_EQ(law.size(), 2u) << at;
        ASSERT_EQ(std::set<AutomatonState>({law[0].state, law[1].state}),
                  std::set<AutomatonState>({want[0], want[1]}))
            << at;
        ASSERT_EQ(law[0].prob, 0.5) << at;
      }

      // The closed-form rule agrees with compile() draw for draw on full
      // samples (the compiled path sees no other).
      if (total == h) {
        const UpdateRule rule = sf.update_rule(round, h);
        ASSERT_NE(rule.kind, UpdateRule::Kind::None) << at;
        Rng by_rule(1000 + static_cast<std::uint64_t>(trial));
        Rng by_edge(1000 + static_cast<std::uint64_t>(trial));
        ASSERT_EQ(rule.apply(s, ones, by_rule), edge.resolve(by_edge)) << at;
        ASSERT_EQ(by_rule.next(), by_edge.next()) << at;
      }
    }
  }
  EXPECT_GT(ties, 100u);     // both sign steps were exercised ...
  EXPECT_GT(stalled, 100u);  // ... and the stalled-through-finish re-base

  // The edges random draws rarely reach: every round, the smallest sample
  // (h = 1) and the schedule's h (which sets the balance bounds), outcomes
  // k = 0, h / 2 and h, and balances at, next to and one sample inside
  // their bounds — wherever the successor stays inside them.
  std::uint64_t edge_cases = 0;
  for (const bool is_source : {false, true}) {
    const Opinion preference = is_source ? 1 : 0;
    const SfAutomaton sf(sched, is_source, preference);
    const SfReference ref{sched, is_source, preference};
    for (std::uint64_t round = 0; round < sched.total_rounds() + 2; ++round) {
      for (const bool boosting : {false, true}) {
        if (boosting && round < sched.boosting_start()) continue;
        const std::int64_t bound =
            boosting ? ref.boost_bound() : ref.listen_bound();
        for (const std::uint64_t n_obs : {std::uint64_t{1}, h}) {
          const UpdateRule rule = sf.update_rule(round, n_obs);
          const auto step = static_cast<std::int64_t>(n_obs);
          for (const std::int64_t balance :
               {-bound, -bound + 1, -bound + step, std::int64_t{-1},
                std::int64_t{0}, std::int64_t{1}, bound - step, bound - 1,
                bound}) {
            for (const std::uint64_t ones : {std::uint64_t{0}, n_obs / 2, n_obs}) {
              const auto zeros = static_cast<std::int64_t>(n_obs - ones);
              const auto k = static_cast<std::int64_t>(ones);
              // The balance the round's counter moves to (before a sign
              // step reads it): a full sample of the schedule's h never
              // takes it past its bound.
              std::int64_t moved = balance;
              std::int64_t moved_bound = bound;
              if (round < sched.phase_rounds) {
                moved = balance + k;
              } else if (round < sched.boosting_start()) {
                moved = balance - zeros;
              } else if (round < sched.total_rounds()) {
                moved = (boosting ? balance : 0) + k - zeros;
                moved_bound = ref.boost_bound();
              }
              if (moved < -moved_bound || moved > moved_bound) continue;
              for (const Opinion c : {Opinion{0}, Opinion{1}}) {
                const AutomatonState s = ref.id(boosting, balance, c);
                const auto want =
                    ref.next(boosting, balance, c, round, zeros, k);
                const std::string at =
                    "state " + std::to_string(s) + ", round " +
                    std::to_string(round) + ", h " + std::to_string(n_obs) +
                    ", k " + std::to_string(ones);
                SymbolCounts obs(2);
                obs[0] = n_obs - ones;
                obs[1] = ones;
                const CompiledEdge edge = sf.compile(s, round, obs);
                ASSERT_EQ(edge.target[0], want[0]) << at;
                ASSERT_EQ(edge.kind == CompiledEdge::Kind::Coin
                              ? edge.target[1]
                              : edge.target[0],
                          want[1])
                    << at;
                Rng by_rule(edge_cases);
                Rng by_edge(edge_cases);
                ASSERT_EQ(rule.apply(s, ones, by_rule), edge.resolve(by_edge))
                    << at;
                ASSERT_EQ(by_rule.next(), by_edge.next()) << at;
                ++edge_cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(edge_cases, 1000u);
}

// Compiled under its closed-form rules or through compile() per agent, SF
// runs the same trajectory, with faults and at any lane count.  (The name
// dates from when the compile() path memoized cells in row tables.)
TEST(SfClosedForm, RulesMatchSfThroughRowTables) {
  for (const int plan_kind : {0, 1, 2}) {
    const FaultPlan plan = plan_kind == 0 ? FaultPlan{}
                                          : big_plan(/*with_drop=*/plan_kind == 2);
    for (const unsigned lanes : {1u, 4u}) {
      const auto run_one = [&](std::unique_ptr<CompiledPopulation> pop) {
        AggregateEngine inner;
        FaultyEngine faulty(inner, plan);
        faulty.set_compiled(true);
        faulty.set_threads(lanes);
        const ProtoParams pp{.d = 2, .h = kBigSchedule.h,
                             .rounds = kBigSchedule.total_rounds() + 2};
        return run(*pop, faulty, pp, 77);
      };
      EXPECT_EQ(run_one(make_compiled_sf(kBigPop, kBigSchedule)),
                run_one(make_compile_only_sf(kBigPop, kBigSchedule)))
          << "plan " << plan_kind << ", " << lanes << " lanes";
    }
  }
}

// Identity rounds still consume each agent's sample draw: a group past its
// horizon shares its engine block with a group still running, whose draws
// come after it in the block's substream.
TEST(SfClosedForm, IdentityRunsKeepLaterGroupsDraws) {
  SfSchedule short_schedule = kBigSchedule;
  short_schedule.num_subphases = 1;
  short_schedule.final_rounds = 1;
  const auto make_pop = [&] {
    std::vector<CompiledGroup> groups;
    for (const auto& [count, schedule] :
         {std::pair{std::uint64_t{100}, short_schedule},
          std::pair{std::uint64_t{500}, kBigSchedule}}) {
      auto automaton = std::make_shared<const SfAutomaton>(
          schedule, /*is_source=*/false, Opinion{0});
      const AutomatonState fresh = automaton->initial_state();
      groups.push_back({count, std::move(automaton), fresh});
    }
    return std::make_unique<CompiledPopulation>(std::move(groups),
                                                kBigSchedule.total_rounds());
  };
  ASSERT_LT(short_schedule.total_rounds(), kBigSchedule.total_rounds());
  const ProtoParams pp{.d = 2, .h = kBigSchedule.h,
                       .rounds = kBigSchedule.total_rounds()};
  const auto interpreted = make_pop();
  AggregateEngine reference_engine;
  const RunOut reference = run_per_agent(*interpreted, reference_engine, pp, 19);
  const auto compiled = make_pop();
  AggregateEngine engine;
  engine.set_compiled(true);
  EXPECT_EQ(run(*compiled, engine, pp, 19), reference);
}

// SourceFilter resets an agent's boost counters only in the sub-phase ends
// the agent runs, so an agent stalled over ends keeps counting across them:
// the boosting balance is bounded by the whole boosting stretch, not by one
// sub-phase.  Here a non-source leaves listening with opinion 0, runs only
// the sub-phase middles (all ones) and sleeps through their ends, so it
// carries +12 — past one sub-phase's ±8 — into the final sub-phase, whose
// zeros then bring it down to +4: opinion 1.
TEST(SfClosedForm, StallOverSubphaseEndsKeepsCounting) {
  const PopulationConfig pop{.n = 2, .s1 = 1, .s0 = 0};
  const SfSchedule sched{.h = 4, .m = 4, .phase_rounds = 1, .w = 8,
                         .subphase_rounds = 2, .num_subphases = 3,
                         .final_rounds = 2};
  SourceFilter production(pop, sched);
  const SfAutomaton plain(sched, /*is_source=*/false, Opinion{0});
  SymbolCounts ones(2);
  ones[1] = 4;
  SymbolCounts zeros(2);
  zeros[0] = 4;
  // Rounds the agent runs: listening (0, 1), the short sub-phases' first
  // rounds (2, 4, 6; their ends 3, 5, 7 are stalled), the final sub-phase
  // (8, 9).
  const std::vector<std::pair<std::uint64_t, const SymbolCounts*>> updates = {
      {0, &zeros}, {1, &zeros}, {2, &ones}, {4, &ones},
      {6, &ones},  {8, &zeros}, {9, &zeros}};
  AutomatonState by_edge = plain.initial_state();
  AutomatonState by_rule = plain.initial_state();
  Rng rng(3);
  for (const auto& [round, obs] : updates) {
    production.update(1, round, *obs, rng);
    by_edge = plain.compile(by_edge, round, *obs).resolve(rng);
    by_rule = plain.update_rule(round, sched.h).apply(by_rule, (*obs)[1], rng);
    ASSERT_EQ(by_rule, by_edge) << "round " << round;
    ASSERT_EQ(plain.opinion(by_edge), production.opinion(1)) << "round " << round;
  }
  EXPECT_EQ(production.opinion(1), 1);
}

// A schedule whose ids would reach 2^31 is refused when its automaton is
// built: nothing is sized by the span, so the refusal costs nothing, and
// products too large for 64 bits saturate instead of wrapping into range.
TEST(SfClosedForm, OversizedScheduleIsRefused) {
  constexpr PopulationConfig pop{.n = 1000, .s1 = 1, .s0 = 0};
  const SfSchedule huge = make_sf_schedule_with_m(
      pop, Holdings{64}, Delta{0.2}, MemoryBudget{std::uint64_t{1} << 40});
  try {
    const SfAutomaton sf(huge, /*is_source=*/false, Opinion{0});
    FAIL() << "a 2^40-message schedule was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SF schedule (h = 64, phase_rounds = " +
                                         std::to_string(huge.phase_rounds)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(make_compiled_sf(pop, huge), std::invalid_argument);

  // phase_rounds·h is 2^65: it must not wrap to a small span.
  const SfSchedule wraps{.h = 8, .m = 1, .phase_rounds = std::uint64_t{1} << 62,
                         .w = 8, .subphase_rounds = 1, .num_subphases = 1,
                         .final_rounds = 1};
  EXPECT_THROW(SfAutomaton(wraps, false, 0), std::invalid_argument);

  // The largest listening span that fits is accepted, and costs nothing.
  const SfSchedule fits{.h = 1, .m = 1, .phase_rounds = (1u << 29) - 3,
                        .w = 1, .subphase_rounds = 1, .num_subphases = 1,
                        .final_rounds = 1};
  const SfAutomaton sf(fits, false, 0);
  EXPECT_LE(sf.num_states(), kMaxStateIds);
  EXPECT_GT(sf.num_states(), kMaxStateIds - 16);
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
// State accessors stay consistent with reported opinions.

TEST(CompiledPathEdge, StateAccessorAgreesWithOpinion) {
  const ProtoParams pp = params_of(Proto::Sf);
  const auto automaton = std::make_shared<const SfAutomaton>(
      make_sf_schedule(kPop, Holdings{pp.h}, Delta{kDelta}),
      /*is_source=*/false, /*preference=*/0);
  CompiledPopulation protocol(
      std::vector<CompiledGroup>{{.count = kN, .automaton = automaton,
                                  .initial = automaton->initial_state()}},
      /*planned_rounds=*/0);
  AggregateEngine engine;
  engine.set_compiled(true);
  run(protocol, engine, pp, 31);
  for (std::uint64_t i = 0; i < protocol.num_agents(); ++i) {
    // opinion() is a pure function of the SoA state.
    EXPECT_EQ(protocol.opinion(i), automaton->opinion(protocol.state(i))) << i;
  }
}

}  // namespace
}  // namespace noisypull
