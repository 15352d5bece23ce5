// Fuzz-vs-oracle differential sweep: randomized (protocol × noise matrix ×
// FaultPlan × engine) tuples, each checked against theory/ExactChain with
// the TV / exact-mean assertions of oracle_util.hpp.  This extends the
// structural fuzzing of test_fuzz_invariants.cpp to *distribution-level*
// correctness: a tuple passes only if the engine's per-round display law is
// statistically indistinguishable from the exact kernel.
//
// Reproducibility contract: the whole campaign is a pure function of
// kFuzzSeed — tuple i derives everything from Rng(kFuzzSeed, i), so any
// failure names a tuple index that replays bit-identically.
//
//   NOISYPULL_ORACLE_MAX_TUPLES=<k>   run only the first k tuples (CI smoke)
//   NOISYPULL_ORACLE_TUPLE=<i>        run exactly tuple i (failure repro)
//   NOISYPULL_ORACLE_COMPILED=1       replicates run the CompiledPopulation
//                                     SF mirror on the compiled engine fast
//                                     path (DESIGN.md §13) instead of the
//                                     SF production protocol — the oracle
//                                     side is unchanged, so this
//                                     differentially tests the compiled
//                                     kernel against the exact chain.
//                                     Table tuples always run a
//                                     CompiledPopulation (its virtual path
//                                     by default); the flag only turns the
//                                     engine's fast path on.  SSF is not
//                                     compiled, and SequentialEngine has no
//                                     compiled path: the flag is a no-op on
//                                     SSF and sequential tuples.
//
// Scope note: drop faults are deliberately absent.  Their thinning
// randomness comes from a fixed per-(round, agent) substream of the plan
// seed (fault/faulty_engine.cpp), so across replicate runs it is one
// deterministic function, not an i.i.d. Binomial — no closed-form round
// kernel exists for the oracle to enumerate.  Byzantine displays, blackout
// stalls, and seed-scheduled bursts are deterministic schedules the oracle
// replays exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oracle_util.hpp"

namespace noisypull {
namespace {

using oracle_test::compare_to_oracle;
using oracle_test::run_replicates;

constexpr std::uint64_t kFuzzSeed = 0xfadedecafc0ffeeULL;
constexpr std::uint64_t kNumTuples = 120;
constexpr std::uint64_t kReps = 2500;
// Fuzz chains prune hard enough to bound support growth; the lost mass is
// folded into every tolerance by compare_to_oracle.
constexpr double kPrune = 1e-9;

enum class EngineKind : int {
  Aggregate = 0,
  Sequential = 1,
  Heterogeneous = 2,
  FaultyAggregate = 3,
};
enum class ProtoKind : int { Table2 = 0, Table3 = 1, Sf = 2, Ssf = 3 };

const char* engine_name(EngineKind k) {
  switch (k) {
    case EngineKind::Aggregate: return "aggregate";
    case EngineKind::Sequential: return "sequential-ascending";
    case EngineKind::Heterogeneous: return "heterogeneous";
    case EngineKind::FaultyAggregate: return "faulty(aggregate)";
  }
  return "?";
}
const char* proto_name(ProtoKind k) {
  switch (k) {
    case ProtoKind::Table2: return "table-d2";
    case ProtoKind::Table3: return "table-d3";
    case ProtoKind::Sf: return "source-filter";
    case ProtoKind::Ssf: return "ssf";
  }
  return "?";
}

TableAutomaton random_table_automaton(Rng& rng, std::size_t d) {
  const std::uint64_t num_states = 2 + rng.next_below(3);  // 2..4
  std::vector<TableState> states;
  for (std::uint64_t s = 0; s < num_states; ++s) {
    TableState ts;
    ts.show = static_cast<Symbol>(rng.next_below(d));
    ts.watch_a = static_cast<Symbol>(rng.next_below(d));
    ts.watch_b = static_cast<Symbol>(rng.next_below(d));
    ts.if_greater = static_cast<AutomatonState>(rng.next_below(num_states));
    ts.if_less = static_cast<AutomatonState>(rng.next_below(num_states));
    ts.tie_a = static_cast<AutomatonState>(rng.next_below(num_states));
    ts.tie_b = static_cast<AutomatonState>(rng.next_below(num_states));
    states.push_back(ts);
  }
  return TableAutomaton(d, std::move(states));
}

// A random FaultPlan from the oracle-modelable (deterministic-schedule)
// subset: Byzantine + blackout + burst, never drops or random crashes.
FaultPlan random_fault_plan(Rng& rng, std::size_t d,
                            std::uint64_t first_eligible) {
  FaultPlan plan;
  plan.seed = rng.next();
  plan.first_eligible = first_eligible;
  const std::uint64_t byz_pick = rng.next_below(3);
  plan.byzantine.fraction = 0.2 * static_cast<double>(byz_pick);  // 0/.2/.4
  plan.byzantine.strategy = byz_pick == 2 ? ByzantineStrategy::FlipFlop
                                          : ByzantineStrategy::AlwaysWrong;
  plan.byzantine.wrong_symbol = static_cast<Symbol>(rng.next_below(d));
  plan.byzantine.honest_symbol = static_cast<Symbol>(rng.next_below(d));
  plan.byzantine.mimic_symbol = static_cast<Symbol>(rng.next_below(d));
  if (rng.next_below(2) == 1) {
    plan.stall.blackout_fraction = 0.3;
    plan.stall.blackout_start = rng.next_below(3);
    plan.stall.blackout_rounds = 1 + rng.next_below(2);
  }
  const std::uint64_t burst_pick = rng.next_below(3);
  if (burst_pick > 0) {
    plan.burst.rate = 0.5 * static_cast<double>(burst_pick);  // 0.5 or 1.0
    plan.burst.rounds = 1 + rng.next_below(2);
    plan.burst.delta = rng.next_double() / static_cast<double>(d);
  }
  return plan;
}

struct TupleOutcome {
  std::string description;
  std::string failure;  // empty on success
};

TupleOutcome run_tuple(std::uint64_t index) {
  const bool compiled_mode = std::getenv("NOISYPULL_ORACLE_COMPILED") != nullptr;
  Rng rng(kFuzzSeed, index);
  const auto engine_kind = static_cast<EngineKind>(index % 4);
  ProtoKind proto_kind;
  if (engine_kind == EngineKind::FaultyAggregate) {
    // Faulty tuples use protocols whose fault-class layout is simple to
    // mirror: table automata (everyone eligible) and SSF (sources immune).
    const ProtoKind faultable[] = {ProtoKind::Table2, ProtoKind::Table3,
                                   ProtoKind::Ssf};
    proto_kind = faultable[rng.next_below(3)];
  } else {
    proto_kind = static_cast<ProtoKind>(rng.next_below(4));
  }

  const std::size_t d = proto_kind == ProtoKind::Ssf      ? 4
                        : proto_kind == ProtoKind::Table3 ? 3
                                                          : 2;
  // Population size: the aggregate/table combination exercises the full
  // n ≤ 12 envelope; richer state spaces stay at n ≤ 8 to bound the exact
  // chain's support; sequential SF/SSF chains run fully labelled (see
  // exact_chain.hpp) and stay at n ≤ 5.
  std::uint64_t n_span = 5;  // n in [4, 8]
  if (engine_kind == EngineKind::Aggregate && proto_kind == ProtoKind::Table2) {
    n_span = 9;  // n in [4, 12]
  }
  if (proto_kind == ProtoKind::Ssf) {
    n_span = 3;  // n in [4, 6]: 4-symbol mem histograms grow support fast
  }
  if (engine_kind == EngineKind::Sequential &&
      (proto_kind == ProtoKind::Sf || proto_kind == ProtoKind::Ssf)) {
    n_span = 2;  // n in [4, 5]
  }
  const std::uint64_t n = 4 + rng.next_below(n_span);
  const std::uint64_t h =
      1 + rng.next_below(proto_kind == ProtoKind::Table2 ? 3 : 2);
  const double delta_cap = 0.9 / static_cast<double>(d);
  const double delta = 0.05 + rng.next_double() * (delta_cap - 0.05);

  std::ostringstream desc;
  desc << "tuple " << index << ": proto=" << proto_name(proto_kind)
       << " engine=" << engine_name(engine_kind) << " n=" << n << " h=" << h
       << " delta=" << delta;

  // --- channels -----------------------------------------------------------
  const NoiseMatrix noise = NoiseMatrix::random_upper_bounded(d, delta, rng);
  NoiseMatrix second = noise;  // heterogeneous: a second, dirtier channel
  if (engine_kind == EngineKind::Heterogeneous) {
    second = NoiseMatrix::random_upper_bounded(d, delta_cap, rng);
  }

  // --- fault plan ---------------------------------------------------------
  const std::uint64_t first_eligible = proto_kind == ProtoKind::Ssf ? 1 : 0;
  FaultPlan plan;
  std::uint64_t byz = 0;
  std::uint64_t blackout = 0;
  if (engine_kind == EngineKind::FaultyAggregate) {
    plan = random_fault_plan(rng, d, first_eligible);
    byz = oracle_test::byzantine_count(plan, n);
    blackout = oracle_test::blackout_count(plan, n);
    desc << " byz=" << byz << "(" << to_string(plan.byzantine.strategy) << ")"
         << " blackout=" << blackout << "@" << plan.stall.blackout_start
         << "x" << plan.stall.blackout_rounds
         << " burst.rate=" << plan.burst.rate << " plan.seed=" << plan.seed;
  }

  // --- rounds -------------------------------------------------------------
  std::uint64_t rounds = 2 + rng.next_below(3);  // 2..4
  SfSchedule sched;
  if (proto_kind == ProtoKind::Sf) {
    sched = SfSchedule{.h = h,
                       .m = h,
                       .phase_rounds = 1,
                       .w = h,
                       .subphase_rounds = 1 + rng.next_below(2),
                       .num_subphases = 1,
                       .final_rounds = 1 + rng.next_below(2)};
    rounds = sched.total_rounds() + 1;  // includes the terminated tail
    desc << " sched={sub=" << sched.subphase_rounds
         << ",final=" << sched.final_rounds << "}";
  }
  // SSF flushes once mem_total ≥ m; m = 2 with h ∈ {1, 2} keeps the flush
  // cadence at 1-2 rounds so interned mem states (and the chain's support)
  // stay small.
  const MemoryBudget m{2};
  if (proto_kind == ProtoKind::Ssf) desc << " m=" << m.get();
  desc << " rounds=" << rounds;

  // --- classes + protocol factory -----------------------------------------
  // Automata must outlive both the chain and the replicate protocols; the
  // class-aligned noise list feeds the heterogeneous engine's per-agent
  // matrices.
  std::vector<std::unique_ptr<AgentAutomaton>> automata;
  std::vector<ChainClass> classes;
  std::vector<NoiseMatrix> class_noise;
  oracle_test::ProtocolFactory make_protocol;

  const auto stall_for = [&](std::uint64_t class_first,
                             std::uint64_t class_count) {
    // The blackout stalls agents [first_eligible, first_eligible + blackout);
    // classes are laid out so this range is exactly one class.
    if (blackout == 0 || class_count == 0) return StallWindow{};
    if (class_first == first_eligible && class_count == blackout) {
      return StallWindow{.start = plan.stall.blackout_start,
                         .rounds = plan.stall.blackout_rounds};
    }
    return StallWindow{};
  };

  if (proto_kind == ProtoKind::Table2 || proto_kind == ProtoKind::Table3) {
    auto owned =
        std::make_unique<TableAutomaton>(random_table_automaton(rng, d));
    const TableAutomaton* table = owned.get();
    automata.push_back(std::move(owned));
    const std::uint64_t num_states = table->num_states();

    // Class layout in agent-index order: [blackout][middle][byzantine].
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> spans = {
        {0, blackout}, {blackout, n - blackout - byz}, {n - byz, byz}};
    // Aliasing shared_ptrs (no control block): `automata` outlives every
    // replicate protocol — both live in this stack frame.
    const std::shared_ptr<const AgentAutomaton> shared_table(
        std::shared_ptr<void>(), table);
    std::vector<CompiledGroup> groups;
    for (const auto& [first, count] : spans) {
      if (count == 0) continue;
      const auto init = static_cast<AutomatonState>(rng.next_below(num_states));
      const NoiseMatrix& channel =
          engine_kind == EngineKind::Heterogeneous && first != 0 ? second
                                                                 : noise;
      ChainClass cls{.size = count,
                     .automaton = table,
                     .initial = init,
                     .channel = channel.matrix(),
                     .forged = DisplayOverride::none(),
                     .stall = stall_for(first, count)};
      if (byz > 0 && first == n - byz) {
        cls.forged = oracle_test::byzantine_override(plan);
      }
      classes.push_back(cls);
      class_noise.push_back(channel);
      groups.push_back(
          {.count = count, .automaton = shared_table, .initial = init});
    }
    make_protocol = [groups] {
      return std::make_unique<CompiledPopulation>(groups,
                                                  /*planned_rounds=*/0);
    };
  } else if (proto_kind == ProtoKind::Sf) {
    const PopulationConfig pop{.n = n, .s1 = 1, .s0 = rng.next_below(2)};
    automata.push_back(std::make_unique<SfAutomaton>(sched, true, 1));
    const AgentAutomaton* src1 = automata.back().get();
    automata.push_back(std::make_unique<SfAutomaton>(sched, false, 0));
    const AgentAutomaton* plain = automata.back().get();

    classes.push_back({.size = 1,
                       .automaton = src1,
                       .initial = src1->initial_state(),
                       .channel = noise.matrix()});
    class_noise.push_back(noise);
    if (pop.s0 > 0) {
      automata.push_back(std::make_unique<SfAutomaton>(sched, true, 0));
      classes.push_back({.size = pop.s0,
                         .automaton = automata.back().get(),
                         .initial = automata.back()->initial_state(),
                         .channel = noise.matrix()});
      class_noise.push_back(noise);
    }
    // Non-sources take the dirty channel under the heterogeneous engine.
    const NoiseMatrix& plain_noise =
        engine_kind == EngineKind::Heterogeneous ? second : noise;
    classes.push_back({.size = n - pop.num_sources(),
                       .automaton = plain,
                       .initial = plain->initial_state(),
                       .channel = plain_noise.matrix()});
    class_noise.push_back(plain_noise);
    make_protocol = [pop, sched] {
      return std::make_unique<SourceFilter>(pop, sched);
    };
    if (compiled_mode) {
      make_protocol = [pop, sched] { return make_compiled_sf(pop, sched); };
    }
  } else {  // Ssf
    const PopulationConfig pop{.n = n, .s1 = 1, .s0 = 0};
    automata.push_back(std::make_unique<SsfAutomaton>(m, true, 1));
    const AgentAutomaton* src = automata.back().get();
    automata.push_back(std::make_unique<SsfAutomaton>(m, false, 0));
    const AgentAutomaton* plain = automata.back().get();

    classes.push_back({.size = 1,
                       .automaton = src,
                       .initial = 0,
                       .channel = noise.matrix()});
    class_noise.push_back(noise);
    // Non-source layout in agent-index order: [blackout][middle][byzantine];
    // agent 0 (the source) is fault-immune via first_eligible = 1.
    const NoiseMatrix& plain_noise =
        engine_kind == EngineKind::Heterogeneous ? second : noise;
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> spans = {
        {1, blackout}, {1 + blackout, n - 1 - blackout - byz}, {n - byz, byz}};
    for (const auto& [first, count] : spans) {
      if (count == 0) continue;
      ChainClass cls{.size = count,
                     .automaton = plain,
                     .initial = 0,
                     .channel = plain_noise.matrix(),
                     .forged = DisplayOverride::none(),
                     .stall = stall_for(first, count)};
      if (byz > 0 && first == n - byz) {
        cls.forged = oracle_test::byzantine_override(plan);
      }
      classes.push_back(cls);
      class_noise.push_back(plain_noise);
    }
    // SSF is not compiled: both modes run the production protocol, whose
    // compiled_access() leaves the engine on the interpreted path.
    make_protocol = [pop, h, m] {
      return std::make_unique<SelfStabilizingSourceFilter>(
          SelfStabilizingSourceFilter::with_memory_budget(pop, Holdings{h},
                                                          m));
    };
  }

  // --- engine factory + display view --------------------------------------
  oracle_test::EngineFactory make_engine;
  oracle_test::DisplayView view = oracle_test::honest_view();
  std::vector<NoiseMatrix> per_agent;
  switch (engine_kind) {
    case EngineKind::Aggregate:
      make_engine = [] { return std::make_unique<AggregateEngine>(); };
      break;
    case EngineKind::Sequential:
      make_engine = [] {
        return std::make_unique<SequentialEngine>(
            SequentialEngine::Order::FixedAscending);
      };
      break;
    case EngineKind::Heterogeneous:
      for (std::size_t c = 0; c < classes.size(); ++c) {
        for (std::uint64_t i = 0; i < classes[c].size; ++i) {
          per_agent.push_back(class_noise[c]);
        }
      }
      make_engine = [&per_agent] {
        return std::make_unique<AggregateEngine>(per_agent);
      };
      break;
    case EngineKind::FaultyAggregate:
      make_engine = [&plan] {
        return std::make_unique<oracle_test::OwnedFaultyAggregate>(plan);
      };
      view = oracle_test::faulted_view(plan, n);
      break;
  }
  if (compiled_mode) {
    make_engine = [inner = std::move(make_engine)] {
      auto engine = inner();
      engine->set_compiled(true);
      return engine;
    };
  }

  // --- oracle + comparison -------------------------------------------------
  ExactChainOptions options;
  options.h = Holdings{h};
  options.kernel = engine_kind == EngineKind::Sequential
                       ? ExactChainOptions::Kernel::SequentialAscending
                       : ExactChainOptions::Kernel::Synchronous;
  options.prune_epsilon = kPrune;
  if (engine_kind == EngineKind::FaultyAggregate) {
    options.channel_override = oracle_test::burst_overrides(plan, d, rounds);
  }
  ExactChain chain(classes, options);

  // NOISYPULL_ORACLE_VERBOSE=1: announce each tuple before the heavy work
  // (chain construction + replicates) so slow configurations are visible.
  if (std::getenv("NOISYPULL_ORACLE_VERBOSE") != nullptr) {
    std::fprintf(stderr, "%s\n", desc.str().c_str());
    std::fflush(stderr);
  }

  const auto empirical =
      run_replicates(make_protocol, make_engine, noise, Holdings{h}, rounds,
                     kReps, kFuzzSeed ^ index, view);
  return {desc.str(), compare_to_oracle(chain, empirical, kReps)};
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

TEST(OracleFuzz, RandomTuplesMatchExactChain) {
  const std::uint64_t only =
      env_u64("NOISYPULL_ORACLE_TUPLE", kNumTuples);  // sentinel: run all
  const std::uint64_t max_tuples =
      env_u64("NOISYPULL_ORACLE_MAX_TUPLES", kNumTuples);

  std::uint64_t ran = 0;
  for (std::uint64_t i = 0; i < kNumTuples && ran < max_tuples; ++i) {
    if (only < kNumTuples && i != only) continue;
    ++ran;
    const auto outcome = run_tuple(i);
    if (!outcome.failure.empty()) {
      ADD_FAILURE() << outcome.description << "\n"
                    << outcome.failure
                    << "repro: NOISYPULL_ORACLE_TUPLE=" << i
                    << " ./tests/noisypull_oracle_tests"
                       " --gtest_filter='OracleFuzz.*'";
    }
  }
  ASSERT_GT(ran, 0u);
}

}  // namespace
}  // namespace noisypull
