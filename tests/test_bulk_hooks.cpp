// The bulk protocol hooks (core/protocol.hpp): displays() and update_run()
// must realize exactly what their per-agent default loops realize — the
// same display vector, the same agent states and the same draws from the
// rng, draw for draw — and a decorator may forward them only over agents
// it passes through unchanged.
//
//   * every round of a short full SF schedule (listening, its finish, each
//     sub-phase end, the final round, past the horizon), for SF, both
//     ablation variants and compiled SF, under an InverseCdf and a
//     Decomposition sampler: the hooks against the per-agent loop on a
//     second instance, states and the rng position after the run compared;
//   * the engine matrix: {SF, Eager, Alternating, compiled SF} ×
//     {InverseCdf, Decomposition} × {1, 4} lanes × {clean, stall, drop,
//     byz, byz + stall}, the protocol run bare (its hooks, forwarded by
//     the fault proxy over the agents it leaves alone) and on an engine
//     that runs the per-agent loops over whatever it is handed, the fault
//     proxy's own display() and update() included: equal digests, states
//     and fault counters, and a counting decorator under the fault layer
//     sees every update that layer delivers;
//   * compiled SF under Byzantine-only and stall-only plans makes no
//     compile() call: the proxy hands its live runs to the closed-form
//     rules.  A drop plan sends every agent through compile().
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "compile_counter.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/core/automaton/protocol_automata.hpp"
#include "noisypull/core/schedule.hpp"
#include "noisypull/core/source_filter.hpp"
#include "noisypull/core/variants.hpp"
#include "noisypull/fault/faulty_engine.hpp"
#include "noisypull/model/engine.hpp"
#include "noisypull/rng/observation_cache.hpp"

namespace noisypull {
namespace {

// Four engine blocks, the last one ragged.
constexpr std::uint64_t kN = 3 * 4096 + 517;
constexpr PopulationConfig kPop{.n = kN, .s1 = 40, .s0 = 12};
constexpr double kDelta = 0.2;

// Every SF phase in a few dozen rounds: 4 + 4 listening rounds, four
// 3-round sub-phases and a 4-round final one.
constexpr SfSchedule kSchedule{.h = 8,
                               .m = 8,
                               .phase_rounds = 4,
                               .w = 8,
                               .subphase_rounds = 3,
                               .num_subphases = 4,
                               .final_rounds = 4};
const std::uint64_t kRounds = kSchedule.total_rounds() + 3;

enum class Sampler { InverseCdf, Decomposition };

std::string sampler_name(Sampler s) {
  return s == Sampler::InverseCdf ? "InverseCdf" : "Decomposition";
}

// h = 8 over n draws keeps the inverse-CDF table; h = n (n + 1 outcomes
// over n draws) fails the amortization gate.
std::uint64_t h_of(Sampler s) { return s == Sampler::InverseCdf ? 8 : kN; }

// kSchedule at the sampler's h.  SourceFilter never reads the schedule's
// h; compiled SF has closed-form rules up to it.
SfSchedule schedule_of(Sampler s) {
  SfSchedule schedule = kSchedule;
  schedule.h = h_of(s);
  return schedule;
}

enum class Proto { Sf, Eager, Alternating, CompiledSf };

constexpr Proto kProtos[] = {Proto::Sf, Proto::Eager, Proto::Alternating,
                             Proto::CompiledSf};

std::string proto_name(Proto p) {
  switch (p) {
    case Proto::Sf: return "SF";
    case Proto::Eager: return "Eager";
    case Proto::Alternating: return "Alternating";
    case Proto::CompiledSf: return "compiled SF";
  }
  return "?";
}

std::unique_ptr<PullProtocol> make_protocol(Proto p, Sampler mode) {
  const SfSchedule schedule = schedule_of(mode);
  Rng init(7);
  switch (p) {
    case Proto::Sf:
      return std::make_unique<SourceFilter>(kPop, schedule);
    case Proto::Eager:
      return std::make_unique<EagerSourceFilter>(kPop, schedule, init);
    case Proto::Alternating:
      return std::make_unique<AlternatingSourceFilter>(kPop, schedule, init);
    case Proto::CompiledSf:
      return make_compiled_sf(kPop, schedule);
  }
  return nullptr;
}

// Forwards the per-agent interface only: it inherits the bulk hooks'
// defaults, so every display and update of a run passes through it, one
// agent at a time — the reference the hooks are held to.  Counts updates.
class CountingView final : public PullProtocol {
 public:
  explicit CountingView(PullProtocol& inner) : inner_(inner) {}
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
  std::uint64_t updates() const {
    return updates_.load(std::memory_order_relaxed);
  }

 private:
  PullProtocol& inner_;
  std::atomic<std::uint64_t> updates_{0};
};

// Every agent's state: (opinion, weak opinion, counter1, counter0) under
// SourceFilter and its variants, the automaton state id under compiled SF.
std::vector<std::uint64_t> states_of(const PullProtocol& protocol) {
  std::vector<std::uint64_t> out;
  if (const auto* sf = dynamic_cast<const SourceFilter*>(&protocol)) {
    for (std::uint64_t i = 0; i < kN; ++i) {
      out.insert(out.end(), {sf->opinion(i), sf->weak_opinion(i),
                             sf->counter1(i), sf->counter0(i)});
    }
  } else {
    const auto& pop = dynamic_cast<const CompiledPopulation&>(protocol);
    for (std::uint64_t i = 0; i < kN; ++i) out.push_back(pop.state(i));
  }
  return out;
}

// Round by round, straight through the protocol: the hooks on one
// instance, the per-agent loops (through CountingView) on another, one
// sampler, rngs on the same seed.  The displays, the states and the next
// value of each rng must agree after every round.
TEST(BulkHooks, EveryRoundMatchesThePerAgentLoop) {
  for (const Proto proto : kProtos) {
    for (const Sampler mode : {Sampler::InverseCdf, Sampler::Decomposition}) {
      const std::string label = proto_name(proto) + ", " + sampler_name(mode);
      const auto hooked = make_protocol(proto, mode);
      const auto reference = make_protocol(proto, mode);
      CountingView per_agent(*reference);
      std::vector<Symbol> got(kN);
      std::vector<Symbol> want(kN);
      ObservationSampler sampler;
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        hooked->displays(r, got);
        per_agent.displays(r, want);
        ASSERT_EQ(got, want) << label << ", round " << r;
        // Weights from the round's displays, as the engine builds them.
        std::uint64_t ones = 0;
        for (const Symbol s : got) ones += s;
        const double w1 = static_cast<double>(ones) * (1 - kDelta) +
                          static_cast<double>(kN - ones) * kDelta;
        const double w0 = static_cast<double>(kN) - w1;
        const std::vector<double> weights{w0, w1};
        sampler.reset(h_of(mode), weights, /*cache=*/true, kN);
        ASSERT_EQ(sampler.mode(), mode == Sampler::InverseCdf
                                      ? ObservationSampler::Mode::InverseCdf
                                      : ObservationSampler::Mode::Decomposition);
        Rng hooked_rng(1000 + r);
        Rng reference_rng(1000 + r);
        // Two runs per round, split mid-population, as engine blocks are.
        hooked->update_run(r, 0, kN / 3, sampler, hooked_rng);
        hooked->update_run(r, kN / 3, kN, sampler, hooked_rng);
        per_agent.update_run(r, 0, kN / 3, sampler, reference_rng);
        per_agent.update_run(r, kN / 3, kN, sampler, reference_rng);
        ASSERT_EQ(hooked_rng.next(), reference_rng.next())
            << label << ", round " << r << ": the hook drew differently";
        ASSERT_EQ(states_of(*hooked), states_of(*reference))
            << label << ", round " << r;
      }
      EXPECT_EQ(per_agent.updates(), kN * kRounds) << label;
    }
  }
}

enum class Faults { Clean, Stall, Drop, Byz, ByzStall };

std::string faults_name(Faults f) {
  switch (f) {
    case Faults::Clean: return "clean";
    case Faults::Stall: return "stall";
    case Faults::Drop: return "drop";
    case Faults::Byz: return "byz";
    case Faults::ByzStall: return "byz+stall";
  }
  return "?";
}

FaultPlan plan_of(Faults f) {
  FaultPlan plan = FaultPlan::for_binary(/*correct=*/1);
  plan.seed = 31;
  plan.first_eligible = kPop.num_sources();
  switch (f) {
    case Faults::Clean:
      break;
    case Faults::Stall:
      plan.stall.crash_rate = 0.05;
      break;
    case Faults::Drop:
      plan.drop.p = 0.2;
      break;
    case Faults::Byz:
      plan.byzantine.fraction = 0.1;
      break;
    case Faults::ByzStall:
      plan.byzantine.fraction = 0.1;
      plan.stall.crash_rate = 0.05;
      break;
  }
  return plan;
}

struct EngineRun {
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> states;
  std::uint64_t stalled_updates = 0;
  std::uint64_t dropped_observations = 0;
  bool operator==(const EngineRun&) const = default;
};

// An engine decorator that hands its inner engine whatever protocol it is
// given behind a CountingView, so the inner engine runs the per-agent loops
// over it: under a FaultyEngine, the fault proxy's own display() and
// update() for every agent, which its hooks are held to.
class PerAgentEngine final : public Engine {
 public:
  explicit PerAgentEngine(Engine& inner) : inner_(inner) {}
  void step(PullProtocol& protocol, const NoiseMatrix& noise, Holdings h,
            std::uint64_t round, Rng& rng) override {
    CountingView view(protocol);
    inner_.step(view, noise, h, round, rng);
    updates_ += view.updates();
  }
  void set_artificial_noise(std::optional<Matrix> p) override {
    inner_.set_artificial_noise(std::move(p));
  }
  std::uint64_t replay_digest() const noexcept override {
    return inner_.replay_digest();
  }
  std::uint64_t updates() const { return updates_; }

 private:
  Engine& inner_;
  std::uint64_t updates_ = 0;
};

// Update counts of a per-agent run.
struct Seen {
  std::uint64_t by_engine = 0;  // update() calls the engine made
  std::uint64_t delivered = 0;  // of those, passed on by the fault layer
};

// One full run of `protocol`: through the bulk hooks (forwarded by the
// fault proxy over the agents it leaves alone), or, with `seen`, through
// the per-agent loops of PerAgentEngine with a CountingView under the
// fault layer.  Faulted runs wrap the engine in a FaultyEngine.  The
// compiled toggle is on throughout: neither the proxy nor a view offers
// compiled_access(), so it must not let the engine bypass them.
EngineRun run_engine(PullProtocol& protocol, Sampler mode, unsigned lanes,
                     Faults faults, Seen* seen = nullptr) {
  AggregateEngine inner;
  inner.set_threads(lanes);
  inner.set_compiled(true);
  PerAgentEngine loops(inner);
  Engine& below = seen != nullptr ? static_cast<Engine&>(loops)
                                  : static_cast<Engine&>(inner);
  FaultyEngine faulty(below, plan_of(faults));
  Engine& engine = faults == Faults::Clean ? below
                                           : static_cast<Engine&>(faulty);
  CountingView delivered(protocol);
  PullProtocol& target = seen != nullptr
                             ? static_cast<PullProtocol&>(delivered)
                             : protocol;
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(53);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    engine.step(target, noise, Holdings{h_of(mode)}, r, rng);
  }
  if (seen != nullptr) *seen = {loops.updates(), delivered.updates()};
  return {.digest = engine.replay_digest(),
          .states = states_of(protocol),
          .stalled_updates = faulty.stats().stalled_updates,
          .dropped_observations = faulty.stats().dropped_observations};
}

TEST(BulkHooks, EngineMatrixMatchesThePerAgentLoop) {
  for (const Proto proto : kProtos) {
    for (const Sampler mode : {Sampler::InverseCdf, Sampler::Decomposition}) {
      for (const Faults faults : {Faults::Clean, Faults::Stall, Faults::Drop,
                                  Faults::Byz, Faults::ByzStall}) {
        for (const unsigned lanes : {1u, 4u}) {
          const std::string label = proto_name(proto) + ", " +
                                    sampler_name(mode) + ", " +
                                    faults_name(faults) + ", " +
                                    std::to_string(lanes) + " lanes";
          const auto per_agent = make_protocol(proto, mode);
          Seen seen;
          const EngineRun reference =
              run_engine(*per_agent, mode, lanes, faults, &seen);
          const auto hooked_protocol = make_protocol(proto, mode);
          const EngineRun hooked =
              run_engine(*hooked_protocol, mode, lanes, faults);
          // Digests, states, stalled_updates and dropped_observations.
          EXPECT_EQ(hooked, reference) << label;
          // The engine updated every agent per agent, and the view under
          // the fault layer saw every update that layer delivered.
          EXPECT_EQ(seen.by_engine, kN * kRounds) << label;
          EXPECT_EQ(seen.delivered + reference.stalled_updates, kN * kRounds)
              << label;
          if (faults == Faults::Stall || faults == Faults::ByzStall) {
            EXPECT_GT(reference.stalled_updates, 0u) << label;
          }
          if (faults == Faults::Drop) {
            EXPECT_GT(reference.dropped_observations, 0u) << label;
          }
        }
      }
    }
  }
}

// make_compiled_sf's layout, each group's automaton behind a
// CompileCounter.
struct CountedSf {
  std::unique_ptr<CompiledPopulation> pop;
  std::vector<std::shared_ptr<const test_support::CompileCounter>> counters;
  std::uint64_t compiles() const {
    std::uint64_t total = 0;
    for (const auto& c : counters) total += c->compiles();
    return total;
  }
};

CountedSf make_counted_sf(Sampler mode) {
  const SfSchedule schedule = schedule_of(mode);
  CountedSf out;
  std::vector<CompiledGroup> groups;
  for (const auto& [count, is_source, pref] :
       {std::tuple{kPop.s1, true, Opinion{1}},
        std::tuple{kPop.s0, true, Opinion{0}},
        std::tuple{kN - kPop.num_sources(), false, Opinion{0}}}) {
    auto sf = std::make_shared<const SfAutomaton>(schedule, is_source, pref);
    const AutomatonState fresh = sf->initial_state();
    out.counters.push_back(
        std::make_shared<const test_support::CompileCounter>(std::move(sf)));
    groups.push_back({count, out.counters.back(), fresh});
  }
  out.pop = std::make_unique<CompiledPopulation>(std::move(groups),
                                                 schedule.total_rounds());
  return out;
}

// Under Byzantine-only and stall-only plans the fault proxy hands every
// live run to the population, so compiled SF runs its closed-form rules
// for every agent and never its compile(), under either sampler and at
// any lane count, and still matches make_compiled_sf's run.  A drop plan
// thins each agent's counts, which the rules cannot read: every delivered
// update runs compile().
TEST(BulkHooks, FaultedCompiledSfRunsOnItsRules) {
  for (const Sampler mode : {Sampler::InverseCdf, Sampler::Decomposition}) {
    for (const Faults faults : {Faults::Byz, Faults::Stall, Faults::Drop}) {
      for (const unsigned lanes : {1u, 4u}) {
        const std::string label = sampler_name(mode) + ", " +
                                  faults_name(faults) + ", " +
                                  std::to_string(lanes) + " lanes";
        CountedSf counted = make_counted_sf(mode);
        const EngineRun got =
            run_engine(*counted.pop, mode, lanes, faults);
        const auto plain = make_protocol(Proto::CompiledSf, mode);
        EXPECT_EQ(got, run_engine(*plain, mode, lanes, faults))
            << label;
        if (faults == Faults::Drop) {
          EXPECT_EQ(counted.compiles(), kN * kRounds) << label;
        } else {
          EXPECT_EQ(counted.compiles(), 0u) << label;
        }
        if (faults == Faults::Stall) {
          EXPECT_GT(got.stalled_updates, 0u) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace noisypull
