// The bulk protocol hooks (core/protocol.hpp): displays() and update_run()
// must realize exactly what their per-agent default loops realize — the
// same display vector, the same agent states and the same draws from the
// rng, draw for draw — and no decorator may forward them.
//
//   * every round of a short full SF schedule (listening, its finish, each
//     sub-phase end, the final round, past the horizon), for SF and both
//     ablation variants, under an InverseCdf and a Decomposition sampler:
//     the hooks against the per-agent loop on a second instance, states
//     and the rng position after the run compared;
//   * the engine matrix: {SF, Eager, Alternating} × {InverseCdf,
//     Decomposition} × {1, 4} lanes × {clean, stall, drop, byz}, the
//     protocol run bare (hooks) and behind a counting decorator that does
//     not forward them (per-agent loops): equal digests and states, and
//     the decorator sees every update the fault layer delivers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

enum class Proto { Sf, Eager, Alternating };

std::string proto_name(Proto p) {
  switch (p) {
    case Proto::Sf: return "SF";
    case Proto::Eager: return "Eager";
    case Proto::Alternating: return "Alternating";
  }
  return "?";
}

std::unique_ptr<SourceFilter> make_protocol(Proto p) {
  Rng init(7);
  switch (p) {
    case Proto::Sf:
      return std::make_unique<SourceFilter>(kPop, kSchedule);
    case Proto::Eager:
      return std::make_unique<EagerSourceFilter>(kPop, kSchedule, init);
    case Proto::Alternating:
      return std::make_unique<AlternatingSourceFilter>(kPop, kSchedule, init);
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

struct AgentView {
  Opinion opinion;
  Opinion weak;
  std::uint64_t counter1;
  std::uint64_t counter0;
  bool operator==(const AgentView&) const = default;
};

std::vector<AgentView> states_of(const SourceFilter& sf) {
  std::vector<AgentView> out;
  out.reserve(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    out.push_back({sf.opinion(i), sf.weak_opinion(i), sf.counter1(i),
                   sf.counter0(i)});
  }
  return out;
}

enum class Sampler { InverseCdf, Decomposition };

std::string sampler_name(Sampler s) {
  return s == Sampler::InverseCdf ? "InverseCdf" : "Decomposition";
}

// h = 8 over n draws keeps the inverse-CDF table; h = n (n + 1 outcomes
// over n draws) fails the amortization gate.
std::uint64_t h_of(Sampler s) { return s == Sampler::InverseCdf ? 8 : kN; }

// Round by round, straight through the protocol: the hooks on one
// instance, the per-agent loops (through CountingView) on another, one
// sampler, rngs on the same seed.  The displays, the states and the next
// value of each rng must agree after every round.
TEST(BulkHooks, EveryRoundMatchesThePerAgentLoop) {
  for (const Proto proto : {Proto::Sf, Proto::Eager, Proto::Alternating}) {
    for (const Sampler mode : {Sampler::InverseCdf, Sampler::Decomposition}) {
      const std::string label = proto_name(proto) + ", " + sampler_name(mode);
      const auto hooked = make_protocol(proto);
      const auto reference = make_protocol(proto);
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

enum class Faults { Clean, Stall, Drop, Byz };

std::string faults_name(Faults f) {
  switch (f) {
    case Faults::Clean: return "clean";
    case Faults::Stall: return "stall";
    case Faults::Drop: return "drop";
    case Faults::Byz: return "byz";
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
  }
  return plan;
}

struct EngineRun {
  std::uint64_t digest = 0;
  std::vector<AgentView> states;
  bool operator==(const EngineRun&) const = default;
};

// One full run: the protocol handed to the engine bare (bulk hooks), or
// behind `view` (per-agent loops).  Faulted runs wrap the engine in a
// FaultyEngine, whose proxy must not forward the hooks either.
EngineRun run_engine(Proto proto, Sampler mode, unsigned lanes, Faults faults,
                     bool through_view, std::uint64_t* updates_seen,
                     std::uint64_t* stalled) {
  const auto sf = make_protocol(proto);
  CountingView view(*sf);
  PullProtocol& protocol = through_view ? static_cast<PullProtocol&>(view)
                                        : static_cast<PullProtocol&>(*sf);
  AggregateEngine inner;
  inner.set_threads(lanes);
  FaultyEngine faulty(inner, plan_of(faults));
  Engine& engine = faults == Faults::Clean ? static_cast<Engine&>(inner)
                                           : static_cast<Engine&>(faulty);
  const auto noise = NoiseMatrix::uniform(2, kDelta);
  Rng rng(53);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    engine.step(protocol, noise, Holdings{h_of(mode)}, r, rng);
  }
  if (updates_seen != nullptr) *updates_seen = view.updates();
  if (stalled != nullptr) *stalled = faulty.stats().stalled_updates;
  return {.digest = engine.replay_digest(), .states = states_of(*sf)};
}

TEST(BulkHooks, EngineMatrixMatchesThePerAgentLoop) {
  for (const Proto proto : {Proto::Sf, Proto::Eager, Proto::Alternating}) {
    for (const Sampler mode : {Sampler::InverseCdf, Sampler::Decomposition}) {
      for (const Faults faults :
           {Faults::Clean, Faults::Stall, Faults::Drop, Faults::Byz}) {
        for (const unsigned lanes : {1u, 4u}) {
          const std::string label = proto_name(proto) + ", " +
                                    sampler_name(mode) + ", " +
                                    faults_name(faults) + ", " +
                                    std::to_string(lanes) + " lanes";
          std::uint64_t seen = 0;
          std::uint64_t stalled = 0;
          const EngineRun reference = run_engine(proto, mode, lanes, faults,
                                                 true, &seen, &stalled);
          const EngineRun hooked = run_engine(proto, mode, lanes, faults,
                                              false, nullptr, nullptr);
          EXPECT_EQ(hooked, reference) << label;
          // The decorator saw every update the fault layer delivered.
          EXPECT_EQ(seen + stalled, kN * kRounds) << label;
          if (faults == Faults::Stall) {
            EXPECT_GT(stalled, 0u) << label;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace noisypull
