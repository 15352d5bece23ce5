// Lumped population engine: O(#occupied states) per round, any n.
//
// In PULL(h) every observation is an i.i.d. draw from the global display
// histogram, so agents sharing one (automaton, state, channel, fault
// schedule) are exchangeable — the same lumping theory/exact_chain exploits
// symbolically.  Where the exact chain propagates the full *distribution*
// over class histograms (tractable only for n ≲ 12), this engine propagates
// ONE sampled trajectory of the histogram `class → (state → count)`:
//
//   1. display histogram c from the class histograms (O(#states) work),
//   2. per class, per occupied state with count k: the k agents' observation
//      outcomes are jointly Multinomial(k, outcome pmf), drawn in one
//      ObservationSampler::split pass (O(#outcomes) binomial draws, never
//      O(k)),
//   3. each (state, outcome) bucket of size b splits over the automaton's
//      exact transition law — one more multinomial, Multinomial(b, law).
//
// Per-round cost is therefore Σ_class #occupied · #outcomes, independent of
// n; counts are 64-bit, so n = 10¹² is a configuration value, not a memory
// size.  The trajectory is *distribution-identical* to running ExactEngine /
// AggregateEngine over a CompiledPopulation with the same classes — but NOT
// bit-identical (the randomness is spent on population-level splits instead
// of per-agent draws), which is why scheduler cache keys fold a distinct
// engine kind (analysis/scheduler.hpp) and replay digests are only
// comparable lumped-to-lumped.
//
// Determinism: step() draws exactly one 64-bit round key from the caller's
// rng and class i runs on the substream Rng(round_key, i) — the same
// counter-substream discipline as the block-parallel engines (model/
// engine.hpp), so trajectories are a function of seed and configuration
// alone.  Class histograms are kept sorted by state id; all iteration is in
// that deterministic order.
//
// Scope: deterministic per-class fault schedules (forged displays, stall
// windows) mirror the exact chain's; randomized FaultPlan faults and churn
// key their randomness to per-(round, agent) substreams that have no
// population-level counterpart, so fault/FaultyEngine does not wrap this
// engine (enforced at the scheduler seam).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "noisypull/common/symbols.hpp"
#include "noisypull/common/units.hpp"
#include "noisypull/core/schedule.hpp"
#include "noisypull/linalg/matrix.hpp"
#include "noisypull/noise/noise_matrix.hpp"
#include "noisypull/rng/observation_cache.hpp"
#include "noisypull/rng/rng.hpp"
#include "noisypull/sim/runner.hpp"
#include "noisypull/theory/exact_chain.hpp"

namespace noisypull {

// One exchangeability class — the sampled-trajectory counterpart of
// theory/exact_chain's ChainClass.  `channel` is the class's base receiver
// channel (the noise matrix N); artificial noise is composed by the engine
// (set_artificial_noise), matching how the agent-level engines compose N·P.
struct LumpedClass {
  AgentCount count{0};
  const AgentAutomaton* automaton = nullptr;  // non-owning
  AutomatonState initial = 0;
  Matrix channel;
  DisplayOverride forged{};
  StallWindow stall{};
};

class LumpedEngine {
 public:
  explicit LumpedEngine(std::vector<LumpedClass> classes);

  std::uint64_t num_agents() const noexcept { return n_; }
  std::size_t alphabet_size() const noexcept { return d_; }

  // Artificial post-channel noise (Definition 6): every class's effective
  // channel becomes N_k·P, exactly as the agent-level engines compose it.
  void set_artificial_noise(std::optional<Matrix> p);

  // Round horizon installed by the builders below (SF schedule length, SSF
  // convergence deadline); run_lumped uses it when RunConfig.max_rounds == 0.
  void set_planned_rounds(std::uint64_t rounds) noexcept {
    planned_rounds_ = rounds;
  }
  std::uint64_t planned_rounds() const noexcept { return planned_rounds_; }

  // Chained FNV-1a digest over (round, display histogram) of every round
  // stepped — the lumped counterpart of Engine::replay_digest.  Digests are
  // deterministic and comparable between lumped runs of one configuration,
  // but deliberately NOT comparable to the agent-level engines' digests
  // (those absorb per-agent display symbols; at n = 10¹² there are no
  // per-agent symbols to absorb).
  std::uint64_t replay_digest() const noexcept { return digest_; }

  // Executes one synchronous round.  Consumes exactly one draw from `rng`
  // (the round key); all sampling runs on per-class substreams.
  void step(Holdings h, std::uint64_t round, Rng& rng);

  // Number of agents whose automaton opinion equals `correct`.
  std::uint64_t count_correct(Opinion correct) const;

  // Start-of-round display histogram (length alphabet_size()) — what step()
  // folds into the digest; exposed for the oracle/GOF harnesses.
  std::vector<std::uint64_t> display_histogram(std::uint64_t round) const;

  // Occupied (class, state) pairs — the quantity per-round cost scales with.
  std::size_t support_size() const noexcept;

 private:
  struct ClassState {
    LumpedClass cls;
    Matrix effective;  // cls.channel (·artificial)
    // State histogram as (state, count), sorted by state, counts positive.
    std::vector<std::pair<AutomatonState, std::uint64_t>> hist;
  };

  void rebuild_effective();
  // Observation law q[to] ∝ Σ_from c[from]·effective(from, to).
  std::vector<double> observation_law(const ClassState& cs,
                                      const std::vector<std::uint64_t>& c) const;

  std::vector<ClassState> classes_;
  std::size_t d_ = 0;
  std::uint64_t n_ = 0;
  std::uint64_t planned_rounds_ = 0;
  std::optional<Matrix> artificial_;
  std::uint64_t digest_;
  ObservationSampler sampler_;  // reset per (class, round)
};

// Executes a full lumped run with the same bookkeeping as sim/runner's
// run(): trajectory recording, first-all-correct streaks, the optional
// stability window, and per-round cancellation.  cfg.engine_threads is
// ignored (the engine is O(#states) serial by construction).
RunResult run_lumped(LumpedEngine& engine, Opinion correct,
                     const RunConfig& cfg, Rng& rng);

// A lumped engine plus the automaton mirrors backing its classes (the
// engine holds non-owning pointers, matching ChainClass).
struct LumpedSetup {
  std::vector<std::unique_ptr<const AgentAutomaton>> automata;  // outlive engine
  std::unique_ptr<LumpedEngine> engine;
};

// Source-Filter population (Theorem 4) as lumped classes: sources preferring
// 1, sources preferring 0, non-sources.  planned_rounds is the schedule's
// total_rounds().
LumpedSetup make_lumped_sf(const PopulationConfig& pop,
                           const SfSchedule& schedule,
                           const NoiseMatrix& noise);

// Self-stabilizing Source Filter population (Theorem 5, stale_flush = 0).
// planned_rounds mirrors SelfStabilizingSourceFilter::convergence_deadline.
// Note the Theorem 5 budget m grows ~linearly in n, so lumped SSF runs at
// huge n are bounded by the protocol's own Ω(m/h) horizon, not the engine.
LumpedSetup make_lumped_ssf(const PopulationConfig& pop, Holdings h,
                            MemoryBudget m, const NoiseMatrix& noise);

}  // namespace noisypull
