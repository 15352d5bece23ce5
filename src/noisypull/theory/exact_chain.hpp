// theory/exact_chain — exact small-n Markov oracle for the noisy PULL(h)
// round kernel.
//
// Every engine in model/ is a Monte-Carlo sampler; until now their
// correctness rested on cross-validating each other statistically.  For
// small populations the round update is an *exactly computable* Markov
// kernel, and this module computes it by direct enumeration — an
// independent, non-Monte-Carlo oracle the engines are held to with
// total-variation-distance assertions (tests/test_oracle_engines.cpp,
// tests/test_oracle_fuzz.cpp; DESIGN.md §12 test pyramid).
//
// Model.  Agents are partitioned into *exchangeability classes* in
// agent-index order: every agent of a class shares one finite per-agent
// state machine (AgentAutomaton), one initial state, one effective receiver
// channel, and one deterministic fault schedule.  Because PULL(h) samples
// uniformly with replacement, the joint chain is lumpable: a configuration
// is, per class, the *histogram* of agent states (not the labelled vector),
// which keeps n ≤ ~12 tractable.  One synchronous round given a
// configuration with display histogram c:
//   1. every agent of class k observes h i.i.d. categorical draws with law
//      q_k[to] ∝ Σ_from c[from] · channel_k(from, to)  (obs ~ Mult(h, q_k)),
//   2. each agent transitions independently through its automaton,
//   3. the class histogram therefore evolves by a convolution of
//      Multinomial(count_s, T_s) splits, where T_s is the per-state law
//      Σ_obs Mult(obs; h, q_k) · transition(s, obs).
// The chain state is the full probability vector over configurations,
// propagated exactly (matrix-free; the linalg/ Matrix type carries the
// channels, matching the engines' channel composition arithmetic).
//
// The SequentialAscending kernel instead replays SequentialEngine's
// FixedAscending activation semantics: agents update one at a time in index
// order against the *live* display histogram.  Index-order activation
// breaks within-class exchangeability (agent k sees the new states of
// agents < k, so the post-round joint law inside a class is not
// permutation-symmetric), so this kernel runs fully labelled: the
// constructor splits every class into singletons and the configuration is
// the ordered per-agent state vector.  Sequential chains are accordingly
// more expensive in n — keep populations smaller than synchronous ones.
//
// Fault semantics (the deterministic-schedule subset of fault/FaultPlan):
// a class may display a forged symbol (Byzantine: constant or even/odd
// round parity), skip updates during stall windows (synchronized
// blackouts; stale displays stay visible), and the chain may swap every
// class's channel for specific rounds (deterministic noise bursts).
// Randomized drop/crash faults key their randomness to a fixed fault seed
// per (round, agent), which is *not* i.i.d. across replicate runs — they
// are deliberately out of the oracle's scope.
//
// Exactness: probabilities are exact up to double rounding (~1e-15 per
// round).  Optional support pruning drops configurations below
// prune_epsilon; the discarded probability is tracked and reported so TV
// assertions can add it to their tolerance instead of silently absorbing
// it.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "noisypull/common/symbols.hpp"
#include "noisypull/common/units.hpp"
#include "noisypull/core/automaton/automaton.hpp"
#include "noisypull/linalg/matrix.hpp"

namespace noisypull {

// AutomatonState / WeightedState / AgentAutomaton — the per-agent state
// machine vocabulary this oracle is built on — now live in
// core/automaton/automaton.hpp (hoisted so the engines' compiled fast path
// can share the automata; DESIGN.md §13).  The chain consumes only
// the exact-law half: transition() as the per-(state, observation)
// distribution, never compile().

// Deterministic display forgery for a whole class (FaultyEngine's Byzantine
// displays: AlwaysWrong/MimicSource are Constant, FlipFlop is EvenOdd).
struct DisplayOverride {
  enum class Kind { None, Constant, EvenOdd };
  Kind kind = Kind::None;
  Symbol even = 0;  // Constant: every round; EvenOdd: even rounds
  Symbol odd = 0;   // EvenOdd: odd rounds

  static DisplayOverride none() { return {}; }
  static DisplayOverride constant(Symbol s) {
    return {Kind::Constant, s, s};
  }
  static DisplayOverride even_odd(Symbol even, Symbol odd) {
    return {Kind::EvenOdd, even, odd};
  }
};

// Update-skipping window [start, start + rounds): FaultyEngine's
// synchronized blackout.  A stalled agent still displays (stale state).
struct StallWindow {
  std::uint64_t start = 0;
  std::uint64_t rounds = 0;

  bool active(std::uint64_t round) const noexcept {
    return rounds > 0 && round >= start && round - start < rounds;
  }
};

// One exchangeability class.  Classes must be listed in agent-index order
// (the order only matters for the SequentialAscending kernel and for
// matching FaultyEngine's index-based fault placement).
struct ChainClass {
  std::uint64_t size = 0;
  const AgentAutomaton* automaton = nullptr;  // non-owning
  AutomatonState initial = 0;
  // Effective receiver channel, artificial noise already composed
  // (noise.matrix() * artificial, exactly as the engines compose it).
  Matrix channel;
  DisplayOverride forged{};
  StallWindow stall{};
};

struct ExactChainOptions {
  Holdings h{1};

  // Synchronous: snapshot-display semantics (Exact/Aggregate/Heterogeneous
  // engines and FaultyEngine over them).  SequentialAscending:
  // SequentialEngine{Order::FixedAscending} live-histogram semantics.
  enum class Kernel { Synchronous, SequentialAscending };
  Kernel kernel = Kernel::Synchronous;

  // Configurations with probability below this are dropped (0 = never);
  // the discarded mass accumulates in truncated_mass().
  double prune_epsilon = 0.0;

  // Per-round replacement of every class's channel (deterministic noise
  // bursts).  The stored matrix must already include any artificial-noise
  // composition, mirroring how FaultyEngine swaps the channel it passes to
  // the wrapped engine.
  std::map<std::uint64_t, Matrix> channel_override{};
};

// Exact distribution over start-of-round display histograms.  The key is
// the length-d display histogram — exactly what Engine::display_histogram
// snapshots (with FaultyEngine's forged displays applied).
using DisplayDistribution = std::map<std::vector<std::uint64_t>, double>;

class ExactChain {
 public:
  ExactChain(std::vector<ChainClass> classes, ExactChainOptions options);

  std::uint64_t num_agents() const noexcept { return n_; }
  std::size_t alphabet_size() const noexcept { return d_; }

  // Number of rounds advanced so far == the round index the next step()
  // executes and display_distribution() describes.
  std::uint64_t round() const noexcept { return round_; }

  // Advances the chain by one exact round.
  void step();

  // Exact marginal law of the display histogram at the current round.
  DisplayDistribution display_distribution() const;

  // Exact expected display histogram at the current round (sharper than TV
  // for mean-shift bugs; tests use both).
  std::vector<double> display_mean() const;

  // Total probability discarded by pruning since construction.  TV
  // assertions must widen their tolerance by this amount.
  double truncated_mass() const noexcept { return truncated_; }

  // Number of configurations currently carrying probability.
  std::size_t support_size() const noexcept { return dist_.size(); }

 private:
  // Per class: state histogram as (state, count) pairs sorted by state.
  using ClassHistogram = std::vector<std::pair<AutomatonState, std::uint32_t>>;
  using Config = std::vector<ClassHistogram>;
  using ConfigDist = std::map<Config, double>;

  // Law of one agent's next state: Σ_obs Mult(obs; h, q)·transition(s, obs).
  std::vector<WeightedState> state_transition_law(
      const ChainClass& cls, AutomatonState state,
      const std::vector<double>& q) const;

  // Memoized state_transition_law: within one round the law depends only on
  // (class, state, display histogram), but many configurations share a
  // histogram — the cache turns a per-configuration recomputation into a
  // lookup.  Cleared at the start of every step.
  const std::vector<WeightedState>& cached_law(
      std::size_t class_index, AutomatonState state,
      const std::vector<std::uint64_t>& c, const std::vector<double>& q) const;

  std::vector<std::uint64_t> display_histogram(const Config& config,
                                               std::uint64_t round) const;
  std::vector<double> observation_law(const ChainClass& cls,
                                      const std::vector<std::uint64_t>& c,
                                      std::uint64_t round) const;
  // Distribution of a class's next histogram given the round's observation
  // law (the convolution of per-state multinomial splits).  `c` is the
  // display histogram the law was derived from, used as the memo key.
  std::vector<std::pair<ClassHistogram, double>> class_step(
      std::size_t class_index, const ClassHistogram& hist,
      const std::vector<std::uint64_t>& c, const std::vector<double>& q,
      std::uint64_t round) const;

  void step_synchronous();
  void step_sequential();
  void prune(ConfigDist& dist);

  Symbol class_display(std::size_t class_index, AutomatonState state,
                       std::uint64_t round) const;

  std::vector<ChainClass> classes_;
  ExactChainOptions options_;
  std::uint64_t n_ = 0;
  std::size_t d_ = 0;
  std::uint64_t round_ = 0;
  double truncated_ = 0.0;
  ConfigDist dist_;
  // All observation count vectors summing to h over d symbols, in a fixed
  // enumeration order; built once.
  std::vector<std::vector<std::uint64_t>> outcomes_;

  // Per-round memo caches (see cached_law / step_synchronous); keyed on the
  // display histogram because that determines the observation law.
  mutable std::map<
      std::tuple<std::size_t, AutomatonState, std::vector<std::uint64_t>>,
      std::vector<WeightedState>>
      law_cache_;
  mutable std::map<
      std::tuple<std::size_t, ClassHistogram, std::vector<std::uint64_t>>,
      std::vector<std::pair<ClassHistogram, double>>>
      class_step_cache_;
};

// Total variation distance between two display distributions (missing keys
// count as zero mass).
double total_variation(const DisplayDistribution& a,
                       const DisplayDistribution& b);

// Statistically sound TV tolerance for comparing an M-sample empirical
// distribution against its exact law with support size K:
//   E[TV] ≤ ½·√(K/M)            (Cauchy–Schwarz over per-cell deviations)
//   P(TV ≥ E[TV] + t) ≤ e^(−2Mt²)   (McDiarmid; each sample moves TV ≤ 1/M)
// so tolerance = ½·√(K/M) + √(log_inv_alpha / (2M)).  Callers add the
// oracle's truncated_mass() on top.
double tv_tolerance(std::size_t support, std::uint64_t samples,
                    double log_inv_alpha);

}  // namespace noisypull
