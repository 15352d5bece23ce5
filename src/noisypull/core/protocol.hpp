// The protocol interface executed by the noisy PULL(h) engines.
//
// One round of the model (Section 1.3) is:
//   1. every agent chooses a message σ ∈ Σ to display,
//   2. every agent samples h agents uniformly at random with replacement,
//   3. every sampled message is corrupted independently by the noise matrix,
//   4. every agent updates its opinion and internal state.
// The engine owns steps 2–3; a PullProtocol implements steps 1 and 4.
//
// Updates receive the *count vector* of observed symbols rather than an
// ordered list.  This is without loss of generality for every protocol in
// the paper (SF, SSF, and all baselines aggregate observations by counting
// or majority), and it is what allows an O(n·|Σ|)-per-round engine.
//
// This header lives in core/ (base layer) rather than model/: the concrete
// protocols of core/ implement it and the engines of model/ consume it, so
// under the enforced layer DAG (DESIGN.md §8.1) the interface must sit at
// or below both.
#pragma once

#include <cstdint>
#include <span>

#include "noisypull/common/symbols.hpp"
#include "noisypull/common/units.hpp"
#include "noisypull/rng/observation_cache.hpp"
#include "noisypull/rng/rng.hpp"

namespace noisypull {

class CompiledPopulation;  // core/automaton/compiled_population.hpp

// Handle through which AggregateEngine reaches a compiled population behind
// a forwarding decorator (DESIGN.md §13).  A null population means "no
// compiled representation", the default for every protocol.
// CompiledPopulation returns itself; a decorator that passes every display
// and update through unchanged may return its inner protocol's handle, and
// one that changes any (the fault proxy, fault/faulty_engine.cpp) must not.
struct CompiledAccess {
  CompiledPopulation* population = nullptr;
};

class PullProtocol {
 public:
  virtual ~PullProtocol() = default;

  // Size of the communication alphabet Σ (2 for SF, 4 for SSF).
  virtual std::size_t alphabet_size() const = 0;

  virtual std::uint64_t num_agents() const = 0;

  // Message displayed by `agent` at the start of round `round` (0-based).
  virtual Symbol display(std::uint64_t agent, std::uint64_t round) const = 0;

  // Delivers the noisy observations of one round.  In the fault-free model
  // obs.total() == h; fault decorators (fault/faulty_engine.hpp) may deliver
  // fewer — any total in [0, h] — when observations are dropped, so
  // implementations must not assume a full sample.  `rng` supplies the
  // agent's private coin tosses (tie-breaks etc.).
  //
  // Concurrency contract: the block-parallel engines (model/engine.hpp) call
  // update() for *different* agents concurrently within one round.
  // Implementations must therefore only write state owned by `agent` (its
  // own slot in per-agent arrays); reads of shared round-constant state
  // (parameters, the round number) are fine.  Every protocol in this repo
  // satisfies this naturally — agents are anonymous and only see their own
  // observation counts — but a protocol maintaining global mutable
  // statistics inside update() would need its own synchronization.
  virtual void update(std::uint64_t agent, std::uint64_t round,
                      const SymbolCounts& obs, Rng& rng) = 0;

  // ---- Bulk hooks: one call per round or per agent run ------------------
  // The engines' round loops call these instead of one virtual display() or
  // update() per agent, so a protocol whose behaviour depends on the round
  // only through a few phases (SourceFilter) can decide the phase once.
  // The defaults are the per-agent loops, so an override must produce the
  // same displays, the same states and the same draws from `rng`, draw for
  // draw.  A decorator may forward a hook to its inner protocol only over
  // agents it passes through unchanged: the fault proxy forwards the honest
  // displays and the runs of live agents, and takes the per-agent default
  // wherever it rewrites what an agent sees; a counting wrapper forwards
  // none, so its own update() sees every agent.  A subclass that overrides
  // display() or update() must route the matching hook back to its
  // per-agent default, or override it too.

  // out[i] = display(i, round) for every agent i < out.size(), which is
  // num_agents().  Every engine's display phase (Engine::display_histogram).
  virtual void displays(std::uint64_t round, std::span<Symbol> out) const {
    for (std::uint64_t i = 0; i < out.size(); ++i) out[i] = display(i, round);
  }

  // For every agent i in [begin, end), in index order: draw its count
  // vector from `sampler` on `rng`, then update(i, round, counts, rng).
  // AggregateEngine calls it for each run of agents sharing one channel
  // group, under the same concurrency contract as update(): runs of
  // different blocks execute concurrently and never overlap.
  virtual void update_run(std::uint64_t round, std::uint64_t begin,
                          std::uint64_t end, const ObservationSampler& sampler,
                          Rng& rng) {
    SymbolCounts obs(alphabet_size());
    for (std::uint64_t i = begin; i < end; ++i) {
      obs.clear();
      sampler.sample(rng, obs);
      update(i, round, obs, rng);
    }
  }

  // The agent's current output opinion Y^(agent).
  virtual Opinion opinion(std::uint64_t agent) const = 0;

  // Number of agents whose opinion() is `o` — the run loop's per-round
  // convergence count (sim/runner.hpp count_correct).  The default asks
  // every agent; a protocol with a cheaper exact answer may override it
  // (CompiledPopulation caches the opinion histogram).
  virtual std::uint64_t count_opinion(Opinion o) const {
    std::uint64_t count = 0;
    const std::uint64_t n = num_agents();
    for (std::uint64_t i = 0; i < n; ++i) {
      if (opinion(i) == o) ++count;
    }
    return count;
  }

  // Number of rounds the protocol is designed to run, or 0 if it has no
  // intrinsic horizon (self-stabilizing and baseline protocols).
  virtual std::uint64_t planned_rounds() const { return 0; }

  // Compiled-population handle (see CompiledAccess).  The default: none.
  // Read only under Engine::set_compiled, whose one non-test user is
  // perfbench's forwarding ObservedProtocol; both go once the library owns
  // run telemetry (ROADMAP).
  virtual CompiledAccess compiled_access() { return {}; }
};

}  // namespace noisypull
