// CompiledPopulation — the production-scale adapter from automata to the
// engines' bulk hooks (DESIGN.md §13).
//
// Per-agent protocol state is ONE flat std::vector<std::uint32_t> of
// automaton state ids (SoA, cache-linear, no per-agent objects), each
// group's agents in one contiguous index run.  The engines drive it
// through the two bulk hooks of core/protocol.hpp:
//
//   displays()      one dispatch per group run.  A closed-form group shows
//                   its DisplayRule (one symbol, or the id's opinion bit);
//                   any other group asks its automaton's display() per
//                   agent.
//
//   update_run()    per group run, the group's UpdateRule for (round, the
//                   sampler's h), built in O(1) on every call: shift, sign
//                   step or identity, arithmetic on the id with no memory
//                   per state, the outcome k drawn by sample_index() under
//                   an InverseCdf sampler and from the drawn counts
//                   otherwise.  Any other group, and a closed-form one
//                   without a rule for h, runs each agent through
//                   update(): its automaton's compile() + resolve().
//
// A fault decorator (fault/faulty_engine.cpp) forwards to these hooks the
// agents it does not touch and calls update() for those whose observations
// it rewrites, so the population itself knows nothing of faults.
//
// Bit-identity contract: the rules realize the same trajectory as
// update() per agent, which in turn mirrors the production protocol
// (SourceFilter) draw for draw — see compile() in
// core/automaton/automaton.hpp and tests/test_compiled_path.cpp.  Table
// automata have no production class: their per-agent update() is their
// reference.  SSF is not compiled: its memory histograms are fresh nearly
// every round (DESIGN.md §13).
#pragma once

#include <array>
// nplint: allow-next-line(threading-header) -- relaxed flag set in update()
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "noisypull/common/check.hpp"
#include "noisypull/common/symbols.hpp"
#include "noisypull/common/units.hpp"
#include "noisypull/core/automaton/protocol_automata.hpp"
#include "noisypull/core/protocol.hpp"
#include "noisypull/rng/observation_cache.hpp"
#include "noisypull/rng/rng.hpp"

namespace noisypull {

// A contiguous run of agents sharing one automaton and one initial state
// (owning: the engines outlive any one round, so the population keeps its
// automata alive).
struct CompiledGroup {
  std::uint64_t count = 0;
  std::shared_ptr<const AgentAutomaton> automaton;
  AutomatonState initial = 0;
};

class CompiledPopulation final : public PullProtocol {
 public:
  CompiledPopulation(std::vector<CompiledGroup> groups,
                     std::uint64_t planned_rounds);

  // ---- PullProtocol, per agent ------------------------------------------
  std::size_t alphabet_size() const override { return alphabet_; }
  std::uint64_t num_agents() const override { return num_agents_; }
  Symbol display(std::uint64_t agent, std::uint64_t round) const override;
  // One compile() + resolve(): consumes the agent's rng exactly like the
  // mirrored production protocol, for ANY observation total — the path of
  // agents whose counts a fault decorator rewrites and of every agent
  // without a closed-form rule.
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override;
  Opinion opinion(std::uint64_t agent) const override;
  // Answers from a cached opinion histogram, recounted (O(n): the id's
  // low bit in closed-form groups, the automaton's opinion() elsewhere)
  // only when a round since the last recount could have changed an
  // opinion: a per-agent update(), or an update_run() over a closed-form
  // sign step.  Not safe to call concurrently with itself or with a round;
  // the run loop calls it between rounds.
  std::uint64_t count_opinion(Opinion o) const override;
  std::uint64_t planned_rounds() const override { return planned_rounds_; }
  CompiledAccess compiled_access() override { return {.population = this}; }

  // Bulk hooks (core/protocol.hpp), one dispatch per group run; see the
  // header comment.  displays() fills the whole population.  update_run()
  // reads k as the count of 1s, so a closed-form rule needs full samples:
  // a decorator that thins observations calls update() instead.
  void displays(std::uint64_t round, std::span<Symbol> out) const override;
  void update_run(std::uint64_t round, std::uint64_t begin, std::uint64_t end,
                  const ObservationSampler& sampler, Rng& rng) override;

  // Times count_opinion() recounted the population instead of answering
  // from its cached histogram.  The invalidating rounds are a function of
  // the trajectory, so the count does not depend on lanes.
  std::uint64_t opinion_recounts() const noexcept { return opinion_recounts_; }

  AutomatonState state(std::uint64_t agent) const {
    NOISYPULL_CHECK(agent < num_agents_, "agent index out of range");
    return state_[agent];
  }

 private:
  struct Group {
    std::shared_ptr<const AgentAutomaton> automaton;
    // Closed form (AgentAutomaton::closed_form()): rules instead of
    // compile(), opinion = id & 1.
    bool closed_form = false;
    // The group's agents occupy one contiguous index run [begin, end) —
    // the constructor lays groups out back to back.
    std::uint64_t agent_begin = 0;
    std::uint64_t agent_end = 0;
  };

  // Marks the cached opinion count stale.  Load first: once the flag is
  // set, concurrent lanes only read its line.
  void mark_opinions_stale() noexcept {
    if (!opinion_counts_stale_.load(std::memory_order_relaxed)) {
      opinion_counts_stale_.store(true, std::memory_order_relaxed);
    }
  }

  // The group holding `agent`.
  const Group& group_of(std::uint64_t agent) const {
    NOISYPULL_CHECK(agent < num_agents_, "agent index out of range");
    return groups_[group_of_[agent]];
  }

  // Applies `rule` to agents [begin, end), each drawing its outcome k with
  // draw() first.
  template <typename Draw>
  void apply_rule(const UpdateRule& rule, std::uint64_t begin,
                  std::uint64_t end, Draw&& draw, Rng& rng);

  std::size_t alphabet_ = 0;
  std::uint64_t num_agents_ = 0;
  std::uint64_t planned_rounds_ = 0;
  // Cached opinion histogram behind count_opinion().  `stale` is set by
  // update() and by update_run() over a sign step, which run concurrently
  // across lanes (hence atomic; relaxed suffices, the round's barrier
  // orders it before the next count).
  mutable std::atomic<bool> opinion_counts_stale_{true};
  mutable std::array<std::uint64_t,
                     std::size_t{std::numeric_limits<Opinion>::max()} + 1>
      opinion_counts_{};
  mutable std::uint64_t opinion_recounts_ = 0;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> group_of_;  // agent → group index
  std::vector<std::uint32_t> state_;     // agent → state id (SoA)
};

// Factory mirroring SourceFilter's agent layout (sources preferring 1
// first, then sources preferring 0, then non-sources —
// PopulationConfig::is_source/source_preference), every agent fresh
// (SfAutomaton::initial_state()).  The returned population is draw-for-draw
// interchangeable with SourceFilter under any engine; its groups are
// closed-form.
std::unique_ptr<CompiledPopulation> make_compiled_sf(
    const PopulationConfig& pop, const SfSchedule& schedule);

}  // namespace noisypull
