// CompiledPopulation — the production-scale adapter from automata to the
// engines' compiled fast path (DESIGN.md §13).
//
// Per-agent protocol state is ONE flat std::vector<std::uint32_t> of
// automaton state ids (SoA, cache-linear, no per-agent objects), each
// group's agents in one contiguous index run.  The engines drive it
// through two phases per round:
//
//   display phase   displays() (the bulk PullProtocol hook): one dispatch
//                   per group run.  A closed-form group shows its
//                   DisplayRule (one symbol, or the id's opinion bit); any
//                   other group asks its automaton's display() per agent.
//
//   update phase    begin_update_round() + update_run()/apply() +
//                   end_update_round().  A closed-form group applies the
//                   round's UpdateRule (shift, sign step or identity:
//                   arithmetic on the id, no memory per state), with the
//                   outcome k from sample_index() under an InverseCdf
//                   sampler and from the drawn counts otherwise.  Any other
//                   group, and a closed-form one without a rule for the
//                   round's h, runs each agent through update(): its
//                   automaton's compile() + resolve().
//
// Bit-identity contract: under an engine running the fast path, the replay
// digest and final opinions are identical to the same CompiledPopulation
// run through the virtual PullProtocol path, which in turn mirrors the
// production protocol (SourceFilter) draw for draw — see compile() in
// core/automaton/automaton.hpp and tests/test_compiled_path.cpp.  Table
// automata have no production class: the virtual path is their reference.
// SSF is not compiled: its memory histograms are fresh nearly every round
// (DESIGN.md §13).
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

  // ---- PullProtocol (the interpreted / fallback path) -------------------
  std::size_t alphabet_size() const override { return alphabet_; }
  std::uint64_t num_agents() const override { return num_agents_; }
  Symbol display(std::uint64_t agent, std::uint64_t round) const override;
  // One compile() + resolve(): consumes the agent's rng exactly like the
  // mirrored production protocol, for ANY observation total — the path of
  // faulted agents and of every agent without a closed-form rule.
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override;
  Opinion opinion(std::uint64_t agent) const override;
  // Answers from a cached opinion histogram, recounted (O(n): the id's
  // low bit in closed-form groups, the automaton's opinion() elsewhere)
  // only when a round since the last recount could have changed an
  // opinion: a virtual update(), or a closed-form sign step — see
  // end_update_round().  Not safe to call concurrently with itself or
  // with a round; the run loop calls it between rounds.
  std::uint64_t count_opinion(Opinion o) const override;
  std::uint64_t planned_rounds() const override { return planned_rounds_; }
  CompiledAccess compiled_access() override { return {.population = this}; }

  // Bulk hooks (core/protocol.hpp).  displays() fills out[i] for every
  // agent i < out.size() (at most num_agents(): the engine passes the
  // honest prefix when a fault decorator forges the suffix), one dispatch
  // per group run.
  void displays(std::uint64_t round, std::span<Symbol> out) const override;
  // While an update phase is open for `round` (begin_update_round()), each
  // agent of a group with a rule draws its outcome k — sample_index()
  // under an InverseCdf sampler, counts[1] of sample() otherwise — and
  // moves by the rule, the group's floor, rebase, slope and offset hoisted
  // and its kind dispatched once per run.  Every other agent, and every
  // agent when no phase is open for `round`, takes the default loop
  // through update().  Fault-free runs only: the rules assume full samples.
  void update_run(std::uint64_t round, std::uint64_t begin, std::uint64_t end,
                  const ObservationSampler& sampler, Rng& rng) override;

  // ---- Update phase -----------------------------------------------------
  // Asks each closed-form group with a rule for h (has_update_rule) for
  // update_rule(round, h); other groups get none this round.  Serial,
  // before the block-parallel phase.
  void begin_update_round(std::uint64_t round, std::uint64_t h);

  // One agent of a faulted run that its fault decorator need not see:
  // draws its outcome from `sampler` (as update_run() does) and applies
  // its group's rule.  Returns false, drawing nothing, when the group has
  // no rule this round; the caller then samples and calls update().
  // Thread-safe across distinct agents: rules are read-only during the
  // phase, state_[agent] is owner-written.
  bool apply(std::uint64_t agent, const ObservationSampler& sampler,
             Rng& rng);

  // Closes the phase.  Serial, after the block-parallel phase.  A round
  // whose rule in any group is a sign step invalidates the cached opinion
  // histogram (shifts keep the opinion bit; update() marks its own).
  void end_update_round();

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
    // The open update phase's rule; kind None: per-agent update().
    UpdateRule rule;
  };

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
  std::uint64_t update_round_ = 0;  // round of the open update phase
  std::uint64_t update_h_ = 0;      // its sample size
  bool update_open_ = false;        // between begin_ and end_update_round
  // Cached opinion histogram behind count_opinion().  `stale` is set by
  // virtual update() calls, which run concurrently across lanes (hence
  // atomic; relaxed suffices, the round's barrier orders it before the
  // next count), and by end_update_round().
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
