#include "noisypull/core/automaton/compiled_population.hpp"

#include <algorithm>
#include <utility>

namespace noisypull {

CompiledPopulation::CompiledPopulation(std::vector<CompiledGroup> groups,
                                       std::uint64_t planned_rounds)
    : planned_rounds_(planned_rounds) {
  NOISYPULL_CHECK(!groups.empty(), "compiled population needs agents");
  for (CompiledGroup& cg : groups) {
    NOISYPULL_CHECK(cg.count >= 1, "empty compiled group");
    NOISYPULL_CHECK(cg.automaton != nullptr, "group needs an automaton");
    if (alphabet_ == 0) alphabet_ = cg.automaton->alphabet_size();
    NOISYPULL_CHECK(cg.automaton->alphabet_size() == alphabet_,
                    "all groups must share one alphabet");
    NOISYPULL_CHECK(cg.initial < cg.automaton->num_states(),
                    "initial state outside the automaton's state set");
    Group g;
    g.closed_form = cg.automaton->closed_form();
    NOISYPULL_CHECK(!g.closed_form || alphabet_ == 2,
                    "closed-form rules need the binary alphabet");
    g.automaton = std::move(cg.automaton);
    g.agent_begin = state_.size();
    g.agent_end = state_.size() + cg.count;
    const auto gi = static_cast<std::uint32_t>(groups_.size());
    groups_.push_back(std::move(g));
    for (std::uint64_t i = 0; i < cg.count; ++i) {
      group_of_.push_back(gi);
      state_.push_back(cg.initial);
    }
  }
  num_agents_ = state_.size();
}

Symbol CompiledPopulation::display(std::uint64_t agent,
                                   std::uint64_t round) const {
  return group_of(agent).automaton->display(state_[agent], round);
}

void CompiledPopulation::update(std::uint64_t agent, std::uint64_t round,
                                const SymbolCounts& obs, Rng& rng) {
  const Group& g = group_of(agent);
  // compile() handles arbitrary observation totals (fault decorators may
  // deliver fewer than h) and resolve() consumes the rng exactly as the
  // mirrored production protocol would — see AgentAutomaton::compile.
  const CompiledEdge e = g.automaton->compile(state_[agent], round, obs);
  state_[agent] = e.resolve(rng);
  mark_opinions_stale();
}

Opinion CompiledPopulation::opinion(std::uint64_t agent) const {
  return group_of(agent).automaton->opinion(state_[agent]);
}

std::uint64_t CompiledPopulation::count_opinion(Opinion o) const {
  if (opinion_counts_stale_.load(std::memory_order_relaxed)) {
    opinion_counts_.fill(0);
    for (const Group& g : groups_) {
      for (std::uint64_t i = g.agent_begin; i < g.agent_end; ++i) {
        ++opinion_counts_[g.closed_form
                              ? static_cast<Opinion>(state_[i] & 1)
                              : g.automaton->opinion(state_[i])];
      }
    }
    ++opinion_recounts_;
    opinion_counts_stale_.store(false, std::memory_order_relaxed);
  }
  return opinion_counts_[o];
}

void CompiledPopulation::displays(std::uint64_t round,
                                  std::span<Symbol> out) const {
  NOISYPULL_CHECK(out.size() == num_agents_,
                  "display span must cover the population");
  // Plain pointers: a Symbol store may alias anything, so member loads in
  // the loops would be repeated after every store.
  Symbol* const dst = out.data();
  const AutomatonState* const ids = state_.data();
  for (const Group& g : groups_) {
    const std::uint64_t stop = g.agent_end;
    const DisplayRule rule =
        g.closed_form ? g.automaton->display_rule(round) : DisplayRule{};
    NOISYPULL_CHECK(!g.closed_form || rule.kind != DisplayRule::Kind::None,
                    "closed-form automaton without a display rule");
    switch (rule.kind) {
      case DisplayRule::Kind::Constant:
        std::fill(dst + g.agent_begin, dst + stop, rule.symbol);
        break;
      case DisplayRule::Kind::OpinionBit:
        for (std::uint64_t i = g.agent_begin; i < stop; ++i) {
          dst[i] = static_cast<Symbol>(ids[i] & 1);
        }
        break;
      case DisplayRule::Kind::None:
        for (std::uint64_t i = g.agent_begin; i < stop; ++i) {
          dst[i] = g.automaton->display(ids[i], round);
        }
        break;
    }
  }
}

template <typename Draw>
void CompiledPopulation::apply_rule(const UpdateRule& rule,
                                    std::uint64_t begin, std::uint64_t end,
                                    Draw&& draw, Rng& rng) {
  switch (rule.kind) {
    case UpdateRule::Kind::None:
      break;  // callers route rule-less groups through update()
    case UpdateRule::Kind::Identity:
      // The engine still draws every agent's sample: later agents of the
      // block read the substream after it.
      for (std::uint64_t i = begin; i < end; ++i) draw();
      break;
    case UpdateRule::Kind::Shift: {
      const AutomatonState floor = rule.floor;
      const AutomatonState rebase = rule.rebase;
      const auto slope = static_cast<AutomatonState>(rule.slope);
      const auto offset = static_cast<AutomatonState>(rule.offset);
      for (std::uint64_t i = begin; i < end; ++i) {
        const auto k = static_cast<AutomatonState>(draw());
        const AutomatonState s = state_[i];
        // Unsigned wrap-around arithmetic: the sum is the in-range id.
        state_[i] = (s < floor ? rebase + (s & 1) : s) + slope * k + offset;
      }
      break;
    }
    case UpdateRule::Kind::SignStep:
      for (std::uint64_t i = begin; i < end; ++i) {
        const std::uint64_t k = draw();
        state_[i] = rule.apply(state_[i], k, rng);
      }
      break;
  }
}

void CompiledPopulation::update_run(std::uint64_t round, std::uint64_t begin,
                                    std::uint64_t end,
                                    const ObservationSampler& sampler,
                                    Rng& rng) {
  NOISYPULL_CHECK(end <= num_agents_, "agent run out of range");
  if (begin >= end) return;
  NOISYPULL_CHECK(sampler.alphabet_size() == alphabet_,
                  "sampler alphabet does not match the population");
  const std::uint64_t h = sampler.draws();
  const bool by_index =
      sampler.mode() == ObservationSampler::Mode::InverseCdf;
  SymbolCounts obs(alphabet_);
  const auto index = [&] { return sampler.sample_index(rng); };
  const auto ones = [&] {
    sampler.sample(rng, obs);
    return obs[1];
  };
  for (std::uint32_t gi = group_of_[begin]; begin < end; ++gi) {
    const Group& g = groups_[gi];
    const std::uint64_t run_end = std::min(g.agent_end, end);
    // Built per call, in O(1), from the round and the sampler's h: lanes
    // run concurrently, so there is no shared per-round rule to cache.
    const bool ruled = g.closed_form && g.automaton->has_update_rule(h);
    const UpdateRule rule =
        ruled ? g.automaton->update_rule(round, h) : UpdateRule{};
    NOISYPULL_CHECK(!ruled || rule.kind != UpdateRule::Kind::None,
                    "closed-form automaton without an update rule");
    if (rule.kind == UpdateRule::Kind::None) {
      PullProtocol::update_run(round, begin, run_end, sampler, rng);
    } else {
      // A sign step may change opinions; shifts keep the opinion bit.
      if (rule.kind == UpdateRule::Kind::SignStep) mark_opinions_stale();
      if (by_index) {
        apply_rule(rule, begin, run_end, index, rng);
      } else {
        apply_rule(rule, begin, run_end, ones, rng);
      }
    }
    begin = run_end;
  }
}

std::unique_ptr<CompiledPopulation> make_compiled_sf(
    const PopulationConfig& pop, const SfSchedule& schedule) {
  pop.validate();
  std::vector<CompiledGroup> groups;
  const auto add_group = [&](std::uint64_t count, bool is_source,
                             Opinion preference) {
    if (count == 0) return;
    auto automaton =
        std::make_shared<const SfAutomaton>(schedule, is_source, preference);
    const AutomatonState fresh = automaton->initial_state();
    groups.push_back({count, std::move(automaton), fresh});
  };
  add_group(pop.s1, true, Opinion{1});
  add_group(pop.s0, true, Opinion{0});
  add_group(pop.n - pop.num_sources(), false, Opinion{0});
  return std::make_unique<CompiledPopulation>(std::move(groups),
                                              schedule.total_rounds());
}

}  // namespace noisypull
