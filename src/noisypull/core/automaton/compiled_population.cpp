#include "noisypull/core/automaton/compiled_population.hpp"

#include <utility>

namespace noisypull {

CompiledPopulation::CompiledPopulation(std::vector<CompiledGroup> groups,
                                       std::uint64_t planned_rounds)
    : planned_rounds_(planned_rounds) {
  NOISYPULL_CHECK(!groups.empty(), "compiled population needs agents");
  for (CompiledGroup& cg : groups) {
    NOISYPULL_CHECK(cg.count >= 1, "empty compiled group");
    NOISYPULL_CHECK(cg.automaton != nullptr, "group needs an automaton");
    NOISYPULL_CHECK(groups_.size() < CellTable::kMaxGroups,
                    "too many compiled groups for the cell key");
    if (alphabet_ == 0) alphabet_ = cg.automaton->alphabet_size();
    NOISYPULL_CHECK(cg.automaton->alphabet_size() == alphabet_,
                    "all groups must share one alphabet");
    const auto gi = static_cast<std::uint32_t>(groups_.size());
    Group g;
    g.automaton = std::move(cg.automaton);
    g.agent_begin = state_.size();
    g.agent_end = state_.size() + cg.count;
    g.key_bits = static_cast<std::uint64_t>(gi) << CellTable::kGroupShift;
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
  NOISYPULL_CHECK(agent < num_agents_, "agent index out of range");
  const Group& g = groups_[group_of_[agent]];
  return g.automaton->display(state_[agent], round);
}

void CompiledPopulation::update(std::uint64_t agent, std::uint64_t round,
                                const SymbolCounts& obs, Rng& rng) {
  NOISYPULL_CHECK(agent < num_agents_, "agent index out of range");
  const Group& g = groups_[group_of_[agent]];
  // compile() handles arbitrary observation totals (fault decorators may
  // deliver fewer than h) and resolve() consumes the rng exactly as the
  // mirrored production protocol would — see AgentAutomaton::compile.
  const CompiledEdge e = g.automaton->compile(state_[agent], round, obs);
  state_[agent] = e.resolve(rng);
}

Opinion CompiledPopulation::opinion(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < num_agents_, "agent index out of range");
  const Group& g = groups_[group_of_[agent]];
  return g.automaton->opinion(state_[agent]);
}

std::uint64_t CompiledPopulation::count_opinion(Opinion o) const {
  std::uint64_t count = 0;
  for (const Group& g : groups_) {
    std::vector<Opinion>& memo = g.opinion_table;
    for (std::uint64_t i = g.agent_begin; i < g.agent_end; ++i) {
      const AutomatonState s = state_[i];
      // Interned ids are contiguous, so filling [size, s] covers every id
      // the group can currently hold.
      while (s >= memo.size()) {
        memo.push_back(
            g.automaton->opinion(static_cast<AutomatonState>(memo.size())));
      }
      if (memo[s] == o) ++count;
    }
  }
  return count;
}

void CompiledPopulation::begin_display_round(std::uint64_t round) {
  for (Group& g : groups_) {
    const std::uint64_t sig = g.automaton->display_signature(round);
    if (!g.display_sig_valid || g.display_sig != sig) {
      g.display_table.clear();
      g.display_sig = sig;
      g.display_sig_valid = true;
    }
  }
}

void CompiledPopulation::extend_display_table(Group& g, std::uint64_t round,
                                              AutomatonState s) {
  // Interned ids are contiguous, so filling [size, s] covers every id the
  // population can currently hold.  One virtual display() per new state —
  // the only virtual calls of the whole display phase.
  for (auto id = static_cast<AutomatonState>(g.display_table.size()); id <= s;
       ++id) {
    g.display_table.push_back(g.automaton->display(id, round));
  }
}

void CompiledPopulation::begin_update_round(std::uint64_t round,
                                            std::uint64_t num_outcomes,
                                            std::size_t journals) {
  NOISYPULL_CHECK(
      num_outcomes >= 1 && num_outcomes - 1 <= CellTable::kOutcomeMask,
      "compiled cells need an enumerable outcome space");
  for (Group& g : groups_) {
    const std::uint64_t sig = g.automaton->update_signature(round);
    UpdateTable& t = g.update_tables[sig];  // node-stable across inserts
    if (t.num_outcomes == 0) t.num_outcomes = num_outcomes;
    NOISYPULL_CHECK(t.num_outcomes == num_outcomes,
                    "outcome space changed across rounds sharing an update "
                    "signature (h and alphabet are fixed per run)");
    g.active = &t.cells;
  }
  update_round_ = round;
  if (journals_.size() < journals) journals_.resize(journals);
}

AutomatonState CompiledPopulation::resolve_miss(
    CellTable& journal, const Group& g, std::uint64_t key,
    const ObservationSampler& sampler, Rng& rng) {
  const CellTable::Cell* c = journal.find(key);
  if (c == nullptr) {
    // compile() draws nothing: the agent's next draws are the edge's own,
    // exactly as on a hit.
    SymbolCounts obs(alphabet_);
    sampler.outcome_counts(key & CellTable::kOutcomeMask, obs);
    c = &journal.insert(
        key, g.automaton->compile(static_cast<AutomatonState>(key >> 32),
                                  update_round_, obs));
  }
  return journal.resolve(*c, rng);
}

void CompiledPopulation::end_update_round() {
  const std::uint64_t cap = kCellsPerAgent * num_agents_;
  for (CellTable& journal : journals_) {
    journal.for_each([&](const CellTable::Cell& c) {
      const auto gi = static_cast<std::size_t>(
          (c.key >> CellTable::kGroupShift) & CellTable::kMaxGroups);
      CellTable& table = *groups_[gi].active;
      if (table.find(c.key) != nullptr) return;  // compiled by another block
      if (table.size() >= cap) table.clear();
      table.insert_from(c, journal);
      ++cells_compiled_;
    });
    journal.clear();
  }
}

std::uint64_t CompiledPopulation::table_cells() const noexcept {
  std::uint64_t cells = 0;
  for (const Group& g : groups_) {
    for (const auto& [sig, t] : g.update_tables) cells += t.cells.capacity();
  }
  return cells;
}

// --------------------------------------------------------------------------
// CellTable

CellTable::Cell& CellTable::place(std::uint64_t key) {
  if ((filled_.size() + 1) * 2 > slots_.size()) grow();
  std::size_t i = slot_of(key);
  while (slots_[i].key != kEmptyKey) {
    NOISYPULL_ASSERT(slots_[i].key != key);
    i = (i + 1) & mask_;
  }
  filled_.push_back(static_cast<std::uint32_t>(i));
  Cell& c = slots_[i];
  c.key = key;
  return c;
}

void CellTable::grow() {
  NOISYPULL_CHECK(slots_.size() <= (std::size_t{1} << 31),
                  "cell table exceeds 32-bit slot indexing");
  std::vector<Cell> old(slots_.size() * 2);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  --shift_;
  std::vector<std::uint32_t> order;
  order.swap(filled_);
  for (const std::uint32_t s : order) {
    const Cell& c = old[s];
    std::size_t i = slot_of(c.key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
    slots_[i] = c;
    filled_.push_back(static_cast<std::uint32_t>(i));
  }
}

const CellTable::Cell& CellTable::insert(std::uint64_t key,
                                         const CompiledEdge& e) {
  Cell& c = place(key);
  c.kind = static_cast<std::uint8_t>(e.kind);
  c.target = e.target;
  if (e.kind == CompiledEdge::Kind::InverseCdf) {
    NOISYPULL_CHECK(!e.law.empty(), "empty transition law");
    NOISYPULL_CHECK(law_prob_.size() + e.law.size() <=
                        static_cast<std::size_t>(~std::uint32_t{0}),
                    "pooled law storage exceeds 32-bit indexing");
    c.target[0] = static_cast<AutomatonState>(law_prob_.size());
    c.target[1] = static_cast<AutomatonState>(e.law.size());
    for (const WeightedState& ws : e.law) {
      law_prob_.push_back(ws.prob);
      law_target_.push_back(ws.state);
    }
  }
  return c;
}

void CellTable::insert_from(const Cell& c, const CellTable& from) {
  Cell& mine = place(c.key);
  mine.kind = c.kind;
  mine.target = c.target;
  if (static_cast<CompiledEdge::Kind>(c.kind) ==
      CompiledEdge::Kind::InverseCdf) {
    mine.target[0] = static_cast<AutomatonState>(law_prob_.size());
    const std::uint32_t end = c.target[0] + c.target[1];
    for (std::uint32_t k = c.target[0]; k < end; ++k) {
      law_prob_.push_back(from.law_prob_[k]);
      law_target_.push_back(from.law_target_[k]);
    }
  }
}

void CellTable::clear() {
  for (const std::uint32_t s : filled_) slots_[s].key = kEmptyKey;
  filled_.clear();
  law_prob_.clear();
  law_target_.clear();
}

std::unique_ptr<CompiledPopulation> make_compiled_sf(
    const PopulationConfig& pop, const SfSchedule& schedule) {
  pop.validate();
  std::vector<CompiledGroup> groups;
  if (pop.s1 > 0) {
    groups.push_back(
        {pop.s1, std::make_shared<SfAutomaton>(schedule, true, Opinion{1}), 0});
  }
  if (pop.s0 > 0) {
    groups.push_back(
        {pop.s0, std::make_shared<SfAutomaton>(schedule, true, Opinion{0}), 0});
  }
  const std::uint64_t nonsources = pop.n - pop.num_sources();
  if (nonsources > 0) {
    groups.push_back(
        {nonsources, std::make_shared<SfAutomaton>(schedule, false, Opinion{0}),
         0});
  }
  return std::make_unique<CompiledPopulation>(std::move(groups),
                                              schedule.total_rounds());
}

std::unique_ptr<CompiledPopulation> make_compiled_ssf(
    const PopulationConfig& pop, MemoryBudget m) {
  pop.validate();
  std::vector<CompiledGroup> groups;
  if (pop.s1 > 0) {
    groups.push_back(
        {pop.s1, std::make_shared<SsfAutomaton>(m, true, Opinion{1}), 0});
  }
  if (pop.s0 > 0) {
    groups.push_back(
        {pop.s0, std::make_shared<SsfAutomaton>(m, true, Opinion{0}), 0});
  }
  const std::uint64_t nonsources = pop.n - pop.num_sources();
  if (nonsources > 0) {
    groups.push_back(
        {nonsources, std::make_shared<SsfAutomaton>(m, false, Opinion{0}), 0});
  }
  // SSF is self-stabilizing: no intrinsic horizon (planned_rounds = 0),
  // matching SelfStabilizingSourceFilter.
  return std::make_unique<CompiledPopulation>(std::move(groups), 0);
}

}  // namespace noisypull
