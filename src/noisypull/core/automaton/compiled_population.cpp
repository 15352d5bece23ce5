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
    NOISYPULL_CHECK(groups_.size() < MissJournal::kMaxGroups,
                    "too many compiled groups for the cell key");
    if (alphabet_ == 0) alphabet_ = cg.automaton->alphabet_size();
    NOISYPULL_CHECK(cg.automaton->alphabet_size() == alphabet_,
                    "all groups must share one alphabet");
    NOISYPULL_CHECK(cg.initial < cg.automaton->num_states(),
                    "initial state outside the automaton's state set");
    const auto gi = static_cast<std::uint32_t>(groups_.size());
    Group g;
    g.closed_form = cg.automaton->closed_form();
    NOISYPULL_CHECK(!g.closed_form || alphabet_ == 2,
                    "closed-form rules need the binary alphabet");
    g.num_states = cg.automaton->num_states();
    g.automaton = std::move(cg.automaton);
    g.agent_begin = state_.size();
    g.agent_end = state_.size() + cg.count;
    g.key_bits = static_cast<std::uint64_t>(gi) << MissJournal::kGroupShift;
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
  // Load first: once the flag is set, concurrent lanes only read its line.
  if (!opinion_counts_stale_.load(std::memory_order_relaxed)) {
    opinion_counts_stale_.store(true, std::memory_order_relaxed);
  }
}

Opinion CompiledPopulation::opinion(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < num_agents_, "agent index out of range");
  const Group& g = groups_[group_of_[agent]];
  return g.automaton->opinion(state_[agent]);
}

Opinion CompiledPopulation::memo_opinion(const Group& g, AutomatonState s) {
  if (g.closed_form) return static_cast<Opinion>(s & 1);
  std::vector<Opinion>& memo = g.opinion_table;
  // State ids are contiguous from 0, so filling [size, s] covers every id
  // the group can currently hold.
  while (s >= memo.size()) {
    memo.push_back(
        g.automaton->opinion(static_cast<AutomatonState>(memo.size())));
  }
  return memo[s];
}

std::uint64_t CompiledPopulation::count_opinion(Opinion o) const {
  if (opinion_counts_stale_.load(std::memory_order_relaxed)) {
    opinion_counts_.fill(0);
    for (const Group& g : groups_) {
      for (std::uint64_t i = g.agent_begin; i < g.agent_end; ++i) {
        ++opinion_counts_[memo_opinion(g, state_[i])];
      }
    }
    ++opinion_recounts_;
    opinion_counts_stale_.store(false, std::memory_order_relaxed);
  }
  return opinion_counts_[o];
}

void CompiledPopulation::begin_display_round(std::uint64_t round) {
  for (Group& g : groups_) {
    const std::uint64_t sig = g.automaton->display_signature(round);
    if (g.display_sig_valid && g.display_sig == sig) continue;
    g.display_sig = sig;
    g.display_sig_valid = true;
    if (g.closed_form) {
      g.display_rule = g.automaton->display_rule(round);
      NOISYPULL_CHECK(g.display_rule.kind != DisplayRule::Kind::None,
                      "closed-form automaton without a display rule");
    } else {
      g.display_table.clear();
    }
  }
}

void CompiledPopulation::extend_display_table(Group& g, std::uint64_t round,
                                              AutomatonState s) {
  // State ids are contiguous from 0, so filling [size, s] covers every id
  // the population can currently hold.  One virtual display() per new state —
  // the only virtual calls of the whole display phase.
  for (auto id = static_cast<AutomatonState>(g.display_table.size()); id <= s;
       ++id) {
    g.display_table.push_back(g.automaton->display(id, round));
  }
}

CompiledPopulation::UpdateTable& CompiledPopulation::select_table(
    Group& g, std::uint64_t round, std::uint64_t num_outcomes) {
  const std::uint64_t sig = g.automaton->update_signature(round);
  UpdateTable& t = g.update_tables[sig];  // node-stable across inserts
  if (t.num_outcomes == 0) {
    t.num_outcomes = num_outcomes;
    if (g.closed_form) {
      // Binary outcomes: index k is the counts (h − k, k).
      t.rule = g.automaton->update_rule(round, num_outcomes - 1);
      NOISYPULL_CHECK(t.rule.kind != UpdateRule::Kind::None,
                      "closed-form automaton without an update rule");
      NOISYPULL_CHECK(t.rule.kind == UpdateRule::Kind::Identity ||
                          t.rule.delta.size() == num_outcomes,
                      "closed-form rule needs one delta per outcome");
    } else {
      t.rows.cover(g.num_states);
    }
  }
  NOISYPULL_CHECK(t.num_outcomes == num_outcomes,
                  "outcome space changed across rounds sharing an update "
                  "signature (h and alphabet are fixed per run)");
  // Row tables are bounded by states × outcomes only while the state set
  // is fixed; an interning automaton (SsfAutomaton) would grow them with
  // every fresh state, so it is not compiled.
  NOISYPULL_CHECK(g.automaton->num_states() == g.num_states,
                  "compiled automata need a fixed state set");
  return t;
}

void CompiledPopulation::begin_update_round(std::uint64_t round,
                                            std::uint64_t num_outcomes,
                                            std::size_t journals) {
  NOISYPULL_CHECK(
      num_outcomes >= 1 && num_outcomes - 1 <= MissJournal::kOutcomeMask,
      "compiled cells need an enumerable outcome space");
  for (Group& g : groups_) g.active = &select_table(g, round, num_outcomes);
  update_round_ = round;
  update_open_ = true;
  if (journals_.size() < journals) journals_.resize(journals);
}

void CompiledPopulation::begin_rule_round(std::uint64_t round,
                                          std::uint64_t h) {
  NOISYPULL_CHECK(alphabet_ == 2, "rule rounds need the binary alphabet");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");
  for (Group& g : groups_) {
    g.active = g.automaton->has_update_rule(h) ? &select_table(g, round, h + 1)
                                               : nullptr;
  }
  update_round_ = round;
  update_open_ = true;
}

void CompiledPopulation::update_run(std::uint64_t round, std::uint64_t begin,
                                    std::uint64_t end,
                                    const ObservationSampler& sampler,
                                    Rng& rng) {
  if (!update_open_ || round != update_round_) {
    PullProtocol::update_run(round, begin, end, sampler, rng);
    return;
  }
  NOISYPULL_CHECK(begin <= end && end <= num_agents_, "agent run out of range");
  SymbolCounts obs(alphabet_);
  for (std::uint64_t i = begin; i < end;) {
    const Group& g = groups_[group_of_[i]];
    const std::uint64_t run_end = g.agent_end < end ? g.agent_end : end;
    if (!g.closed_form || g.active == nullptr) {
      PullProtocol::update_run(round, i, run_end, sampler, rng);
      i = run_end;
      continue;
    }
    // Full binary samples only: the rule has one delta per count of 1s.
    NOISYPULL_CHECK(sampler.alphabet_size() == 2 &&
                        sampler.draws() + 1 == g.active->num_outcomes,
                    "closed-form rule run needs full binary samples of h");
    const UpdateRule& rule = g.active->rule;
    for (; i < run_end; ++i) {
      sampler.sample(rng, obs);
      state_[i] = rule.apply(state_[i], obs[1], rng);
    }
  }
}

AutomatonState CompiledPopulation::resolve_miss(
    MissJournal& journal, std::uint64_t key, const Group& g,
    const ObservationSampler& sampler, Rng& rng) {
  std::uint32_t e = journal.find(key);
  if (e == EdgePool::kMissing) {
    // compile() draws nothing: the agent's next draws are the edge's own,
    // exactly as on a hit.
    SymbolCounts obs(alphabet_);
    sampler.outcome_counts(key & MissJournal::kOutcomeMask, obs);
    e = journal.insert(
        key, g.automaton->compile(static_cast<AutomatonState>(key >> 32),
                                  update_round_, obs));
  }
  return journal.pool().resolve(e, rng);
}

void CompiledPopulation::end_update_round() {
  if (!update_open_) return;
  update_open_ = false;
  for (MissJournal& journal : journals_) {
    journal.for_each([&](std::uint64_t key, std::uint32_t entry) {
      const auto gi = static_cast<std::size_t>(
          (key >> MissJournal::kGroupShift) & MissJournal::kMaxGroups);
      const Group& g = groups_[gi];
      UpdateTable& t = *g.active;
      const auto s = static_cast<AutomatonState>(key >> 32);
      const std::uint64_t outcome = key & MissJournal::kOutcomeMask;
      // Agents moved along every journal cell this round, including the
      // ones the merge drops below, so each feeds the opinion bit.
      if (!t.changes_opinion) {
        const Opinion from = memo_opinion(g, s);
        t.changes_opinion =
            journal.pool().any_target(entry, [&](AutomatonState to) {
              return memo_opinion(g, to) != from;
            });
      }
      // A state outside the row index has no row; a cell another block
      // compiled first is already there.
      if (!t.rows.indexes(s) ||
          RowTable::find(t.rows.view(), s, outcome) != EdgePool::kMissing) {
        return;
      }
      t.rows.insert(s, outcome, entry, journal.pool(), t.num_outcomes);
      ++cells_compiled_;
    });
    journal.clear();
  }
  for (Group& g : groups_) {
    if (g.active == nullptr) continue;  // update() marks its own changes
    UpdateTable& t = *g.active;
    // An agent can change opinion only along a cell of its group's active
    // table (hits resolve cells merged in earlier rounds of the signature,
    // misses the journal cells just folded into the bit), or under a
    // closed-form sign step: shifts keep the opinion bit.
    t.rows.compact_if_sparse();
    const bool changes = g.closed_form
                             ? t.rule.kind == UpdateRule::Kind::SignStep
                             : t.changes_opinion;
    if (changes) opinion_counts_stale_.store(true, std::memory_order_relaxed);
  }
}

std::uint64_t CompiledPopulation::table_bytes() const noexcept {
  std::uint64_t bytes = 0;
  for (const Group& g : groups_) {
    for (const auto& [sig, t] : g.update_tables) {
      bytes += t.rows.bytes() + t.rule.delta.capacity() * sizeof(std::int32_t);
    }
  }
  return bytes;
}

// --------------------------------------------------------------------------
// EdgePool

std::uint32_t EdgePool::push(const Edge& e) {
  NOISYPULL_CHECK(edges_.size() < kMissing - kEdgeTag,
                  "edge pool exceeds its 31-bit index");
  edges_.push_back(e);
  return kEdgeTag + static_cast<std::uint32_t>(edges_.size() - 1);
}

std::uint32_t EdgePool::add(const CompiledEdge& e) {
  if (e.kind == CompiledEdge::Kind::Deterministic) {
    NOISYPULL_CHECK(e.target[0] < kEdgeTag,
                    "state id exceeds the inline entry range");
    return e.target[0];
  }
  Edge pooled{.kind = static_cast<std::uint8_t>(e.kind), .target = e.target};
  if (e.kind == CompiledEdge::Kind::InverseCdf) {
    NOISYPULL_CHECK(!e.law.empty(), "empty transition law");
    NOISYPULL_CHECK(law_prob_.size() + e.law.size() <=
                        static_cast<std::size_t>(~std::uint32_t{0}),
                    "pooled law storage exceeds 32-bit indexing");
    pooled.target[0] = static_cast<AutomatonState>(law_prob_.size());
    pooled.target[1] = static_cast<AutomatonState>(e.law.size());
    for (const WeightedState& ws : e.law) {
      law_prob_.push_back(ws.prob);
      law_target_.push_back(ws.state);
    }
  }
  return push(pooled);
}

std::uint32_t EdgePool::copy(std::uint32_t entry, const EdgePool& from) {
  if (entry < kEdgeTag) return entry;
  Edge e = from.edges_[entry - kEdgeTag];
  if (static_cast<CompiledEdge::Kind>(e.kind) ==
      CompiledEdge::Kind::InverseCdf) {
    const std::uint32_t begin = e.target[0];
    e.target[0] = static_cast<AutomatonState>(law_prob_.size());
    for (std::uint32_t k = begin; k < begin + e.target[1]; ++k) {
      law_prob_.push_back(from.law_prob_[k]);
      law_target_.push_back(from.law_target_[k]);
    }
  }
  return push(e);
}

void EdgePool::clear() noexcept {
  edges_.clear();
  law_prob_.clear();
  law_target_.clear();
}

std::size_t EdgePool::bytes() const noexcept {
  return edges_.capacity() * sizeof(Edge) +
         law_prob_.capacity() * sizeof(double) +
         law_target_.capacity() * sizeof(AutomatonState);
}

// --------------------------------------------------------------------------
// MissJournal

std::uint32_t MissJournal::insert(std::uint64_t key, const CompiledEdge& e) {
  if ((filled_.size() + 1) * 2 > slots_.size()) grow();
  std::size_t i = slot_of(key);
  while (slots_[i].key != kEmptyKey) {
    NOISYPULL_ASSERT(slots_[i].key != key);
    i = (i + 1) & mask_;
  }
  filled_.push_back(static_cast<std::uint32_t>(i));
  slots_[i] = {.key = key, .entry = pool_.add(e)};
  return slots_[i].entry;
}

void MissJournal::grow() {
  NOISYPULL_CHECK(slots_.size() <= (std::size_t{1} << 31),
                  "miss journal exceeds 32-bit slot indexing");
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  --shift_;
  std::vector<std::uint32_t> order;
  order.swap(filled_);
  for (const std::uint32_t s : order) {
    const Slot& c = old[s];
    std::size_t i = slot_of(c.key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
    slots_[i] = c;
    filled_.push_back(static_cast<std::uint32_t>(i));
  }
}

void MissJournal::clear() {
  for (const std::uint32_t s : filled_) slots_[s].key = kEmptyKey;
  filled_.clear();
  pool_.clear();
}

// --------------------------------------------------------------------------
// RowTable

void RowTable::cover(std::uint64_t num_states) {
  NOISYPULL_CHECK(num_states <= EdgePool::kEdgeTag,
                  "state ids exceed the inline entry range");
  if (num_states > rows_.size()) rows_.resize(num_states);
}

void RowTable::insert(AutomatonState s, std::uint64_t outcome,
                      std::uint32_t entry, const EdgePool& from,
                      std::uint64_t num_outcomes) {
  Row& r = rows_[s];
  const auto o = static_cast<std::uint32_t>(outcome);
  const std::uint32_t hi = r.lo + r.width;
  if (r.width == 0 || o < r.lo || o >= hi) {
    // Widen the window to cover o, with half the old width as slack on the
    // side that grew, so a row realizing its outcomes one edge at a time
    // copies O(width) entries in total rather than O(width²).
    std::uint32_t lo = o;
    std::uint32_t end = o + 1;
    if (r.width != 0) {
      const std::uint32_t slack = r.width / 2;
      lo = o < r.lo ? (o > slack ? o - slack : 0) : r.lo;
      end = o >= hi ? static_cast<std::uint32_t>(std::min<std::uint64_t>(
                          o + 1 + slack, num_outcomes))
                    : hi;
    }
    NOISYPULL_CHECK(entries_.size() + (end - lo) <= EdgePool::kMissing,
                    "row table exceeds 32-bit entry indexing");
    const auto start = static_cast<std::uint32_t>(entries_.size());
    entries_.resize(entries_.size() + (end - lo), EdgePool::kMissing);
    std::copy_n(entries_.begin() + r.start, r.width,
                entries_.begin() + start + (r.lo - lo));
    dead_ += r.width;
    r = {.start = start,
         .lo = static_cast<std::uint16_t>(lo),
         .width = static_cast<std::uint16_t>(end - lo)};
  }
  entries_[r.start + (o - r.lo)] = pool_.copy(entry, from);
}

void RowTable::compact_if_sparse() {
  if (dead_ * 2 <= entries_.size()) return;
  std::vector<std::uint32_t> live;
  live.reserve(entries_.size() - dead_);
  for (Row& r : rows_) {
    const auto start = static_cast<std::uint32_t>(live.size());
    live.insert(live.end(), entries_.begin() + r.start,
                entries_.begin() + r.start + r.width);
    r.start = start;
  }
  entries_.swap(live);
  dead_ = 0;
}

std::size_t RowTable::bytes() const noexcept {
  return rows_.capacity() * sizeof(Row) +
         entries_.capacity() * sizeof(std::uint32_t) + pool_.bytes();
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
