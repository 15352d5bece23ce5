// CompiledPopulation — the production-scale adapter from automata to the
// engines' compiled fast path (DESIGN.md §13).
//
// Per-agent protocol state is ONE flat std::vector<std::uint32_t> of
// automaton state ids (SoA, cache-linear, no per-agent objects).  The
// engines drive two non-virtual phase APIs per round:
//
//   display phase   for_each_display(): walks the agents group run by group
//                   run, one dispatch per run.  A closed-form group shows
//                   its DisplayRule (one symbol, or the id's opinion bit);
//                   any other group reads a per-state memo table (state id
//                   → symbol) keyed by the automaton's display_signature,
//                   so the serial digest loop does one array lookup per
//                   agent and at most O(#occupied states) virtual display()
//                   calls per signature change.
//
//   update phase    begin_update_round() + apply_block()/apply() +
//                   end_update_round(), one table per (group,
//                   update_signature).  A closed-form group's table is its
//                   UpdateRule (shift, sign step or identity: arithmetic on
//                   the id, no memory per state).  Any other group's table
//                   is a memoized (state, outcome index) → compiled-edge
//                   row table, filled by compile-on-miss.  An agent whose
//                   cell is not yet compiled compiles it inline — compile()
//                   draws nothing, so sample_index() followed by the edge's
//                   draws stays draw-for-draw identical — into its block's
//                   miss journal; journals merge into the tables serially
//                   after the block-parallel phase, so tables are read-only
//                   while lanes run.  No virtual dispatch on a hit.
//
// Bit-identity contract: under an engine running the fast path, the replay
// digest and final opinions are identical to the same CompiledPopulation
// run through the virtual PullProtocol path, which in turn mirrors the
// production protocol (SourceFilter) draw for draw — see compile() in
// core/automaton/automaton.hpp and tests/test_compiled_path.cpp.  Table
// automata have no production class: the virtual path is their reference.
// SSF is not compiled: its memory histograms are fresh nearly every round,
// so its cells almost never hit (DESIGN.md §13).
//
// Row-table layout: a hit is two dependent array loads — the state's row
// header (rows indexed directly by state id), then the 4-byte entry of the
// outcome inside the row's window.  A row holds only the outcome window
// [lo, hi) its state has realized in rounds of the table's signature,
// widened at merge; observation outcomes cluster around their mean, so
// windows stay narrow.  Tables live for the run and are reused by every
// round sharing their signature.  Row tables serve automata with a fixed
// state set (Table), and each cell is compiled once per table, so a table
// is bounded by states × outcomes whatever n and the horizon: SF, whose
// balances keep spreading, runs closed-form rules instead.
#pragma once

#include <algorithm>
#include <array>
// nplint: allow-next-line(threading-header) -- relaxed flag set in update()
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
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

// Compiled transitions as 4-byte entries, the storage unit of both the row
// tables and the miss journals.  An entry below kEdgeTag is a deterministic
// successor, stored inline; kEdgeTag + i names edge i of the owner's pool
// (Coin and InverseCdf edges, with their targets and laws);
// kMissing marks a cell not compiled yet.
class EdgePool {
 public:
  static constexpr std::uint32_t kEdgeTag = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kMissing = ~std::uint32_t{0};
  static_assert(kEdgeTag == kMaxStateIds, "every state id must fit inline");

  // Encodes `e`, pooling it unless it is deterministic.
  std::uint32_t add(const CompiledEdge& e);
  // Re-encodes `entry` of pool `from` into this pool.
  std::uint32_t copy(std::uint32_t entry, const EdgePool& from);

  // Samples the successor of a compiled `entry` (not kMissing), consuming
  // draws exactly as the mirrored CompiledEdge::resolve would.
  AutomatonState resolve(std::uint32_t entry, Rng& rng) const {
    if (entry < kEdgeTag) return entry;
    const Edge& e = edges_[entry - kEdgeTag];
    switch (static_cast<CompiledEdge::Kind>(e.kind)) {
      case CompiledEdge::Kind::Deterministic:
        break;  // stored inline, never pooled
      case CompiledEdge::Kind::Coin:
        return rng.next_bool() ? e.target[1] : e.target[0];
      case CompiledEdge::Kind::InverseCdf: {
        const double u = rng.next_double();
        double acc = 0.0;
        const std::uint32_t end = e.target[0] + e.target[1];
        for (std::uint32_t k = e.target[0]; k < end; ++k) {
          acc += law_prob_[k];
          if (u < acc) return law_target_[k];
        }
        return law_target_[end - 1];
      }
    }
    NOISYPULL_CHECK(false, "corrupt compiled entry");
    return 0;
  }

  // Whether pred(t) holds for some successor t that a compiled `entry`
  // (not kMissing) lists, zero-probability law entries included.
  template <typename Pred>
  bool any_target(std::uint32_t entry, Pred&& pred) const {
    if (entry < kEdgeTag) return pred(static_cast<AutomatonState>(entry));
    const Edge& e = edges_[entry - kEdgeTag];
    switch (static_cast<CompiledEdge::Kind>(e.kind)) {
      case CompiledEdge::Kind::Deterministic:
        break;  // stored inline, never pooled
      case CompiledEdge::Kind::Coin:
        return pred(e.target[0]) || pred(e.target[1]);
      case CompiledEdge::Kind::InverseCdf:
        return std::any_of(law_target_.begin() + e.target[0],
                           law_target_.begin() + e.target[0] + e.target[1],
                           pred);
    }
    NOISYPULL_CHECK(false, "corrupt compiled entry");
    return false;
  }

  // Drops every edge, keeping the vectors' capacity.
  void clear() noexcept;
  std::size_t bytes() const noexcept;

 private:
  // kind stores a CompiledEdge::Kind.  InverseCdf edges keep their law in
  // the pool: target[0] is the first law entry, target[1] the entry count.
  struct Edge {
    std::uint8_t kind = 0;
    std::array<AutomatonState, 2> target{};
  };

  std::uint32_t push(const Edge& e);

  std::vector<Edge> edges_;
  std::vector<double> law_prob_;
  std::vector<AutomatonState> law_target_;
};

// Open-addressing (linear probing) map from a packed cell key to one
// compiled entry: the per-block miss journal.  Capacity is a power of two
// kept at least twice the cell count.
class MissJournal {
 public:
  // Packed key: state id in bits 32..63, group index in bits 14..31,
  // outcome index in bits 0..13 (ObservationSampler::kMaxOutcomes = 2^14).
  // Group indices stay below 2^18 − 1, so no key equals kEmptyKey.
  static constexpr std::uint64_t kEmptyKey = ~static_cast<std::uint64_t>(0);
  static constexpr unsigned kGroupShift = 14;
  static constexpr std::uint64_t kOutcomeMask = (1ULL << kGroupShift) - 1;
  static constexpr std::uint64_t kMaxGroups = (1ULL << 18) - 1;
  static_assert(ObservationSampler::kMaxOutcomes - 1 <= kOutcomeMask);

  MissJournal() : slots_(kMinCapacity), mask_(kMinCapacity - 1) {}

  // The key's entry, or EdgePool::kMissing.
  std::uint32_t find(std::uint64_t key) const noexcept {
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == key) return s.entry;
      if (s.key == kEmptyKey) return EdgePool::kMissing;
    }
  }
  // Inserts an absent key and returns its entry.
  std::uint32_t insert(std::uint64_t key, const CompiledEdge& e);
  // Visits (key, entry) of every cell in insertion order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const std::uint32_t i : filled_) visit(slots_[i].key, slots_[i].entry);
  }
  // Empties the journal, keeping its capacity.
  void clear();

  const EdgePool& pool() const noexcept { return pool_; }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint64_t key = kEmptyKey;
    std::uint32_t entry = EdgePool::kMissing;
  };

  std::size_t slot_of(std::uint64_t key) const noexcept {
    // Fibonacci hashing: the top bits of key·2^64/φ.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_;
  unsigned shift_ = 64 - 4;  // log2(kMinCapacity)
  std::vector<std::uint32_t> filled_;  // occupied slots, insertion order
  EdgePool pool_;
};

// The persistent (state id → outcome row) table of one (group, update
// signature).  rows_[s] is the window of state s: its entries for outcomes
// lo .. lo + width − 1 sit at entries_[start ...].  The row index covers
// the automaton's fixed state set, so every byte here is a function of the
// trajectory, not of the order in which concurrent lanes compiled cells.
class RowTable {
 public:
  struct Row {
    std::uint32_t start = 0;
    std::uint16_t lo = 0;
    std::uint16_t width = 0;  // 0: no outcome realized yet
  };

  // The hot-loop view: plain pointers, hoisted across an agent run.
  struct View {
    std::uint32_t num_rows;
    const Row* rows;
    const std::uint32_t* entries;
  };

  View view() const noexcept {
    return {static_cast<std::uint32_t>(rows_.size()), rows_.data(),
            entries_.data()};
  }

  // The (state, outcome) entry, or EdgePool::kMissing.
  static std::uint32_t find(const View& v, AutomatonState s,
                            std::uint64_t outcome) noexcept {
    if (s >= v.num_rows) return EdgePool::kMissing;
    const Row r = v.rows[s];
    const auto k = static_cast<std::uint32_t>(outcome) - r.lo;
    return k < r.width ? v.entries[r.start + k] : EdgePool::kMissing;
  }

  const EdgePool& pool() const noexcept { return pool_; }
  // The window of state s (width 0 if s has no row or has realized no
  // outcome).
  Row row(AutomatonState s) const noexcept {
    return indexes(s) ? rows_[s] : Row{};
  }

  // Extends the row index to every id below num_states with empty rows.
  void cover(std::uint64_t num_states);
  bool indexes(AutomatonState s) const noexcept { return s < rows_.size(); }
  // Stores `entry` (from pool `from`) for an absent (s, outcome) cell of
  // an indexed state, widening the row's window to cover `outcome`.
  void insert(AutomatonState s, std::uint64_t outcome, std::uint32_t entry,
              const EdgePool& from, std::uint64_t num_outcomes);
  // Rewrites the entries back to back once widened windows left more dead
  // entries than live ones.
  void compact_if_sparse();

  // Storage held (vector capacities), in bytes.
  std::size_t bytes() const noexcept;

 private:
  std::vector<Row> rows_;
  std::vector<std::uint32_t> entries_;
  std::size_t dead_ = 0;  // entries left behind by widened windows
  EdgePool pool_;
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
  // mirrored production protocol, for ANY observation total — this is the
  // per-agent fallback the engines use for faulted agents (and the whole
  // path when the round's sampler cannot enumerate its outcome space).
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override;
  Opinion opinion(std::uint64_t agent) const override;
  // Answers from a cached opinion histogram, recounted (O(n): the id's
  // low bit in closed-form groups, else array lookups through a per-state
  // opinion memo, one virtual opinion() per state, ever) only when a round
  // since the last recount could have changed an opinion: a virtual
  // update(), a round whose row table (in any group) holds a cell leading
  // from a state to one of another opinion, or a closed-form sign step —
  // see end_update_round().  Not safe to call concurrently with itself or
  // with a round; the run loop calls it between rounds.
  std::uint64_t count_opinion(Opinion o) const override;
  std::uint64_t planned_rounds() const override { return planned_rounds_; }
  CompiledAccess compiled_access() override { return {.population = this}; }
  // Bulk hook (core/protocol.hpp).  While an update phase is open for
  // `round` (begin_rule_round() or begin_update_round()), each agent of a
  // closed-form group draws its counts with sample() and moves by its
  // group's rule with k = counts[1] — the per-agent loop's draws without
  // its compile(), and the opinion count goes stale only on sign-step
  // rounds, as under apply_block().  Every other agent, and every agent
  // when no phase is open for `round`, takes the default loop through
  // update().  Fault-free runs only: the rules assume full samples.
  void update_run(std::uint64_t round, std::uint64_t begin, std::uint64_t end,
                  const ObservationSampler& sampler, Rng& rng) override;

  // ---- Display phase (serial: the engine's digest loop) -----------------
  // Calls visit(symbol) for agents 0 .. end − 1 in index order, with the
  // display each shows in `round`.  One dispatch per group run: a
  // closed-form group shows its DisplayRule, any other group its memo
  // table (extended on demand).
  template <typename Visit>
  void for_each_display(std::uint64_t round, std::uint64_t end,
                        Visit&& visit) {
    begin_display_round(round);
    for (Group& g : groups_) {
      const std::uint64_t stop = g.agent_end < end ? g.agent_end : end;
      std::uint64_t i = g.agent_begin;
      if (i >= stop) break;
      switch (g.display_rule.kind) {
        case DisplayRule::Kind::Constant:
          for (; i < stop; ++i) visit(g.display_rule.symbol);
          break;
        case DisplayRule::Kind::OpinionBit:
          for (; i < stop; ++i) visit(static_cast<Symbol>(state_[i] & 1));
          break;
        case DisplayRule::Kind::None:
          for (; i < stop; ++i) {
            const AutomatonState s = state_[i];
            if (s >= g.display_table.size()) extend_display_table(g, round, s);
            visit(g.display_table[s]);
          }
          break;
      }
    }
  }

  // ---- Update phase -----------------------------------------------------
  // Selects this round's table per group (by update_signature), building
  // it on the signature's first round: a closed-form group's rule, any
  // other group's empty row table over its state set.  Readies `journals`
  // empty miss journals.  Serial, before the block-parallel phase.
  // `num_outcomes` is the size of the round's InverseCdf outcome
  // enumeration — a function of (h, d) only, so every InverseCdf sampler
  // of the round shares it.
  void begin_update_round(std::uint64_t round, std::uint64_t num_outcomes,
                          std::size_t journals);

  // The update phase of a round whose samplers are all Decomposition (no
  // outcome enumeration, e.g. h = n), for a binary population: selects
  // each closed-form group's rule for `round` over the h + 1 binary
  // outcomes, building it on the signature's first round — the same table
  // an InverseCdf round of the signature uses.  Row-table groups, and
  // closed-form ones without a rule for h (has_update_rule), get no table
  // this round; update_run() sends their agents through update().
  // Serial, before the block-parallel phase; end_update_round() closes it.
  void begin_rule_round(std::uint64_t round, std::uint64_t h);

  // Applies outcome index `outcome` (from sample_index() on `sampler`, the
  // agent's InverseCdf sampler) to one agent: its group's rule, or a row
  // lookup plus the edge's exact draws, compiling the cell into journal
  // `journal` on a miss.  Thread-safe across distinct agents as long as
  // concurrent callers use distinct journals: tables are read-only during
  // the phase, state_[agent] is owner-written.
  void apply(std::size_t journal, std::uint64_t agent,
             const ObservationSampler& sampler, std::uint64_t outcome,
             Rng& rng) {
    const Group& g = groups_[group_of_[agent]];
    const UpdateTable& t = *g.active;
    state_[agent] =
        t.rule.kind == UpdateRule::Kind::None
            ? step(g, t.rows.view(), journals_[journal], state_[agent],
                   outcome, sampler, rng)
            : t.rule.apply(state_[agent], outcome, rng);
  }

  // Runs the whole update phase for agents [begin, end) in one call:
  // per agent, one sample_index() on the agent's rng followed by the
  // cell's exact draws — the same draw sequence, draw for draw, as the
  // engine calling apply(journal, i, sampler, sampler.sample_index(rng),
  // rng) per agent.  The group's table is hoisted and its kind dispatched
  // once per contiguous agent run, so the inner loop carries no per-agent
  // group lookup, dispatch or fault check — the engines route blocks here
  // only when no fault decorator is active for the round.
  void apply_block(std::size_t journal, std::uint64_t begin, std::uint64_t end,
                   const ObservationSampler& sampler, Rng& rng) {
    MissJournal& misses = journals_[journal];
    std::uint64_t i = begin;
    std::uint32_t gi = group_of_[begin];
    while (i < end) {
      const Group& g = groups_[gi];
      const std::uint64_t run_end = g.agent_end < end ? g.agent_end : end;
      const UpdateRule& rule = g.active->rule;
      switch (rule.kind) {
        case UpdateRule::Kind::None: {
          const RowTable::View v = g.active->rows.view();
          for (; i < run_end; ++i) {
            const std::uint64_t outcome = sampler.sample_index(rng);
            state_[i] = step(g, v, misses, state_[i], outcome, sampler, rng);
          }
          break;
        }
        case UpdateRule::Kind::Identity:
          // The engine still draws every agent's sample: later agents of
          // the block read the substream after it.
          for (; i < run_end; ++i) sampler.sample_index(rng);
          break;
        case UpdateRule::Kind::Shift: {
          const AutomatonState floor = rule.floor;
          const AutomatonState rebase = rule.rebase;
          const std::int32_t* delta = rule.delta.data();
          for (; i < run_end; ++i) {
            const std::uint64_t outcome = sampler.sample_index(rng);
            const AutomatonState s = state_[i];
            // Unsigned wrap-around add: the sum is the in-range id.
            state_[i] = (s < floor ? rebase + (s & 1) : s) +
                        static_cast<AutomatonState>(delta[outcome]);
          }
          break;
        }
        case UpdateRule::Kind::SignStep:
          for (; i < run_end; ++i) {
            const std::uint64_t outcome = sampler.sample_index(rng);
            state_[i] = rule.apply(state_[i], outcome, rng);
          }
          break;
      }
      ++gi;
    }
  }

  // Merges this round's miss journals into the row tables.  Serial, after
  // the block-parallel phase.  A cell compiled by several blocks is the
  // same edge each time (compile() is a function of the concrete state),
  // so the merge keeps one.  Every journal cell, merged or dropped, also
  // feeds its table's sticky opinion bit; a round whose tables have it set,
  // or whose closed-form rule is a sign step, invalidates the cached
  // opinion histogram.
  void end_update_round();

  // ---- Telemetry (deterministic: functions of the trajectory) ----------
  // Distinct (group, signature, state, outcome) cells compiled into the
  // row tables so far; closed-form groups compile none.  Compiled cells
  // are a function of the concrete states, so the count does not depend on
  // id order, lanes or thread interleaving.
  std::uint64_t cells_compiled() const noexcept { return cells_compiled_; }
  // Bytes the tables hold now: row index, entries and edge pools, and the
  // closed-form rules' per-outcome deltas.
  std::uint64_t table_bytes() const noexcept;
  // Times count_opinion() recounted the population instead of answering
  // from its cached histogram.  The invalidating rounds are a function of
  // the trajectory (the tables' opinion bits are set by the cells the
  // trajectory realizes), so the count does not depend on lanes.
  std::uint64_t opinion_recounts() const noexcept { return opinion_recounts_; }

  AutomatonState state(std::uint64_t agent) const {
    NOISYPULL_CHECK(agent < num_agents_, "agent index out of range");
    return state_[agent];
  }

 private:
  friend struct CompiledPopulationTestPeer;

  struct UpdateTable {
    std::uint64_t num_outcomes = 0;
    // Closed-form groups: the signature's rule (never None); the rows stay
    // empty.  Other groups: kind None, and the row table.
    UpdateRule rule;
    RowTable rows;
    // Sticky: some cell compiled for this signature leads from a state to
    // a target of another opinion.
    bool changes_opinion = false;
  };

  struct Group {
    std::shared_ptr<const AgentAutomaton> automaton;
    // Closed form (AgentAutomaton::closed_form()): rules instead of cells,
    // opinion = id & 1, and no per-id storage.
    bool closed_form = false;
    // The automaton's state count, required fixed (see the row-table
    // bound in the header comment).
    std::uint64_t num_states = 0;
    // The group's agents occupy one contiguous index run [begin, end) —
    // the constructor lays groups out back to back.
    std::uint64_t agent_begin = 0;
    std::uint64_t agent_end = 0;
    std::uint64_t key_bits = 0;  // group index, shifted into a journal key
    // Display for the current display signature: the closed-form rule, or
    // (kind None) the memo table.
    bool display_sig_valid = false;
    std::uint64_t display_sig = 0;
    DisplayRule display_rule;
    std::vector<Symbol> display_table;
    // Opinion memo (state id → opinion) of row-table groups; opinions
    // ignore the round.
    mutable std::vector<Opinion> opinion_table;
    // Update tables, one per update signature, persistent for the run.
    // std::map: node stability keeps `active` valid across insertions (and
    // unordered containers are lint-banned on simulation paths).
    std::map<std::uint64_t, UpdateTable> update_tables;
    UpdateTable* active = nullptr;  // this round's table, if it has one
  };

  static std::uint64_t journal_key(const Group& g, AutomatonState s,
                                   std::uint64_t outcome) noexcept {
    return g.key_bits | (static_cast<std::uint64_t>(s) << 32) | outcome;
  }

  // One agent's row-table update: a hit resolves in place; a miss goes
  // through the block's journal.
  AutomatonState step(const Group& g, const RowTable::View& v,
                      MissJournal& misses, AutomatonState s,
                      std::uint64_t outcome, const ObservationSampler& sampler,
                      Rng& rng) {
    const std::uint32_t e = RowTable::find(v, s, outcome);
    if (e < EdgePool::kEdgeTag) return e;
    if (e != EdgePool::kMissing) return g.active->rows.pool().resolve(e, rng);
    return resolve_miss(misses, journal_key(g, s, outcome), g, sampler, rng);
  }

  // The group's table for `round`'s update signature, built on the
  // signature's first round.
  UpdateTable& select_table(Group& g, std::uint64_t round,
                            std::uint64_t num_outcomes);

  // Refreshes each group's display rule or memo when its display signature
  // changes.
  void begin_display_round(std::uint64_t round);
  void extend_display_table(Group& g, std::uint64_t round, AutomatonState s);

  // State s's opinion: the id's low bit in a closed-form group, else
  // through the group's memo, extending it on demand.
  static Opinion memo_opinion(const Group& g, AutomatonState s);

  // Miss path of apply()/apply_block(): finds or compiles the cell in the
  // block's journal and resolves it on the agent's rng.
  AutomatonState resolve_miss(MissJournal& journal, std::uint64_t key,
                              const Group& g,
                              const ObservationSampler& sampler, Rng& rng);

  std::size_t alphabet_ = 0;
  std::uint64_t num_agents_ = 0;
  std::uint64_t planned_rounds_ = 0;
  std::uint64_t update_round_ = 0;  // round of the open update phase
  bool update_open_ = false;        // between begin_* and end_update_round
  std::uint64_t cells_compiled_ = 0;
  // Cached opinion histogram behind count_opinion().  `stale` is set by
  // virtual update() calls, which run concurrently across lanes (hence
  // atomic; relaxed suffices, the round's barrier orders it before the
  // next count), and by end_update_round().
  mutable std::atomic<bool> opinion_counts_stale_{true};
  mutable std::array<std::uint64_t,
                     std::size_t{std::numeric_limits<Opinion>::max()} + 1>
      opinion_counts_{};
  mutable std::uint64_t opinion_recounts_ = 0;
  std::vector<MissJournal> journals_;    // one per engine block
  std::vector<Group> groups_;
  std::vector<std::uint32_t> group_of_;  // agent → group index
  std::vector<std::uint32_t> state_;     // agent → state id (SoA)
};

// Factory mirroring SourceFilter's agent layout (sources preferring 1
// first, then sources preferring 0, then non-sources —
// PopulationConfig::is_source/source_preference), every agent fresh
// (SfAutomaton::initial_state()).  The returned population is draw-for-draw
// interchangeable with SourceFilter under any engine; its groups are
// closed-form, so it compiles no cell.
std::unique_ptr<CompiledPopulation> make_compiled_sf(
    const PopulationConfig& pop, const SfSchedule& schedule);

}  // namespace noisypull
