// CompiledPopulation — the production-scale adapter from interned automata
// to the engines' compiled fast path (DESIGN.md §13).
//
// Per-agent protocol state is ONE flat std::vector<std::uint32_t> of
// interned automaton state ids (SoA, cache-linear, no per-agent objects).
// The engines drive two non-virtual phase APIs per round:
//
//   display phase   begin_display_round() + display_at(): a per-state memo
//                   table (state id → symbol) keyed by the automaton's
//                   display_signature, so the serial digest loop does one
//                   array lookup per agent and at most O(#occupied states)
//                   virtual display() calls per signature change.
//
//   update phase    begin_update_round() + apply_block()/apply() +
//                   end_update_round(): a memoized (state, outcome index) →
//                   compiled-edge cell table per (group, update_signature),
//                   filled by compile-on-miss.  An agent whose cell is not
//                   yet compiled compiles it inline — compile() draws
//                   nothing, so sample_index() followed by the edge's draws
//                   stays draw-for-draw identical — into its block's miss
//                   journal; journals merge into the tables serially after
//                   the block-parallel phase, so tables are read-only while
//                   lanes run.  No virtual dispatch on a hit.
//
// Bit-identity contract: under an engine running the fast path, the replay
// digest and final opinions are identical to the same CompiledPopulation
// run through the virtual PullProtocol path, which in turn mirrors the
// production protocol (SourceFilter / SelfStabilizingSourceFilter /
// AutomatonProtocol) draw for draw — see compile() in
// core/automaton/automaton.hpp and tests/test_compiled_path.cpp.
//
// Table growth: a table holds exactly the (state, outcome) cells some agent
// realized during a round of its signature — never whole rows, never
// filler below the highest interned id.  Tables live for the run and are
// reused by every round sharing their signature.  Protocol phases whose
// states recur (Table states, SF boosting balances) hit almost always;
// phases whose states are fresh every round (SSF memory accumulation) pay
// one compile() per agent, as the virtual path would, and a table that
// reaches kCellsPerAgent cells per agent starts over, so they hold O(n)
// cells rather than one per agent-round.
#pragma once

#include <array>
#include <cstdint>
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

// A contiguous run of agents sharing one automaton and one initial state —
// the owning counterpart of AutomatonGroup (the engines outlive any one
// round, so the population keeps its automata alive).
struct CompiledGroup {
  std::uint64_t count = 0;
  std::shared_ptr<const AgentAutomaton> automaton;
  AutomatonState initial = 0;
};

// Open-addressing (linear probing) map from a packed cell key to one
// compiled transition — the storage of both the persistent update tables
// and the per-block miss journals.  Capacity is a power of two kept at
// least twice the cell count, so it is a function of the number of cells
// alone, never of insertion order.
class CellTable {
 public:
  // Packed key: state id in bits 32..63, group index in bits 14..31,
  // outcome index in bits 0..13 (ObservationSampler::kMaxOutcomes = 2^14).
  // Group indices stay below 2^18 − 1, so no key equals kEmptyKey.
  static constexpr std::uint64_t kEmptyKey = ~static_cast<std::uint64_t>(0);
  static constexpr unsigned kGroupShift = 14;
  static constexpr std::uint64_t kOutcomeMask = (1ULL << kGroupShift) - 1;
  static constexpr std::uint64_t kMaxGroups = (1ULL << 18) - 1;
  static_assert(ObservationSampler::kMaxOutcomes - 1 <= kOutcomeMask);

  // kind stores a CompiledEdge::Kind.  InverseCdf cells keep their law in
  // the table's pool: target[0] is the first law entry, target[1] the
  // entry count.
  struct Cell {
    std::uint64_t key = kEmptyKey;
    std::uint8_t kind = 0;
    std::array<AutomatonState, 4> target{};
  };

  CellTable() : slots_(kMinCapacity), mask_(kMinCapacity - 1) {}

  const Cell* find(std::uint64_t key) const noexcept {
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      const Cell& c = slots_[i];
      if (c.key == key) return &c;
      if (c.key == kEmptyKey) return nullptr;
    }
  }

  // Inserts an absent key.  The returned reference is valid until the next
  // insert.
  const Cell& insert(std::uint64_t key, const CompiledEdge& e);
  // Copies `c` (absent here) out of `from`, law included.
  void insert_from(const Cell& c, const CellTable& from);
  // Visits every cell in insertion order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const std::uint32_t s : filled_) visit(slots_[s]);
  }
  // Empties the table in O(size), keeping its capacity.
  void clear();

  std::size_t size() const noexcept { return filled_.size(); }
  std::size_t capacity() const noexcept { return slots_.size(); }

  // Samples the cell's successor, consuming draws exactly as the mirrored
  // CompiledEdge::resolve would.
  AutomatonState resolve(const Cell& c, Rng& rng) const {
    switch (static_cast<CompiledEdge::Kind>(c.kind)) {
      case CompiledEdge::Kind::Deterministic:
        return c.target[0];
      case CompiledEdge::Kind::Coin:
        return rng.next_bool() ? c.target[1] : c.target[0];
      case CompiledEdge::Kind::CoinPair: {
        const bool b1 = rng.next_bool();
        const bool b2 = rng.next_bool();
        return c.target[(b1 ? 2U : 0U) | (b2 ? 1U : 0U)];
      }
      case CompiledEdge::Kind::InverseCdf: {
        const double u = rng.next_double();
        double acc = 0.0;
        const std::uint32_t end = c.target[0] + c.target[1];
        for (std::uint32_t k = c.target[0]; k < end; ++k) {
          acc += law_prob_[k];
          if (u < acc) return law_target_[k];
        }
        return law_target_[end - 1];
      }
    }
    NOISYPULL_CHECK(false, "corrupt compiled cell");
    return 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t slot_of(std::uint64_t key) const noexcept {
    // Fibonacci hashing: the top bits of key·2^64/φ.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  Cell& place(std::uint64_t key);  // claims a slot for an absent key
  void grow();

  std::vector<Cell> slots_;
  std::size_t mask_;
  unsigned shift_ = 64 - 4;  // log2(kMinCapacity)
  std::vector<std::uint32_t> filled_;  // occupied slots, insertion order
  std::vector<double> law_prob_;       // pooled InverseCdf laws
  std::vector<AutomatonState> law_target_;
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
  // O(n) array lookups through a per-state opinion memo (one virtual
  // opinion() per interned state, ever).  Not safe to call concurrently
  // with itself or with a round; the run loop calls it between rounds.
  std::uint64_t count_opinion(Opinion o) const override;
  std::uint64_t planned_rounds() const override { return planned_rounds_; }
  CompiledAccess compiled_access() override { return {.population = this}; }

  // ---- Display phase (serial: the engine's digest loop) -----------------
  void begin_display_round(std::uint64_t round);

  Symbol display_at(std::uint64_t agent, std::uint64_t round) {
    Group& g = groups_[group_of_[agent]];
    const AutomatonState s = state_[agent];
    if (s >= g.display_table.size()) extend_display_table(g, round, s);
    return g.display_table[s];
  }

  // ---- Update phase -----------------------------------------------------
  // Selects this round's table per group (by update_signature) and readies
  // `journals` empty miss journals.  Serial, before the block-parallel
  // phase.  `num_outcomes` is the size of the round's InverseCdf outcome
  // enumeration — a function of (h, d) only, so every InverseCdf sampler
  // of the round shares it.
  void begin_update_round(std::uint64_t round, std::uint64_t num_outcomes,
                          std::size_t journals);

  // Applies outcome index `outcome` (from sample_index() on `sampler`, the
  // agent's InverseCdf sampler) to one agent: a cell lookup plus the
  // edge's exact draws, compiling the cell into journal `journal` on a
  // miss.  Thread-safe across distinct agents as long as concurrent callers
  // use distinct journals: tables are read-only during the phase,
  // state_[agent] is owner-written.
  void apply(std::size_t journal, std::uint64_t agent,
             const ObservationSampler& sampler, std::uint64_t outcome,
             Rng& rng) {
    const Group& g = groups_[group_of_[agent]];
    const std::uint64_t key = cell_key(g, state_[agent], outcome);
    const CellTable::Cell* c = g.active->find(key);
    state_[agent] =
        c != nullptr ? g.active->resolve(*c, rng)
                     : resolve_miss(journals_[journal], g, key, sampler, rng);
  }

  // Runs the whole update phase for agents [begin, end) in one call:
  // per agent, one sample_index() on the agent's rng followed by the
  // cell's exact draws — the same draw sequence, draw for draw, as the
  // engine calling apply(journal, i, sampler, sampler.sample_index(rng),
  // rng) per agent.  The group's table is hoisted across each contiguous
  // agent run, so the inner loop carries no per-agent group lookup or
  // fault check — the engines route blocks here only when no fault
  // decorator is active for the round.
  void apply_block(std::size_t journal, std::uint64_t begin, std::uint64_t end,
                   const ObservationSampler& sampler, Rng& rng) {
    CellTable& misses = journals_[journal];
    std::uint64_t i = begin;
    std::uint32_t gi = group_of_[begin];
    while (i < end) {
      const Group& g = groups_[gi];
      const std::uint64_t run_end = g.agent_end < end ? g.agent_end : end;
      const CellTable& t = *g.active;
      for (; i < run_end; ++i) {
        const std::uint64_t key =
            cell_key(g, state_[i], sampler.sample_index(rng));
        const CellTable::Cell* c = t.find(key);
        state_[i] = c != nullptr ? t.resolve(*c, rng)
                                 : resolve_miss(misses, g, key, sampler, rng);
      }
      ++gi;
    }
  }

  // Merges this round's miss journals into the tables.  Serial, after the
  // block-parallel phase.  A cell compiled by several blocks is the same
  // edge each time (compile() is a function of the concrete state), so the
  // merge keeps one.
  void end_update_round();

  // ---- Telemetry (deterministic: functions of the trajectory) ----------
  // Distinct (group, signature, state, outcome) cells compiled into the
  // tables so far (a cell compiled again after its table started over
  // counts again).  Interned ids are a bijection with concrete states, so
  // the count does not depend on id order, lanes or thread interleaving.
  std::uint64_t cells_compiled() const noexcept { return cells_compiled_; }
  // Cell slots the tables hold now, empty open-addressing slots included:
  // the tables' storage is table_cells() · sizeof(CellTable::Cell) bytes.
  std::uint64_t table_cells() const noexcept;

  AutomatonState state(std::uint64_t agent) const {
    NOISYPULL_CHECK(agent < num_agents_, "agent index out of range");
    return state_[agent];
  }

 private:
  struct UpdateTable {
    std::uint64_t num_outcomes = 0;
    CellTable cells;
  };

  struct Group {
    std::shared_ptr<const AgentAutomaton> automaton;
    // The group's agents occupy one contiguous index run [begin, end) —
    // the constructor lays groups out back to back.
    std::uint64_t agent_begin = 0;
    std::uint64_t agent_end = 0;
    std::uint64_t key_bits = 0;  // group index, shifted into a cell key
    // Display memo for the current display signature.
    bool display_sig_valid = false;
    std::uint64_t display_sig = 0;
    std::vector<Symbol> display_table;
    // Opinion memo (state id → opinion); opinions ignore the round.
    mutable std::vector<Opinion> opinion_table;
    // Update tables, one per update signature, persistent for the run.
    // std::map: node stability keeps `active` valid across insertions (and
    // unordered containers are lint-banned on simulation paths).
    std::map<std::uint64_t, UpdateTable> update_tables;
    CellTable* active = nullptr;  // this round's table
  };

  static std::uint64_t cell_key(const Group& g, AutomatonState s,
                                std::uint64_t outcome) noexcept {
    return g.key_bits | (static_cast<std::uint64_t>(s) << 32) | outcome;
  }

  void extend_display_table(Group& g, std::uint64_t round, AutomatonState s);

  // Miss path of apply()/apply_block(): finds or compiles the cell in the
  // block's journal and resolves it on the agent's rng.
  AutomatonState resolve_miss(CellTable& journal, const Group& g,
                              std::uint64_t key,
                              const ObservationSampler& sampler, Rng& rng);

  // A table that reaches this many cells per agent is emptied before the
  // next merge and refills with the cells later rounds realize: a phase
  // of fresh states (SSF memory accumulation) keeps O(n) cells instead of
  // one per agent-round.  SF and Table tables stay far below it.
  static constexpr std::uint64_t kCellsPerAgent = 8;

  std::size_t alphabet_ = 0;
  std::uint64_t num_agents_ = 0;
  std::uint64_t planned_rounds_ = 0;
  std::uint64_t update_round_ = 0;  // round of the open update phase
  std::uint64_t cells_compiled_ = 0;
  std::vector<CellTable> journals_;      // one per engine block
  std::vector<Group> groups_;
  std::vector<std::uint32_t> group_of_;  // agent → group index
  std::vector<std::uint32_t> state_;     // agent → interned state id (SoA)
};

// Factories mirroring the production populations' agent layout (sources
// preferring 1 first, then sources preferring 0, then non-sources —
// PopulationConfig::is_source/source_preference).  The returned population
// is draw-for-draw interchangeable with the mirrored protocol under any
// engine.
std::unique_ptr<CompiledPopulation> make_compiled_sf(
    const PopulationConfig& pop, const SfSchedule& schedule);
std::unique_ptr<CompiledPopulation> make_compiled_ssf(
    const PopulationConfig& pop, MemoryBudget m);

}  // namespace noisypull
