// Finite per-agent automata for the protocols of the paper.
//
// core/automaton/automaton.hpp defines the AgentAutomaton interface; this
// header provides the three families the exact oracle (theory/exact_chain)
// runs on; the compiled engine fast path
// (core/automaton/compiled_population.hpp) runs the first two:
//
//  * TableAutomaton — a small synthetic protocol family closed under
//    fuzzing: each state displays a fixed symbol and transitions by
//    comparing two observation cells (greater / less / tie, with an
//    optional fair-coin tie split).  Rich enough to exercise every engine
//    code path, small enough that the exact chain stays cheap.
//
//  * SfAutomaton — the exact mirror of core/SourceFilter for one agent
//    role (source with a fixed preference, or non-source).  The concrete
//    state, lumped to what later rounds read (the current opinion and the
//    balance of the active counter pair), maps to an id by arithmetic over
//    the schedule's balance bounds; protocol coin tosses (listening /
//    sub-phase ties) become ½-½ probability splits in transition() and
//    single next_bool() draws in compile() — exactly the draws
//    SourceFilter::update makes.  Its rounds are closed-form (UpdateRule):
//    the compiled path shifts ids instead of looking cells up.
//
//  * SsfAutomaton — the exact mirror of core/SelfStabilizingSourceFilter
//    (stale_flush = 0) for one role.  Memory flush ties split the state up
//    to four ways (weak and current tie-break coins are independent).  It
//    serves the exact chain and the lumped engine; SSF is not compiled.
//
// The one adapter that runs any automaton population under the Monte-Carlo
// engines is CompiledPopulation (compiled_population.hpp): its virtual
// update() runs the *same* dynamics the oracle enumerates — the
// differential test for synthetic protocols — and its compiled fast path
// runs them at production scale.
//
// The mirrors are intentionally independent re-implementations from the
// protocol *specification* (the paper's Algorithms 1–2), not wrappers over
// the core/ classes: a bug in core/ must show up as a divergence, not be
// inherited by the oracle.
#pragma once

// <mutex> is allowlisted here by tools/noisypull_lint.cpp's threading-header
// rule: the SSF mirror's interning table may be grown lazily from the
// engines' block-parallel update phase (CompiledPopulation's update()), so
// lookup+insert must be atomic.  Ids depend on interleaving; observables
// never do (see the AgentAutomaton thread-safety contract).
#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "noisypull/common/symbols.hpp"
#include "noisypull/core/automaton/automaton.hpp"
#include "noisypull/core/schedule.hpp"

namespace noisypull {

// One TableAutomaton state: display `show`, then compare obs[watch_a]
// against obs[watch_b] and move to if_greater / if_less, or on a tie flip a
// fair coin between tie_a and tie_b (tie_a == tie_b makes the tie
// deterministic).
struct TableState {
  Symbol show = 0;
  Symbol watch_a = 0;
  Symbol watch_b = 1;
  AutomatonState if_greater = 0;
  AutomatonState if_less = 0;
  AutomatonState tie_a = 0;
  AutomatonState tie_b = 0;
};

class TableAutomaton final : public AgentAutomaton {
 public:
  TableAutomaton(std::size_t alphabet, std::vector<TableState> states);

  std::size_t num_states() const noexcept override { return states_.size(); }

  std::size_t alphabet_size() const override { return alphabet_; }
  Symbol display(AutomatonState state, std::uint64_t round) const override;
  std::vector<WeightedState> transition(AutomatonState state,
                                        std::uint64_t round,
                                        const SymbolCounts& obs) const override;
  // compile() stays the inherited inverse-CDF default, which draws one
  // uniform unconditionally: table automata have no production class, and
  // the oracle tests pin this draw law against the exact chain.

 private:
  std::size_t alphabet_;
  std::vector<TableState> states_;
};

// Exact one-agent mirror of core/SourceFilter (Algorithm 1, Theorem 4).
//
// Exact lumping of SourceFilter's agent state to what later rounds read.
// Each counter pair becomes one signed balance: listen = counter1 −
// counter0, boost = boost_ones − boost_zeros.  finish_listening and
// finish_subphase read nothing but its sign.  The two balances stay apart:
// an agent stalled through the finish-listening round never runs it, and
// SourceFilter then starts its boost counters from zero, not from the
// listening counts.  The weak opinion is dropped: after finish_listening
// copies it into current, no transition, display or opinion reads it.
//
// Id layout, two regions of (balance, current) pairs, id = base +
// 2·(balance + bound) + current:
//   listening — agents that have run neither the finish-listening round nor
//               a boosting round; balance = listen, bound = phase_rounds·h;
//   boosting  — the rest; balance = boost, bound = boosting rounds·h (an
//               agent stalled over sub-phase ends keeps counting across
//               them, so one sub-phase does not bound it).
// The fresh agent is listening balance 0, current 0 (initial_state()).
// Every id of both regions is below num_states(), a constant; a schedule
// whose span would exceed kMaxStateIds is refused at construction.
class SfAutomaton final : public AgentAutomaton {
 public:
  SfAutomaton(SfSchedule schedule, bool is_source, Opinion preference);

  std::size_t alphabet_size() const override { return 2; }
  std::size_t num_states() const override { return num_states_; }
  AutomatonState initial_state() const override {
    return listen_id(0, Opinion{0});
  }
  Symbol display(AutomatonState state, std::uint64_t round) const override;
  std::vector<WeightedState> transition(AutomatonState state,
                                        std::uint64_t round,
                                        const SymbolCounts& obs) const override;
  // current is the id's low bit: the inherited opinion() reads it.

  // Production-consumption edge: coins only on realized ties, exactly as
  // SourceFilter::finish_listening / finish_subphase draw them.
  CompiledEdge compile(AutomatonState state, std::uint64_t round,
                       const SymbolCounts& obs) const override;

  // Listening rounds shift the listen balance, boosting rounds re-base a
  // listening id (stalled through the finish) to boost balance 0 and shift
  // the boost balance, finish rounds add a sign step, terminated rounds
  // are the identity.
  bool closed_form() const override { return true; }
  // The balance bounds assume at most the schedule's h observations a round.
  bool has_update_rule(std::uint64_t h) const override {
    return h >= 1 && h <= schedule_.h;
  }
  UpdateRule update_rule(std::uint64_t round, std::uint64_t h) const override;
  DisplayRule display_rule(std::uint64_t round) const override;

 private:
  // What a round does to the balance (the same for every state): add
  // `ones` times obs[1] minus `zeros` times obs[0] to the listen balance or
  // to the boost one, then maybe decide the sign.
  struct Step {
    enum class Kind : std::uint8_t { Listen, Boost, Identity };
    Kind kind;
    std::int64_t ones;
    std::int64_t zeros;
    bool sign;  // finish round: current ← sign of the balance, which resets
  };
  Step step(std::uint64_t round) const noexcept;
  bool is_subphase_end(std::uint64_t round) const noexcept;

  AutomatonState listen_id(std::int64_t balance, Opinion current) const;
  AutomatonState boost_id(std::int64_t balance, Opinion current) const;
  // The successor ids of a step, given the balance it reaches: one id, or
  // a tie's (tails, heads) pair.
  std::array<AutomatonState, 2> successors(const Step& st, AutomatonState s,
                                           std::int64_t balance) const;
  // The balance `st` reaches from `s` on counts (zeros, ones).
  std::int64_t moved(const Step& st, AutomatonState s, std::uint64_t zeros,
                     std::uint64_t ones) const noexcept;

  SfSchedule schedule_;
  bool is_source_;
  Opinion preference_;
  std::int64_t listen_bound_;
  std::int64_t boost_bound_;
  AutomatonState boost_base_;  // first id of the boosting region
  std::size_t num_states_;
};

// Exact one-agent mirror of core/SelfStabilizingSourceFilter (Algorithm 2,
// Theorem 5) with stale_flush = 0.  State 0 is the fresh agent.  Its law
// (transition()) is exact, but it no longer mirrors SSF's draws on the
// compiled path: SSF does not take that path (DESIGN.md §13), so compile()
// is the inherited inverse-CDF default.
class SsfAutomaton final : public AgentAutomaton {
 public:
  SsfAutomaton(MemoryBudget m, bool is_source, Opinion preference);

  std::size_t alphabet_size() const override { return 4; }
  std::size_t num_states() const override;
  Symbol display(AutomatonState state, std::uint64_t round) const override;
  std::vector<WeightedState> transition(AutomatonState state,
                                        std::uint64_t round,
                                        const SymbolCounts& obs) const override;
  Opinion opinion(AutomatonState state) const override;

 private:
  struct Concrete {
    std::array<std::uint64_t, 4> mem{};
    Opinion weak = 0;
    Opinion current = 0;

    bool operator<(const Concrete& rhs) const {
      if (mem != rhs.mem) return mem < rhs.mem;
      if (weak != rhs.weak) return weak < rhs.weak;
      return current < rhs.current;
    }
  };

  AutomatonState intern(const Concrete& c) const;
  Concrete concrete(AutomatonState state) const;

  std::uint64_t m_;
  bool is_source_;
  Opinion preference_;
  mutable std::mutex intern_mutex_;
  mutable std::vector<Concrete> states_;
  mutable std::map<Concrete, AutomatonState> ids_;
};

}  // namespace noisypull
