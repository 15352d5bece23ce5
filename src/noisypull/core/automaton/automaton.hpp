// core/automaton — finite per-agent state machines as first-class objects.
//
// PR 7 introduced AgentAutomaton as the exact-oracle's view of one agent: a
// finite state set with an exact per-(state, observation) transition *law*.
// This module promotes that interface from oracle mirror to production
// citizen (DESIGN.md §13): the same state machines now also drive the
// engines' compiled fast path, where per-agent protocol state is one flat
// vector of state ids and the round kernel runs closed-form rules
// (UpdateRule) instead of virtual display()/update() calls.
//
// Two complementary views of one automaton:
//
//  * transition(state, round, obs) — the exact probability law of the next
//    state.  Consumed by theory/exact_chain (the oracle) and by the default
//    compile() below.  Protocol coin tosses appear as probability splits.
//
//  * compile(state, round, obs) — the *sampling procedure* for the next
//    state, as a CompiledEdge.  Consumed by the compiled engine path
//    (core/automaton/compiled_population.hpp).  The edge must consume the
//    agent's Rng EXACTLY as the production protocol it mirrors would: the
//    engines hand every agent of a block one shared substream in sequence,
//    so one extra or missing draw shifts every later agent of the block and
//    breaks the bit-identity contract (tests/test_compiled_path.cpp).  The
//    default wraps transition() in a single-uniform inverse-CDF edge, which
//    is the draw law of synthetic table automata (they have no production
//    class; the oracle tests hold it to the exact chain).  Only the SF
//    mirror overrides it: SSF is not compiled (DESIGN.md §13), so its
//    mirror keeps the default and does not reproduce SSF's draws.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "noisypull/common/symbols.hpp"
#include "noisypull/rng/rng.hpp"

namespace noisypull {

// Identifier of one per-agent automaton state.  Automata choose their own
// state encodings (interned, or arithmetic — see UpdateRule); consumers only
// need equality and ordering.
using AutomatonState = std::uint32_t;

// Every automaton's ids stay below this bound.  A closed-form rule never
// moves an id by more than the id span, so its slope and offset fit
// UpdateRule's int32 fields.
inline constexpr std::uint64_t kMaxStateIds = std::uint64_t{1} << 31;

struct WeightedState {
  AutomatonState state = 0;
  double prob = 0.0;
};

// One compiled transition: how to sample the successor state for a fixed
// (state, round-signature, observation) triple.  The Kind determines both
// the successor map and the exact Rng consumption:
//
//   Deterministic — no draw; successor target[0].
//   Coin          — one next_bool(); true → target[1], false → target[0]
//                   (matching the protocols' `rng.next_bool() ? 1 : 0` tie
//                   break, heads landing on opinion 1).
//   InverseCdf    — one next_double(); walk `law` accumulating prob until
//                   u < acc, falling through to the last entry.
struct CompiledEdge {
  enum class Kind : std::uint8_t { Deterministic, Coin, InverseCdf };

  Kind kind = Kind::Deterministic;
  std::array<AutomatonState, 2> target{};
  std::vector<WeightedState> law;  // InverseCdf only, in summation order

  static CompiledEdge deterministic(AutomatonState to) {
    CompiledEdge e;
    e.kind = Kind::Deterministic;
    e.target[0] = to;
    return e;
  }
  static CompiledEdge coin(AutomatonState tails, AutomatonState heads) {
    CompiledEdge e;
    e.kind = Kind::Coin;
    e.target[0] = tails;
    e.target[1] = heads;
    return e;
  }

  // Samples the successor, consuming the Kind's exact draw pattern.
  AutomatonState resolve(Rng& rng) const {
    switch (kind) {
      case Kind::Deterministic:
        return target[0];
      case Kind::Coin:
        return rng.next_bool() ? target[1] : target[0];
      case Kind::InverseCdf: {
        const double u = rng.next_double();
        double acc = 0.0;
        for (const WeightedState& ws : law) {
          acc += ws.prob;
          if (u < acc) return ws.state;
        }
        return law.back().state;  // rounding slack lands on the last entry
      }
    }
    return target[0];  // unreachable; keeps -Wreturn-type quiet
  }
};

// Closed-form update rule of one round, for automata whose ids are
// arithmetic (AgentAutomaton::closed_form()): id = 2·position + opinion
// bit, with a balance that moves by an amount affine in the outcome.
// Binary alphabet only: outcome index k stands for the counts (h − k, k),
// as the sampler's canonical enumeration has it.
//
//   Identity — the id stays.
//   Shift    — an id below `floor` first re-bases to `rebase` + (id & 1);
//              then id += slope·k + offset.  No draw.
//   SignStep — the shift, then the shifted id x is compared with `zero` on
//              its even part (x & ~1): above → `up`, below → `down`, equal →
//              one next_bool(), heads → `up` (the protocols'
//              `rng.next_bool() ? 1 : 0` tie break).
//
// apply() is the reference semantics; CompiledPopulation runs the same
// arithmetic in loops specialized per kind.  Slope and offset are even, so
// a Shift keeps the opinion bit and only a SignStep can change an opinion.
struct UpdateRule {
  enum class Kind : std::uint8_t { None, Identity, Shift, SignStep };

  Kind kind = Kind::None;
  AutomatonState floor = 0;
  AutomatonState rebase = 0;
  std::int32_t slope = 0;   // Shift / SignStep: the move is slope·k + offset
  std::int32_t offset = 0;
  AutomatonState zero = 0;  // SignStep only
  AutomatonState up = 0;
  AutomatonState down = 0;

  // The successor of `s` under outcome k, consuming the kind's draws.
  AutomatonState apply(AutomatonState s, std::uint64_t k, Rng& rng) const {
    if (kind == Kind::None || kind == Kind::Identity) return s;
    const auto x = static_cast<AutomatonState>(
        static_cast<std::int64_t>(s < floor ? rebase + (s & 1) : s) +
        std::int64_t{slope} * static_cast<std::int64_t>(k) + offset);
    if (kind == Kind::Shift) return x;
    const AutomatonState even = x & ~AutomatonState{1};
    if (even != zero) return even > zero ? up : down;
    return rng.next_bool() ? up : down;
  }
};

// Closed-form display rule of one round: every state shows
// `symbol`, or every state shows its opinion bit (id & 1).
struct DisplayRule {
  enum class Kind : std::uint8_t { None, Constant, OpinionBit };

  Kind kind = Kind::None;
  Symbol symbol = 0;  // Constant only
};

// A finite per-agent state machine: the exact counterpart of one agent's
// PullProtocol slice.  display() must match PullProtocol::display for the
// agent's role and transition() must return the *exact* distribution of the
// next state given one delivered observation batch (protocol coin tosses
// become probability splits).  Implementations live in
// core/automaton/protocol_automata.hpp.
//
// Thread-safety contract: the engines' block-parallel update phase calls
// compile() and update() concurrently through CompiledPopulation, so they
// must be safe to call from several threads.  Table and SF automata are
// immutable after construction (SF's ids are arithmetic over its
// schedule).  Only the SSF mirror interns states on demand: it guards its
// intern table with a mutex, and the *ids* it hands out may then depend on
// call interleaving, which is harmless — every observable (display,
// opinion, transition law) is a function of the interned concrete state,
// never of the id.
class AgentAutomaton {
 public:
  virtual ~AgentAutomaton() = default;

  virtual std::size_t alphabet_size() const = 0;
  // Number of state ids handed out so far: every id this automaton has
  // returned is below it, and it only grows.  Table and SF automata fix it
  // at construction; SSF counts the states interned so far (a function of
  // the trajectory, so the same at every lane count).
  virtual std::size_t num_states() const = 0;
  // The fresh agent's state.
  virtual AutomatonState initial_state() const { return 0; }
  virtual Symbol display(AutomatonState state, std::uint64_t round) const = 0;
  virtual std::vector<WeightedState> transition(
      AutomatonState state, std::uint64_t round,
      const SymbolCounts& obs) const = 0;

  // Opinion an agent in `state` reports — the PullProtocol::opinion
  // counterpart, needed wherever convergence is judged from automaton states
  // (sim/lumped_engine, CompiledPopulation).  The default
  // matches the TableAutomaton fuzz family's encoding and SF's id layout
  // (opinion = low state bit); the SSF mirror overrides it to read the
  // interned `current` field.
  virtual Opinion opinion(AutomatonState state) const {
    return static_cast<Opinion>(state & 1);
  }

  // Sampling procedure for one update (see the header comment).  Default:
  // one-uniform inverse-CDF over transition() — correct for every
  // automaton, at the cost of always consuming one next_double even for
  // deterministic laws.
  virtual CompiledEdge compile(AutomatonState state, std::uint64_t round,
                               const SymbolCounts& obs) const {
    CompiledEdge e;
    e.kind = CompiledEdge::Kind::InverseCdf;
    e.law = transition(state, round, obs);
    return e;
  }

  // Closed-form automata (DESIGN.md §13) promise: opinion(s) == s & 1 for
  // every id, update_rule() is never None and display_rule() never None.
  // CompiledPopulation then runs their rules instead of compile(), and
  // keeps no per-id storage for them.  update_rule(round, h) must equal
  // compile() for every state and every full sample of h observations,
  // and display_rule(round) must equal display().  Both are asked every
  // round, so they should be O(1) to build.
  virtual bool closed_form() const { return false; }
  // Whether update_rule(·, h) exists: a closed-form automaton may bound the
  // sample sizes its ids can absorb (SF: its schedule's h).  Agents of a
  // round sampling more observations run through compile() instead.
  virtual bool has_update_rule(std::uint64_t /*h*/) const {
    return closed_form();
  }
  virtual UpdateRule update_rule(std::uint64_t /*round*/,
                                 std::uint64_t /*h*/) const {
    return {};
  }
  virtual DisplayRule display_rule(std::uint64_t /*round*/) const {
    return {};
  }
};

}  // namespace noisypull
