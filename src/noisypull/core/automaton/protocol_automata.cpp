#include "noisypull/core/automaton/protocol_automata.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "noisypull/common/check.hpp"
#include "noisypull/core/ssf.hpp"

namespace noisypull {
namespace {

// ½-½ split between two states, collapsing equal targets.
std::vector<WeightedState> coin_split(AutomatonState a, AutomatonState b) {
  if (a == b) return {{a, 1.0}};
  return {{a, 0.5}, {b, 0.5}};
}

}  // namespace

// --------------------------------------------------------------------------
// TableAutomaton

TableAutomaton::TableAutomaton(std::size_t alphabet,
                               std::vector<TableState> states)
    : alphabet_(alphabet), states_(std::move(states)) {
  NOISYPULL_CHECK(alphabet_ >= 2 && alphabet_ <= kMaxAlphabet,
                  "unsupported alphabet size");
  NOISYPULL_CHECK(!states_.empty(), "table automaton needs states");
  for (const auto& s : states_) {
    NOISYPULL_CHECK(s.show < alphabet_, "display symbol outside the alphabet");
    NOISYPULL_CHECK(s.watch_a < alphabet_ && s.watch_b < alphabet_,
                    "watched cell outside the alphabet");
    NOISYPULL_CHECK(s.if_greater < states_.size() &&
                        s.if_less < states_.size() &&
                        s.tie_a < states_.size() && s.tie_b < states_.size(),
                    "transition target outside the state set");
  }
}

Symbol TableAutomaton::display(AutomatonState state,
                               std::uint64_t /*round*/) const {
  NOISYPULL_ASSERT(state < states_.size());
  return states_[state].show;
}

std::vector<WeightedState> TableAutomaton::transition(
    AutomatonState state, std::uint64_t /*round*/,
    const SymbolCounts& obs) const {
  NOISYPULL_ASSERT(state < states_.size());
  const TableState& s = states_[state];
  const std::uint64_t a = obs[s.watch_a];
  const std::uint64_t b = obs[s.watch_b];
  if (a > b) return {{s.if_greater, 1.0}};
  if (a < b) return {{s.if_less, 1.0}};
  return coin_split(s.tie_a, s.tie_b);
}

// --------------------------------------------------------------------------
// SfAutomaton

namespace {

// a·b and a + b, saturated at kMaxStateIds: a schedule far past the id
// bound must be refused, never wrap back below it.
std::uint64_t capped_mul(std::uint64_t a, std::uint64_t b) {
  return b != 0 && a > kMaxStateIds / b ? kMaxStateIds
                                        : std::min(a * b, kMaxStateIds);
}
std::uint64_t capped_add(std::uint64_t a, std::uint64_t b) {
  return std::min(a + b, kMaxStateIds);  // both operands <= kMaxStateIds
}

}  // namespace

SfAutomaton::SfAutomaton(SfSchedule schedule, bool is_source,
                         Opinion preference)
    : schedule_(schedule), is_source_(is_source),
      preference_(preference & 1) {
  NOISYPULL_CHECK(schedule_.phase_rounds >= 1, "SF needs listening rounds");
  const std::uint64_t h = schedule_.h;
  const std::uint64_t listen = capped_mul(schedule_.phase_rounds, h);
  const std::uint64_t boosting_rounds = capped_add(
      capped_mul(schedule_.num_subphases, schedule_.subphase_rounds),
      std::min(schedule_.final_rounds, kMaxStateIds));
  const std::uint64_t boost = capped_mul(boosting_rounds, h);
  // Each region holds 2·bound + 1 balances, each with two currents.
  const std::uint64_t span = 2 * (2 * listen + 1) + 2 * (2 * boost + 1);
  NOISYPULL_CHECK(
      span <= kMaxStateIds,
      "SF schedule (h = " + std::to_string(h) +
          ", phase_rounds = " + std::to_string(schedule_.phase_rounds) +
          ", boosting rounds = " + std::to_string(boosting_rounds) +
          ") needs at least " + std::to_string(span) +
          " state ids; SF ids must stay below 2^31");
  listen_bound_ = static_cast<std::int64_t>(listen);
  boost_bound_ = static_cast<std::int64_t>(boost);
  boost_base_ = static_cast<AutomatonState>(2 * (2 * listen + 1));
  num_states_ = static_cast<std::size_t>(span);
}

AutomatonState SfAutomaton::listen_id(std::int64_t balance,
                                      Opinion current) const {
  NOISYPULL_CHECK(balance >= -listen_bound_ && balance <= listen_bound_,
                  "SF listening balance outside the schedule's bound (more "
                  "than h observations in a round?)");
  return static_cast<AutomatonState>(2 * (balance + listen_bound_) + current);
}

AutomatonState SfAutomaton::boost_id(std::int64_t balance,
                                     Opinion current) const {
  NOISYPULL_CHECK(balance >= -boost_bound_ && balance <= boost_bound_,
                  "SF boosting balance outside the schedule's bound (more "
                  "than h observations in a round?)");
  return boost_base_ +
         static_cast<AutomatonState>(2 * (balance + boost_bound_) + current);
}

bool SfAutomaton::is_subphase_end(std::uint64_t round) const noexcept {
  const std::uint64_t start = schedule_.boosting_start();
  if (round < start) return false;
  const std::uint64_t short_span =
      schedule_.num_subphases * schedule_.subphase_rounds;
  const std::uint64_t off = round - start;
  if (off < short_span) {
    return (off + 1) % schedule_.subphase_rounds == 0;
  }
  return off + 1 == short_span + schedule_.final_rounds;
}

SfAutomaton::Step SfAutomaton::step(std::uint64_t round) const noexcept {
  if (round < schedule_.phase_rounds) {  // Phase 0: count 1s
    return {Step::Kind::Listen, 1, 0, false};
  }
  if (round < schedule_.boosting_start()) {  // Phase 1: count 0s, then finish
    return {Step::Kind::Listen, 0, 1, round + 1 == schedule_.boosting_start()};
  }
  if (round >= schedule_.total_rounds()) {  // terminated
    return {Step::Kind::Identity, 0, 0, false};
  }
  return {Step::Kind::Boost, 1, 1, is_subphase_end(round)};
}

DisplayRule SfAutomaton::display_rule(std::uint64_t round) const {
  if (round >= schedule_.boosting_start()) {
    return {.kind = DisplayRule::Kind::OpinionBit};
  }
  if (is_source_) return {.kind = DisplayRule::Kind::Constant,
                          .symbol = preference_};
  // Non-sources: Phase 0 → display 0; Phase 1 → display 1.
  return {.kind = DisplayRule::Kind::Constant,
          .symbol = round < schedule_.phase_rounds ? Symbol{0} : Symbol{1}};
}

Symbol SfAutomaton::display(AutomatonState state, std::uint64_t round) const {
  const DisplayRule rule = display_rule(round);
  return rule.kind == DisplayRule::Kind::Constant
             ? rule.symbol
             : static_cast<Symbol>(state & 1);
}

std::int64_t SfAutomaton::moved(const Step& st, AutomatonState s,
                                std::uint64_t zeros,
                                std::uint64_t ones) const noexcept {
  std::int64_t balance = 0;
  if (st.kind == Step::Kind::Listen) {
    balance = static_cast<std::int64_t>(s >> 1) - listen_bound_;
  } else if (s >= boost_base_) {
    balance = static_cast<std::int64_t>((s - boost_base_) >> 1) - boost_bound_;
  }  // else: stalled through the finish, so the boost counters start at 0
  return balance + st.ones * static_cast<std::int64_t>(ones) -
         st.zeros * static_cast<std::int64_t>(zeros);
}

std::array<AutomatonState, 2> SfAutomaton::successors(
    const Step& st, AutomatonState s, std::int64_t balance) const {
  if (st.kind == Step::Kind::Identity) return {s, s};
  if (!st.sign) {
    const auto current = static_cast<Opinion>(s & 1);
    const AutomatonState to = st.kind == Step::Kind::Listen
                                  ? listen_id(balance, current)
                                  : boost_id(balance, current);
    return {to, to};
  }
  // finish_listening / finish_subphase: current ← majority of the counter
  // pair, tie → coin; the agent continues at boost balance 0.  Only current
  // is kept: nothing later reads weak or the listening counters.
  if (balance != 0) {
    const AutomatonState to = boost_id(0, balance > 0 ? 1 : 0);
    return {to, to};
  }
  return {boost_id(0, 0), boost_id(0, 1)};
}

std::vector<WeightedState> SfAutomaton::transition(
    AutomatonState state, std::uint64_t round, const SymbolCounts& obs) const {
  NOISYPULL_CHECK(obs.size == 2, "SF expects a binary alphabet");
  NOISYPULL_ASSERT(state < num_states_);
  const Step st = step(round);
  const auto [tails, heads] =
      successors(st, state, moved(st, state, obs[0], obs[1]));
  return coin_split(heads, tails);
}

// Same successors as transition(), but as the *sampling procedure* with
// SourceFilter::update's exact draw pattern: no draw on deterministic
// moves, one next_bool() per realized tie (heads → opinion 1).
CompiledEdge SfAutomaton::compile(AutomatonState state, std::uint64_t round,
                                  const SymbolCounts& obs) const {
  NOISYPULL_CHECK(obs.size == 2, "SF expects a binary alphabet");
  NOISYPULL_ASSERT(state < num_states_);
  const Step st = step(round);
  const auto [tails, heads] =
      successors(st, state, moved(st, state, obs[0], obs[1]));
  return tails == heads ? CompiledEdge::deterministic(tails)
                        : CompiledEdge::coin(tails, heads);
}

UpdateRule SfAutomaton::update_rule(std::uint64_t round,
                                    std::uint64_t h) const {
  NOISYPULL_CHECK(has_update_rule(h),
                  "SF closed-form rule needs 1 <= h <= the schedule's h");
  const Step st = step(round);
  UpdateRule rule;
  if (st.kind == Step::Kind::Identity) {
    rule.kind = UpdateRule::Kind::Identity;
    return rule;
  }
  rule.kind = st.sign ? UpdateRule::Kind::SignStep : UpdateRule::Kind::Shift;
  if (st.kind == Step::Kind::Boost) {
    rule.floor = boost_base_;  // listening ids re-base to boost balance 0
    rule.rebase = boost_id(0, 0);
  }
  // The balance moves by ones·k − zeros·(h − k), two id steps per unit.
  rule.slope = static_cast<std::int32_t>(2 * (st.ones + st.zeros));
  rule.offset = static_cast<std::int32_t>(-2 * st.zeros *
                                          static_cast<std::int64_t>(h));
  if (st.sign) {
    rule.zero = st.kind == Step::Kind::Listen ? listen_id(0, 0) : boost_id(0, 0);
    rule.down = boost_id(0, 0);
    rule.up = boost_id(0, 1);
  }
  return rule;
}

// --------------------------------------------------------------------------
// SsfAutomaton

SsfAutomaton::SsfAutomaton(MemoryBudget m, bool is_source, Opinion preference)
    : m_(m.get()), is_source_(is_source), preference_(preference & 1) {
  NOISYPULL_CHECK(m_ >= 1, "memory budget m must be at least 1");
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  intern(Concrete{});  // state 0: the fresh agent
}

// Callers must hold intern_mutex_.
AutomatonState SsfAutomaton::intern(const Concrete& c) const {
  const auto it = ids_.find(c);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<AutomatonState>(states_.size());
  states_.push_back(c);
  ids_.emplace(c, id);
  return id;
}

std::size_t SsfAutomaton::num_states() const {
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  return states_.size();
}

SsfAutomaton::Concrete SsfAutomaton::concrete(AutomatonState state) const {
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  NOISYPULL_ASSERT(state < states_.size());
  return states_[state];
}

Symbol SsfAutomaton::display(AutomatonState state,
                             std::uint64_t /*round*/) const {
  if (is_source_) {
    return SelfStabilizingSourceFilter::encode(true, preference_);
  }
  return SelfStabilizingSourceFilter::encode(false, concrete(state).weak);
}

std::vector<WeightedState> SsfAutomaton::transition(
    AutomatonState state, std::uint64_t /*round*/,
    const SymbolCounts& obs) const {
  NOISYPULL_CHECK(obs.size == 4, "SSF expects the {0,1}^2 alphabet");
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  NOISYPULL_ASSERT(state < states_.size());
  Concrete c = states_[state];
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    c.mem[s] += obs[s];
    total += c.mem[s];
  }
  if (total < m_) return {{intern(c), 1.0}};

  // Flush: weak ← majority of second bits among source-tagged messages
  // (symbols 2, 3); current ← majority of second bits of all messages.  Each
  // tie breaks with its own independent fair coin, so a double tie splits
  // the state four ways.
  const std::uint64_t src_ones = c.mem[3];
  const std::uint64_t src_zeros = c.mem[2];
  const std::uint64_t all_ones = c.mem[1] + c.mem[3];
  const std::uint64_t all_zeros = c.mem[0] + c.mem[2];
  c.mem.fill(0);

  std::vector<std::pair<Opinion, double>> weaks;
  if (src_ones != src_zeros) {
    weaks.emplace_back(src_ones > src_zeros ? 1 : 0, 1.0);
  } else {
    weaks.emplace_back(1, 0.5);
    weaks.emplace_back(0, 0.5);
  }
  std::vector<std::pair<Opinion, double>> currents;
  if (all_ones != all_zeros) {
    currents.emplace_back(all_ones > all_zeros ? 1 : 0, 1.0);
  } else {
    currents.emplace_back(1, 0.5);
    currents.emplace_back(0, 0.5);
  }

  std::vector<WeightedState> out;
  out.reserve(weaks.size() * currents.size());
  for (const auto& [w, wp] : weaks) {
    for (const auto& [cur, cp] : currents) {
      Concrete next = c;
      next.weak = w;
      next.current = cur;
      out.push_back({intern(next), wp * cp});
    }
  }
  return out;
}

Opinion SsfAutomaton::opinion(AutomatonState state) const {
  return concrete(state).current;
}

}  // namespace noisypull
