#include "noisypull/core/automaton/protocol_automata.hpp"

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

SfAutomaton::SfAutomaton(SfSchedule schedule, bool is_source,
                         Opinion preference)
    : schedule_(schedule), is_source_(is_source),
      preference_(preference & 1) {
  NOISYPULL_CHECK(schedule_.phase_rounds >= 1, "SF needs listening rounds");
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  intern(Concrete{});  // state 0: the fresh agent
}

// Callers must hold intern_mutex_.
AutomatonState SfAutomaton::intern(const Concrete& c) const {
  const auto it = ids_.find(c);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<AutomatonState>(states_.size());
  states_.push_back(c);
  ids_.emplace(c, id);
  return id;
}

std::size_t SfAutomaton::num_states() const {
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  return states_.size();
}

SfAutomaton::Concrete SfAutomaton::concrete(AutomatonState state) const {
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  NOISYPULL_ASSERT(state < states_.size());
  return states_[state];
}

Symbol SfAutomaton::display(AutomatonState state, std::uint64_t round) const {
  if (round < schedule_.boosting_start()) {
    if (is_source_) return preference_;
    return round < schedule_.phase_rounds ? Symbol{0} : Symbol{1};
  }
  return concrete(state).current;
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

std::uint64_t SfAutomaton::update_signature(std::uint64_t round) const {
  if (round < schedule_.phase_rounds) return 0;  // Phase 0: count 1s
  if (round < schedule_.boosting_start()) {      // Phase 1: count 0s, ...
    return round + 1 == schedule_.boosting_start() ? 2 : 1;  // ... then finish
  }
  if (round >= schedule_.total_rounds()) return 5;  // terminated (identity)
  return is_subphase_end(round) ? 4 : 3;  // boosting: sub-phase end / middle
}

std::uint64_t SfAutomaton::display_signature(std::uint64_t round) const {
  if (round < schedule_.phase_rounds) return 0;
  return round < schedule_.boosting_start() ? 1 : 2;
}

std::vector<WeightedState> SfAutomaton::transition(
    AutomatonState state, std::uint64_t round, const SymbolCounts& obs) const {
  NOISYPULL_CHECK(obs.size == 2, "SF expects a binary alphabet");
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  NOISYPULL_ASSERT(state < states_.size());
  Concrete c = states_[state];

  if (round < schedule_.phase_rounds) {
    c.listen += static_cast<std::int64_t>(obs[1]);
    return {{intern(c), 1.0}};
  }
  if (round < schedule_.boosting_start()) {
    c.listen -= static_cast<std::int64_t>(obs[0]);
    if (round + 1 != schedule_.boosting_start()) return {{intern(c), 1.0}};
    // finish_listening: weak ← majority of the two counters, tie → coin;
    // current ← weak.  Only current is kept: nothing after this round reads
    // weak or the listening counters (boost is still 0 here).
    const bool tie = c.listen == 0;
    const Opinion majority = c.listen > 0 ? 1 : 0;
    c.listen = 0;
    if (!tie) {
      c.current = majority;
      return {{intern(c), 1.0}};
    }
    Concrete heads = c;
    heads.current = 1;
    Concrete tails = c;
    tails.current = 0;
    return coin_split(intern(heads), intern(tails));
  }
  if (round >= schedule_.total_rounds()) return {{state, 1.0}};
  c.listen = 0;  // dead; nonzero only if the finish round was stalled
  c.boost += static_cast<std::int64_t>(obs[1]) -
             static_cast<std::int64_t>(obs[0]);
  if (!is_subphase_end(round)) return {{intern(c), 1.0}};
  // finish_subphase: current ← majority of boost ones vs zeros, tie → coin.
  const std::int64_t balance = c.boost;
  c.boost = 0;
  if (balance != 0) {
    c.current = balance > 0 ? 1 : 0;
    return {{intern(c), 1.0}};
  }
  Concrete heads = c;
  heads.current = 1;
  Concrete tails = c;
  tails.current = 0;
  return coin_split(intern(heads), intern(tails));
}

// Same branch structure as transition(), but returning the *sampling
// procedure* with SourceFilter::update's exact draw pattern: no draw on
// deterministic moves, one next_bool() per realized tie (heads → opinion 1).
CompiledEdge SfAutomaton::compile(AutomatonState state, std::uint64_t round,
                                  const SymbolCounts& obs) const {
  NOISYPULL_CHECK(obs.size == 2, "SF expects a binary alphabet");
  const std::lock_guard<std::mutex> lock(intern_mutex_);
  NOISYPULL_ASSERT(state < states_.size());
  Concrete c = states_[state];

  if (round < schedule_.phase_rounds) {
    c.listen += static_cast<std::int64_t>(obs[1]);
    return CompiledEdge::deterministic(intern(c));
  }
  if (round < schedule_.boosting_start()) {
    c.listen -= static_cast<std::int64_t>(obs[0]);
    if (round + 1 != schedule_.boosting_start()) {
      return CompiledEdge::deterministic(intern(c));
    }
    const bool tie = c.listen == 0;
    const Opinion majority = c.listen > 0 ? 1 : 0;
    c.listen = 0;
    if (!tie) {
      c.current = majority;
      return CompiledEdge::deterministic(intern(c));
    }
    Concrete heads = c;
    heads.current = 1;
    Concrete tails = c;
    tails.current = 0;
    return CompiledEdge::coin(intern(tails), intern(heads));
  }
  if (round >= schedule_.total_rounds()) {
    return CompiledEdge::deterministic(state);
  }
  c.listen = 0;
  c.boost += static_cast<std::int64_t>(obs[1]) -
             static_cast<std::int64_t>(obs[0]);
  if (!is_subphase_end(round)) return CompiledEdge::deterministic(intern(c));
  const std::int64_t balance = c.boost;
  c.boost = 0;
  if (balance != 0) {
    c.current = balance > 0 ? 1 : 0;
    return CompiledEdge::deterministic(intern(c));
  }
  Concrete heads = c;
  heads.current = 1;
  Concrete tails = c;
  tails.current = 0;
  return CompiledEdge::coin(intern(tails), intern(heads));
}

Opinion SfAutomaton::opinion(AutomatonState state) const {
  return concrete(state).current;
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
