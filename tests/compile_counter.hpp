// CompileCounter — an AgentAutomaton decorator that counts its compile()
// calls and forwards everything else, closed form included.  Shared by the
// compiled-path and bulk-hook tests: a CompiledPopulation whose groups
// wrap their automata in it reports how many agents ran compile() (the
// per-agent update()) rather than a closed-form rule.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "noisypull/core/automaton/automaton.hpp"

namespace noisypull::test_support {

class CompileCounter final : public AgentAutomaton {
 public:
  explicit CompileCounter(std::shared_ptr<const AgentAutomaton> inner)
      : inner_(std::move(inner)) {}
  std::size_t alphabet_size() const override { return inner_->alphabet_size(); }
  std::size_t num_states() const override { return inner_->num_states(); }
  AutomatonState initial_state() const override {
    return inner_->initial_state();
  }
  Symbol display(AutomatonState s, std::uint64_t round) const override {
    return inner_->display(s, round);
  }
  std::vector<WeightedState> transition(
      AutomatonState s, std::uint64_t round,
      const SymbolCounts& obs) const override {
    return inner_->transition(s, round, obs);
  }
  Opinion opinion(AutomatonState s) const override {
    return inner_->opinion(s);
  }
  CompiledEdge compile(AutomatonState s, std::uint64_t round,
                       const SymbolCounts& obs) const override {
    compiles_.fetch_add(1, std::memory_order_relaxed);
    return inner_->compile(s, round, obs);
  }
  bool closed_form() const override { return inner_->closed_form(); }
  bool has_update_rule(std::uint64_t h) const override {
    return inner_->has_update_rule(h);
  }
  UpdateRule update_rule(std::uint64_t round, std::uint64_t h) const override {
    return inner_->update_rule(round, h);
  }
  DisplayRule display_rule(std::uint64_t round) const override {
    return inner_->display_rule(round);
  }
  std::uint64_t compiles() const {
    return compiles_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const AgentAutomaton> inner_;
  mutable std::atomic<std::uint64_t> compiles_{0};
};

}  // namespace noisypull::test_support
