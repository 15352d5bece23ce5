// Source Filter (SF) — Algorithm 1 of the paper (Theorem 4).
//
// Alphabet Σ = {0,1}; simultaneous wake-up.  Three phases:
//   Phase 0 (⌈m/h⌉ rounds):  sources display their preference, non-sources
//     display 0; every agent counts observed 1s (Counter1).
//   Phase 1 (⌈m/h⌉ rounds):  sources display their preference, non-sources
//     display 1; every agent counts observed 0s (Counter0).
//   Weak opinion Ŷ = 1{Counter1 > Counter0}, ties broken by a fair coin.
//   Majority boosting:  L = ⌈10·ln n⌉ sub-phases of ⌈w/h⌉ rounds each with
//     w = 100e/(1−2δ)², plus a final sub-phase of ⌈m/h⌉ rounds.  Every agent
//     displays its opinion and, at the end of each sub-phase, adopts the
//     majority of the messages received during that sub-phase.
//
// The neutral displays of non-sources in Phases 0/1 cancel in expectation
// (the noise being uniform), letting the source bias "stand out"; the weak
// opinions are mutually independent and correct with probability
// ≥ 1/2 + 4√(log n / n) (Lemma 28), which boosting amplifies to w.h.p.
// consensus (Lemmas 31–35).
#pragma once

#include <array>
// nplint: allow-next-line(threading-header) -- relaxed flag set in update_run()
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "noisypull/core/schedule.hpp"
#include "noisypull/core/protocol.hpp"

namespace noisypull {

class SourceFilter : public PullProtocol {
 public:
  // Builds SF with the Theorem 4 schedule (see make_sf_schedule).
  SourceFilter(const PopulationConfig& pop, Holdings h, Delta delta,
               C1 c1 = kDefaultC1);

  // Builds SF with an explicit, already-computed schedule.
  SourceFilter(const PopulationConfig& pop, SfSchedule schedule);

  std::size_t alphabet_size() const override { return 2; }
  std::uint64_t num_agents() const override { return pop_.n; }
  Symbol display(std::uint64_t agent, std::uint64_t round) const override;
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override;
  // The bulk hooks (core/protocol.hpp) decide the round's phase once.
  // update_run() runs the same per-agent step as update(), drawing each
  // agent's counts with sample_index() when the sampler is InverseCdf
  // (binary outcome k is the counts (h − k, k)) and with sample()
  // otherwise; both consume the rng exactly as the default loop does.
  void displays(std::uint64_t round, std::span<Symbol> out) const override;
  void update_run(std::uint64_t round, std::uint64_t begin, std::uint64_t end,
                  const ObservationSampler& sampler, Rng& rng) override;
  // Final, so count_opinion() below stays exact for every variant.
  Opinion opinion(std::uint64_t agent) const final;
  // Answers the run loop's per-round convergence check from a cached
  // count of `current`, recounted (O(n)) only when a round since the last
  // recount could have changed an opinion: a per-agent update(), or an
  // update_run() on a FinishListening or FinishSubphase round.  Not safe
  // to call concurrently with itself or with a round; the run loop calls
  // it between rounds.
  std::uint64_t count_opinion(Opinion o) const override;
  // Times count_opinion() recounted instead of answering from its cache.
  // A function of the trajectory, so it does not depend on lanes.
  std::uint64_t opinion_recounts() const noexcept { return opinion_recounts_; }
  std::uint64_t planned_rounds() const override {
    return schedule_.total_rounds();
  }

  const SfSchedule& schedule() const noexcept { return schedule_; }
  const PopulationConfig& population() const noexcept { return pop_; }

  // Weak opinion Ŷ of an agent (meaningful once Phase 1 has ended).
  Opinion weak_opinion(std::uint64_t agent) const;

  // Listening-phase counters, exposed for tests and the LEM28 experiment.
  std::uint64_t counter1(std::uint64_t agent) const;
  std::uint64_t counter0(std::uint64_t agent) const;

  // True while `round` lies in the boosting phase and is the last round of a
  // sub-phase (the rounds at which opinions change).  Used by experiments
  // that record the A_ℓ trajectory (Lemma 33).
  bool is_subphase_end(std::uint64_t round) const noexcept;

 protected:
  // Listening-round (Phases 0/1) displays of the non-source agents
  // first, first + 1, ..., first + out.size() − 1, written to out in that
  // order; overridden by the ablation variants.  display() asks it for one
  // agent, displays() for all of them at once.
  virtual void nonsource_listen_displays(std::uint64_t round,
                                         std::uint64_t first,
                                         std::span<Symbol> out) const;

  const PopulationConfig pop_;
  const SfSchedule schedule_;

  struct AgentState {
    std::uint64_t counter1 = 0;    // 1s observed in Phase 0
    std::uint64_t counter0 = 0;    // 0s observed in Phase 1
    std::uint64_t boost_ones = 0;  // 1s observed in the current sub-phase
    std::uint64_t boost_total = 0;
    Opinion weak = 0;
    Opinion current = 0;
  };
  std::vector<AgentState> agents_;

 private:
  // Marks the cached opinion count stale.  Runs concurrently across lanes
  // (update() and update_run() of different blocks), hence the atomic;
  // relaxed suffices, the round's barrier orders it before the next count.
  void mark_opinions_stale() noexcept {
    // Load first: once the flag is set, concurrent lanes only read its line.
    if (!opinion_counts_stale_.load(std::memory_order_relaxed)) {
      opinion_counts_stale_.store(true, std::memory_order_relaxed);
    }
  }

  mutable std::atomic<bool> opinion_counts_stale_{true};
  // Agents whose `current` is 0 and 1, the only opinions SF holds.
  mutable std::array<std::uint64_t, 2> opinion_counts_{};
  mutable std::uint64_t opinion_recounts_ = 0;

  // What an agent does with one round's observations.  A function of the
  // round alone, so the bulk hook decides it once per round.
  enum class RoundStep : std::uint8_t {
    CountOnes,        // Phase 0: Counter1 += ones
    CountZeros,       // Phase 1: Counter0 += zeros
    FinishListening,  // Phase 1's last round: count, then the weak opinion
    Boost,            // boosting: tally the sub-phase
    FinishSubphase,   // a sub-phase's last round: tally, then adopt majority
    Terminated,       // past the horizon: nothing
  };
  RoundStep round_step(std::uint64_t round) const noexcept;

  // SF's transition: agent `a` receives `zeros` 0s and `ones` 1s in a
  // round whose step is `st`.  update() and update_run() both run it.
  static void step(AgentState& a, RoundStep st, std::uint64_t zeros,
                   std::uint64_t ones, Rng& rng) {
    switch (st) {
      case RoundStep::CountOnes:
        a.counter1 += ones;
        return;
      case RoundStep::CountZeros:
        a.counter0 += zeros;
        return;
      case RoundStep::FinishListening:
        a.counter0 += zeros;
        finish_listening(a, rng);
        return;
      case RoundStep::Boost:
        a.boost_ones += ones;
        a.boost_total += zeros + ones;
        return;
      case RoundStep::FinishSubphase:
        a.boost_ones += ones;
        a.boost_total += zeros + ones;
        finish_subphase(a, rng);
        return;
      case RoundStep::Terminated:
        return;
    }
  }
  static void finish_listening(AgentState& a, Rng& rng);
  static void finish_subphase(AgentState& a, Rng& rng);
};

}  // namespace noisypull
