#include "noisypull/fault/faulty_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <span>

#include "noisypull/common/check.hpp"
#include "noisypull/rng/binomial.hpp"

namespace noisypull {
namespace {

// Salts separating the fault schedule's independent substreams of one seed.
constexpr std::uint64_t kStallSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kBurstSalt = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kDropSalt = 0x94d049bb133111ebULL;

}  // namespace

// The protocol proxy handed to the wrapped engine: forges Byzantine
// displays, swallows updates of stalled agents, and binomially thins
// observation counts for drop faults.  Everything else forwards, the bulk
// hooks included over the agents the proxy leaves alone (core/protocol.hpp),
// so the inner protocol's fast paths serve the untouched majority and no
// engine or population below needs to know the fault plan.
class FaultedProtocolView final : public PullProtocol {
 public:
  FaultedProtocolView(FaultyEngine& eng, PullProtocol& base)
      : eng_(eng), base_(base) {}

  std::size_t alphabet_size() const override { return base_.alphabet_size(); }
  std::uint64_t num_agents() const override { return base_.num_agents(); }
  std::uint64_t planned_rounds() const override {
    return base_.planned_rounds();
  }
  Opinion opinion(std::uint64_t agent) const override {
    return base_.opinion(agent);
  }

  Symbol display(std::uint64_t agent, std::uint64_t round) const override {
    if (eng_.is_byzantine(agent)) return eng_.byzantine_display(round);
    return base_.display(agent, round);
  }

  // The inner protocol's displays, then the Byzantine suffix forged.
  void displays(std::uint64_t round, std::span<Symbol> out) const override {
    base_.displays(round, out);
    std::fill(out.end() - static_cast<std::ptrdiff_t>(eng_.byz_count_),
              out.end(), eng_.byzantine_display(round));
  }

  // Each maximal run of live agents goes to the inner protocol's hook; a
  // stalled agent between them burns its draw and is swallowed, as
  // update() below does.  Drops rewrite every agent's counts, so a drop
  // plan takes the per-agent default loop.  Same concurrency contract as
  // update().
  void update_run(std::uint64_t round, std::uint64_t begin, std::uint64_t end,
                  const ObservationSampler& sampler, Rng& rng) override {
    if (eng_.plan_.drop.p > 0.0) {
      PullProtocol::update_run(round, begin, end, sampler, rng);
      return;
    }
    const StallFault& stall = eng_.plan_.stall;
    if (stall.crash_rate <= 0.0 && stall.blackout_fraction <= 0.0) {
      base_.update_run(round, begin, end, sampler, rng);
      return;
    }
    const std::uint64_t* const until = eng_.stalled_until_.data();
    SymbolCounts obs(sampler.alphabet_size());
    std::uint64_t live = begin;
    std::uint64_t stalled = 0;
    for (std::uint64_t i = std::max(begin, eng_.plan_.first_eligible); i < end;
         ++i) {
      if (round >= until[i]) continue;
      if (live < i) base_.update_run(round, live, i, sampler, rng);
      obs.clear();
      sampler.sample(rng, obs);
      ++stalled;
      live = i + 1;
    }
    if (live < end) base_.update_run(round, live, end, sampler, rng);
    if (stalled > 0) {
      eng_.stalled_updates_accum_.fetch_add(stalled,
                                            std::memory_order_relaxed);
    }
  }

  // May run concurrently for different agents (the inner engine's
  // block-parallel update phase), so shared counters are relaxed atomics;
  // everything else touched here is per-(round, agent).
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override {
    if (agent >= eng_.plan_.first_eligible &&
        round < eng_.stalled_until_[agent]) {
      // Crashed: the engine's draw is burnt, the update swallowed.
      eng_.stalled_updates_accum_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const double p = eng_.plan_.drop.p;
    if (p <= 0.0) {
      base_.update(agent, round, obs, rng);
      return;
    }
    // Thin each symbol's count binomially with loss probability p.  The
    // randomness comes from a per-(round, agent) substream of the fault
    // seed, so the realized losses do not depend on the engine's agent
    // activation order and never perturb the run Rng.
    Rng drop_rng(eng_.plan_.seed ^ kDropSalt, round * eng_.n_ + agent);
    SymbolCounts thinned(obs.size);
    std::uint64_t lost_total = 0;
    for (std::size_t s = 0; s < obs.size; ++s) {
      const std::uint64_t lost = sample_binomial(drop_rng, obs[s], p);
      thinned[s] = obs[s] - lost;
      lost_total += lost;
    }
    if (lost_total > 0) {
      eng_.dropped_accum_.fetch_add(lost_total, std::memory_order_relaxed);
    }
    base_.update(agent, round, thinned, rng);
  }

 private:
  FaultyEngine& eng_;
  PullProtocol& base_;
};

FaultyEngine::FaultyEngine(Engine& inner, FaultPlan plan)
    : inner_(inner), plan_(plan) {}

void FaultyEngine::set_artificial_noise(std::optional<Matrix> p) {
  inner_.set_artificial_noise(std::move(p));
}

bool FaultyEngine::is_byzantine(std::uint64_t agent) const noexcept {
  return byz_count_ > 0 && agent >= n_ - byz_count_;
}

bool FaultyEngine::is_stalled(std::uint64_t agent) const noexcept {
  return agent < stalled_until_.size() &&
         current_round_ < stalled_until_[agent];
}

Symbol FaultyEngine::byzantine_display(std::uint64_t round) const noexcept {
  switch (plan_.byzantine.strategy) {
    case ByzantineStrategy::AlwaysWrong:
      return plan_.byzantine.wrong_symbol;
    case ByzantineStrategy::FlipFlop:
      return round % 2 == 0 ? plan_.byzantine.wrong_symbol
                            : plan_.byzantine.honest_symbol;
    case ByzantineStrategy::MimicSource:
      return plan_.byzantine.mimic_symbol;
  }
  return plan_.byzantine.wrong_symbol;
}

void FaultyEngine::bind_population(std::uint64_t n, std::size_t alphabet) {
  if (!validated_) {
    plan_.validate(alphabet);
    NOISYPULL_CHECK(plan_.first_eligible <= n,
                    "first_eligible exceeds the population size");
    n_ = n;
    const std::uint64_t eligible = n - plan_.first_eligible;
    byz_count_ = static_cast<std::uint64_t>(
        plan_.byzantine.fraction * static_cast<double>(eligible));
    stats_.byzantine_agents = byz_count_;
    stalled_until_.assign(n, 0);
    validated_ = true;
    return;
  }
  NOISYPULL_CHECK(n == n_, "FaultyEngine bound to a different population");
}

void FaultyEngine::advance_stall_schedule(std::uint64_t round) {
  const StallFault& stall = plan_.stall;
  if (stall.blackout_fraction > 0.0 && round == stall.blackout_start) {
    // Synchronized blackout hits the lowest-indexed eligible agents —
    // disjoint from the Byzantine set, which takes the highest indices.
    const std::uint64_t eligible = n_ - plan_.first_eligible;
    const std::uint64_t count = static_cast<std::uint64_t>(
        stall.blackout_fraction * static_cast<double>(eligible));
    const std::uint64_t until = round + stall.blackout_rounds;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t agent = plan_.first_eligible + i;
      stalled_until_[agent] = std::max(stalled_until_[agent], until);
      ++stats_.crashes;
    }
  }
  if (stall.crash_rate <= 0.0) return;
  // One substream per round, consumed in agent-index order: the schedule is
  // identical no matter which engine (or activation order) runs below.
  Rng stall_rng(plan_.seed ^ kStallSalt, round);
  for (std::uint64_t i = plan_.first_eligible; i < n_; ++i) {
    if (round < stalled_until_[i]) continue;  // already down
    if (!stall_rng.bernoulli(stall.crash_rate)) continue;
    const std::uint64_t span = stall.max_rounds - stall.min_rounds + 1;
    const std::uint64_t duration =
        stall.min_rounds + stall_rng.next_below(span);
    stalled_until_[i] = round + duration;
    ++stats_.crashes;
  }
}

void FaultyEngine::step(PullProtocol& protocol, const NoiseMatrix& noise,
                        Holdings h, std::uint64_t round, Rng& rng) {
  if (!plan_.any()) {
    // Transparent pass-through: the identity contract requires bit-for-bit
    // agreement with the bare engine, so not even the proxy is interposed.
    inner_.step(protocol, noise, h, round, rng);
    return;
  }
  bind_population(protocol.num_agents(), protocol.alphabet_size());
  current_round_ = round;
  advance_stall_schedule(round);

  bool burst_active = round < burst_until_;
  if (!burst_active && plan_.burst.rate > 0.0) {
    Rng burst_rng(plan_.seed ^ kBurstSalt, round);
    if (burst_rng.bernoulli(plan_.burst.rate)) {
      burst_until_ = round + plan_.burst.rounds;
      burst_active = true;
    }
  }
  if (burst_active) ++stats_.burst_rounds;

  FaultedProtocolView view(*this, protocol);
  if (burst_active) {
    const NoiseMatrix spiked =
        NoiseMatrix::uniform(protocol.alphabet_size(), plan_.burst.delta);
    inner_.step(view, spiked, h, round, rng);
  } else {
    inner_.step(view, noise, h, round, rng);
  }
  // Fold the proxy's concurrent counters into the plain stats snapshot now
  // that the round's update phase has quiesced.
  stats_.stalled_updates +=
      stalled_updates_accum_.exchange(0, std::memory_order_relaxed);
  stats_.dropped_observations +=
      dropped_accum_.exchange(0, std::memory_order_relaxed);
}

}  // namespace noisypull
