#include "noisypull/core/source_filter.hpp"

#include <algorithm>

#include "noisypull/common/check.hpp"

namespace noisypull {

SourceFilter::SourceFilter(const PopulationConfig& pop, Holdings h,
                           Delta delta, C1 c1)
    : SourceFilter(pop, make_sf_schedule(pop, h, delta, c1)) {}

SourceFilter::SourceFilter(const PopulationConfig& pop, SfSchedule schedule)
    : pop_(pop), schedule_(schedule), agents_(pop.n) {
  pop_.validate();
}

void SourceFilter::nonsource_listen_displays(std::uint64_t round,
                                             std::uint64_t /*first*/,
                                             std::span<Symbol> out) const {
  // Phase 0 → display 0; Phase 1 → display 1.
  std::fill(out.begin(), out.end(),
            round < schedule_.phase_rounds ? Symbol{0} : Symbol{1});
}

Symbol SourceFilter::display(std::uint64_t agent, std::uint64_t round) const {
  if (round < schedule_.boosting_start()) {
    if (pop_.is_source(agent)) return pop_.source_preference(agent);
    Symbol s = 0;
    nonsource_listen_displays(round, agent, std::span<Symbol>(&s, 1));
    return s;
  }
  return agents_[agent].current;
}

void SourceFilter::displays(std::uint64_t round, std::span<Symbol> out) const {
  NOISYPULL_CHECK(out.size() == pop_.n, "one display slot per agent");
  if (round < schedule_.boosting_start()) {
    const std::uint64_t sources = pop_.num_sources();
    for (std::uint64_t i = 0; i < sources; ++i) {
      out[i] = pop_.source_preference(i);
    }
    nonsource_listen_displays(round, sources, out.subspan(sources));
    return;
  }
  for (std::uint64_t i = 0; i < pop_.n; ++i) out[i] = agents_[i].current;
}

void SourceFilter::finish_listening(AgentState& a, Rng& rng) {
  if (a.counter1 > a.counter0) {
    a.weak = 1;
  } else if (a.counter1 < a.counter0) {
    a.weak = 0;
  } else {
    a.weak = rng.next_bool() ? 1 : 0;
  }
  a.current = a.weak;
  a.boost_ones = 0;
  a.boost_total = 0;
}

void SourceFilter::finish_subphase(AgentState& a, Rng& rng) {
  const std::uint64_t zeros = a.boost_total - a.boost_ones;
  if (a.boost_ones > zeros) {
    a.current = 1;
  } else if (a.boost_ones < zeros) {
    a.current = 0;
  } else {
    a.current = rng.next_bool() ? 1 : 0;
  }
  a.boost_ones = 0;
  a.boost_total = 0;
}

bool SourceFilter::is_subphase_end(std::uint64_t round) const noexcept {
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

SourceFilter::RoundStep SourceFilter::round_step(
    std::uint64_t round) const noexcept {
  if (round < schedule_.phase_rounds) return RoundStep::CountOnes;
  if (round < schedule_.boosting_start()) {
    return round + 1 == schedule_.boosting_start()
               ? RoundStep::FinishListening
               : RoundStep::CountZeros;
  }
  if (round >= schedule_.total_rounds()) return RoundStep::Terminated;
  return is_subphase_end(round) ? RoundStep::FinishSubphase : RoundStep::Boost;
}

void SourceFilter::update(std::uint64_t agent, std::uint64_t round,
                          const SymbolCounts& obs, Rng& rng) {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  NOISYPULL_CHECK(obs.size == 2, "SF expects a binary alphabet");
  step(agents_[agent], round_step(round), obs[0], obs[1], rng);
  mark_opinions_stale();
}

void SourceFilter::update_run(std::uint64_t round, std::uint64_t begin,
                              std::uint64_t end,
                              const ObservationSampler& sampler, Rng& rng) {
  NOISYPULL_CHECK(begin <= end && end <= pop_.n, "agent run out of range");
  NOISYPULL_CHECK(sampler.alphabet_size() == 2, "SF expects a binary alphabet");
  const RoundStep st = round_step(round);
  // Only a phase's last round moves `current`.
  if (st == RoundStep::FinishListening || st == RoundStep::FinishSubphase) {
    mark_opinions_stale();
  }
  AgentState* const agents = agents_.data();
  if (sampler.mode() == ObservationSampler::Mode::InverseCdf) {
    const std::uint64_t h = sampler.draws();
    for (std::uint64_t i = begin; i < end; ++i) {
      const std::uint64_t ones = sampler.sample_index(rng);
      step(agents[i], st, h - ones, ones, rng);
    }
    return;
  }
  SymbolCounts obs(2);
  for (std::uint64_t i = begin; i < end; ++i) {
    sampler.sample(rng, obs);
    step(agents[i], st, obs[0], obs[1], rng);
  }
}

Opinion SourceFilter::opinion(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return agents_[agent].current;
}

std::uint64_t SourceFilter::count_opinion(Opinion o) const {
  if (opinion_counts_stale_.load(std::memory_order_relaxed)) {
    std::uint64_t ones = 0;
    for (const AgentState& a : agents_) ones += a.current;  // 0 or 1
    opinion_counts_ = {pop_.n - ones, ones};
    ++opinion_recounts_;
    opinion_counts_stale_.store(false, std::memory_order_relaxed);
  }
  return o < opinion_counts_.size() ? opinion_counts_[o] : 0;
}

Opinion SourceFilter::weak_opinion(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return agents_[agent].weak;
}

std::uint64_t SourceFilter::counter1(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return agents_[agent].counter1;
}

std::uint64_t SourceFilter::counter0(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return agents_[agent].counter0;
}

}  // namespace noisypull
