#include "noisypull/core/source_filter.hpp"

#include "noisypull/common/check.hpp"

namespace noisypull {

SourceFilter::SourceFilter(const PopulationConfig& pop, Holdings h,
                           Delta delta, C1 c1)
    : SourceFilter(pop, make_sf_schedule(pop, h, delta, c1)) {}

SourceFilter::SourceFilter(const PopulationConfig& pop, SfSchedule schedule)
    : pop_(pop), schedule_(schedule), agents_(pop.n) {
  pop_.validate();
}

Symbol SourceFilter::nonsource_listen_display(std::uint64_t /*agent*/,
                                              std::uint64_t round) const {
  // Phase 0 → display 0; Phase 1 → display 1.
  return round < schedule_.phase_rounds ? Symbol{0} : Symbol{1};
}

Symbol SourceFilter::display(std::uint64_t agent, std::uint64_t round) const {
  if (round < schedule_.boosting_start()) {
    if (pop_.is_source(agent)) return pop_.source_preference(agent);
    return nonsource_listen_display(agent, round);
  }
  return agents_[agent].current;
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

void SourceFilter::update(std::uint64_t agent, std::uint64_t round,
                          const SymbolCounts& obs, Rng& rng) {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  NOISYPULL_CHECK(obs.size == 2, "SF expects a binary alphabet");
  AgentState& a = agents_[agent];

  if (round < schedule_.phase_rounds) {
    a.counter1 += obs[1];
    return;
  }
  if (round < schedule_.boosting_start()) {
    a.counter0 += obs[0];
    if (round + 1 == schedule_.boosting_start()) finish_listening(a, rng);
    return;
  }
  if (round >= schedule_.total_rounds()) return;  // protocol has terminated
  a.boost_ones += obs[1];
  a.boost_total += obs.total();
  if (is_subphase_end(round)) finish_subphase(a, rng);
}

Opinion SourceFilter::opinion(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return agents_[agent].current;
}

std::uint64_t SourceFilter::count_opinion(Opinion o) const {
  std::uint64_t count = 0;
  for (const AgentState& a : agents_) count += a.current == o ? 1 : 0;
  return count;
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
