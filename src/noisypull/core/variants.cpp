#include "noisypull/core/variants.hpp"

#include <algorithm>

#include "noisypull/common/check.hpp"

namespace noisypull {

EagerSourceFilter::EagerSourceFilter(const PopulationConfig& pop,
                                     SfSchedule schedule, Rng& init_rng)
    : SourceFilter(pop, schedule), initial_(pop.n) {
  for (auto& v : initial_) v = init_rng.next_bool() ? 1 : 0;
}

void EagerSourceFilter::nonsource_listen_displays(
    std::uint64_t /*round*/, std::uint64_t first,
    std::span<Symbol> out) const {
  std::copy_n(initial_.begin() + static_cast<std::ptrdiff_t>(first),
              out.size(), out.begin());
}

AlternatingSourceFilter::AlternatingSourceFilter(const PopulationConfig& pop,
                                                 SfSchedule schedule,
                                                 Rng& init_rng)
    : SourceFilter(pop, schedule), coin_(pop.n) {
  for (auto& v : coin_) v = init_rng.next_bool() ? 1 : 0;
}

void AlternatingSourceFilter::nonsource_listen_displays(
    std::uint64_t round, std::uint64_t first, std::span<Symbol> out) const {
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = listen_bit(first + j, round);
  }
}

void AlternatingSourceFilter::update(std::uint64_t agent, std::uint64_t round,
                                     const SymbolCounts& obs, Rng& rng) {
  if (round < schedule_.boosting_start() && !pop_.is_source(agent)) {
    // Count against the bit we displayed ourselves: observed 1s while
    // displaying 0 and observed 0s while displaying 1 — the per-agent
    // analogue of SF's phase counters.
    AgentState& a = agents_[agent];
    if (listen_bit(agent, round) == 0) {
      a.counter1 += obs[1];
    } else {
      a.counter0 += obs[0];
    }
    if (round + 1 == schedule_.boosting_start()) {
      // Delegate the weak-opinion computation / boosting reset to the base
      // class by replaying its Phase 1 end handling with an empty tally.
      SymbolCounts empty(2);
      SourceFilter::update(agent, round, empty, rng);
    }
    return;
  }
  SourceFilter::update(agent, round, obs, rng);
}

TaglessSsf::TaglessSsf(const PopulationConfig& pop, Holdings h,
                       MemoryBudget m)
    : pop_(pop), m_(m.get()), agents_(pop.n) {
  pop_.validate();
  NOISYPULL_CHECK(h.get() >= 1, "sample size h must be at least 1");
  NOISYPULL_CHECK(m_ >= 1, "memory budget m must be at least 1");
}

Symbol TaglessSsf::display(std::uint64_t agent,
                           std::uint64_t /*round*/) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  if (pop_.is_source(agent)) return pop_.source_preference(agent);
  return agents_[agent].weak;
}

void TaglessSsf::update(std::uint64_t agent, std::uint64_t /*round*/,
                        const SymbolCounts& obs, Rng& rng) {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  NOISYPULL_CHECK(obs.size == 2, "TaglessSsf expects a binary alphabet");
  AgentState& a = agents_[agent];
  a.mem0 += obs[0];
  a.mem1 += obs[1];
  if (a.mem0 + a.mem1 < m_) return;
  if (a.mem1 > a.mem0) {
    a.weak = 1;
  } else if (a.mem1 < a.mem0) {
    a.weak = 0;
  } else {
    a.weak = rng.next_bool() ? 1 : 0;
  }
  a.current = a.weak;
  a.mem0 = a.mem1 = 0;
}

Opinion TaglessSsf::opinion(std::uint64_t agent) const {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  return agents_[agent].current;
}

void TaglessSsf::corrupt(std::uint64_t agent, std::uint64_t mem0,
                         std::uint64_t mem1, Opinion weak, Opinion opinion) {
  NOISYPULL_CHECK(agent < pop_.n, "agent index out of range");
  AgentState& a = agents_[agent];
  a.mem0 = mem0;
  a.mem1 = mem1;
  a.weak = weak & 1;
  a.current = opinion & 1;
}

}  // namespace noisypull
