// Ablation variants of SF and SSF.
//
// These exist to make the paper's design choices measurable (bench target
// tab_ablations; DESIGN.md §4):
//
// * EagerSourceFilter removes the neutral "listening" behaviour: during
//   Phases 0/1 non-sources display a randomly initialized opinion instead of
//   the neutral 0-block/1-block.  The display noise of n/2 ± √n uninformed
//   agents then swamps the source signal unless s = Ω(√n) — the √n-bias
//   barrier the paper's introduction contrasts with — and weak opinions
//   become correlated, so boosting amplifies the wrong value about half the
//   time at small bias.
//
// * AlternatingSourceFilter is the §2.1 remark's variant: each non-source
//   flips one fair coin, then alternates 0,1,0,1,... through the two
//   listening phases, counting observed 1s on its 0-display rounds and
//   observed 0s on its 1-display rounds.  The paper conjectures this works
//   as well as SF; the ablation bench checks that empirically.
//
// * TaglessSsf drops SSF's source-tag bit (1-bit messages): everyone
//   displays a single bit (sources their preference, non-sources their weak
//   opinion) and updates by majority over the whole memory.  Without the
//   filter bit there is no way to privilege first-hand information, and the
//   protocol degenerates to majority dynamics, which cannot reliably follow
//   a small source bias.
#pragma once

#include "noisypull/core/source_filter.hpp"
#include "noisypull/core/ssf.hpp"

namespace noisypull {

class EagerSourceFilter final : public SourceFilter {
 public:
  // `init_rng` draws each non-source's initial displayed opinion.
  EagerSourceFilter(const PopulationConfig& pop, SfSchedule schedule,
                    Rng& init_rng);

 protected:
  void nonsource_listen_displays(std::uint64_t round, std::uint64_t first,
                                 std::span<Symbol> out) const override;

 private:
  std::vector<Opinion> initial_;
};

class AlternatingSourceFilter final : public SourceFilter {
 public:
  // `init_rng` draws each non-source's first-round coin.
  AlternatingSourceFilter(const PopulationConfig& pop, SfSchedule schedule,
                          Rng& init_rng);

  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override;
  // Its listening count is not SF's step, so its runs take the per-agent
  // default loop through update() above.
  void update_run(std::uint64_t round, std::uint64_t begin, std::uint64_t end,
                  const ObservationSampler& sampler, Rng& rng) override {
    PullProtocol::update_run(round, begin, end, sampler, rng);
  }

 protected:
  void nonsource_listen_displays(std::uint64_t round, std::uint64_t first,
                                 std::span<Symbol> out) const override;

 private:
  // The bit a non-source displays in listening round `round`.
  Symbol listen_bit(std::uint64_t agent, std::uint64_t round) const {
    return static_cast<Symbol>((round ^ coin_[agent]) & 1);
  }

  std::vector<std::uint8_t> coin_;  // first-round display bit per agent
};

class TaglessSsf final : public PullProtocol {
 public:
  TaglessSsf(const PopulationConfig& pop, Holdings h, MemoryBudget m);

  std::size_t alphabet_size() const override { return 2; }
  std::uint64_t num_agents() const override { return pop_.n; }
  Symbol display(std::uint64_t agent, std::uint64_t round) const override;
  void update(std::uint64_t agent, std::uint64_t round,
              const SymbolCounts& obs, Rng& rng) override;
  Opinion opinion(std::uint64_t agent) const override;

  // Same adversarial injection surface as SSF, minus the source tag.
  void corrupt(std::uint64_t agent, std::uint64_t mem0, std::uint64_t mem1,
               Opinion weak, Opinion opinion);

 private:
  const PopulationConfig pop_;
  const std::uint64_t m_;

  struct AgentState {
    std::uint64_t mem0 = 0, mem1 = 0;
    Opinion weak = 0;
    Opinion current = 0;
  };
  std::vector<AgentState> agents_;
};

}  // namespace noisypull
