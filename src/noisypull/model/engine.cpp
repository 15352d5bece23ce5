#include "noisypull/model/engine.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <span>

#include "noisypull/common/check.hpp"
#include "noisypull/common/thread_pool.hpp"
#include "noisypull/core/automaton/compiled_population.hpp"
#include "noisypull/rng/binomial.hpp"

namespace noisypull {

Engine::Engine() = default;
Engine::~Engine() = default;  // out of line: ~unique_ptr<ThreadPool> needs
                              // the complete type

void Engine::set_threads(unsigned lanes) {
  NOISYPULL_CHECK(lanes >= 1, "engine needs at least one lane");
  lanes_ = lanes;
  if (lanes == 1) {
    pool_.reset();
  } else if (!pool_ || pool_->lanes() != lanes) {
    pool_ = std::make_unique<ThreadPool>(lanes);
  }
}

void Engine::for_each_block(std::uint64_t n, std::uint64_t round_key,
                            const BlockBody& body) {
  const std::uint64_t blocks = num_blocks(n);
  const auto run_block = [&](std::uint64_t b) {
    // Counter substream: a function of (round_key, b) only — never of the
    // lane that happens to execute the block — so serial and pooled
    // execution realize identical trajectories.
    Rng block_rng(round_key, b);
    const std::uint64_t begin = b * kBlockSize;
    const std::uint64_t end = std::min(n, begin + kBlockSize);
    body(begin, end, block_rng);
  };
  if (!pool_ || blocks <= 1) {
    for (std::uint64_t b = 0; b < blocks; ++b) run_block(b);
    return;
  }
  pool_->parallel_for(blocks, run_block);
}

std::array<std::uint64_t, kMaxAlphabet> Engine::display_histogram(
    const PullProtocol& protocol, std::uint64_t round) {
  std::array<std::uint64_t, kMaxAlphabet> c{};
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  absorb_round(round);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Symbol s = protocol.display(i, round);
    NOISYPULL_ASSERT(s < d);
    absorb_display(s);
    ++c[s];
  }
  return c;
}

std::array<std::uint64_t, kMaxAlphabet> Engine::display_histogram(
    PullProtocol& protocol, const CompiledAccess& access, std::uint64_t round) {
  NOISYPULL_ASSERT(access.population != nullptr);
  CompiledPopulation& pop = *access.population;
  std::array<std::uint64_t, kMaxAlphabet> c{};
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  pop.begin_display_round(round);
  absorb_round(round);
  for (std::uint64_t i = 0; i < n; ++i) {
    // Forged agents (Byzantine decorators) display through the virtual path
    // — the decorator, not the automaton state, decides what they show.
    const Symbol s = i >= access.forged_begin ? protocol.display(i, round)
                                              : pop.display_at(i, round);
    NOISYPULL_ASSERT(s < d);
    absorb_display(s);
    ++c[s];
  }
  return c;
}

namespace {

// True when the fault decorator must see agent i's update through the
// virtual path this round: drops rewrite the observation counts for
// everyone, stalls swallow (and count) the update for the stalled agent.
inline bool needs_virtual_update(const CompiledAccess& access, std::uint64_t i,
                                 std::uint64_t round) {
  if (access.force_virtual_updates) return true;
  return access.stalled_until != nullptr &&
         i >= access.stall_first_eligible && round < access.stalled_until[i];
}

}  // namespace

void ExactEngine::set_artificial_noise(std::optional<Matrix> p) {
  if (p) {
    artificial_.emplace(std::move(*p));
  } else {
    artificial_.reset();
  }
}

void ExactEngine::step(PullProtocol& protocol, const NoiseMatrix& noise,
                       Holdings h_in, std::uint64_t round, Rng& rng) {
  const std::uint64_t h = h_in.get();
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  NOISYPULL_CHECK(noise.alphabet_size() == d,
                  "noise matrix alphabet does not match protocol");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");

  // Snapshot displays: all messages of a round are chosen before any
  // observation of that round is delivered (model step 1 precedes step 4).
  // Serial, in agent-index order — this is the digest-absorbing phase.
  displays_.resize(n);
  absorb_round(round);
  for (std::uint64_t i = 0; i < n; ++i) {
    displays_[i] = protocol.display(i, round);
    NOISYPULL_ASSERT(displays_[i] < d);
    absorb_display(displays_[i]);
  }

  // Sampling + update phase: reads the frozen display snapshot, writes only
  // per-agent protocol state — block-parallel on counter substreams.
  const std::uint64_t round_key = rng.next();
  for_each_block(
      n, round_key, [&](std::uint64_t begin, std::uint64_t end, Rng& brng) {
        SymbolCounts obs(d);
        for (std::uint64_t i = begin; i < end; ++i) {
          obs.clear();
          for (std::uint64_t k = 0; k < h; ++k) {
            const std::uint64_t j =
                brng.next_below(n);  // with replacement; may be i
            Symbol received = noise.corrupt(displays_[j], brng);
            if (artificial_) received = artificial_->corrupt(received, brng);
            ++obs[received];
          }
          protocol.update(i, round, obs, brng);
        }
      });
}

void AggregateEngine::set_artificial_noise(std::optional<Matrix> p) {
  artificial_ = std::move(p);
}

void AggregateEngine::step(PullProtocol& protocol, const NoiseMatrix& noise,
                           Holdings h_in, std::uint64_t round, Rng& rng) {
  const std::uint64_t h = h_in.get();
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  NOISYPULL_CHECK(noise.alphabet_size() == d,
                  "noise matrix alphabet does not match protocol");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");

  // Compiled fast path (DESIGN.md §13): only when the toggle is on AND the
  // protocol stack exposes a CompiledPopulation.  Trajectory-invariant —
  // the virtual and compiled branches below absorb the same displays and
  // draw the same values from the same substreams.
  CompiledAccess access{};
  if (compiled()) access = protocol.compiled_access();

  const auto c = access.population != nullptr
                     ? display_histogram(protocol, access, round)
                     : display_histogram(protocol, round);

  // One observation is distributed as: pick a displayed symbol σ with
  // probability c[σ]/n, then corrupt through the (possibly composed)
  // channel.  So q[σ'] ∝ Σ_σ c[σ]·channel(σ,σ').
  Matrix channel = noise.matrix();
  if (artificial_) channel = channel * *artificial_;

  std::array<double, kMaxAlphabet> q{};
  for (std::size_t to = 0; to < d; ++to) {
    double w = 0.0;
    for (std::size_t from = 0; from < d; ++from) {
      w += static_cast<double>(c[from]) * channel(from, to);
    }
    q[to] = w;
  }

  // q is one distribution for all n agents: build the per-round sampler once
  // and draw each agent's count vector from it with a single uniform.  The
  // draw count n lets the sampler skip table construction when the outcome
  // space would not amortize over the population (amortization gate,
  // rng/observation_cache.hpp).
  sampler_.reset(h, std::span<const double>(q.data(), d), sampler_cache(), n);

  const std::uint64_t round_key = rng.next();
  if (access.population != nullptr &&
      sampler_.mode() == ObservationSampler::Mode::InverseCdf) {
    // Table-driven update phase: one sample_index() + one cell apply per
    // agent, no virtual dispatch; cells missing from the tables compile on
    // the spot into the block's journal.  Faulted agents take the
    // per-agent virtual fallback, which consumes the identical draws
    // (sample() and sample_index() share one uniform and one stopping
    // rule).
    CompiledPopulation& pop = *access.population;
    pop.begin_update_round(round, sampler_.num_outcomes(), num_blocks(n));
    const bool faults_possible =
        access.force_virtual_updates || access.stalled_until != nullptr;
    for_each_block(
        n, round_key, [&](std::uint64_t begin, std::uint64_t end, Rng& brng) {
          const std::size_t journal = block_of(begin);
          if (!faults_possible) {
            // No fault decorator this round: the whole block takes the
            // group-hoisted tight loop — same draws, same writes, without
            // the per-agent group lookup and fault check.
            pop.apply_block(journal, begin, end, sampler_, brng);
            return;
          }
          SymbolCounts obs(d);
          for (std::uint64_t i = begin; i < end; ++i) {
            if (needs_virtual_update(access, i, round)) {
              obs.clear();
              sampler_.sample(brng, obs);
              protocol.update(i, round, obs, brng);
            } else {
              pop.apply(journal, i, sampler_, sampler_.sample_index(brng),
                        brng);
            }
          }
        });
    pop.end_update_round();
    return;
  }
  // Virtual path — also the compiled mode's path when the outcome space is
  // not enumerable (Decomposition mode): per-agent
  // CompiledPopulation::update mirrors the production draws exactly.
  for_each_block(
      n, round_key, [&](std::uint64_t begin, std::uint64_t end, Rng& brng) {
        SymbolCounts obs(d);
        for (std::uint64_t i = begin; i < end; ++i) {
          obs.clear();
          sampler_.sample(brng, obs);
          protocol.update(i, round, obs, brng);
        }
      });
}

HeterogeneousEngine::HeterogeneousEngine(std::vector<NoiseMatrix> per_agent)
    : per_agent_(std::move(per_agent)) {
  NOISYPULL_CHECK(!per_agent_.empty(), "need at least one noise matrix");
  const std::size_t d = per_agent_.front().alphabet_size();
  for (const auto& m : per_agent_) {
    NOISYPULL_CHECK(m.alphabet_size() == d,
                    "per-agent noise matrices must share one alphabet");
  }
}

void HeterogeneousEngine::set_artificial_noise(std::optional<Matrix> p) {
  artificial_ = std::move(p);
  cache_valid_ = false;
}

void HeterogeneousEngine::rebuild_channel_cache() {
  const std::size_t d = per_agent_.front().alphabet_size();
  const std::size_t dd = d * d;
  channels_.resize(per_agent_.size() * dd);
  for (std::size_t i = 0; i < per_agent_.size(); ++i) {
    Matrix channel = per_agent_[i].matrix();
    if (artificial_) channel = channel * *artificial_;
    for (std::size_t from = 0; from < d; ++from) {
      for (std::size_t to = 0; to < d; ++to) {
        channels_[(i * d + from) * d + to] = channel(from, to);
      }
    }
  }
  // Deduplicate bit-identical effective channels so agents with the same
  // matrix share one per-round sampler.  Ordered map: group ids must not
  // depend on hash iteration order (and unordered containers are lint-banned
  // on simulation paths).
  std::map<std::vector<double>, std::uint32_t> ids;
  group_of_.resize(per_agent_.size());
  group_channels_.clear();
  group_sizes_.clear();
  std::vector<double> key(dd);
  for (std::size_t i = 0; i < per_agent_.size(); ++i) {
    std::copy_n(channels_.begin() + static_cast<std::ptrdiff_t>(i * dd), dd,
                key.begin());
    const auto [it, inserted] =
        ids.emplace(key, static_cast<std::uint32_t>(ids.size()));
    if (inserted) {
      group_channels_.insert(group_channels_.end(), key.begin(), key.end());
      group_sizes_.push_back(0);
    }
    group_of_[i] = it->second;
    ++group_sizes_[static_cast<std::size_t>(it->second)];
  }
  num_groups_ = ids.size();
  cache_valid_ = true;
}

double HeterogeneousEngine::worst_upper_bound() const noexcept {
  double worst = 0.0;
  for (const auto& m : per_agent_) {
    worst = std::max(worst, m.tightest_upper_bound());
  }
  return worst;
}

void HeterogeneousEngine::step(PullProtocol& protocol,
                               const NoiseMatrix& noise, Holdings h_in,
                               std::uint64_t round, Rng& rng) {
  const std::uint64_t h = h_in.get();
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  NOISYPULL_CHECK(noise.alphabet_size() == d,
                  "noise matrix alphabet does not match protocol");
  NOISYPULL_CHECK(per_agent_.size() == n,
                  "need exactly one noise matrix per agent");
  NOISYPULL_CHECK(per_agent_.front().alphabet_size() == d,
                  "per-agent noise alphabet does not match protocol");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");

  CompiledAccess access{};
  if (compiled()) access = protocol.compiled_access();

  const auto c = access.population != nullptr
                     ? display_histogram(protocol, access, round)
                     : display_histogram(protocol, round);
  if (!cache_valid_) rebuild_channel_cache();

  // One sampler per distinct channel per round; q_g ∝ cᵀ·channel_g.  Built
  // serially before the parallel phase, read-only during it.
  samplers_.resize(num_groups_);
  std::array<double, kMaxAlphabet> q{};
  for (std::size_t g = 0; g < num_groups_; ++g) {
    const double* channel = &group_channels_[g * d * d];
    for (std::size_t to = 0; to < d; ++to) {
      double w = 0.0;
      for (std::size_t from = 0; from < d; ++from) {
        w += static_cast<double>(c[from]) * channel[from * d + to];
      }
      q[to] = w;
    }
    // A group's sampler serves exactly group_sizes_[g] draws this round, so
    // the amortization gate sees the per-group (not whole-population) count.
    samplers_[g].reset(h, std::span<const double>(q.data(), d),
                       sampler_cache(), group_sizes_[g]);
  }

  const std::uint64_t round_key = rng.next();
  // The outcome enumeration is a function of (h, d) only, so every
  // InverseCdf sampler of the round shares it; agents whose channel group
  // fell back to Decomposition (tiny groups under the amortization gate)
  // take the per-agent virtual fallback instead.
  const ObservationSampler* enumerator = nullptr;
  for (const ObservationSampler& s : samplers_) {
    if (s.mode() == ObservationSampler::Mode::InverseCdf) {
      enumerator = &s;
      break;
    }
  }
  if (access.population != nullptr && enumerator != nullptr) {
    CompiledPopulation& pop = *access.population;
    pop.begin_update_round(round, enumerator->num_outcomes(), num_blocks(n));
    for_each_block(
        n, round_key, [&](std::uint64_t begin, std::uint64_t end, Rng& brng) {
          const std::size_t journal = block_of(begin);
          SymbolCounts obs(d);
          for (std::uint64_t i = begin; i < end; ++i) {
            const ObservationSampler& smp =
                samplers_[static_cast<std::size_t>(group_of_[i])];
            if (smp.mode() != ObservationSampler::Mode::InverseCdf ||
                needs_virtual_update(access, i, round)) {
              obs.clear();
              smp.sample(brng, obs);
              protocol.update(i, round, obs, brng);
            } else {
              pop.apply(journal, i, smp, smp.sample_index(brng), brng);
            }
          }
        });
    pop.end_update_round();
    return;
  }
  for_each_block(
      n, round_key, [&](std::uint64_t begin, std::uint64_t end, Rng& brng) {
        SymbolCounts obs(d);
        for (std::uint64_t i = begin; i < end; ++i) {
          obs.clear();
          // group_of_ holds 32-bit ids; widen explicitly so every index
          // expression in the engines is 64-bit before arithmetic
          // (clang-tidy bugprone-implicit-widening gate, .clang-tidy).
          samplers_[static_cast<std::size_t>(group_of_[i])].sample(brng, obs);
          protocol.update(i, round, obs, brng);
        }
      });
}

void SequentialEngine::set_artificial_noise(std::optional<Matrix> p) {
  artificial_ = std::move(p);
}

void SequentialEngine::step(PullProtocol& protocol, const NoiseMatrix& noise,
                            Holdings h_in, std::uint64_t round, Rng& rng) {
  const std::uint64_t h = h_in.get();
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  NOISYPULL_CHECK(noise.alphabet_size() == d,
                  "noise matrix alphabet does not match protocol");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");

  auto c = display_histogram(protocol, round);

  Matrix channel = noise.matrix();
  if (artificial_) channel = channel * *artificial_;

  perm_.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) perm_[i] = i;
  switch (order_) {
    case Order::Random:
      for (std::uint64_t i = n; i > 1; --i) {  // Fisher–Yates
        std::swap(perm_[i - 1], perm_[rng.next_below(i)]);
      }
      break;
    case Order::FixedAscending:
      break;
    case Order::FixedDescending:
      for (std::uint64_t i = 0; i < n / 2; ++i) {
        std::swap(perm_[i], perm_[n - 1 - i]);
      }
      break;
  }

  SymbolCounts obs(d);
  std::array<double, kMaxAlphabet> q{};
  for (std::uint64_t idx = 0; idx < n; ++idx) {
    const std::uint64_t agent = perm_[idx];
    // Observation law against the *current* display histogram.
    for (std::size_t to = 0; to < d; ++to) {
      double w = 0.0;
      for (std::size_t from = 0; from < d; ++from) {
        w += static_cast<double>(c[from]) * channel(from, to);
      }
      q[to] = w;
    }
    obs.clear();
    sample_multinomial(rng, h, std::span<const double>(q.data(), d),
                       std::span<std::uint64_t>(obs.c.data(), d));
    // Update immediately; keep the histogram in sync with display changes.
    const Symbol before = protocol.display(agent, round);
    protocol.update(agent, round, obs, rng);
    const Symbol after = protocol.display(agent, round);
    if (after != before) {
      NOISYPULL_ASSERT(c[before] > 0);
      --c[before];
      ++c[after];
    }
  }
}

}  // namespace noisypull
