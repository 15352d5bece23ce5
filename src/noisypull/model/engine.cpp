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

void Engine::run_pooled(std::uint64_t jobs,
                        const std::function<void(std::uint64_t)>& job) {
  pool_->parallel_for(jobs, job);
}

std::array<std::uint64_t, kMaxAlphabet> Engine::display_histogram(
    const PullProtocol& protocol, std::uint64_t round) {
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  if (next_displays_.size() != n) {
    // Both buffers at once, so no later round allocates.
    displays_.assign(n, Symbol{0});
    next_displays_.assign(n, Symbol{0});
    previous_alphabet_ = 0;
  }
  const std::span<Symbol> next(next_displays_);
  protocol.displays(round, next);
  absorb_round(round);
  const std::uint64_t header = digest_;
  if (d == previous_alphabet_ &&
      std::equal(next.begin(), next.end(), displays_.begin())) {
    // Last round's display vector again: same histogram, symbols already
    // checked, and the digest folds in O(1) once the memo knows the
    // header's low byte (DESIGN.md §8.3).
    ++fold_stats_.repeats;
    if (fold_memo_.fold(header, digest_)) {
      ++fold_stats_.memo_hits;
    } else {
      digest_ = fnv::hash_bytes(header, displays_);
      fold_memo_.record(header, digest_);
    }
    return histogram_;
  }
  displays_.swap(next_displays_);
  previous_alphabet_ = d;
  // Two histograms over alternate agents: in a converging population most
  // agents show one symbol, and a single histogram would chain every
  // increment through that counter's store, a longer loop-carried chain
  // than the digest's.
  std::array<std::array<std::uint64_t, kMaxAlphabet>, 2> half{};
  for (std::uint64_t i = 0; i < n; ++i) {
    const Symbol s = displays_[i];
    NOISYPULL_ASSERT(s < d);
    absorb_display(s);
    ++half[i & 1][s];
  }
  histogram_.fill(0);
  for (std::size_t s = 0; s < d; ++s) histogram_[s] = half[0][s] + half[1][s];
  fold_memo_.reset(n);
  fold_memo_.record(header, digest_);
  return histogram_;
}

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
  display_histogram(protocol, round);

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

AggregateEngine::AggregateEngine(std::vector<NoiseMatrix> per_agent)
    : per_agent_(std::move(per_agent)) {
  NOISYPULL_CHECK(!per_agent_.empty(), "need at least one noise matrix");
  const std::size_t d = per_agent_.front().alphabet_size();
  for (const auto& m : per_agent_) {
    NOISYPULL_CHECK(m.alphabet_size() == d,
                    "per-agent noise matrices must share one alphabet");
  }
}

void AggregateEngine::set_artificial_noise(std::optional<Matrix> p) {
  artificial_ = std::move(p);
  groups_valid_ = false;
}

std::uint64_t AggregateEngine::sampler_rebuilds() const noexcept {
  std::uint64_t total = 0;
  for (const ObservationSampler& s : samplers_) total += s.rebuilds();
  return total;
}

double AggregateEngine::worst_upper_bound() const noexcept {
  double worst = 0.0;
  for (const auto& m : per_agent_) {
    worst = std::max(worst, m.tightest_upper_bound());
  }
  return worst;
}

void AggregateEngine::append_channel(const NoiseMatrix& m) {
  const std::size_t d = m.alphabet_size();
  const auto append = [&](const Matrix& channel) {
    for (std::size_t from = 0; from < d; ++from) {
      for (std::size_t to = 0; to < d; ++to) {
        group_channels_.push_back(channel(from, to));
      }
    }
  };
  // Read the matrix in place and form the product in a reused buffer: a
  // copy or a fresh product would cost a heap allocation per round.
  if (artificial_) {
    product_.assign_product(m.matrix(), *artificial_);
    append(product_);
  } else {
    append(m.matrix());
  }
}

void AggregateEngine::rebuild_groups() {
  const std::size_t dd =
      per_agent_.front().alphabet_size() * per_agent_.front().alphabet_size();
  // Deduplicate bit-identical effective channels so agents with the same
  // matrix share one per-round sampler.  Ordered map: group ids must not
  // depend on hash iteration order (and unordered containers are lint-banned
  // on simulation paths).
  std::map<std::vector<double>, std::uint32_t> ids;
  group_of_.resize(per_agent_.size());
  group_channels_.clear();
  group_sizes_.clear();
  for (std::size_t i = 0; i < per_agent_.size(); ++i) {
    append_channel(per_agent_[i]);
    const auto tail = group_channels_.end() - static_cast<std::ptrdiff_t>(dd);
    const auto [it, inserted] = ids.emplace(
        std::vector<double>(tail, group_channels_.end()),
        static_cast<std::uint32_t>(ids.size()));
    if (inserted) {
      group_sizes_.push_back(0);
    } else {
      group_channels_.erase(tail, group_channels_.end());
    }
    group_of_[i] = it->second;
    ++group_sizes_[static_cast<std::size_t>(it->second)];
  }
  groups_valid_ = true;
}

void AggregateEngine::step(PullProtocol& protocol, const NoiseMatrix& noise,
                           Holdings h_in, std::uint64_t round, Rng& rng) {
  const std::uint64_t h = h_in.get();
  const std::uint64_t n = protocol.num_agents();
  const std::size_t d = protocol.alphabet_size();
  NOISYPULL_CHECK(noise.alphabet_size() == d,
                  "noise matrix alphabet does not match protocol");
  NOISYPULL_CHECK(h >= 1, "sample size h must be at least 1");
  if (!per_agent_.empty()) {
    NOISYPULL_CHECK(per_agent_.size() == n,
                    "need exactly one noise matrix per agent");
    NOISYPULL_CHECK(per_agent_.front().alphabet_size() == d,
                    "per-agent noise alphabet does not match protocol");
  }

  // The protocol's bulk hooks run the round, or, with the compiled toggle
  // on, those of a CompiledPopulation a forwarding decorator passes
  // through (core/protocol.hpp).  Trajectory-invariant: both realize the
  // same displays and the same draws from the same substreams.
  PullProtocol* target = &protocol;
  if (compiled()) {
    if (CompiledPopulation* pop = protocol.compiled_access().population) {
      target = pop;
    }
  }

  const auto c = display_histogram(*target, round);

  if (per_agent_.empty()) {
    // One group whose channel is this step's matrix: a fault decorator's
    // burst passes a different one, so it is re-read every round.
    group_channels_.clear();
    append_channel(noise);
    group_sizes_.assign(1, n);
  } else if (!groups_valid_) {
    rebuild_groups();
  }

  // One observation is distributed as: pick a displayed symbol σ with
  // probability c[σ]/n, then corrupt through the group's effective channel.
  // So q_g[σ'] ∝ Σ_σ c[σ]·channel_g(σ,σ') — one distribution for all of the
  // group's agents: build its sampler once, serially, and draw each agent's
  // count vector from it with a single uniform.  A group's sampler serves
  // exactly group_sizes_[g] draws this round, so the amortization gate
  // (rng/observation_cache.hpp) sees the per-group count.
  samplers_.resize(group_sizes_.size());
  std::array<double, kMaxAlphabet> q{};
  for (std::size_t g = 0; g < samplers_.size(); ++g) {
    const double* channel = &group_channels_[g * d * d];
    for (std::size_t to = 0; to < d; ++to) {
      double w = 0.0;
      for (std::size_t from = 0; from < d; ++from) {
        w += static_cast<double>(c[from]) * channel[from * d + to];
      }
      q[to] = w;
    }
    samplers_[g].reset(h, std::span<const double>(q.data(), d),
                       /*cache=*/true, group_sizes_[g]);
  }

  const std::uint64_t round_key = rng.next();
  for_each_block(
      n, round_key, [&](std::uint64_t begin, std::uint64_t end, Rng& brng) {
        // One bulk call per maximal run of agents in one channel group: the
        // whole block with a single group.
        for (std::uint64_t i = begin; i < end;) {
          const std::size_t g =
              group_of_.empty() ? 0 : static_cast<std::size_t>(group_of_[i]);
          std::uint64_t run_end = group_of_.empty() ? end : i + 1;
          while (run_end < end && group_of_[run_end] == group_of_[i]) {
            ++run_end;
          }
          target->update_run(round, i, run_end, samplers_[g], brng);
          i = run_end;
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

  // Into the reused member: a fresh Matrix would allocate every round.
  if (artificial_) {
    channel_.assign_product(noise.matrix(), *artificial_);
  } else {
    channel_ = noise.matrix();
  }
  const Matrix& channel = channel_;

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
