// Round engines for the noisy PULL(h) model.
//
// ExactEngine is the literal model: each agent draws h uniform indices with
// replacement (possibly itself) and each sampled message passes through the
// noise channel independently.  Θ(n·h) work per round — the ground truth used
// by tests and small runs.
//
// AggregateEngine exploits that protocols consume observation *counts*: the h
// observations of one agent are i.i.d. categorical draws whose distribution
// is q = cᵀN / n, where c is the population's display histogram this round.
// The count vector is therefore exactly Multinomial(h, q); drawing it
// directly is identical in distribution and costs O(|Σ|) per agent, making
// n = 10⁶ with h = n feasible.  Tests cross-validate the two engines
// statistically (tests/test_engines.cpp).  Agents are partitioned into
// channel groups — one group for the paper's common N, one per distinct
// matrix for per-agent channels — and every group's q is one distribution
// shared by its agents, so the per-agent draw goes through that group's
// ObservationSampler (rng/observation_cache.hpp): one per-round inverse-CDF
// table, one uniform per agent.
//
// Block-parallel kernel (DESIGN.md §9): ExactEngine and AggregateEngine
// split each round's sampling+update phase into fixed kBlockSize-agent
// blocks.  Per round the engine draws ONE 64-bit round key
// from the caller's rng and block b runs on the substream Rng(round_key, b) —
// the same derivation whether the blocks execute serially or on a ThreadPool,
// so the trajectory (and hence the replay digest) is a function of seed and
// configuration alone, bit-identical for 1 and T threads.  The serial
// display/digest phase precedes the parallel phase, which only writes
// per-agent protocol state (the update() contract in core/protocol.hpp).
// SequentialEngine is inherently order-dependent and ignores set_threads().
//
// Both engines can apply an "artificial noise" matrix P to every observation
// (Definition 6) — ExactEngine by literally re-corrupting each message,
// AggregateEngine by composing the channel to N·P — which is how Theorem 8's
// reduction is exercised end to end.
//
// Engine is also the decoration seam for runtime faults: FaultyEngine
// (fault/faulty_engine.hpp) wraps any of the engines below and injects
// Byzantine displays, message drops, stalls, and noise bursts without
// the inner engine noticing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "noisypull/common/fnv.hpp"
#include "noisypull/core/protocol.hpp"
#include "noisypull/noise/noise_matrix.hpp"
#include "noisypull/rng/observation_cache.hpp"
#include "noisypull/rng/rng.hpp"

namespace noisypull {

class ThreadPool;  // common/thread_pool.hpp; kept out of this header so the
                   // threading-header lint allowlist stays minimal

class Engine {
 public:
  Engine();
  virtual ~Engine();

  // Executes one full round: displays → sampling → noise → updates.
  // `h` is the sample size of the PULL(h) model.
  virtual void step(PullProtocol& protocol, const NoiseMatrix& noise,
                    Holdings h, std::uint64_t round, Rng& rng) = 0;

  // Installs artificial noise applied after the channel (Definition 6), or
  // removes it when called with std::nullopt.
  virtual void set_artificial_noise(std::optional<Matrix> p) = 0;

  // Number of execution lanes for the block-parallel round phase; lanes == 1
  // (the default) runs fully serial with no pool.  The trajectory is
  // independent of this setting by construction (see the header comment);
  // only wall-clock changes.  Requires lanes >= 1.  Decorators forward to
  // their inner engine; SequentialEngine accepts but ignores the setting.
  virtual void set_threads(unsigned lanes);
  virtual unsigned threads() const noexcept { return lanes_; }

  // Lets AggregateEngine reach a CompiledPopulation behind a forwarding
  // decorator (core/protocol.hpp, compiled_access()) and drive its bulk
  // hooks directly instead of the decorator's.  A bare CompiledPopulation
  // runs its closed-form rules either way (DESIGN.md §13), so the toggle
  // only skips a decorator that passes everything through.
  // Trajectory-invariant by construction — same draws from the same
  // substreams, identical replay digest — so it is excluded from
  // experiment cache keys (tests/test_compiled_path.cpp pins the
  // bit-identity).  Off by default; the other engines accept and ignore
  // the setting.  Its only non-test reader is perfbench, whose
  // ObservedProtocol forwards compiled_access(); the CLI and the benches
  // hand the engine a bare population and never set it.  It goes with
  // ObservedProtocol once the library owns run telemetry (ROADMAP).
  virtual void set_compiled(bool enabled) { compiled_ = enabled; }
  virtual bool compiled() const noexcept { return compiled_; }

  // Replay auditor: chained FNV-1a digest over (round number, start-of-round
  // display vector) of every round stepped so far.  Identical configurations
  // and seeds must yield identical digests — the dynamic complement to the
  // static determinism lints (tools/noisypull_lint.cpp); exercised by the
  // CLI's --verify-replay mode and tests/test_replay_digest.cpp.  Decorators
  // (FaultyEngine) report their inner engine's digest, which observes the
  // decorated displays.  Every round is folded byte for byte by definition;
  // a round that repeats the previous round's display vector gets the same
  // value in O(1) from fnv::FoldMemo (DESIGN.md §8.3).
  virtual std::uint64_t replay_digest() const noexcept { return digest_; }

  // How the display phase went so far.  Deterministic: a function of the
  // trajectory (and the digest), equal at every lane count.
  struct DisplayFoldStats {
    std::uint64_t repeats = 0;    // rounds whose display vector equaled the
                                  // previous round's: histogram reused
    std::uint64_t memo_hits = 0;  // of those, rounds whose digest fold came
                                  // from the memo in O(1)
  };
  // Decorators report their inner engine's, like replay_digest().
  virtual DisplayFoldStats display_fold_stats() const noexcept {
    return fold_stats_;
  }

 protected:
  // Agents per RNG block.  Fixed — NOT derived from the thread count — so the
  // block↦substream map, and with it the trajectory, is thread-invariant.
  // 4096 agents amortize the substream setup while leaving enough blocks for
  // load balancing at bench scales (n = 10⁶ → 245 blocks).
  static constexpr std::uint64_t kBlockSize = 4096;

  // Folds the round header into the digest; engines then fold each display
  // symbol via absorb_display().
  void absorb_round(std::uint64_t round) noexcept {
    digest_ = fnv::hash_u64(digest_, round);
  }
  void absorb_display(Symbol s) noexcept {
    digest_ = fnv::hash_byte(digest_, s);
  }

  // Snapshot display histogram of one round (c[σ] = number of agents
  // displaying σ), folded into the replay digest along the way — the shared
  // first step of every engine.  The protocol's bulk displays() hook fills
  // a second buffer, which is compared with the previous round's vector:
  // on a repeat the stored histogram is returned and the digest folded
  // through the memo; otherwise the buffers swap and both are recomputed.
  // Either way displays_ then holds the round's display vector.
  std::array<std::uint64_t, kMaxAlphabet> display_histogram(
      const PullProtocol& protocol, std::uint64_t round);

  // Number of blocks of [0, n).
  static std::size_t num_blocks(std::uint64_t n) noexcept {
    return static_cast<std::size_t>((n + kBlockSize - 1) / kBlockSize);
  }

  // Runs body(begin, end, block_rng) for every block [begin, end) of
  // [0, n), where block b's rng is Rng(round_key, b) — serially when lanes
  // == 1, on the pool otherwise.  The caller draws round_key from the run
  // rng (exactly one draw per round) so the master stream advances the same
  // way regardless of lane count.  A template, so a round allocates nothing:
  // the pool receives a job that holds one reference, which std::function
  // stores inline.
  template <typename Body>
  void for_each_block(std::uint64_t n, std::uint64_t round_key, Body&& body) {
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
    run_pooled(blocks, [&run_block](std::uint64_t b) { run_block(b); });
  }

  // The round's display vector, filled by display_histogram().
  std::vector<Symbol> displays_;

 private:
  // parallel_for on the pool (lanes > 1).
  void run_pooled(std::uint64_t jobs,
                  const std::function<void(std::uint64_t)>& job);

  std::uint64_t digest_ = fnv::kOffsetBasis;
  // The display phase's repeat detection: the buffer the next round fills
  // (both sized on first use), the alphabet under which the previous
  // round's displays_ were checked (0: no previous round), that round's
  // histogram, and the digest memo for its display vector.
  std::vector<Symbol> next_displays_;
  std::size_t previous_alphabet_ = 0;
  std::array<std::uint64_t, kMaxAlphabet> histogram_{};
  fnv::FoldMemo fold_memo_;
  DisplayFoldStats fold_stats_;
  unsigned lanes_ = 1;
  bool compiled_ = false;
  std::unique_ptr<ThreadPool> pool_;  // null when lanes_ == 1
};

class ExactEngine final : public Engine {
 public:
  void step(PullProtocol& protocol, const NoiseMatrix& noise, Holdings h,
            std::uint64_t round, Rng& rng) override;
  void set_artificial_noise(std::optional<Matrix> p) override;

 private:
  std::optional<NoiseMatrix> artificial_;
};

// Agents are partitioned into channel groups, each with its own effective
// channel and per-round sampler.  Per-agent channels model heterogeneous
// receivers (the paper assumes one common N; real sensor populations
// don't): observation i's law is q_i ∝ cᵀ·N_i, so the aggregate trick still
// applies, and agents with a bit-identical effective channel share one
// group.  The THM4-D style robustness claim this enables: SF tuned to the
// worst agent's δ_max still converges when most agents are much cleaner
// (bench tab_heterogeneous).
class AggregateEngine final : public Engine {
 public:
  // One channel group: every agent observes through the step's `noise`
  // (times any artificial noise), re-read every round — so FaultyEngine's
  // noise bursts reach every agent.
  AggregateEngine() = default;

  // Per-agent channels: agent i observes through per_agent[i] (times any
  // artificial noise).  Size must equal the protocol's n; all matrices
  // must share the protocol's alphabet.  The step's `noise` argument is
  // only checked for alphabet compatibility — per-agent channels ignore
  // the step's matrix, so FaultyEngine's noise bursts do not reach them
  // (the CLI rejects bursts on this engine).
  explicit AggregateEngine(std::vector<NoiseMatrix> per_agent);

  void step(PullProtocol& protocol, const NoiseMatrix& noise, Holdings h,
            std::uint64_t round, Rng& rng) override;
  void set_artificial_noise(std::optional<Matrix> p) override;

  // Observation-sampler rebuilds so far, summed over channel groups: a
  // group's sampler rebuilds only when its observation law or its draw
  // count changes (ObservationSampler::reset's memo).  Deterministic: a
  // function of the trajectory, equal at every lane count.
  std::uint64_t sampler_rebuilds() const noexcept;

  // Tightest δ such that every per-agent matrix is δ-upper-bounded — the
  // level a protocol must be tuned to (0 without per-agent channels).
  double worst_upper_bound() const noexcept;

 private:
  // Appends `m`'s effective channel (times any artificial noise) to
  // group_channels_.
  void append_channel(const NoiseMatrix& m);
  // Deduplicates the per-agent channels into groups.
  void rebuild_groups();

  std::vector<NoiseMatrix> per_agent_;  // empty: one group, the step's noise
  std::optional<Matrix> artificial_;
  // Agent i draws from group group_of_[i] (group 0 when group_of_ is
  // empty), whose effective channel is group_channels_[g·d² .. (g+1)·d²).
  std::vector<std::uint32_t> group_of_;
  std::vector<double> group_channels_;
  Matrix product_;  // scratch: a channel times the artificial noise
  std::vector<std::uint64_t> group_sizes_;  // agents per group: the draw
                                            // count its sampler amortizes over
  std::vector<ObservationSampler> samplers_;  // one per group, reset per round
  bool groups_valid_ = false;  // per-agent groups match artificial_
};

// Asynchronous (sequential-activation) engine: instead of the synchronous
// display-snapshot semantics, agents are activated one at a time within a
// round — each samples h *live* displays (reflecting all updates performed
// earlier in the same round) and updates immediately.  This is the
// population-protocol-style scheduler; protocols without a global clock
// (SSF, the baselines) should behave the same under it, while SF's phase
// synchrony is not required to survive it.  The display histogram is
// maintained incrementally, so a round still costs O(n·|Σ|).  Inherently
// serial: later activations observe earlier updates, so there is no
// order-free decomposition to parallelize; set_threads() is ignored.
class SequentialEngine final : public Engine {
 public:
  enum class Order {
    Random,           // fresh uniform permutation per round
    FixedAscending,   // 0, 1, ..., n−1 (adversarially regular)
    FixedDescending,  // n−1, ..., 0 (sources activate last)
  };

  explicit SequentialEngine(Order order = Order::Random) : order_(order) {}

  void step(PullProtocol& protocol, const NoiseMatrix& noise, Holdings h,
            std::uint64_t round, Rng& rng) override;
  void set_artificial_noise(std::optional<Matrix> p) override;

 private:
  Order order_;
  std::optional<Matrix> artificial_;
  Matrix channel_;                   // scratch: the round's channel
  std::vector<std::uint64_t> perm_;  // scratch
};

}  // namespace noisypull
