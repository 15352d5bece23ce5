// Per-round cached observation sampler for the aggregate-style engines.
//
// In AggregateEngine the law of one agent's observation counts is fixed for
// the whole round: SymbolCounts ~ Multinomial(h, q) with the same q for
// every agent of one channel group (all n agents with a single channel).  The
// conditional-binomial decomposition (rng/binomial.hpp) pays d−1 binomial
// draws per agent; this sampler instead treats the *outcome space* — the
// C(h+d−1, d−1) count vectors summing to h (h+1 outcomes for the binary
// alphabet) — as one discrete distribution and inverts its CDF: one uniform
// per agent, one table lookup.  The table is built once per round and
// amortized over the group's agents.
//
// Cached and uncached modes realize the *same* map (uniform u → outcome):
// the cumulative masses are the partial sums of the outcome pmfs in one
// canonical enumeration order, and
//   cached    = precompute the partial sums, find the first one above the
//               target through a guide table (search() below),
//   uncached  = recompute the identical partial-sum walk per draw.
// Same u, same sums, same outcome — bit for bit
// (tests/test_observation_cache.cpp).  The agent engines always cache; the
// uncached walk is the unit tests' reference, and the lumped engine resets
// uncached because split() never reads the table.  When the outcome space
// exceeds kMaxOutcomes (large h with a k-ary alphabet, or h > 16383 binary)
// both modes fall back to the conditional-binomial decomposition.
//
// Amortization gate: the inverse-CDF table costs one full enumeration of
// the outcome space per round, which only pays for itself when at least as
// many draws as outcomes will amortize it.  reset() therefore takes the
// expected number of draws this round (AggregateEngine passes the channel
// group's size, the lumped engine the class count) and falls back to the
// decomposition when the outcome space is larger.  The chosen mode is a
// function of (h, d, expected_draws) only — NEVER of the `cache` argument;
// the gate itself changes trajectories only across releases, which is why the
// experiment result cache folds a schema version into its keys
// (analysis/scheduler.hpp).
//
// Exactness: outcome pmfs are evaluated in log space from a log-factorial
// table, so the distribution is the true multinomial up to double rounding
// (~1e-15 relative) — held to the same chi-square harness as the BINV/BTRS
// samplers (tests/test_observation_cache.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "noisypull/common/check.hpp"
#include "noisypull/common/symbols.hpp"
#include "noisypull/rng/binomial.hpp"
#include "noisypull/rng/rng.hpp"

namespace noisypull {

class ObservationSampler {
 public:
  enum class Mode {
    InverseCdf,     // outcome-level inversion (cacheable)
    Decomposition,  // conditional-binomial fallback (outcome space too big)
  };

  // Outcome-space cap for the inverse-CDF path; above it the per-round table
  // would dwarf the n agents it amortizes over.
  static constexpr std::uint64_t kMaxOutcomes = 1ULL << 14;

  // Prepares the sampler for one round of i.i.d. Multinomial(h, weights)
  // draws.  weights must be non-negative with a positive sum when h > 0;
  // their length is the alphabet size d (2 <= d <= kMaxAlphabet).  `cache`
  // selects table memoization; it never changes the sampled values.
  // `expected_draws` is the number of draws this reset will serve (see the
  // amortization gate above); the default keeps the inverse-CDF path for
  // any outcome space within kMaxOutcomes.
  //
  // The state reset() builds is a pure function of its four arguments, so
  // a reset whose arguments are bitwise equal to those of the last reset
  // that completed returns at once (the memo): within a protocol phase the
  // display histogram, and with it the weights, often repeat round after
  // round.  Weights compare by bit pattern, so +0.0 and -0.0 are distinct
  // keys and a NaN never matches.  The key is recorded only when a reset
  // completes, so one that throws leaves no stale hit behind.
  void reset(std::uint64_t h, std::span<const double> weights, bool cache,
             std::uint64_t expected_draws = kNoDrawEstimate);

  // Resets that rebuilt the state rather than hitting the memo.
  // Deterministic: a function of the sequence of reset arguments.
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

  // Sentinel for reset(): no draw-count estimate, gate on kMaxOutcomes only.
  static constexpr std::uint64_t kNoDrawEstimate =
      ~static_cast<std::uint64_t>(0);

  Mode mode() const noexcept { return mode_; }
  bool cached() const noexcept { return !cum_.empty(); }
  // Draws per count vector (the h of the last reset) and alphabet size d.
  std::uint64_t draws() const noexcept { return h_; }
  std::size_t alphabet_size() const noexcept { return d_; }

  // Draws one count vector into obs (obs.size must equal d).  Thread-safe:
  // const, touches only the given rng and obs.  InverseCdf mode consumes
  // exactly one uniform per draw in both cache settings.
  void sample(Rng& rng, SymbolCounts& obs) const;

  // Size of the enumerated outcome space.  InverseCdf mode only.
  std::uint64_t num_outcomes() const noexcept { return outcome_count_; }

  // Draws one outcome *index* under the canonical enumeration, consuming the
  // rng exactly like sample(): same uniform, same stopping rule, so
  // sample_index(rng) == index-of(sample(rng)) draw for draw
  // (tests/test_compiled_path.cpp pins this).  The compiled engine path
  // (core/automaton/compiled_population.hpp) keys its memoized transition
  // tables by this index and never materializes the count vector per agent.
  // InverseCdf mode only — the decomposition has no enumerable index.
  // Defined inline: this is the one call per agent of the compiled hot loop,
  // and the cached branch is just a uniform plus a partial-sum search.
  std::uint64_t sample_index(Rng& rng) const {
    NOISYPULL_CHECK(mode_ == Mode::InverseCdf,
                    "sample_index() requires the inverse-CDF mode: the "
                    "outcome space must be enumerable (see the reset() gate)");
    // Mirrors sample() draw for draw: one uniform, and the exact same
    // stopping rule in both cache settings, so the index returned here names
    // precisely the outcome sample() would have written.
    const double target = rng.next_double() * total_mass_;
    if (!cum_.empty()) return static_cast<std::uint64_t>(search(target));
    return sample_index_uncached(target);
  }

  // Writes the count vector of outcome `index` of the canonical enumeration
  // into obs (obs.size must equal d) — the decode of sample_index().  The
  // compiled engine path calls it once per transition cell it compiles
  // (core/automaton/compiled_population.hpp), never per agent.  Binary
  // outcomes decode analytically and cached k-ary ones from the table; the
  // uncached k-ary decode walks the enumeration.  InverseCdf mode only.
  void outcome_counts(std::uint64_t index, SymbolCounts& obs) const;

  // Called by split() once per outcome that received a positive share:
  // (share, outcome count vector of length d).
  using SplitVisitor =
      std::function<void(std::uint64_t, std::span<const std::uint64_t>)>;

  // Splits k i.i.d. Multinomial(h, weights) draws over the outcome space in
  // one pass — the population-level counterpart of k sample() calls: the
  // vector of per-outcome shares is exactly Multinomial(k, outcome pmf),
  // realized as the conditional-binomial chain along the canonical
  // enumeration (rounding slack lands on the last positive-pmf outcome,
  // mirroring sample_multinomial's zero-tail rule).  O(#outcomes) binomial
  // draws regardless of k — the lumped engine's per-round workhorse
  // (sim/lumped_engine.hpp).  Requires InverseCdf mode: when the gate chose
  // Decomposition the outcome space is too large to enumerate and callers
  // must fall back to per-draw sample().  Independent of the `cache`
  // argument (the walk never touches the cached partial sums).
  void split(Rng& rng, std::uint64_t k, const SplitVisitor& visit) const;

 private:
  // Walks the canonical outcome enumeration; visit(pmf, counts) for every
  // outcome in order.  Both the reset-time table build and the uncached
  // per-draw walk run exactly this code, which is what makes the two modes
  // draw-for-draw identical.
  template <typename Visit>
  void enumerate(Visit&& visit) const;

  // Cache-off half of sample_index(): the linear walk over the identical
  // partial sums, stopping at the first acc > target (or the last outcome).
  std::uint64_t sample_index_uncached(double target) const;

  // Cached search shared by sample() and sample_index(): the index of the
  // first partial sum > target, clamped to the last outcome — exactly
  // std::upper_bound's index, and exactly where the uncached walk stops.
  //
  // Guide table (indexed search, Chen & Asau 1974; Devroye, Non-Uniform
  // Random Variate Generation, §III.2.4): the target range is cut into
  // guide_.size() equal buckets, and guide_[b] counts the partial sums whose
  // own bucket lies below b.  Buckets are monotone in the value, so every
  // partial sum guide_[b] counts is < any target of bucket b: the search
  // starts at or below the answer and only ever steps up.  Each step is one
  // comparison, the +inf sentinel at the last outcome ends the walk, and on
  // average a draw steps past at most (#outcomes)/(#buckets) partial sums.
  // The table only decides where the walk starts, never where it stops, so
  // it cannot move a draw across an outcome boundary.  Small outcome spaces
  // (below kGuideMinOutcomes) have no table and count their inner partial
  // sums directly.
  std::size_t search(double target) const {
    if (guide_.empty()) {
      std::size_t le = 0;
      for (std::size_t i = 0; i + 1 < cum_.size(); ++i) {
        le += cum_[i] <= target ? 1 : 0;
      }
      return le;
    }
    std::size_t idx = guide_[bucket(target)];
    // Whether a first step is due (a partial sum inside the target's bucket,
    // below the target) is unpredictable, so take it without a branch; a
    // second one is rare.
    idx += cum_[idx] <= target ? 1 : 0;
    while (cum_[idx] <= target) ++idx;
    return idx;
  }

  // Guide bucket of a value in [0, total_mass_]; the table build buckets the
  // partial sums with this same function.
  std::size_t bucket(double x) const {
    const auto b = static_cast<std::size_t>(x * guide_scale_);
    return b < guide_.size() ? b : guide_.size() - 1;
  }

  // Builds guide_ over cum_ (cached mode, after the table build).
  void build_guide();

  // Outcome spaces below this size skip the guide table and count their
  // inner partial sums without a branch: the comparisons are independent of
  // each other, so the index is ready sooner than after the table's two
  // dependent loads — and the agent's update or cell lookup waits on it.
  // Wall-clock only — both searches return the identical index.  Measured
  // on SF rounds (DESIGN.md §13.6): the count is faster up to 6 outcomes,
  // the two are even at 8, and the table is faster from 9 on.
  static constexpr std::size_t kGuideMinOutcomes = 8;
  // Buckets per outcome: on average a draw steps past at most a quarter of
  // a partial sum.
  static constexpr std::size_t kGuideBucketsPerOutcome = 4;
  static_assert(kMaxOutcomes <= 0x10000, "guide entries are 16-bit indices");

  // Test access to search() at chosen targets.
  friend struct ObservationSamplerTestPeer;

  double outcome_pmf(std::span<const std::uint64_t> counts) const;

  // Whether (h, weights, cache, expected_draws) is the memo key.
  bool memo_hit(std::uint64_t h, std::span<const double> weights, bool cache,
                std::uint64_t expected_draws) const noexcept;
  // Records the key of the reset completing now: h_, d_ and weights_
  // (copied bit for bit) already hold its other arguments.
  void record_memo(bool cache, std::uint64_t expected_draws) noexcept;

  // Memo key: with h_, d_ and weights_[0..d_), the arguments of the last
  // reset that completed; valid only while memo_valid_.
  bool memo_valid_ = false;
  bool memo_cache_ = false;
  std::uint64_t memo_expected_draws_ = 0;
  std::uint64_t rebuilds_ = 0;

  std::uint64_t h_ = 0;
  std::size_t d_ = 0;
  Mode mode_ = Mode::Decomposition;
  std::array<double, kMaxAlphabet> weights_{};  // decomposition fallback
  // Binary Decomposition draws: counts[0] ~ Binomial(h, w0 / (w0 + w1)),
  // the one binomial sample_multinomial would draw, with its constants
  // built once per reset instead of once per agent.
  BinomialPlan binary_plan_;
  std::array<double, kMaxAlphabet> logp_{};     // log(w_i / W); 0-weight cells
  std::array<bool, kMaxAlphabet> has_mass_{};   //   flagged instead of -inf
  std::vector<double> log_factorial_;           // lf[k] = log k!, k <= h
  double total_mass_ = 0.0;  // full pmf sum in enumeration order (~1)
  std::uint64_t outcome_count_ = 0;  // outcome-space size (InverseCdf mode)

  // Cached inverse CDF (empty when the cache is disabled): cum_[i] is the
  // mass of outcomes 0..i, except the last entry, which is +inf — search()'s
  // stop sentinel (the last outcome takes every target past the others).
  std::vector<double> cum_;
  // Guide table over cum_ (see search()); empty below kGuideMinOutcomes.
  std::vector<std::uint16_t> guide_;
  double guide_scale_ = 0.0;  // buckets per unit of mass
  // Outcome decode for d > 2 (binary outcomes decode analytically:
  // index k → counts (h−k, k) under the canonical enumeration).
  std::vector<std::array<std::uint32_t, kMaxAlphabet>> outcomes_;
};

}  // namespace noisypull
