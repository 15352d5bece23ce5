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
//   cached    = precompute the partial sums, binary-search them,
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
  void reset(std::uint64_t h, std::span<const double> weights, bool cache,
             std::uint64_t expected_draws = kNoDrawEstimate);

  // Sentinel for reset(): no draw-count estimate, gate on kMaxOutcomes only.
  static constexpr std::uint64_t kNoDrawEstimate =
      ~static_cast<std::uint64_t>(0);

  Mode mode() const noexcept { return mode_; }
  bool cached() const noexcept { return !cum_.empty(); }

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
    if (!cum_.empty()) {
      const std::size_t m = cum_.size();
      std::size_t idx;
      if (m <= kLinearScanOutcomes) {
        // Branchless count of partial sums <= target — on a sorted array
        // this is exactly upper_bound's index, without the data-dependent
        // branches that mispredict about half the time on random targets.
        std::size_t le = 0;
        for (std::size_t i = 0; i < m; ++i) le += cum_[i] <= target ? 1 : 0;
        idx = le;
      } else {
        // Branchless binary search for the same count: each step keeps the
        // half whose first element is still <= target, selected with a
        // conditional move instead of a mispredicting branch.
        const double* base = cum_.data();
        std::size_t len = m;
        while (len > 1) {
          const std::size_t half = len / 2;
          base = base[half] <= target ? base + half : base;
          len -= half;
        }
        idx = static_cast<std::size_t>(base - cum_.data()) +
              (*base <= target ? 1 : 0);
      }
      if (idx >= m) idx = m - 1;
      return static_cast<std::uint64_t>(idx);
    }
    return sample_index_uncached(target);
  }

  // Below this outcome count the cached search runs the branchless linear
  // count instead of binary search; both return the identical index, so the
  // threshold is wall-clock-only and can never affect a trajectory.
  static constexpr std::size_t kLinearScanOutcomes = 64;

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

  double outcome_pmf(std::span<const std::uint64_t> counts) const;

  std::uint64_t h_ = 0;
  std::size_t d_ = 0;
  Mode mode_ = Mode::Decomposition;
  std::array<double, kMaxAlphabet> weights_{};  // decomposition fallback
  std::array<double, kMaxAlphabet> logp_{};     // log(w_i / W); 0-weight cells
  std::array<bool, kMaxAlphabet> has_mass_{};   //   flagged instead of -inf
  std::vector<double> log_factorial_;           // lf[k] = log k!, k <= h
  double total_mass_ = 0.0;  // full pmf sum in enumeration order (~1)
  std::uint64_t outcome_count_ = 0;  // outcome-space size (InverseCdf mode)

  // Cached inverse CDF (empty when the cache is disabled).
  std::vector<double> cum_;
  // Outcome decode for d > 2 (binary outcomes decode analytically:
  // index k → counts (h−k, k) under the canonical enumeration).
  std::vector<std::array<std::uint32_t, kMaxAlphabet>> outcomes_;
};

}  // namespace noisypull
