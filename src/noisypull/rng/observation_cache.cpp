#include "noisypull/rng/observation_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "noisypull/common/check.hpp"
#include "noisypull/rng/binomial.hpp"

namespace noisypull {

namespace {

// Number of count vectors over d symbols summing to h, i.e. C(h+d-1, d-1),
// computed incrementally (each partial product is itself a binomial
// coefficient, so the division is exact).  Saturates at cap+1 to avoid
// overflow for large h.
std::uint64_t composition_count(std::uint64_t h, std::size_t d,
                                std::uint64_t cap) {
  std::uint64_t num = 1;
  for (std::uint64_t i = 1; i + 1 <= static_cast<std::uint64_t>(d); ++i) {
    num = num * (h + i) / i;
    if (num > cap) return cap + 1;
  }
  return num;
}

}  // namespace

void ObservationSampler::reset(std::uint64_t h, std::span<const double> weights,
                               bool cache, std::uint64_t expected_draws) {
  if (memo_hit(h, weights, cache, expected_draws)) return;
  // From here on the state is being rebuilt: no reset is complete until
  // the key is recorded at the end.
  memo_valid_ = false;
  const std::size_t d = weights.size();
  NOISYPULL_CHECK(d >= 2 && d <= kMaxAlphabet,
                  "observation sampler needs an alphabet in [2, kMaxAlphabet]");
  h_ = h;
  d_ = d;
  cum_.clear();
  guide_.clear();
  outcomes_.clear();

  double total_weight = 0.0;
  for (std::size_t s = 0; s < d; ++s) {
    NOISYPULL_CHECK(weights[s] >= 0.0, "negative observation weight");
    weights_[s] = weights[s];
    total_weight += weights[s];
  }
  NOISYPULL_CHECK(h == 0 || total_weight > 0.0,
                  "observation weights must have positive total mass");

  const std::uint64_t outcome_count = composition_count(h, d, kMaxOutcomes);
  if (h == 0 || outcome_count > kMaxOutcomes ||
      outcome_count > expected_draws) {
    // Outcome space too large for the table cap, too large to amortize over
    // the round's draws (the gate in the header comment), or degenerate
    // h = 0: conditional-binomial decomposition, identical with and without
    // the cache.
    mode_ = Mode::Decomposition;
    outcome_count_ = 0;
    if (d == 2) {
      // sample_multinomial's chain for two symbols: one Binomial(h, w0 / W)
      // (p clamped to 1) when w1 > 0, else every draw lands on symbol 0.
      double p = 1.0;
      if (weights_[1] > 0.0) p = std::min(weights_[0] / total_weight, 1.0);
      binary_plan_ = BinomialPlan(h, p);
    }
    record_memo(cache, expected_draws);
    return;
  }
  mode_ = Mode::InverseCdf;
  outcome_count_ = outcome_count;

  for (std::size_t s = 0; s < d; ++s) {
    has_mass_[s] = weights_[s] > 0.0;
    logp_[s] = has_mass_[s] ? std::log(weights_[s] / total_weight) : 0.0;
  }
  log_factorial_.resize(h + 1);
  log_factorial_[0] = 0.0;
  for (std::uint64_t k = 1; k <= h; ++k) {
    log_factorial_[k] =
        log_factorial_[k - 1] + std::log(static_cast<double>(k));
  }

  // One enumeration pass computes total_mass_ (the walk's normalizer); the
  // cached mode additionally records every partial sum and, for d > 2, the
  // outcome count vectors.  The partial sums are exactly the values the
  // uncached walk recomputes per draw, so caching cannot move any draw
  // across an outcome boundary.
  total_mass_ = 0.0;
  if (cache) {
    const auto count = composition_count(h, d, kMaxOutcomes);
    cum_.reserve(count);
    if (d > 2) outcomes_.reserve(count);
  }
  enumerate([&](double pmf, std::span<const std::uint64_t> counts) {
    total_mass_ += pmf;
    if (cache) {
      cum_.push_back(total_mass_);
      if (d_ > 2) {
        std::array<std::uint32_t, kMaxAlphabet> packed{};
        for (std::size_t s = 0; s < d_; ++s) {
          packed[s] = static_cast<std::uint32_t>(counts[s]);
        }
        outcomes_.push_back(packed);
      }
    }
    return true;
  });
  NOISYPULL_ASSERT(total_mass_ > 0.0);
  if (cache) {
    cum_.back() = std::numeric_limits<double>::infinity();
    build_guide();
  }
  record_memo(cache, expected_draws);
}

bool ObservationSampler::memo_hit(std::uint64_t h,
                                  std::span<const double> weights, bool cache,
                                  std::uint64_t expected_draws) const noexcept {
  if (!memo_valid_ || h != h_ || weights.size() != d_ || cache != memo_cache_ ||
      expected_draws != memo_expected_draws_) {
    return false;
  }
  for (std::size_t s = 0; s < d_; ++s) {
    if (std::bit_cast<std::uint64_t>(weights[s]) !=
        std::bit_cast<std::uint64_t>(weights_[s])) {
      return false;
    }
  }
  return true;
}

void ObservationSampler::record_memo(bool cache,
                                     std::uint64_t expected_draws) noexcept {
  memo_cache_ = cache;
  memo_expected_draws_ = expected_draws;
  memo_valid_ = true;
  ++rebuilds_;
}

void ObservationSampler::build_guide() {
  if (cum_.size() < kGuideMinOutcomes) return;
  guide_.resize(kGuideBucketsPerOutcome * cum_.size());
  guide_scale_ = static_cast<double>(guide_.size()) / total_mass_;
  // guide_[b] = number of inner partial sums (the sentinel excluded) whose
  // bucket is below b; bucket() is monotone, so one forward pass fills it.
  const std::size_t last = cum_.size() - 1;
  std::size_t below = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    while (below < last && bucket(cum_[below]) < b) ++below;
    guide_[b] = static_cast<std::uint16_t>(below);
  }
}

template <typename Visit>
void ObservationSampler::enumerate(Visit&& visit) const {
  // Weak compositions of h over d parts in NEXCOM order (Nijenhuis–Wilf):
  // (h,0,...,0), ..., (0,...,0,h).  Both the table build and the uncached
  // walk use this exact loop.
  std::array<std::uint64_t, kMaxAlphabet> c{};
  c[0] = h_;
  for (;;) {
    if (!visit(outcome_pmf(std::span<const std::uint64_t>(c.data(), d_)),
               std::span<const std::uint64_t>(c.data(), d_))) {
      return;
    }
    std::size_t j = 0;
    while (c[j] == 0) ++j;
    if (j + 1 == d_) return;  // (0,...,0,h) is the last composition
    const std::uint64_t v = c[j];
    c[j] = 0;
    c[0] = v - 1;
    c[j + 1] += 1;
  }
}

double ObservationSampler::outcome_pmf(
    std::span<const std::uint64_t> counts) const {
  double logpmf = log_factorial_[h_];
  for (std::size_t s = 0; s < d_; ++s) {
    const std::uint64_t cs = counts[s];
    if (cs == 0) continue;  // skip: avoids 0 * log(0) for zero-weight symbols
    if (!has_mass_[s]) return 0.0;
    logpmf += static_cast<double>(cs) * logp_[s] - log_factorial_[cs];
  }
  return std::exp(logpmf);
}

void ObservationSampler::split(Rng& rng, std::uint64_t k,
                               const SplitVisitor& visit) const {
  NOISYPULL_CHECK(mode_ == Mode::InverseCdf,
                  "split() requires the inverse-CDF mode: the outcome space "
                  "must be enumerable (see the reset() amortization gate)");
  if (k == 0) return;
  // Conditional-binomial chain over the enumeration, with the last
  // *positive*-pmf outcome taking the leftover instead of a binomial draw
  // (sample_multinomial's zero-tail rule).  The last positive outcome is not
  // known until the walk ends, so emission lags one positive outcome behind:
  // when a new positive outcome appears, the pending one is finalized with a
  // binomial draw; whatever is pending at the end absorbs the remainder.
  double wsum = total_mass_;
  std::uint64_t remaining = k;
  std::array<std::uint64_t, kMaxAlphabet> pending{};
  double pending_pmf = 0.0;
  bool have_pending = false;
  enumerate([&](double pmf, std::span<const std::uint64_t> counts) {
    if (pmf <= 0.0) return true;
    if (have_pending) {
      if (remaining == 0) return false;  // leftover 0: nothing more to place
      if (wsum > 0.0) {
        double p = pending_pmf / wsum;
        if (p > 1.0) p = 1.0;  // guard round-off in the running mass
        const std::uint64_t cnt = sample_binomial(rng, remaining, p);
        if (cnt > 0) {
          visit(cnt, std::span<const std::uint64_t>(pending.data(), d_));
          remaining -= cnt;
        }
      }
      wsum -= pending_pmf;
    }
    std::copy(counts.begin(), counts.end(), pending.begin());
    pending_pmf = pmf;
    have_pending = true;
    return true;
  });
  NOISYPULL_ASSERT(have_pending);  // total_mass_ > 0 guarantees one outcome
  if (remaining > 0) {
    visit(remaining, std::span<const std::uint64_t>(pending.data(), d_));
  }
}

void ObservationSampler::sample(Rng& rng, SymbolCounts& obs) const {
  NOISYPULL_CHECK(obs.size == d_,
                  "observation buffer does not match the sampler alphabet");
  if (mode_ == Mode::Decomposition) {
    if (d_ == 2) {
      obs.c[0] = binary_plan_.sample(rng);
      obs.c[1] = h_ - obs.c[0];
      return;
    }
    sample_multinomial(rng, h_, std::span<const double>(weights_.data(), d_),
                       std::span<std::uint64_t>(obs.c.data(), d_));
    return;
  }

  const double target = rng.next_double() * total_mass_;
  if (!cum_.empty()) {
    // Cached: search() finds the index the walk below stops at.
    const std::size_t idx = search(target);
    if (d_ == 2) {
      obs.c[0] = h_ - static_cast<std::uint64_t>(idx);
      obs.c[1] = static_cast<std::uint64_t>(idx);
    } else {
      for (std::size_t s = 0; s < d_; ++s) obs.c[s] = outcomes_[idx][s];
    }
    return;
  }

  // Uncached: linear walk over the identical partial sums.
  double acc = 0.0;
  bool found = false;
  enumerate([&](double pmf, std::span<const std::uint64_t> counts) {
    acc += pmf;
    const bool last = counts[d_ - 1] == h_;
    if (acc > target || last) {
      for (std::size_t s = 0; s < d_; ++s) obs.c[s] = counts[s];
      found = true;
      return false;  // stop enumeration
    }
    return true;
  });
  NOISYPULL_ASSERT(found);
}

std::uint64_t ObservationSampler::sample_index_uncached(double target) const {
  double acc = 0.0;
  std::uint64_t index = 0;
  std::uint64_t result = 0;
  bool found = false;
  enumerate([&](double pmf, std::span<const std::uint64_t> counts) {
    acc += pmf;
    const bool last = counts[d_ - 1] == h_;
    if (acc > target || last) {
      result = index;
      found = true;
      return false;
    }
    ++index;
    return true;
  });
  NOISYPULL_ASSERT(found);
  return result;
}

void ObservationSampler::outcome_counts(std::uint64_t index,
                                        SymbolCounts& obs) const {
  NOISYPULL_CHECK(mode_ == Mode::InverseCdf,
                  "outcome_counts() requires the inverse-CDF mode: the "
                  "outcome space must be enumerable (see the reset() gate)");
  NOISYPULL_CHECK(index < outcome_count_, "outcome index out of range");
  NOISYPULL_CHECK(obs.size == d_,
                  "observation buffer does not match the sampler alphabet");
  if (d_ == 2) {
    obs.c[0] = h_ - index;
    obs.c[1] = index;
    return;
  }
  if (!outcomes_.empty()) {
    for (std::size_t s = 0; s < d_; ++s) obs.c[s] = outcomes_[index][s];
    return;
  }
  std::uint64_t at = 0;
  enumerate([&](double /*pmf*/, std::span<const std::uint64_t> counts) {
    if (at++ < index) return true;
    for (std::size_t s = 0; s < d_; ++s) obs.c[s] = counts[s];
    return false;
  });
}

}  // namespace noisypull
