// Exact samplers for binomial, multinomial, and small discrete distributions.
//
// The AggregateEngine replaces the h per-message draws of an agent by a
// single Multinomial(h, q) draw over observed symbols (see model/engine.hpp).
// It usually inverts that law directly (rng/observation_cache.hpp); the
// binomial sampler carries the rest — the Decomposition fallback when the
// outcome space is too large for a channel group, the lumped engine's
// splits, SequentialEngine, and drop thinning — so it must be *exact in
// distribution* — not a normal approximation — for the engines to be
// statistically interchangeable.
//
// Strategy: for n * min(p, 1-p) below a cutoff we use the classic inversion
// (BINV) scheme with expected O(n p) work; above the cutoff we use the BTRS
// transformed-rejection sampler of Hörmann (1993), an exact rejection scheme
// whose acceptance test evaluates the true log-pmf ratio via Stirling
// corrections.  Both draw a bounded expected number of uniforms.
#pragma once

#include <cstdint>
#include <span>

#include "noisypull/rng/rng.hpp"

namespace noisypull {

// Binomial(n, p) with everything that depends on (n, p) alone worked out
// once: the reflection to p <= 1/2, the choice of BINV or BTRS, BINV's
// q^n, and BTRS's a, b, c, v_r, α and m with the acceptance test's
// m-only terms.  A caller drawing many times from one law (the observation
// sampler's Decomposition mode, once per agent of a round) builds the plan
// once; sample() then consumes the rng exactly as sample_binomial would.
// sample_binomial itself is "build the plan, draw once", so both share the
// one BINV/BTRS implementation.
class BinomialPlan {
 public:
  // Binomial(0, ·): always 0, no draw.
  BinomialPlan() = default;
  // Requires p in [0, 1].
  BinomialPlan(std::uint64_t n, double p);

  // Draws X ~ Binomial(n, p) exactly.  Thread-safe: const, touches only rng.
  std::uint64_t sample(Rng& rng) const {
    switch (method_) {
      case Method::Constant:
        return n_;
      case Method::Binv:
        return flip_ ? n_ - binv(rng) : binv(rng);
      case Method::Btrs:
        return flip_ ? n_ - btrs(rng) : btrs(rng);
    }
    return 0;  // unreachable; keeps -Wreturn-type quiet
  }

 private:
  enum class Method : std::uint8_t {
    Constant,  // n = 0, p = 0 (n_ holds 0) or p = 1 (n_ holds n): no draw
    Binv,      // inversion, n·p < 10 after the reflection
    Btrs,      // transformed rejection, n·p >= 10 after the reflection
  };

  std::uint64_t binv(Rng& rng) const;
  std::uint64_t btrs(Rng& rng) const;

  std::uint64_t n_ = 0;
  Method method_ = Method::Constant;
  bool flip_ = false;  // p > 1/2: draw Binomial(n, 1 − p), return n − X
  // Both methods, for the reflected p: q = 1 − p, r = p / q.
  double q_ = 0.0;
  double r_ = 0.0;
  // BINV: (n + 1)·r and q^n.
  double binv_a_ = 0.0;
  double binv_start_ = 0.0;
  // BTRS (Hörmann 1993): the hat's a, b, c, its fast-acceptance bound v_r,
  // α, the mode m, and the acceptance test's terms in m alone.
  double nd_ = 0.0;
  double a_ = 0.0;
  double b_ = 0.0;
  double c_ = 0.0;
  double v_r_ = 0.0;
  double alpha_ = 0.0;
  double m_ = 0.0;
  double upper_m_ = 0.0;   // (m + 1/2)·log((m + 1) / (r·(n − m + 1)))
  double tail_m_ = 0.0;    // Stirling tail of m
  double tail_n_m_ = 0.0;  // Stirling tail of n − m
};

// Draws X ~ Binomial(n, p) exactly.  Requires p in [0, 1].
inline std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p) {
  return BinomialPlan(n, p).sample(rng);
}

// Draws counts ~ Multinomial(n, weights / sum(weights)) exactly via the
// conditional-binomial decomposition.  counts.size() must equal
// weights.size(); weights must be non-negative with a positive sum (unless
// n == 0, in which case all counts are 0).
void sample_multinomial(Rng& rng, std::uint64_t n, std::span<const double> weights,
                        std::span<std::uint64_t> counts);

// Draws one index i with probability weights[i] / sum(weights).  Linear scan;
// intended for small supports (alphabets of size <= 8).
std::size_t sample_discrete(Rng& rng, std::span<const double> weights);

}  // namespace noisypull
