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

// Draws X ~ Binomial(n, p) exactly.  Requires p in [0, 1].
std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p);

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
