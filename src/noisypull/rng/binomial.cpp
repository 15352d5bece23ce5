#include "noisypull/rng/binomial.hpp"

#include <algorithm>
#include <cmath>

#include "noisypull/common/check.hpp"

namespace noisypull {
namespace {

// Tail of the Stirling series: log(k!) = stirling + (k+1/2)log(k+1) - (k+1)
// + log(sqrt(2*pi)) shifted so that the BTRS acceptance test below telescopes
// exactly.  Exact table for k <= 9, 3-term series otherwise (error < 1e-15
// for k >= 10, far below the acceptance test's tolerance needs).
double stirling_approx_tail(double k) noexcept {
  static constexpr double kTable[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k <= 9.0) return kTable[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
}

// Inversion ("BINV"): walk the cdf from 0.  Expected O(n p) iterations.
// Requires p <= 0.5 and n * p small enough that q^n does not underflow
// (guaranteed by the plan's cutoff).
//
// Round-off in the running pmf recurrence can push the walk past x = n with
// residual mass left; the classic remedy restarts the whole inversion with a
// fresh uniform.  For a healthy (n, p) the restart probability is ~ the
// accumulated rounding error (≪ 1e-10), so consecutive restarts certify a
// pathological input rather than bad luck — after kMaxRestarts the sampler
// returns the mode-adjacent boundary n (where the unaccounted mass lives)
// instead of looping unboundedly.
constexpr int kBinvMaxRestarts = 64;

// BINV below this n·min(p, 1 − p), BTRS from it on.
constexpr double kBtrsCutoff = 10.0;

}  // namespace

BinomialPlan::BinomialPlan(std::uint64_t n, double p) {
  NOISYPULL_CHECK(p >= 0.0 && p <= 1.0, "binomial probability outside [0,1]");
  if (n == 0 || p == 0.0) return;  // Constant 0
  n_ = n;
  if (p == 1.0) return;  // Constant n
  if (p > 0.5) {
    flip_ = true;
    p = 1.0 - p;
  }
  nd_ = static_cast<double>(n);
  q_ = 1.0 - p;
  r_ = p / q_;
  if (nd_ * p < kBtrsCutoff) {
    method_ = Method::Binv;
    binv_a_ = static_cast<double>(n + 1) * r_;
    binv_start_ = std::pow(q_, nd_);
    return;
  }
  method_ = Method::Btrs;
  const double np = nd_ * p;
  const double stddev = std::sqrt(np * q_);
  b_ = 1.15 + 2.53 * stddev;
  a_ = -0.0873 + 0.0248 * b_ + 0.01 * p;
  c_ = np + 0.5;
  v_r_ = 0.92 - 4.2 / b_;
  alpha_ = (2.83 + 5.1 / b_) * stddev;
  m_ = std::floor((nd_ + 1) * p);
  upper_m_ = (m_ + 0.5) * std::log((m_ + 1) / (r_ * (nd_ - m_ + 1)));
  tail_m_ = stirling_approx_tail(m_);
  tail_n_m_ = stirling_approx_tail(nd_ - m_);
}

std::uint64_t BinomialPlan::binv(Rng& rng) const {
  double r = binv_start_;
  double u = rng.next_double();
  std::uint64_t x = 0;
  int restarts = 0;
  while (u > r) {
    u -= r;
    ++x;
    if (x > n_) {  // numeric guard against accumulated round-off
      if (++restarts >= kBinvMaxRestarts) return n_;
      x = 0;
      r = binv_start_;
      u = rng.next_double();
      continue;
    }
    r *= (binv_a_ / static_cast<double>(x) - r_);
  }
  return x;
}

// Hörmann's BTRS transformed-rejection sampler.  Exact; requires p <= 0.5
// and n * p >= 10.
std::uint64_t BinomialPlan::btrs(Rng& rng) const {
  for (;;) {
    const double u = rng.next_double() - 0.5;
    double v = rng.next_double();
    const double us = 0.5 - std::fabs(u);
    const double kf = std::floor((2 * a_ / us + b_) * u + c_);
    if (kf < 0 || kf > nd_) continue;
    // Fast acceptance region (covers ~86% of draws).
    if (us >= 0.07 && v <= v_r_) return static_cast<std::uint64_t>(kf);
    // Exact acceptance test against the true pmf ratio f(k)/f(m).
    v = std::log(v * alpha_ / (a_ / (us * us) + b_));
    const double upper =
        upper_m_ + (nd_ + 1) * std::log((nd_ - m_ + 1) / (nd_ - kf + 1)) +
        (kf + 0.5) * std::log(r_ * (nd_ - kf + 1) / (kf + 1)) + tail_m_ +
        tail_n_m_ - stirling_approx_tail(kf) - stirling_approx_tail(nd_ - kf);
    if (v <= upper) return static_cast<std::uint64_t>(kf);
  }
}

void sample_multinomial(Rng& rng, std::uint64_t n,
                        std::span<const double> weights,
                        std::span<std::uint64_t> counts) {
  NOISYPULL_CHECK(weights.size() == counts.size(),
                  "weights/counts size mismatch");
  NOISYPULL_CHECK(!weights.empty(), "empty multinomial support");
  double wsum = 0.0;
  for (double w : weights) {
    NOISYPULL_CHECK(w >= 0.0, "negative multinomial weight");
    wsum += w;
  }
  NOISYPULL_CHECK(n == 0 || wsum > 0.0, "zero total weight with n > 0");
  const std::size_t k = weights.size();
  std::fill(counts.begin(), counts.end(), 0);
  if (n == 0) return;
  // The conditional-binomial chain must terminate at the last *positive*
  // weight.  Handing the remainder to the final bucket unconditionally
  // leaks counts into zero-probability cells: for the last positive bucket
  // p = w/wsum rounds to just below 1, sample_binomial undershoots, and the
  // leftover lands in a bucket whose weight is 0.  For weight vectors whose
  // final entry is positive the loop below is iteration- and RNG-identical
  // to the plain 0..k-2 chain (zero-weight middle buckets draw p = 0, which
  // consumes no randomness).
  std::size_t last_pos = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (weights[i] > 0.0) last_pos = i;
  }
  std::uint64_t remaining = n;
  for (std::size_t i = 0; i < last_pos; ++i) {
    if (remaining == 0) continue;
    if (wsum <= 0.0) break;  // running sum exhausted by round-off
    double p = weights[i] / wsum;
    if (p > 1.0) p = 1.0;  // guard round-off in the running weight sum
    counts[i] = sample_binomial(rng, remaining, p);
    remaining -= counts[i];
    wsum -= weights[i];
  }
  counts[last_pos] = remaining;
}

std::size_t sample_discrete(Rng& rng, std::span<const double> weights) {
  NOISYPULL_CHECK(!weights.empty(), "empty discrete support");
  double wsum = 0.0;
  for (double w : weights) {
    NOISYPULL_CHECK(w >= 0.0, "negative discrete weight");
    wsum += w;
  }
  NOISYPULL_CHECK(wsum > 0.0, "zero total discrete weight");
  double u = rng.next_double() * wsum;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (u < weights[i]) return i;
    u -= weights[i];
  }
  return weights.size() - 1;
}

}  // namespace noisypull
