#include "noisypull/rng/binomial.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "noisypull/analysis/stats.hpp"

namespace noisypull {
namespace {

// Binned chi-square statistic of `draws` samples from sample_binomial(n, p)
// against the exact binned pmf (log-pmf accumulation).  edges are inclusive
// upper bounds; bins = edges.size() + 1.
double binned_binomial_chi_square(std::uint64_t n, double p,
                                  std::uint64_t seed,
                                  std::span<const std::uint64_t> edges,
                                  int draws) {
  Rng rng(seed);
  std::vector<std::uint64_t> observed(edges.size() + 1, 0);
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t x = sample_binomial(rng, n, p);
    std::size_t bin = 0;
    while (bin < edges.size() && x > edges[bin]) ++bin;
    ++observed[bin];
  }
  std::vector<double> expected(edges.size() + 1, 0.0);
  double logc = 0.0;  // log C(n, k), updated incrementally
  for (std::uint64_t k = 0; k <= n; ++k) {
    const double logp = logc + static_cast<double>(k) * std::log(p) +
                        static_cast<double>(n - k) * std::log(1 - p);
    std::size_t bin = 0;
    while (bin < edges.size() && k > edges[bin]) ++bin;
    expected[bin] += std::exp(logp);
    if (k < n) {
      logc += std::log(static_cast<double>(n - k)) -
              std::log(static_cast<double>(k + 1));
    }
  }
  return chi_square_statistic(observed, expected);
}

// The sampler as it stood before BinomialPlan: every call works out its
// constants again.  Kept verbatim as the reference the plan is held to draw
// for draw.
namespace reference {

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

constexpr int kBinvMaxRestarts = 64;

std::uint64_t binv(Rng& rng, std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  double r = std::pow(q, static_cast<double>(n));
  double u = rng.next_double();
  std::uint64_t x = 0;
  int restarts = 0;
  while (u > r) {
    u -= r;
    ++x;
    if (x > n) {
      if (++restarts >= kBinvMaxRestarts) return n;
      x = 0;
      r = std::pow(q, static_cast<double>(n));
      u = rng.next_double();
      continue;
    }
    r *= (a / static_cast<double>(x) - s);
  }
  return x;
}

std::uint64_t btrs(Rng& rng, std::uint64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double np = nd * p;
  const double q = 1.0 - p;
  const double stddev = std::sqrt(np * q);
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = np + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / q;
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((nd + 1) * p);
  for (;;) {
    const double u = rng.next_double() - 0.5;
    double v = rng.next_double();
    const double us = 0.5 - std::fabs(u);
    const double kf = std::floor((2 * a / us + b) * u + c);
    if (kf < 0 || kf > nd) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(kf);
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1) / (r * (nd - m + 1))) +
        (nd + 1) * std::log((nd - m + 1) / (nd - kf + 1)) +
        (kf + 0.5) * std::log(r * (nd - kf + 1) / (kf + 1)) +
        stirling_approx_tail(m) + stirling_approx_tail(nd - m) -
        stirling_approx_tail(kf) - stirling_approx_tail(nd - kf);
    if (v <= upper) return static_cast<std::uint64_t>(kf);
  }
}

std::uint64_t sample_binomial(Rng& rng, std::uint64_t n, double p) {
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (p > 0.5) return n - reference::sample_binomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) return binv(rng, n, p);
  return btrs(rng, n, p);
}

}  // namespace reference

// One plan drawn from many times, and sample_binomial's plan-per-call,
// against the reference: the same values and the same rng position, over
// p on both sides of 1/2, n·p on both sides of the BINV/BTRS cutoff of 10,
// p ∈ {0, 1}, n = 0, and n = 19, p = 1/2 — the deepest BINV walk, where
// the restart guard is live.
TEST(BinomialPlan, DrawsMatchThePerCallSamplerDrawForDraw) {
  const std::uint64_t ns[] = {0, 1, 2, 7, 19, 20, 50, 99, 100, 1000, 16000,
                              1'000'000};
  const double ps[] = {0.0,  1e-9, 0.001, 0.0099, 0.01, 0.19, 0.21, 0.3,
                       0.49, 0.5,  0.501, 0.79,   0.81, 0.99, 0.999, 1.0};
  int cases = 0;
  for (const std::uint64_t n : ns) {
    for (const double p : ps) {
      const BinomialPlan plan(n, p);
      Rng by_plan(300 + n), by_call(300 + n), by_reference(300 + n);
      for (int i = 0; i < 300; ++i) {
        const std::uint64_t want = reference::sample_binomial(by_reference, n, p);
        ASSERT_EQ(plan.sample(by_plan), want)
            << "n " << n << ", p " << p << ", draw " << i;
        ASSERT_EQ(sample_binomial(by_call, n, p), want)
            << "n " << n << ", p " << p << ", draw " << i;
      }
      const std::uint64_t next = by_reference.next();
      EXPECT_EQ(by_plan.next(), next) << "n " << n << ", p " << p;
      EXPECT_EQ(by_call.next(), next) << "n " << n << ", p " << p;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 12 * 16);
}

TEST(BinomialPlan, RejectsProbabilitiesOutsideTheUnitInterval) {
  EXPECT_THROW(BinomialPlan(10, -0.1), std::invalid_argument);
  EXPECT_THROW(BinomialPlan(10, 1.5), std::invalid_argument);
  Rng rng(3);
  EXPECT_EQ(BinomialPlan().sample(rng), 0u);
  EXPECT_EQ(BinomialPlan(9, 1.0).sample(rng), 9u);
}

TEST(Binomial, EdgeCases) {
  Rng rng(1);
  EXPECT_EQ(sample_binomial(rng, 0, 0.5), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 0.0), 0u);
  EXPECT_EQ(sample_binomial(rng, 100, 1.0), 100u);
  EXPECT_THROW(sample_binomial(rng, 10, -0.1), std::invalid_argument);
  EXPECT_THROW(sample_binomial(rng, 10, 1.1), std::invalid_argument);
}

TEST(Binomial, AlwaysWithinRange) {
  Rng rng(2);
  for (double p : {0.01, 0.3, 0.5, 0.7, 0.99}) {
    for (std::uint64_t n : {1ULL, 5ULL, 50ULL, 5000ULL}) {
      for (int i = 0; i < 200; ++i) {
        EXPECT_LE(sample_binomial(rng, n, p), n);
      }
    }
  }
}

struct MomentCase {
  std::uint64_t n;
  double p;
};

class BinomialMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  Rng rng(1000 + n);
  const int kDraws = 40000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = static_cast<double>(sample_binomial(rng, n, p));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  const double want_mean = static_cast<double>(n) * p;
  const double want_var = static_cast<double>(n) * p * (1 - p);
  // 6-sigma tolerance on the sample mean; looser on variance.
  EXPECT_NEAR(mean, want_mean, 6 * std::sqrt(want_var / kDraws) + 1e-9);
  EXPECT_NEAR(var, want_var, 0.1 * want_var + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMoments,
    ::testing::Values(MomentCase{1, 0.5},       // Bernoulli
                      MomentCase{8, 0.25},      // BINV
                      MomentCase{40, 0.1},      // BINV boundary
                      MomentCase{100, 0.3},     // BTRS
                      MomentCase{100, 0.7},     // BTRS via symmetry
                      MomentCase{10000, 0.02},  // BTRS, small p, large n
                      MomentCase{100000, 0.5},  // BTRS, large everything
                      MomentCase{33, 0.999}));  // near-certain

TEST(Binomial, SmallNGoodnessOfFit) {
  // Exact chi-square goodness-of-fit against the Binomial(6, 0.35) pmf;
  // exercises the inversion sampler cell by cell.
  Rng rng(42);
  constexpr std::uint64_t kN = 6;
  constexpr double kP = 0.35;
  std::array<std::uint64_t, kN + 1> observed{};
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++observed[sample_binomial(rng, kN, kP)];

  std::array<double, kN + 1> pmf{};
  for (std::uint64_t k = 0; k <= kN; ++k) {
    double c = 1.0;
    for (std::uint64_t j = 0; j < k; ++j) {
      c *= static_cast<double>(kN - j) / static_cast<double>(j + 1);
    }
    pmf[k] = c * std::pow(kP, static_cast<double>(k)) *
             std::pow(1 - kP, static_cast<double>(kN - k));
  }
  const double stat = chi_square_statistic(observed, pmf);
  EXPECT_LT(stat, chi_square_critical_999(kN));
}

TEST(Binomial, BtrsGoodnessOfFitBinned) {
  // BTRS draws from Binomial(400, 0.4), binned into 8 equiprobable-ish
  // intervals around the mean; chi-square against exact binned pmf.
  Rng rng(4242);
  constexpr std::uint64_t kN = 400;
  constexpr double kP = 0.4;
  // Bin edges chosen around mean 160, sd ~9.8.
  const std::array<std::uint64_t, 7> edges = {146, 153, 157, 160, 163, 167, 174};
  std::array<std::uint64_t, 8> observed{};
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t x = sample_binomial(rng, kN, kP);
    std::size_t bin = 0;
    while (bin < edges.size() && x > edges[bin]) ++bin;
    ++observed[bin];
  }
  // Exact binned probabilities via log-pmf accumulation.
  std::array<double, 8> expected{};
  double logc = 0.0;  // log C(n,0)
  for (std::uint64_t k = 0; k <= kN; ++k) {
    const double logp = logc + static_cast<double>(k) * std::log(kP) +
                        static_cast<double>(kN - k) * std::log(1 - kP);
    std::size_t bin = 0;
    while (bin < edges.size() && k > edges[bin]) ++bin;
    expected[bin] += std::exp(logp);
    logc += std::log(static_cast<double>(kN - k)) -
            std::log(static_cast<double>(k + 1));
  }
  const double stat = chi_square_statistic(observed, expected);
  EXPECT_LT(stat, chi_square_critical_999(7));
}

TEST(Binomial, GoodnessOfFitAtTheBinvBtrsCrossover) {
  // The dispatch in sample_binomial switches BINV → BTRS at n·p = 10; both
  // sides of the boundary must be exact in distribution.  n = 50, p = 0.19
  // (np = 9.5, BINV) and p = 0.21 (np = 10.5, BTRS), binned around the mean.
  const std::array<std::uint64_t, 6> binv_edges = {6, 8, 9, 10, 11, 13};
  EXPECT_LT(binned_binomial_chi_square(50, 0.19, 777, binv_edges, 120000),
            chi_square_critical_999(6));
  const std::array<std::uint64_t, 6> btrs_edges = {7, 9, 10, 11, 12, 14};
  EXPECT_LT(binned_binomial_chi_square(50, 0.21, 778, btrs_edges, 120000),
            chi_square_critical_999(6));
}

TEST(Binomial, GoodnessOfFitInTheDeepBinvWalk) {
  // n = 19, p = 0.5 is the deepest inversion regime the dispatch allows
  // (n·p = 9.5 just under the BTRS cutoff, q^n ≈ 1.9e−6), so the cdf walk
  // regularly runs 15+ steps and BINV's round-off restart guard is live on
  // every draw.  The binned distribution must stay exact regardless.
  const std::array<std::uint64_t, 6> edges = {6, 8, 9, 10, 11, 13};
  EXPECT_LT(binned_binomial_chi_square(19, 0.5, 781, edges, 200000),
            chi_square_critical_999(6));
}

TEST(Binomial, GoodnessOfFitAtTheReflectionBoundary) {
  // p > 0.5 is handled by reflection (n − B(n, 1−p)); hold both sides of
  // p = 0.5 to the same exact-fit bar so the reflected path cannot drift.
  const std::array<std::uint64_t, 6> edges = {24, 27, 29, 31, 33, 36};
  EXPECT_LT(binned_binomial_chi_square(60, 0.499, 779, edges, 120000),
            chi_square_critical_999(6));
  EXPECT_LT(binned_binomial_chi_square(60, 0.501, 780, edges, 120000),
            chi_square_critical_999(6));
}

TEST(Multinomial, CountsSumToN) {
  Rng rng(3);
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  std::vector<std::uint64_t> counts(4);
  for (std::uint64_t n : {0ULL, 1ULL, 7ULL, 1000ULL, 123456ULL}) {
    sample_multinomial(rng, n, w, counts);
    std::uint64_t total = 0;
    for (auto c : counts) total += c;
    EXPECT_EQ(total, n);
  }
}

TEST(Multinomial, MarginalMeansMatch) {
  Rng rng(4);
  const std::vector<double> w = {0.5, 0.2, 0.3};
  std::vector<std::uint64_t> counts(3);
  std::array<double, 3> sums{};
  const int kDraws = 20000;
  constexpr std::uint64_t kN = 100;
  for (int i = 0; i < kDraws; ++i) {
    sample_multinomial(rng, kN, w, counts);
    for (int j = 0; j < 3; ++j) sums[j] += static_cast<double>(counts[j]);
  }
  for (int j = 0; j < 3; ++j) {
    const double mean = sums[j] / kDraws;
    const double want = kN * w[j];
    EXPECT_NEAR(mean, want, 6 * std::sqrt(kN * w[j] * (1 - w[j]) / kDraws));
  }
}

TEST(Multinomial, ZeroWeightCellsStayEmpty) {
  Rng rng(5);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  std::vector<std::uint64_t> counts(3);
  sample_multinomial(rng, 1000, w, counts);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 1000u);
  EXPECT_EQ(counts[2], 0u);
}

TEST(Multinomial, ZeroWeightTailNeverLeaks) {
  // Round-off regression: with weights {0.1, 0.1, 0.1, 0.0} the running
  // weight sum 0.3 − 0.1 − 0.1 lands a few ulps above 0.1, so the last
  // positive bucket's conditional p is slightly below 1 and, at
  // astronomical n, its binomial draw undershoots by ~n·3e−16 trials.  The
  // conditional-binomial chain used to hand that remainder to the final
  // (zero-weight) bucket; it must terminate at the last positive weight.
  Rng rng(12);
  const std::vector<double> w = {0.1, 0.1, 0.1, 0.0};
  std::vector<std::uint64_t> counts(4);
  constexpr std::uint64_t kN = 4'000'000'000'000'000'000ULL;
  for (int i = 0; i < 32; ++i) {
    sample_multinomial(rng, kN, w, counts);
    ASSERT_EQ(counts[3], 0u) << "mass leaked into a zero-weight cell";
    EXPECT_EQ(counts[0] + counts[1] + counts[2], kN);
  }
}

TEST(Multinomial, InputValidation) {
  Rng rng(6);
  std::vector<std::uint64_t> counts(2);
  const std::vector<double> bad_size = {1.0};
  EXPECT_THROW(sample_multinomial(rng, 1, bad_size, counts),
               std::invalid_argument);
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(sample_multinomial(rng, 1, negative, counts),
               std::invalid_argument);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(sample_multinomial(rng, 1, zeros, counts),
               std::invalid_argument);
  // n == 0 with zero weights is allowed (no mass to place).
  sample_multinomial(rng, 0, zeros, counts);
  EXPECT_EQ(counts[0] + counts[1], 0u);
}

TEST(Discrete, DistributionMatchesWeights) {
  Rng rng(7);
  const std::vector<double> w = {2.0, 1.0, 1.0};
  std::array<std::uint64_t, 3> counts{};
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[sample_discrete(rng, w)];
  const std::array<double, 3> probs = {0.5, 0.25, 0.25};
  EXPECT_LT(chi_square_statistic(counts, probs), chi_square_critical_999(2));
}

TEST(Discrete, SingleOutcome) {
  Rng rng(8);
  const std::vector<double> w = {0.0, 5.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sample_discrete(rng, w), 1u);
}

TEST(Discrete, InputValidation) {
  Rng rng(9);
  const std::vector<double> empty;
  EXPECT_THROW(sample_discrete(rng, empty), std::invalid_argument);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW(sample_discrete(rng, zeros), std::invalid_argument);
}

TEST(Binomial, SymmetryBetweenPAndOneMinusP) {
  // X ~ B(n,p) and n - X' with X' ~ B(n,1-p) must have identical moments.
  Rng rng_a(10), rng_b(11);
  constexpr std::uint64_t kN = 50;
  constexpr double kP = 0.85;
  const int kDraws = 40000;
  double mean_a = 0.0, mean_b = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    mean_a += static_cast<double>(sample_binomial(rng_a, kN, kP));
    mean_b +=
        static_cast<double>(kN - sample_binomial(rng_b, kN, 1.0 - kP));
  }
  mean_a /= kDraws;
  mean_b /= kDraws;
  EXPECT_NEAR(mean_a, mean_b, 0.15);
}

}  // namespace
}  // namespace noisypull
