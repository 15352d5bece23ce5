// ObservationSampler correctness: distribution exactness (same chi-square
// harness as the BINV/BTRS samplers in test_binomial.cpp), cache/uncached
// draw equivalence, the cached guide-table search against upper_bound, mode
// selection, fallback behavior, input validation, and the reset memo.
#include "noisypull/rng/observation_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "noisypull/analysis/stats.hpp"
#include "noisypull/rng/binomial.hpp"

namespace noisypull {

// Drives the sampler's private guide-table search at chosen targets.
struct ObservationSamplerTestPeer {
  static std::size_t search(const ObservationSampler& s, double target) {
    return s.search(target);
  }
  static std::uint64_t walk(const ObservationSampler& s, double target) {
    return s.sample_index_uncached(target);
  }
  static std::span<const double> cum(const ObservationSampler& s) {
    return s.cum_;
  }
  static double total_mass(const ObservationSampler& s) {
    return s.total_mass_;
  }
  static std::size_t buckets(const ObservationSampler& s) {
    return s.guide_.size();
  }
  static double scale(const ObservationSampler& s) { return s.guide_scale_; }
};

namespace {

using Peer = ObservationSamplerTestPeer;

SymbolCounts draw(const ObservationSampler& sampler, Rng& rng, std::size_t d) {
  SymbolCounts obs(d);
  sampler.sample(rng, obs);
  return obs;
}

TEST(ObservationSampler, ModeSelection) {
  ObservationSampler s;
  const std::vector<double> q2 = {0.7, 0.3};

  s.reset(16, q2, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  EXPECT_TRUE(s.cached());

  s.reset(16, q2, /*cache=*/false);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  EXPECT_FALSE(s.cached());

  // Binary: h+1 outcomes, so the cap trips exactly past kMaxOutcomes − 1.
  s.reset(ObservationSampler::kMaxOutcomes - 1, q2, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  s.reset(ObservationSampler::kMaxOutcomes, q2, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
  EXPECT_FALSE(s.cached());

  // k-ary: C(h+d−1, d−1) outcomes grows fast; h=100, d=4 → C(103,3) > 2^14.
  const std::vector<double> q4 = {0.4, 0.3, 0.2, 0.1};
  s.reset(20, q4, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  s.reset(100, q4, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);

  // h == 0 has a single trivial outcome; decomposition handles it directly.
  s.reset(0, q2, /*cache=*/true);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
}

TEST(ObservationSampler, AmortizationGateUsesExpectedDraws) {
  // The mode is a function of (h, d, expected_draws) alone — never of the
  // cache flag.  A table whose build cost cannot amortize over the draws it
  // will serve this round is skipped in favor of direct decomposition.
  ObservationSampler s;
  const std::vector<double> q2 = {0.7, 0.3};

  for (const bool cache : {true, false}) {
    // Plenty of draws: the 65-outcome table pays for itself.
    s.reset(64, q2, cache, /*expected_draws=*/20000);
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
    // 65 outcomes but only 4 draws: building the table costs more than it
    // saves, so the gate picks decomposition.
    s.reset(64, q2, cache, /*expected_draws=*/4);
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
    // No estimate: the gate defaults to building the table.
    s.reset(64, q2, cache);
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  }

  // The outcome cap dominates regardless of how many draws are promised.
  s.reset(ObservationSampler::kMaxOutcomes, q2, /*cache=*/true,
          /*expected_draws=*/1000000);
  EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);

  // With identical estimates the cache flag never changes the draw stream.
  ObservationSampler a, b;
  a.reset(64, q2, /*cache=*/true, /*expected_draws=*/4);
  b.reset(64, q2, /*cache=*/false, /*expected_draws=*/4);
  Rng rng_a(7), rng_b(7);
  for (int i = 0; i < 100; ++i) {
    const auto x = draw(a, rng_a, 2);
    const auto y = draw(b, rng_b, 2);
    ASSERT_EQ(x[1], y[1]) << "draw " << i;
  }
}

TEST(ObservationSampler, DrawsSumToHAndRespectZeroWeights) {
  ObservationSampler s;
  const std::vector<double> q = {0.5, 0.0, 0.5};
  for (const bool cache : {true, false}) {
    s.reset(12, q, cache);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      const auto obs = draw(s, rng, q.size());
      EXPECT_EQ(obs.total(), 12u);
      EXPECT_EQ(obs[1], 0u) << "mass on a zero-weight symbol";
    }
  }
}

TEST(ObservationSampler, ZeroRoundsDrawIsAllZero) {
  ObservationSampler s;
  const std::vector<double> q = {0.0, 0.0};  // h == 0 admits zero total mass
  s.reset(0, q, /*cache=*/true);
  Rng rng(5);
  const auto obs = draw(s, rng, 2);
  EXPECT_EQ(obs.total(), 0u);
}

TEST(ObservationSampler, CacheToggleIsDrawForDrawIdentical) {
  // Same seed, same draw index → identical count vector with the table on
  // and off; this is the micro-level version of the engine digest test.
  ObservationSampler cached, uncached;
  const std::vector<double> q = {0.35, 0.05, 0.4, 0.2};
  cached.reset(9, q, /*cache=*/true);
  uncached.reset(9, q, /*cache=*/false);
  Rng rng_a(42), rng_b(42);
  for (int i = 0; i < 500; ++i) {
    const auto a = draw(cached, rng_a, q.size());
    const auto b = draw(uncached, rng_b, q.size());
    for (std::size_t sym = 0; sym < q.size(); ++sym) {
      ASSERT_EQ(a[sym], b[sym]) << "draw " << i << " symbol " << sym;
    }
  }
}

// Checks the cached search at `target` against std::upper_bound over the
// partial sums, clamped to the last outcome, and — where an O(#outcomes)
// walk per target stays cheap — against the uncached walk.
void expect_upper_bound_at(const ObservationSampler& cached,
                           const ObservationSampler& uncached, double target,
                           const std::string& where) {
  const std::span<const double> cum = Peer::cum(cached);
  const std::size_t last = cum.size() - 1;
  const std::size_t expect = std::min<std::size_t>(
      static_cast<std::size_t>(
          std::upper_bound(cum.begin(), cum.end(), target) - cum.begin()),
      last);
  ASSERT_EQ(Peer::search(cached, target), expect)
      << where << " target " << target;
  if (cum.size() <= 65) {
    ASSERT_EQ(Peer::walk(uncached, target), expect)
        << where << " target " << target;
  }
}

// Every boundary the guide search could get wrong: each partial sum and its
// two neighbours, each bucket edge and its neighbours, the extreme uniforms,
// and a run of random targets.
void check_guide_table(const ObservationSampler& cached,
                       const ObservationSampler& uncached,
                       const std::string& where) {
  ASSERT_TRUE(cached.cached());
  ASSERT_EQ(Peer::cum(cached).size(), cached.num_outcomes()) << where;
  const double total = Peer::total_mass(cached);
  const double inf = std::numeric_limits<double>::infinity();
  const std::span<const double> cum = Peer::cum(cached);
  for (std::size_t i = 0; i + 1 < cum.size(); ++i) {
    for (const double t : {std::nextafter(cum[i], 0.0), cum[i],
                           std::nextafter(cum[i], inf)}) {
      expect_upper_bound_at(cached, uncached, t, where + " cum");
    }
  }
  for (std::size_t b = 0; b <= Peer::buckets(cached); ++b) {
    const double edge = static_cast<double>(b) / Peer::scale(cached);
    for (const double t :
         {std::nextafter(edge, 0.0), edge, std::nextafter(edge, inf)}) {
      if (t >= 0.0 && t <= total) {
        expect_upper_bound_at(cached, uncached, t, where + " edge");
      }
    }
  }
  // sample() and sample_index() compute the target as u · total mass.
  for (const double u : {0.0, 0x1.0p-53, 0.5, 1.0 - 0x1.0p-53}) {
    expect_upper_bound_at(cached, uncached, u * total, where + " u");
  }
  Rng rng(11);
  for (int k = 0; k < 2000; ++k) {
    expect_upper_bound_at(cached, uncached, rng.next_double() * total,
                          where + " random");
  }
}

TEST(ObservationSampler, GuideTableMatchesUpperBound) {
  // One sampler object is reset from the largest outcome space down to the
  // smallest and back up, so a stale table from a larger (or smaller) reset
  // would be read — under ASan, as an out-of-bounds access.
  ObservationSampler cached, uncached;
  // 2 and 7 outcomes take the table-free count, the rest the guide table.
  for (const std::uint64_t m :
       {16384, 2001, 65, 9, 7, 2, 7, 9, 65, 2001, 16384}) {
    // Binary laws: m = h + 1 outcomes.  p = 1e-12 piles the whole mass on
    // the first outcome and flattens the rest of the partial sums.
    for (const double p : {0.5, 0.2, 1e-12}) {
      const std::vector<double> q = {1.0 - p, p};
      cached.reset(m - 1, q, /*cache=*/true);
      uncached.reset(m - 1, q, /*cache=*/false);
      ASSERT_EQ(cached.num_outcomes(), m);
      check_guide_table(cached, uncached,
                        "m=" + std::to_string(m) + " p=" + std::to_string(p));
    }
  }
  // A d = 3 law with a zero weight: every outcome using symbol 1 has zero
  // mass, so the partial sums run flat across those stretches.
  const std::vector<double> q3 = {0.6, 0.0, 0.4};
  for (const std::uint64_t h : {7, 62}) {
    cached.reset(h, q3, /*cache=*/true);
    uncached.reset(h, q3, /*cache=*/false);
    check_guide_table(cached, uncached, "d=3 h=" + std::to_string(h));
  }
}

TEST(ObservationSampler, DecompositionFallbackMatchesMultinomialSampler) {
  // Above the outcome cap the sampler must be byte-compatible with
  // sample_multinomial — same rng consumption, same counts.
  ObservationSampler s;
  const std::vector<double> q = {0.25, 0.25, 0.25, 0.25};
  s.reset(100, q, /*cache=*/true);
  ASSERT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
  Rng rng_a(9), rng_b(9);
  for (int i = 0; i < 50; ++i) {
    const auto a = draw(s, rng_a, q.size());
    std::uint64_t expect[4];
    sample_multinomial(rng_b, 100, q, expect);
    for (std::size_t sym = 0; sym < 4; ++sym) {
      ASSERT_EQ(a[sym], expect[sym]) << "draw " << i << " symbol " << sym;
    }
  }
}

TEST(ObservationSampler, BinaryDecompositionMatchesMultinomialSampler) {
  // The binary Decomposition mode draws from a BinomialPlan built at reset
  // instead of calling sample_multinomial per draw: same rng consumption,
  // same counts, for both binomial methods, a reflected p, the p = 1 clamp
  // (w1 = 0) and p = 0 (w0 = 0).
  const std::vector<std::vector<double>> laws = {
      {0.3, 0.7}, {0.9, 0.1}, {0.5, 0.5}, {1.0, 0.0}, {0.0, 2.0},
      {3.0, 1e-9}};
  for (const std::uint64_t h : {std::uint64_t{5}, std::uint64_t{40},
                                std::uint64_t{20000}}) {
    for (const std::vector<double>& q : laws) {
      ObservationSampler s;
      s.reset(h, q, /*cache=*/true, /*expected_draws=*/1);
      ASSERT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
      Rng rng_a(21), rng_b(21);
      for (int i = 0; i < 200; ++i) {
        const auto a = draw(s, rng_a, 2);
        std::uint64_t expect[2];
        sample_multinomial(rng_b, h, q, expect);
        ASSERT_EQ(a[0], expect[0]) << "h " << h << ", draw " << i;
        ASSERT_EQ(a[1], expect[1]) << "h " << h << ", draw " << i;
      }
      EXPECT_EQ(rng_a.next(), rng_b.next()) << "h " << h;
    }
  }
}

// Chi-square goodness of fit of the binary inverse-CDF path against the
// exact Binomial(h, p) law — identical harness to test_binomial.cpp: bin
// the support, accumulate exact binned probabilities from the log pmf,
// reject at the 99.9% critical value.
double binned_gof(std::uint64_t h, double p, bool cache, std::uint64_t seed,
                  std::span<const std::uint64_t> edges, int draws) {
  ObservationSampler s;
  const std::vector<double> q = {1.0 - p, p};
  s.reset(h, q, cache);
  const std::size_t bins = edges.size() + 1;
  std::vector<std::uint64_t> observed(bins, 0);
  Rng rng(seed);
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t x = draw(s, rng, 2)[1];
    std::size_t b = 0;
    while (b < edges.size() && x >= edges[b]) ++b;
    observed[b] += 1;
  }
  std::vector<double> expected(bins, 0.0);  // binned exact probabilities
  double logc = static_cast<double>(h) * std::log(1.0 - p);  // log pmf at 0
  const double lodds = std::log(p) - std::log(1.0 - p);
  for (std::uint64_t k = 0; k <= h; ++k) {
    std::size_t b = 0;
    while (b < edges.size() && k >= edges[b]) ++b;
    expected[b] += std::exp(logc);
    if (k < h) {
      logc += std::log(static_cast<double>(h - k)) -
              std::log(static_cast<double>(k + 1)) + lodds;
    }
  }
  return chi_square_statistic(observed, expected);
}

TEST(ObservationSampler, BinaryGoodnessOfFit) {
  // h = 40, p = 0.2: mean 8, sd ≈ 2.5; seven bins around the bulk.
  const std::uint64_t edges[] = {5, 7, 8, 9, 10, 12};
  const double crit = chi_square_critical_999(6);
  EXPECT_LT(binned_gof(40, 0.2, /*cache=*/true, 601, edges, 120000), crit);
  EXPECT_LT(binned_gof(40, 0.2, /*cache=*/false, 602, edges, 120000), crit);
}

TEST(ObservationSampler, KaryMarginalGoodnessOfFit) {
  // A multinomial marginal is Binomial(h, p_i): test symbol 2 of a 4-ary
  // sampler through the same binned harness.
  ObservationSampler s;
  const std::vector<double> q = {0.3, 0.2, 0.4, 0.1};
  s.reset(25, q, /*cache=*/true);
  ASSERT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
  const std::uint64_t h = 25;
  const double p = 0.4;
  const std::uint64_t edges[] = {7, 9, 10, 11, 12, 14};
  const std::size_t bins = 7;
  std::vector<std::uint64_t> observed(bins, 0);
  Rng rng(603);
  const int draws = 120000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t x = draw(s, rng, 4)[2];
    std::size_t b = 0;
    while (b < 6 && x >= edges[b]) ++b;
    observed[b] += 1;
  }
  std::vector<double> expected(bins, 0.0);  // binned exact probabilities
  double logc = static_cast<double>(h) * std::log(1.0 - p);
  const double lodds = std::log(p) - std::log(1.0 - p);
  for (std::uint64_t k = 0; k <= h; ++k) {
    std::size_t b = 0;
    while (b < 6 && k >= edges[b]) ++b;
    expected[b] += std::exp(logc);
    if (k < h) {
      logc += std::log(static_cast<double>(h - k)) -
              std::log(static_cast<double>(k + 1)) + lodds;
    }
  }
  EXPECT_LT(chi_square_statistic(observed, expected),
            chi_square_critical_999(6));
}

TEST(ObservationSampler, RejectsInvalidInputs) {
  ObservationSampler s;
  const std::vector<double> negative = {0.5, -0.1};
  EXPECT_THROW(s.reset(4, negative, true), std::invalid_argument);
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(s.reset(4, zero, true), std::invalid_argument);
  const std::vector<double> tiny = {1.0};
  EXPECT_THROW(s.reset(4, tiny, true), std::invalid_argument);
  ObservationSampler fresh;
  const std::vector<double> ok = {0.5, 0.5};
  fresh.reset(4, ok, true);
  SymbolCounts wrong(3);
  Rng rng(1);
  EXPECT_THROW(fresh.sample(rng, wrong), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The reset memo: a reset with bitwise-equal arguments skips the rebuild,
// and nothing else may hit it.

// 64 draws of `s` from a fixed seed, flattened.
std::vector<std::uint64_t> draws_of(const ObservationSampler& s,
                                    std::size_t d) {
  Rng rng(404);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 64; ++i) {
    const SymbolCounts obs = draw(s, rng, d);
    out.insert(out.end(), obs.c.begin(), obs.c.begin() + d);
  }
  return out;
}

TEST(ObservationSamplerMemo, ResetBackToEarlierArgumentsMatchesAFreshSampler) {
  // (h, expected_draws) pairs picking each mode: 65 outcomes over 20000
  // draws build the table; over 4 draws the gate falls back.
  struct ModeCase {
    ObservationSampler::Mode mode;
    std::uint64_t expected_draws;
  };
  const ModeCase modes[] = {
      {ObservationSampler::Mode::InverseCdf, 20000},
      {ObservationSampler::Mode::Decomposition, 4},
  };
  const std::vector<double> a = {0.7, 0.3};
  const std::vector<double> b = {0.2, 0.8};
  for (const ModeCase& m : modes) {
    for (const bool cache : {true, false}) {
      ObservationSampler fresh;
      fresh.reset(64, a, cache, m.expected_draws);
      ASSERT_EQ(fresh.mode(), m.mode);

      ObservationSampler s;
      s.reset(64, a, cache, m.expected_draws);
      s.reset(64, b, cache, m.expected_draws);
      EXPECT_NE(draws_of(s, 2), draws_of(fresh, 2)) << "B must differ from A";
      s.reset(64, a, cache, m.expected_draws);
      EXPECT_EQ(s.rebuilds(), 3u) << "A, B, A: three distinct keys in a row";
      EXPECT_EQ(s.mode(), m.mode);
      EXPECT_EQ(draws_of(s, 2), draws_of(fresh, 2))
          << "cache=" << cache << " expected_draws=" << m.expected_draws;

      // The same arguments again: a memo hit, and the same draws.
      s.reset(64, a, cache, m.expected_draws);
      EXPECT_EQ(s.rebuilds(), 3u);
      EXPECT_EQ(draws_of(s, 2), draws_of(fresh, 2));
      // Flipping only the cache flag is a different key.
      s.reset(64, a, !cache, m.expected_draws);
      EXPECT_EQ(s.rebuilds(), 4u);
      EXPECT_EQ(s.cached(),
                !cache && m.mode == ObservationSampler::Mode::InverseCdf);
    }
  }
  // k-ary too: the cached table holds the outcome decode as well.
  const std::vector<double> a3 = {0.5, 0.3, 0.2};
  const std::vector<double> b3 = {0.1, 0.1, 0.8};
  for (const bool cache : {true, false}) {
    ObservationSampler fresh;
    fresh.reset(6, a3, cache);
    ObservationSampler s;
    s.reset(6, a3, cache);
    s.reset(6, b3, cache);
    s.reset(6, a3, cache);
    EXPECT_EQ(draws_of(s, 3), draws_of(fresh, 3)) << "cache=" << cache;
  }
}

TEST(ObservationSamplerMemo, ThrowingResetLeavesNoStaleHit) {
  const std::vector<double> good = {0.6, 0.4};
  const std::vector<double> negative = {0.6, -0.4};
  const std::vector<double> massless = {0.0, 0.0};
  for (const bool cache : {true, false}) {
    ObservationSampler fresh;
    fresh.reset(16, good, cache);
    ObservationSampler s;
    s.reset(16, good, cache);
    ASSERT_EQ(s.rebuilds(), 1u);
    // Both throw after the reset has begun overwriting the state (h, the
    // alphabet, the first weights): the earlier key must not survive.
    EXPECT_THROW(s.reset(16, negative, cache), std::invalid_argument);
    EXPECT_THROW(s.reset(16, massless, cache), std::invalid_argument);
    EXPECT_EQ(s.rebuilds(), 1u) << "a reset that throws is not a rebuild";
    s.reset(16, good, cache);
    EXPECT_EQ(s.rebuilds(), 2u) << "the valid weights must rebuild";
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
    EXPECT_EQ(draws_of(s, 2), draws_of(fresh, 2)) << "cache=" << cache;
  }
}

TEST(ObservationSamplerMemo, ExpectedDrawsFlippingTheGateIsNotAHit) {
  const std::vector<double> q = {0.7, 0.3};
  for (const bool cache : {true, false}) {
    ObservationSampler s;
    s.reset(64, q, cache, /*expected_draws=*/20000);
    ASSERT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
    // Same h and weights, fewer draws than the 65 outcomes: Decomposition.
    s.reset(64, q, cache, /*expected_draws=*/4);
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::Decomposition);
    EXPECT_EQ(s.rebuilds(), 2u);
    // And back.
    s.reset(64, q, cache, /*expected_draws=*/20000);
    EXPECT_EQ(s.mode(), ObservationSampler::Mode::InverseCdf);
    EXPECT_EQ(s.rebuilds(), 3u);
    ObservationSampler fresh;
    fresh.reset(64, q, cache, /*expected_draws=*/20000);
    EXPECT_EQ(draws_of(s, 2), draws_of(fresh, 2)) << "cache=" << cache;
  }
}

TEST(ObservationSamplerMemo, WeightsCompareBitwise) {
  // +0.0 and -0.0 are equal as doubles but distinct keys; both are valid
  // (non-negative) weights and sample the same law.
  ObservationSampler s;
  s.reset(8, std::vector<double>{0.0, 1.0}, /*cache=*/true);
  s.reset(8, std::vector<double>{-0.0, 1.0}, /*cache=*/true);
  EXPECT_EQ(s.rebuilds(), 2u);
  s.reset(8, std::vector<double>{-0.0, 1.0}, /*cache=*/true);
  EXPECT_EQ(s.rebuilds(), 2u);
  // A different alphabet with the same leading weights is another key.
  s.reset(8, std::vector<double>{-0.0, 1.0, 0.0}, /*cache=*/true);
  EXPECT_EQ(s.rebuilds(), 3u);
  // So is a different h.
  s.reset(9, std::vector<double>{-0.0, 1.0, 0.0}, /*cache=*/true);
  EXPECT_EQ(s.rebuilds(), 4u);
}

}  // namespace
}  // namespace noisypull
