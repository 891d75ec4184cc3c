#include "core/fit.h"

#include "core/classify.h"
#include "stats/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ipso {
namespace {

stats::Series sweep(const char* name, std::initializer_list<double> ns,
                    double (*f)(double)) {
  stats::Series s(name);
  for (double n : ns) s.add(n, f(n));
  return s;
}

const std::initializer_list<double> kSmallNs{1, 2, 4, 8, 12, 16};

TEST(EpsilonSeries, PointwiseRatio) {
  const auto ex = sweep("EX", kSmallNs, +[](double n) { return n; });
  const auto in = sweep("IN", kSmallNs, +[](double n) { return n / 2.0; });
  const auto eps = epsilon_series(ex, in);
  ASSERT_TRUE(eps.has_value());
  for (const auto& p : *eps) EXPECT_DOUBLE_EQ(p.y, 2.0);
}

TEST(EpsilonSeries, RejectsMismatchedLengths) {
  const auto ex = sweep("EX", {1, 2, 4}, +[](double n) { return n; });
  const auto in = sweep("IN", {1, 2}, +[](double n) { return n; });
  const auto eps = epsilon_series(ex, in);
  ASSERT_FALSE(eps.has_value());
  EXPECT_EQ(eps.error(), FitError::kLengthMismatch);
}

TEST(EpsilonSeries, RejectsMisalignedX) {
  const auto ex = sweep("EX", {1, 2, 4}, +[](double n) { return n; });
  const auto in = sweep("IN", {1, 2, 5}, +[](double n) { return n; });
  const auto eps = epsilon_series(ex, in);
  ASSERT_FALSE(eps.has_value());
  EXPECT_EQ(eps.error(), FitError::kMisalignedSeries);
}

TEST(EpsilonSeries, RejectsNonPositiveIN) {
  const auto ex = sweep("EX", {1, 2}, +[](double n) { return n; });
  auto in = stats::Series("IN");
  in.add(1, 1.0);
  in.add(2, 0.0);
  const auto eps = epsilon_series(ex, in);
  ASSERT_FALSE(eps.has_value());
  EXPECT_EQ(eps.error(), FitError::kNonPositiveValue);
}

TEST(Expected, ValueAccessOnErrorThrows) {
  const Expected<stats::Series> bad = FitError::kInsufficientData;
  EXPECT_THROW(static_cast<void>(bad.value()), std::runtime_error);
  EXPECT_FALSE(static_cast<bool>(bad));
  const Expected<stats::Series> good = stats::Series("ok");
  EXPECT_NO_THROW(static_cast<void>(good.value()));
  EXPECT_THROW(static_cast<void>(good.error()), std::logic_error);
}

TEST(QSeries, ComputesFromWorkloads) {
  // Wo(n) = Wp(n)/n * q(n) => q(n) = Wo*n/Wp. With Wp = 100 (fixed-size)
  // and Wo = 0.6 n, q(n) = 0.006 n^2.
  stats::Series wo("Wo"), wp("Wp");
  for (double n : {10.0, 30.0, 60.0, 90.0}) {
    wo.add(n, 0.6 * n);
    wp.add(n, 100.0);
  }
  const auto q = q_series_from_workloads(wo, wp);
  ASSERT_TRUE(q.has_value());
  for (const auto& p : *q) EXPECT_NEAR(p.y, 0.006 * p.x * p.x, 1e-12);
}

TEST(FitFactors, RecoversSortLikeInProportionScaling) {
  // The paper's Sort: EX(n) = n, IN(n) = 0.36 n - 0.11 => delta ~ 0 at
  // large n but the log-log fit over n in [1,16] sees epsilon ~ alpha n^d
  // with a small d; classification tolerance handles the rest.
  FactorMeasurements m;
  m.eta = 0.7;
  for (double n : {1.0, 2.0, 4.0, 8.0, 12.0, 16.0}) {
    m.ex.add(n, n);
    m.in.add(n, n == 1.0 ? 1.0 : 0.36 * n - 0.11);
  }
  const FactorFits fits = fit_factors(WorkloadType::kFixedTime, m).value();
  EXPECT_DOUBLE_EQ(fits.params.eta, 0.7);
  // epsilon(n) = n/(0.36n - 0.11) tends to 1/0.36 = 2.78: nearly flat.
  EXPECT_LT(fits.params.delta, 0.4);
  EXPECT_GT(fits.params.alpha, 1.0);
  ASSERT_TRUE(fits.in_linear.has_value());
  EXPECT_NEAR(fits.in_linear->slope, 0.36, 0.05);
  EXPECT_FALSE(fits.q_fit.has_value());
  EXPECT_EQ(fits.q_fit.error(), FitError::kNotMeasured);
  EXPECT_DOUBLE_EQ(fits.params.gamma, 0.0);
}

TEST(FitFactors, RecoversPowerLawOverhead) {
  FactorMeasurements m;
  m.eta = 1.0;
  for (double n : {1.0, 10.0, 30.0, 60.0, 90.0}) {
    m.ex.add(n, 1.0);
    m.q.add(n, n == 1.0 ? 0.0 : 3.74e-4 * n * n);
  }
  const FactorFits fits = fit_factors(WorkloadType::kFixedSize, m).value();
  ASSERT_TRUE(fits.q_fit.has_value());
  EXPECT_NEAR(fits.params.gamma, 2.0, 1e-6);
  EXPECT_NEAR(fits.params.beta, 3.74e-4, 1e-7);
  EXPECT_DOUBLE_EQ(fits.params.delta, 0.0);
}

TEST(FitFactors, RejectsMismatchedExIn) {
  FactorMeasurements m;
  m.eta = 0.7;
  for (double n : {1.0, 2.0, 4.0}) m.ex.add(n, n);
  m.in.add(1.0, 1.0);
  m.in.add(2.0, 1.2);
  const auto fits = fit_factors(WorkloadType::kFixedTime, m);
  ASSERT_FALSE(fits.has_value());
  EXPECT_EQ(fits.error(), FitError::kLengthMismatch);
}

TEST(FitFactors, EtaOneSkipsEpsilon) {
  FactorMeasurements m;
  m.eta = 1.0;
  for (double n : {1.0, 2.0, 4.0}) m.ex.add(n, n);
  const FactorFits fits = fit_factors(WorkloadType::kFixedTime, m).value();
  EXPECT_DOUBLE_EQ(fits.params.alpha, 1.0);
  EXPECT_DOUBLE_EQ(fits.params.delta, 1.0);
  // IN(n) is undefined without a serial component, and the error says so.
  EXPECT_FALSE(fits.in_segmented.has_value());
  EXPECT_EQ(fits.in_segmented.error(), FitError::kNoSerialComponent);
}

TEST(FitFactors, FixedSizeForcesDeltaZero) {
  FactorMeasurements m;
  m.eta = 0.8;
  for (double n : {1.0, 2.0, 4.0, 8.0}) {
    m.ex.add(n, 1.0);
    m.in.add(n, 1.0);
  }
  const FactorFits fits = fit_factors(WorkloadType::kFixedSize, m).value();
  EXPECT_DOUBLE_EQ(fits.params.delta, 0.0);
}

TEST(FitFactors, NegligibleQIsTreatedAsZero) {
  FactorMeasurements m;
  m.eta = 0.9;
  for (double n : {1.0, 2.0, 4.0, 8.0}) {
    m.ex.add(n, n);
    m.in.add(n, 1.0);
    m.q.add(n, 1e-9 * n);  // measurement noise, not real overhead
  }
  const FactorFits fits = fit_factors(WorkloadType::kFixedTime, m).value();
  EXPECT_FALSE(fits.q_fit.has_value());
  // q(n) was measured — the error distinguishes "negligible" from "absent".
  EXPECT_EQ(fits.q_fit.error(), FitError::kNegligibleOverhead);
  EXPECT_DOUBLE_EQ(fits.params.beta, 0.0);
}

TEST(FitFactors, ClampsDeltaIntoPaperDomain) {
  // A step-wise IN(n) makes the raw epsilon-tail exponent negative; the
  // fit must clamp delta to [0, 1] and refit alpha as the tail level so
  // the classified bound stays meaningful.
  FactorMeasurements m;
  m.eta = 1.0 / 3.0;
  for (double n = 1; n <= 24; ++n) {
    m.ex.add(n, n);
    m.in.add(n, n <= 15 ? 0.15 * n + 0.85 : 0.25 * n + 0.85);
  }
  const FactorFits fits = fit_factors(WorkloadType::kFixedTime, m).value();
  EXPECT_GE(fits.params.delta, 0.0);
  EXPECT_LE(fits.params.delta, 1.0);
  // alpha ~ the epsilon level of the tail: n / (0.25 n + 0.85) ~ 3.6-3.8.
  EXPECT_GT(fits.params.alpha, 3.0);
  EXPECT_LT(fits.params.alpha, 4.5);
}

TEST(FitFactors, FallingQTailClampsGammaToZero) {
  // q halves at every doubling of n: the raw tail fit is q = 4·n^-1. Gamma
  // is clamped to 0 and beta refit as the tail level; q_fit keeps the raw
  // exponent.
  FactorMeasurements m;
  m.eta = 1.0;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    m.ex.add(n, n);
    m.q.add(n, n == 1.0 ? 0.0 : 4.0 / n);
  }
  const FactorFits fits = fit_factors(WorkloadType::kFixedTime, m).value();
  EXPECT_DOUBLE_EQ(fits.params.gamma, 0.0);
  EXPECT_DOUBLE_EQ(fits.params.beta, (0.5 + 0.25 + 0.125) / 3.0);
  ASSERT_TRUE(fits.q_fit.has_value());
  EXPECT_NEAR(fits.q_fit->exponent, -1.0, 1e-12);
  EXPECT_NO_THROW(static_cast<void>(classify(fits.params)));
}

TEST(FitFactors, EverySuccessfulFitClassifies) {
  // Seeded traces whose q(n) tail falls, stays flat, or rises, each under
  // multiplicative noise, over both workload types and the whole eta
  // domain: whatever fit_factors returns must be a valid classify input.
  stats::Rng rng(2019);
  const std::vector<double> ns{1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
  int fitted = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const double gamma = std::vector<double>{-1.5, -0.3, 0.0, 0.8}[trial % 4];
    const double noise = std::vector<double>{0.0, 0.05, 0.4}[trial % 3];
    const WorkloadType type =
        trial % 2 == 0 ? WorkloadType::kFixedTime : WorkloadType::kFixedSize;
    FactorMeasurements m;
    m.eta = trial % 5 == 0 ? 1.0 : rng.uniform(0.0, 1.0);
    const double beta = rng.uniform(0.2, 5.0);
    const double in_slope = rng.uniform(0.0, 0.5);
    for (double n : ns) {
      const double jitter = 1.0 + noise * rng.uniform(-1.0, 1.0);
      m.ex.add(n, type == WorkloadType::kFixedTime ? n * jitter : jitter);
      m.in.add(n, 1.0 + in_slope * (n - 1.0));
      m.q.add(n, n == 1.0 ? 0.0 : beta * std::pow(n, gamma) * jitter);
    }
    const Expected<FactorFits> fits = fit_factors(type, m);
    if (!fits.has_value()) continue;
    ++fitted;
    EXPECT_GE(fits->params.gamma, 0.0) << "trial " << trial;
    EXPECT_NO_THROW(static_cast<void>(classify(fits->params)))
        << "trial " << trial;
  }
  EXPECT_GT(fitted, 500);
}

TEST(DetectChangepoint, FindsTeraSortStep) {
  stats::Series in("IN terasort");
  for (int n = 1; n <= 40; ++n) {
    // Paper Fig. 5: slope 0.15 before overflow at ~15, then 0.23n + 2.72.
    in.add(n, n <= 15 ? 0.15 * n + 0.85 : 0.23 * n + 2.72);
  }
  const auto seg = detect_in_changepoint(in);
  ASSERT_TRUE(seg.has_value());
  EXPECT_NEAR(seg->knot, 15.0, 2.0);
  EXPECT_NEAR(seg->left.slope, 0.15, 0.02);
  EXPECT_NEAR(seg->right.slope, 0.23, 0.02);
}

TEST(DetectChangepoint, NoFalsePositiveOnStraightLine) {
  stats::Series in("IN linear");
  for (int n = 1; n <= 40; ++n) in.add(n, 0.36 * n - 0.11);
  const auto seg = detect_in_changepoint(in);
  ASSERT_FALSE(seg.has_value());
  EXPECT_EQ(seg.error(), FitError::kNoChangepoint);
}

TEST(DetectChangepoint, NoChangepointInRoundingNoise) {
  // A flat IN(n) at a non-integer level over non-integer x fits a single
  // line to within rounding; both SSEs are ~1e-27 and must not be compared.
  stats::Rng rng(20);
  int changepoints = 0;
  for (int s = 0; s < 2000; ++s) {
    const double level = rng.uniform(-20.0, 20.0);
    std::vector<double> xs(10 + rng.uniform_below(291));
    for (double& x : xs) x = rng.uniform(1.0, 100.0);
    std::sort(xs.begin(), xs.end());
    stats::Series in("IN flat");
    for (double x : xs) in.add(x, level);
    if (detect_in_changepoint(in, 3).has_value()) ++changepoints;
  }
  EXPECT_EQ(changepoints, 0);
}

TEST(DetectChangepoint, TooFewPointsIsInsufficientData) {
  stats::Series in("short");
  for (int n = 1; n <= 4; ++n) in.add(n, n);
  const auto seg = detect_in_changepoint(in);
  ASSERT_FALSE(seg.has_value());
  EXPECT_EQ(seg.error(), FitError::kInsufficientData);
}

TEST(FitTailGrowth, LinearCurveExponentNearOne) {
  stats::Series s("S");
  for (int n = 1; n <= 64; n *= 2) s.add(n, 0.9 * n + 0.1);
  const auto f = fit_tail_growth(s);
  ASSERT_TRUE(f.has_value());
  EXPECT_NEAR(f->exponent, 1.0, 0.05);
}

TEST(FitTailGrowth, SaturatedCurveExponentNearZero) {
  stats::Series s("S");
  for (int n = 1; n <= 256; n *= 2) s.add(n, 5.0 - 4.0 / n);
  const auto f = fit_tail_growth(s);
  ASSERT_TRUE(f.has_value());
  EXPECT_LT(f->exponent, 0.1);
}

TEST(FitTailGrowth, TinySeriesIsInsufficientData) {
  stats::Series s("S");
  s.add(1, 1);
  s.add(2, 2);
  const auto f = fit_tail_growth(s);
  ASSERT_FALSE(f.has_value());
  EXPECT_EQ(f.error(), FitError::kInsufficientData);
}

}  // namespace
}  // namespace ipso
