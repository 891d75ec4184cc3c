#include "stats/regression.h"

#include "stats/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace ipso::stats {
namespace {

TEST(LinearFit, RecoversExactLine) {
  Series s("line");
  for (int n = 1; n <= 20; ++n) s.add(n, 3.0 * n - 7.0);
  const LinearFit f = fit_linear(s);
  EXPECT_NEAR(f.slope, 3.0, 1e-12);
  EXPECT_NEAR(f.intercept, -7.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, RecoversNoisyLine) {
  Rng rng(1);
  Series s("noisy");
  for (int n = 1; n <= 200; ++n) s.add(n, 0.36 * n - 0.11 + rng.normal(0, 0.5));
  const LinearFit f = fit_linear(s);
  EXPECT_NEAR(f.slope, 0.36, 0.01);
  EXPECT_NEAR(f.intercept, -0.11, 0.6);
  EXPECT_GT(f.r_squared, 0.99);
}

TEST(LinearFit, EvaluatesAtX) {
  const LinearFit f{2.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(f(3.0), 7.0);
}

TEST(LinearFit, ThrowsOnTooFewPoints) {
  Series s("one");
  s.add(1, 1);
  EXPECT_THROW(fit_linear(s), std::invalid_argument);
}

TEST(LinearFit, ThrowsOnDegenerateX) {
  Series s("same-x");
  s.add(2, 1);
  s.add(2, 5);
  EXPECT_THROW(fit_linear(s), std::invalid_argument);
}

TEST(LinearFit, SpanOverloadMatchesSeries) {
  const std::vector<double> xs{1, 2, 3, 4};
  const std::vector<double> ys{2, 4, 6, 8};
  const LinearFit f = fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
}

TEST(PowerFit, RecoversExactPowerLaw) {
  Series s("pow");
  for (int n = 1; n <= 50; ++n) s.add(n, 2.5 * std::pow(n, 1.7));
  const PowerFit f = fit_power(s);
  EXPECT_NEAR(f.coeff, 2.5, 1e-9);
  EXPECT_NEAR(f.exponent, 1.7, 1e-9);
}

TEST(PowerFit, SkipsNonPositivePoints) {
  Series s("pow0");
  s.add(1, 0.0);  // q(1) = 0 style point
  for (int n = 2; n <= 20; ++n) s.add(n, 0.5 * n * n);
  const PowerFit f = fit_power(s);
  EXPECT_NEAR(f.exponent, 2.0, 1e-9);
  EXPECT_NEAR(f.coeff, 0.5, 1e-9);
}

TEST(PowerFit, ThrowsWhenAllNonPositive) {
  Series s("zeros");
  s.add(1, 0.0);
  s.add(2, 0.0);
  EXPECT_THROW(fit_power(s), std::invalid_argument);
}

TEST(PowerFit, GammaTwoFromQuadraticOverhead) {
  // The CF case study: q(n) = beta*n^2 must be recovered with gamma ~ 2.
  Series s("q");
  for (double n : {10.0, 30.0, 60.0, 90.0}) s.add(n, 3.74e-4 * n * n);
  const PowerFit f = fit_power(s);
  EXPECT_NEAR(f.exponent, 2.0, 1e-6);
  EXPECT_NEAR(f.coeff, 3.74e-4, 1e-8);
}

TEST(SegmentedFit, FindsKnownBreakpoint) {
  // Fig. 5 shape: slope 0.15 below n=15, slope 0.25 above.
  Series s("IN");
  for (int n = 1; n <= 40; ++n) {
    const double y = n <= 15 ? 0.15 * n + 0.85 : 0.25 * n + 2.72 - 1.5;
    s.add(n, y);
  }
  const SegmentedFit f = fit_segmented(s);
  EXPECT_NEAR(f.knot, 15.0, 2.0);
  EXPECT_NEAR(f.left.slope, 0.15, 0.02);
  EXPECT_NEAR(f.right.slope, 0.25, 0.02);
  EXPECT_TRUE(f.has_breakpoint());
}

TEST(SegmentedFit, StraightLineHasNoBreakpoint) {
  Series s("line");
  for (int n = 1; n <= 30; ++n) s.add(n, 2.0 * n + 1.0);
  const SegmentedFit f = fit_segmented(s);
  EXPECT_FALSE(f.has_breakpoint());
}

TEST(SegmentedFit, ThrowsOnTooFewPoints) {
  Series s("few");
  for (int n = 1; n <= 4; ++n) s.add(n, n);
  EXPECT_THROW(fit_segmented(s, 3), std::invalid_argument);
}

TEST(SegmentedFit, EvaluatesPiecewise) {
  SegmentedFit f;
  f.left = {1.0, 0.0, 1.0};
  f.right = {2.0, -5.0, 1.0};
  f.knot = 5.0;
  EXPECT_DOUBLE_EQ(f(4.0), 4.0);
  EXPECT_DOUBLE_EQ(f(6.0), 7.0);
}

// The exhaustive O(n^2) search that fit_segmented replaced, verbatim: it
// refits both sides of every split. The differential test below holds the
// O(n) search to it.
SegmentedFit reference_segmented(const Series& s, std::size_t min_seg) {
  if (min_seg < 2) min_seg = 2;
  if (s.size() < 2 * min_seg) {
    throw std::invalid_argument("fit_segmented: too few points");
  }
  SegmentedFit best;
  best.sse = std::numeric_limits<double>::infinity();
  const auto xs = s.xs();
  const auto ys = s.ys();
  for (std::size_t split = min_seg; split + min_seg <= s.size(); ++split) {
    const std::span<const double> lx(xs.data(), split);
    const std::span<const double> ly(ys.data(), split);
    const std::span<const double> rx(xs.data() + split, xs.size() - split);
    const std::span<const double> ry(ys.data() + split, ys.size() - split);
    LinearFit lf, rf;
    try {
      lf = fit_linear(lx, ly);
      rf = fit_linear(rx, ry);
    } catch (const std::invalid_argument&) {
      continue;  // degenerate segment (all same x)
    }
    double total = 0.0;
    for (std::size_t i = 0; i < split; ++i) {
      const double r = ly[i] - lf(lx[i]);
      total += r * r;
    }
    for (std::size_t i = 0; i < rx.size(); ++i) {
      const double r = ry[i] - rf(rx[i]);
      total += r * r;
    }
    if (total < best.sse) {
      best.left = lf;
      best.right = rf;
      best.knot = xs[split - 1];
      best.sse = total;
    }
  }
  if (!std::isfinite(best.sse)) {
    throw std::invalid_argument("fit_segmented: no valid split found");
  }
  return best;
}

// The reference's total SSE at every split it accepts, summed the way it
// sums them, so the test can tell a unique winner from a near tie.
std::vector<double> reference_split_totals(const Series& s,
                                           std::size_t min_seg) {
  std::vector<double> totals;
  const auto xs = s.xs();
  const auto ys = s.ys();
  for (std::size_t split = min_seg; split + min_seg <= s.size(); ++split) {
    const std::span<const double> lx(xs.data(), split);
    const std::span<const double> ly(ys.data(), split);
    const std::span<const double> rx(xs.data() + split, xs.size() - split);
    const std::span<const double> ry(ys.data() + split, ys.size() - split);
    LinearFit lf, rf;
    try {
      lf = fit_linear(lx, ly);
      rf = fit_linear(rx, ry);
    } catch (const std::invalid_argument&) {
      continue;
    }
    double total = 0.0;
    for (std::size_t i = 0; i < split; ++i) {
      const double r = ly[i] - lf(lx[i]);
      total += r * r;
    }
    for (std::size_t i = 0; i < rx.size(); ++i) {
      const double r = ry[i] - rf(rx[i]);
      total += r * r;
    }
    totals.push_back(total);
  }
  return totals;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const LinearFit& a, const LinearFit& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The shapes of series the differential test draws.
enum class Shape {
  kNoisyPiecewise,
  kExactPiecewise,
  kStraightLine,
  kConstantY,
  kRepeatedX,
  kOffsetMillion,
};
constexpr int kShapes = 6;

Series draw_series(Shape shape, std::size_t n, Rng& rng) {
  Series s("diff");
  const bool offset = shape == Shape::kOffsetMillion;
  const double base = offset ? 1e6 : 0.0;
  // x: 1..n, or (a third of the time outside kRepeatedX) sorted uniform
  // draws; kRepeatedX repeats each integer 1-4 times.
  std::vector<double> xs;
  if (shape == Shape::kRepeatedX) {
    for (double x = 1.0; xs.size() < n; x += 1.0) {
      const std::size_t reps = 1 + rng.uniform_below(4);
      for (std::size_t r = 0; r < reps && xs.size() < n; ++r) xs.push_back(x);
    }
  } else if (rng.uniform_below(3) == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(rng.uniform(0.0, static_cast<double>(n)));
    }
    std::sort(xs.begin(), xs.end());
  } else {
    for (std::size_t i = 1; i <= n; ++i) xs.push_back(static_cast<double>(i));
  }
  const double knot = xs[n / 4 + rng.uniform_below(n / 2)];
  const double a1 = rng.uniform(-2.0, 2.0);
  const double b1 = rng.uniform(-5.0, 5.0);
  const double a2 = a1 * rng.uniform(1.5, 4.0);
  const double jump = rng.uniform_below(2) == 0 ? 0.0 : rng.uniform(-3.0, 3.0);
  const double noise = shape == Shape::kNoisyPiecewise ||
                               shape == Shape::kRepeatedX ||
                               (offset && rng.uniform_below(2) == 0)
                           ? rng.uniform(0.01, 1.0)
                           : 0.0;
  // Integer levels: ConstantLevelKeepsTheFirstSplitWithinRounding says why.
  const double level = std::round(rng.uniform(-20.0, 20.0));
  for (const double x : xs) {
    double y = 0.0;
    switch (shape) {
      case Shape::kStraightLine:
        y = a1 * x + b1;
        break;
      case Shape::kConstantY:
        y = level;
        break;
      default:
        y = x <= knot ? a1 * x + b1 : a2 * (x - knot) + a1 * knot + b1 + jump;
        break;
    }
    if (noise > 0.0) y += rng.normal(0.0, noise);
    s.add(base + x, base + y);
  }
  return s;
}

struct Outcome {
  std::optional<SegmentedFit> fit;
  std::string error;
};

Outcome run(SegmentedFit (*search)(const Series&, std::size_t),
            const Series& s, std::size_t min_seg) {
  Outcome o;
  try {
    o.fit = search(s, min_seg);
  } catch (const std::invalid_argument& e) {
    o.error = e.what();
  }
  return o;
}

TEST(SegmentedFit, MatchesExhaustiveSearchOnSeededSeries) {
  constexpr int kSeries = 6000;
  int identical = 0, near_ties = 0, rejected = 0;
  Rng rng(19);
  for (int c = 0; c < kSeries; ++c) {
    const auto shape = static_cast<Shape>(c % kShapes);
    const std::size_t min_seg = 2 + rng.uniform_below(4);
    const std::size_t n = 6 + rng.uniform_below(295);
    const Series s = draw_series(shape, n, rng);
    SCOPED_TRACE("series " + std::to_string(c) + " shape " +
                 std::to_string(c % kShapes) + " n " + std::to_string(n) +
                 " min_seg " + std::to_string(min_seg));

    const Outcome want = run(reference_segmented, s, min_seg);
    const Outcome got = run(fit_segmented, s, min_seg);
    ASSERT_EQ(want.error, got.error);
    ASSERT_EQ(want.fit.has_value(), got.fit.has_value());
    if (!want.fit) {
      ++rejected;
      continue;
    }
    const SegmentedFit& ref = *want.fit;
    const SegmentedFit& fit = *got.fit;

    std::vector<double> totals = reference_split_totals(s, min_seg);
    std::sort(totals.begin(), totals.end());
    ASSERT_TRUE(same_bits(totals.front(), ref.sse));
    double mean_y = 0.0;
    for (const auto& p : s) mean_y += p.y;
    mean_y /= static_cast<double>(s.size());
    double sst = 0.0;
    for (const auto& p : s) sst += (p.y - mean_y) * (p.y - mean_y);
    const double tie_band = 1e-12 * sst;

    if (totals.size() > 1 && totals[1] - totals[0] <= tie_band) {
      ++near_ties;
      EXPECT_LE(fit.sse, ref.sse + tie_band);
      EXPECT_EQ(fit.has_breakpoint(), ref.has_breakpoint());
      continue;
    }
    ++identical;
    EXPECT_TRUE(same_bits(fit.knot, ref.knot))
        << "knot " << fit.knot << " vs " << ref.knot;
    EXPECT_TRUE(same_bits(fit.left, ref.left));
    EXPECT_TRUE(same_bits(fit.right, ref.right));
    EXPECT_TRUE(same_bits(fit.sse, ref.sse))
        << "sse " << fit.sse << " vs " << ref.sse;
  }
  // Every branch of the comparison ran.
  EXPECT_GT(identical, kSeries / 2);
  EXPECT_GT(near_ties, 0);
  EXPECT_GT(rejected, 0);
}

TEST(SegmentedFit, EqualXWithInexactMeanIsAValidSide) {
  // Three copies of 0.1 average to 0.10000000000000002, so fit_linear
  // accepts them (with a flat line) and the split after them fits both
  // sides exactly. A rule that skipped every side whose centered Cxx is 0
  // would miss it and return knot 2.
  Series s("tied-x");
  for (int i = 0; i < 3; ++i) s.add(0.1, 5.0);
  for (int i = 1; i <= 10; ++i) s.add(1.0 + i, 0.5 * i);
  const SegmentedFit ref = reference_segmented(s, 3);
  const SegmentedFit fit = fit_segmented(s, 3);
  EXPECT_EQ(ref.knot, 0.1);
  EXPECT_EQ(ref.left.slope, 0.0);
  EXPECT_TRUE(same_bits(fit.knot, ref.knot));
  EXPECT_TRUE(same_bits(fit.left, ref.left));
  EXPECT_TRUE(same_bits(fit.right, ref.right));
  EXPECT_TRUE(same_bits(fit.sse, ref.sse));
}

TEST(SegmentedFit, ThrowsLikeTheReferenceWhenNoSplitIsValid) {
  // Two runs of equal x; and distinct x so close to 0 that every squared
  // deviation fit_linear computes underflows to zero.
  Series runs("two-runs");
  for (int i = 0; i < 6; ++i) runs.add(i < 3 ? 1.0 : 2.0, i);
  Series tiny("tiny-x");
  for (int i = 1; i <= 12; ++i) tiny.add(1e-170 * i, i);
  for (const Series* s : {&runs, &tiny}) {
    const Outcome want = run(reference_segmented, *s, 3);
    const Outcome got = run(fit_segmented, *s, 3);
    EXPECT_EQ(want.error, "fit_segmented: no valid split found");
    EXPECT_EQ(got.error, want.error);
  }
}

TEST(SegmentedFit, ConstantLevelKeepsTheFirstSplitWithinRounding) {
  // A constant y fits exactly at every split. The exhaustive search then
  // ranks the splits by the rounding of its two-pass means (SSEs near
  // 1e-27 for a non-integer level), and SST, itself zero or rounding, gives
  // no scale to call that a tie, which is why the seeded comparison above
  // draws integer levels. What holds for any level: every split scores
  // exactly 0, so the first one wins, and its residuals are rounding.
  Rng rng(7);
  for (int c = 0; c < 500; ++c) {
    const double level = rng.uniform(-20.0, 20.0);
    const std::size_t min_seg = 2 + rng.uniform_below(4);
    const std::size_t n = 10 + rng.uniform_below(291);
    const bool uniform_x = rng.uniform_below(2) == 0;
    Series s("flat");
    for (std::size_t i = 1; i <= n; ++i) {
      s.add(uniform_x ? rng.uniform(0.0, static_cast<double>(n))
                      : static_cast<double>(i),
            level);
    }
    const SegmentedFit fit = fit_segmented(s, min_seg);
    EXPECT_EQ(fit.knot, s[min_seg - 1].x);
    const double ulps = 64.0 * std::numeric_limits<double>::epsilon() * level;
    EXPECT_LE(fit.sse, static_cast<double>(n) * ulps * ulps);
  }
}

TEST(LinearFit, StandardErrorsShrinkWithMorePoints) {
  Rng rng(21);
  auto noisy_fit = [&](int n) {
    Series s("noisy");
    for (int i = 1; i <= n; ++i) s.add(i, 2.0 * i + rng.normal(0, 1.0));
    return fit_linear(s);
  };
  const LinearFit small = noisy_fit(10);
  const LinearFit big = noisy_fit(1000);
  EXPECT_GT(small.slope_stderr, 0.0);
  EXPECT_LT(big.slope_stderr, small.slope_stderr);
  // The true slope must be within a few standard errors.
  EXPECT_NEAR(big.slope, 2.0, 5.0 * big.slope_stderr);
}

TEST(LinearFit, ExactFitHasZeroStderr) {
  Series s("exact");
  for (int i = 1; i <= 10; ++i) s.add(i, 3.0 * i + 1.0);
  const LinearFit f = fit_linear(s);
  EXPECT_NEAR(f.slope_stderr, 0.0, 1e-10);
  EXPECT_NEAR(f.intercept_stderr, 0.0, 1e-9);
}

TEST(PowerFit, ExponentStderrPropagates) {
  Rng rng(22);
  Series s("q");
  for (double n = 2; n <= 256; n *= 2) {
    s.add(n, 1e-3 * n * n * std::exp(rng.normal(0, 0.05)));
  }
  const PowerFit f = fit_power(s);
  EXPECT_GT(f.exponent_stderr, 0.0);
  EXPECT_NEAR(f.exponent, 2.0, 4.0 * f.exponent_stderr);
}

TEST(GoodnessOfFit, SseOfPerfectFitIsZero) {
  Series s("line");
  for (int n = 1; n <= 10; ++n) s.add(n, 4.0 * n);
  EXPECT_NEAR(sse(s, [](double x) { return 4.0 * x; }), 0.0, 1e-18);
}

TEST(GoodnessOfFit, RSquaredOfMeanModelIsZero) {
  Series s("var");
  s.add(1, 1.0);
  s.add(2, 3.0);
  const double m = 2.0;
  EXPECT_NEAR(r_squared(s, [m](double) { return m; }), 0.0, 1e-12);
}

TEST(GoodnessOfFit, RSquaredConstantSeriesIsOne) {
  Series s("const");
  s.add(1, 5.0);
  s.add(2, 5.0);
  EXPECT_DOUBLE_EQ(r_squared(s, [](double) { return 5.0; }), 1.0);
}

}  // namespace
}  // namespace ipso::stats
