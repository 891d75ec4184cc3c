#include "stats/regression.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace ipso::stats {

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("fit_linear: xs/ys size mismatch");
  }
  const std::size_t n = xs.size();
  if (n < 2) throw std::invalid_argument("fit_linear: need >= 2 points");

  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) throw std::invalid_argument("fit_linear: degenerate x");

  LinearFit f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  if (syy == 0.0) {
    f.r_squared = 1.0;
  } else {
    f.r_squared = (sxy * sxy) / (sxx * syy);
  }
  if (n > 2) {
    // Residual variance and the classical OLS standard errors.
    double sse_acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = ys[i] - f(xs[i]);
      sse_acc += r * r;
    }
    const double sigma2 = sse_acc / static_cast<double>(n - 2);
    f.slope_stderr = std::sqrt(sigma2 / sxx);
    f.intercept_stderr =
        std::sqrt(sigma2 * (1.0 / static_cast<double>(n) + mx * mx / sxx));
  }
  return f;
}

LinearFit fit_linear(const Series& s) {
  const auto xs = s.xs();
  const auto ys = s.ys();
  return fit_linear(xs, ys);
}

double PowerFit::operator()(double x) const noexcept {
  return coeff * std::pow(x, exponent);
}

PowerFit fit_power(const Series& s) {
  Series logs("log " + s.name());
  for (const auto& p : s) {
    if (p.x > 0.0 && p.y > 0.0) logs.add(std::log(p.x), std::log(p.y));
  }
  if (logs.size() < 2) {
    throw std::invalid_argument("fit_power: need >= 2 positive points");
  }
  const LinearFit lf = fit_linear(logs);
  PowerFit pf;
  pf.exponent = lf.slope;
  pf.coeff = std::exp(lf.intercept);
  pf.r_squared = lf.r_squared;
  pf.exponent_stderr = lf.slope_stderr;
  return pf;
}

bool SegmentedFit::has_breakpoint(double min_slope_ratio) const noexcept {
  const double a = std::abs(left.slope);
  const double b = std::abs(right.slope);
  if (a == 0.0 && b == 0.0) {
    // Two flats: a breakpoint exists only if the levels jump.
    return std::abs(right.intercept - left.intercept) >
           0.05 * std::max(1.0, std::abs(left.intercept));
  }
  const double hi = std::max(a, b);
  const double lo = std::min(a, b);
  if (lo == 0.0) return true;
  if (hi / lo >= min_slope_ratio) return true;
  // Same slope but a level jump at the knot also counts as step-wise.
  const double jump = std::abs(right(knot) - left(knot));
  return jump > 0.1 * std::max(1.0, std::abs(left(knot)));
}

namespace {

/// Running moments of one side of a split: count, means and centered
/// (co)moments Cxx, Cxy, Cyy by Welford updates, which stay accurate when
/// the data sit far from zero (raw sums of x², xy, y² cancel
/// catastrophically there), plus the x range and the running sum of x that
/// decide whether fit_linear would accept the side.
struct SideMoments {
  double count = 0.0;
  double mx = 0.0, my = 0.0;
  double cxx = 0.0, cxy = 0.0, cyy = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  double sum_x = 0.0;

  void add(double x, double y) noexcept {
    count += 1.0;
    const double dx = x - mx;
    const double dy = y - my;
    mx += dx / count;
    my += dy / count;
    cxx += dx * (x - mx);
    cxy += dx * (y - my);
    cyy += dy * (y - my);
    if (x < lo) lo = x;
    if (x > hi) hi = x;
    sum_x += x;
  }

  /// Whether fit_linear accepts the side's x values `xs`. It throws exactly
  /// when its two-pass Sxx is zero, i.e. every squared deviation from its
  /// mean (sum / count) is zero. Two x values more than kWideSpan apart
  /// leave a deviation whose square is a normal double, so the side is
  /// accepted. Equal x values are rejected unless their mean rounds away
  /// from them (three copies of 0.1 average to 0.10000000000000002); their
  /// sum is the same in either direction, so sum_x is fit_linear's sum. A
  /// side narrower than kWideSpan that is not constant needs |x| < 1e-134,
  /// and is replayed through fit_linear's own arithmetic.
  bool accepted_by_fit_linear(std::span<const double> xs) const noexcept {
    constexpr double kWideSpan = 1e-150;
    if (hi - lo > kWideSpan) return true;
    const double n = static_cast<double>(xs.size());
    if (lo == hi) {
      const double d = lo - sum_x / n;
      return d * d != 0.0;
    }
    double sx = 0.0;
    for (const double x : xs) sx += x;
    const double mean = sx / n;
    double sxx = 0.0;
    for (const double x : xs) sxx += (x - mean) * (x - mean);
    return sxx != 0.0;
  }

  /// SSE of the side's least-squares line: Cyy - Cxy^2 / Cxx. A side that
  /// fit_linear accepts with Cxx == 0 (equal x, inexact mean) is fitted by
  /// a line through its mean, leaving Cyy.
  double sse() const noexcept {
    return cxx > 0.0 ? cyy - cxy * cxy / cxx : cyy;
  }
};

}  // namespace

SegmentedFit fit_segmented(const Series& s, std::size_t min_seg) {
  if (min_seg < 2) min_seg = 2;
  if (s.size() < 2 * min_seg) {
    throw std::invalid_argument("fit_segmented: too few points");
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto xs = s.xs();
  const auto ys = s.ys();
  const std::size_t n = xs.size();
  const std::span<const double> all_x(xs);

  // suffix_sse[k]: SSE of the line through points [k, n), or +inf when
  // fit_linear would reject them, for every split k the search visits.
  std::vector<double> suffix_sse(n, kInf);
  SideMoments right;
  for (std::size_t k = n; k-- > min_seg;) {
    right.add(xs[k], ys[k]);
    if (n - k >= min_seg && right.accepted_by_fit_linear(all_x.subspan(k))) {
      suffix_sse[k] = right.sse();
    }
  }

  // Score every split in O(1); the first strict minimum wins.
  std::size_t split = 0;
  double best = kInf;
  SideMoments left;
  for (std::size_t k = 1; k + min_seg <= n; ++k) {
    left.add(xs[k - 1], ys[k - 1]);
    if (k < min_seg || suffix_sse[k] == kInf ||
        !left.accepted_by_fit_linear(all_x.first(k))) {
      continue;
    }
    const double total = left.sse() + suffix_sse[k];
    if (total < best) {
      best = total;
      split = k;
    }
  }
  if (split == 0) {
    throw std::invalid_argument("fit_segmented: no valid split found");
  }

  // Refit the winner exactly as a full search would report it.
  const std::span<const double> lx(xs.data(), split);
  const std::span<const double> ly(ys.data(), split);
  const std::span<const double> rx(xs.data() + split, n - split);
  const std::span<const double> ry(ys.data() + split, n - split);
  SegmentedFit fit;
  fit.left = fit_linear(lx, ly);
  fit.right = fit_linear(rx, ry);
  fit.knot = xs[split - 1];
  for (std::size_t i = 0; i < split; ++i) {
    const double r = ly[i] - fit.left(lx[i]);
    fit.sse += r * r;
  }
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const double r = ry[i] - fit.right(rx[i]);
    fit.sse += r * r;
  }
  return fit;
}

}  // namespace ipso::stats
