#pragma once

#include "stats/series.h"

#include <span>

/// \file regression.h
/// Linear, power-law and segmented regression — the workhorses of Section V's
/// scaling-factor estimation (Figs. 5 and 6 of the paper fit IN(n) with
/// straight lines and a changepoint; ε(n) and q(n) are fitted as power laws
/// α·n^δ and β·n^γ via log-log OLS).

namespace ipso::stats {

/// Result of an ordinary least-squares straight-line fit y = slope·x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;  ///< coefficient of determination in the fit range
  double slope_stderr = 0.0;      ///< standard error of the slope (0 if n<3)
  double intercept_stderr = 0.0;  ///< standard error of the intercept

  /// Evaluates the fitted line.
  double operator()(double x) const noexcept { return slope * x + intercept; }
};

/// OLS straight-line fit. Requires at least two points with distinct x.
LinearFit fit_linear(const Series& s);

/// OLS on raw spans (sizes must match, >= 2 distinct x).
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Result of a power-law fit y = coeff · x^exponent (x, y > 0 required).
struct PowerFit {
  double coeff = 1.0;
  double exponent = 0.0;
  double r_squared = 0.0;
  /// Standard error of the exponent (from the log-log OLS). Decides
  /// borderline classifications: a fitted gamma of 1.04 +- 0.10 is
  /// consistent with the IIIt,2 boundary, 1.04 +- 0.01 is not.
  double exponent_stderr = 0.0;

  /// Evaluates the fitted power law.
  double operator()(double x) const noexcept;
};

/// Log-log OLS power-law fit y = c·x^e. Points with x <= 0 or y <= 0 are
/// skipped (q(1) = 0 is legitimate data but cannot enter a log fit).
PowerFit fit_power(const Series& s);

/// Result of a two-segment piecewise-linear fit with a changepoint at x = knot.
/// Models Fig. 5 of the paper: TeraSort's IN(n) has slope ~0.15 before the
/// reducer-memory overflow and ~0.25 after it, with a jump at the knot.
struct SegmentedFit {
  LinearFit left;    ///< fit over x <= knot
  LinearFit right;   ///< fit over x > knot
  double knot = 0.0; ///< changepoint location
  double sse = 0.0;  ///< total sum of squared errors of the two segments

  /// Evaluates the piecewise line.
  double operator()(double x) const noexcept {
    return x <= knot ? left(x) : right(x);
  }

  /// True when the two segments differ enough (slope ratio or level jump)
  /// to call the series "step-wise" in the paper's sense.
  bool has_breakpoint(double min_slope_ratio = 1.2) const noexcept;
};

/// Changepoint search over every interior split with at least `min_seg`
/// points per side, returning the split minimizing total SSE. Requires at
/// least 2·min_seg points (std::invalid_argument otherwise, and when no
/// split is valid).
///
/// O(n) time and memory: each split is scored in O(1) from running centered
/// moments of its prefix and suffix (SSE = Cyy - Cxy²/Cxx per side), and
/// only the winner is refitted with fit_linear, so `left`, `right`, `knot`
/// and `sse` are exactly what fitting that split directly gives.
/// Ties: the first split (smallest index) with the strictly smallest score
/// wins; where splits' SSEs differ only by rounding (an exact line, a
/// constant y), that rounding picks the winner. Valid splits: a split is
/// skipped exactly when fit_linear would throw on one of its sides (all x
/// equal, unless their computed mean is inexact).
SegmentedFit fit_segmented(const Series& s, std::size_t min_seg = 3);

/// Residual sum of squares of a fitted callable against a series.
template <typename F>
double sse(const Series& s, F&& f) noexcept {
  double acc = 0.0;
  for (const auto& p : s) {
    const double r = p.y - f(p.x);
    acc += r * r;
  }
  return acc;
}

/// R² of a fitted callable against a series (1 - SSE/SST); returns 1 when the
/// series has zero variance.
template <typename F>
double r_squared(const Series& s, F&& f) noexcept {
  if (s.empty()) return 1.0;
  double m = 0.0;
  for (const auto& p : s) m += p.y;
  m /= static_cast<double>(s.size());
  double sst = 0.0;
  for (const auto& p : s) sst += (p.y - m) * (p.y - m);
  if (sst == 0.0) return 1.0;
  return 1.0 - sse(s, f) / sst;
}

}  // namespace ipso::stats
