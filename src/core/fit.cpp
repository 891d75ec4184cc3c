#include "core/fit.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ipso {

/// Last max(size/2, min_points) points of a series (the asymptotic tail of a
/// geometric sweep).
stats::Series tail_half(const stats::Series& s, std::size_t min_points);

Expected<stats::Series> epsilon_series(const stats::Series& ex,
                                       const stats::Series& in) {
  if (ex.size() != in.size()) return FitError::kLengthMismatch;
  stats::Series out("epsilon(n)");
  for (std::size_t i = 0; i < ex.size(); ++i) {
    if (ex[i].x != in[i].x) return FitError::kMisalignedSeries;
    if (in[i].y <= 0.0) return FitError::kNonPositiveValue;
    out.add(ex[i].x, ex[i].y / in[i].y);
  }
  return out;
}

Expected<stats::Series> q_series_from_workloads(const stats::Series& wo,
                                                const stats::Series& wp) {
  if (wo.size() != wp.size()) return FitError::kLengthMismatch;
  stats::Series out("q(n)");
  for (std::size_t i = 0; i < wo.size(); ++i) {
    if (wo[i].x != wp[i].x) return FitError::kMisalignedSeries;
    if (wp[i].y <= 0.0) return FitError::kNonPositiveValue;
    out.add(wo[i].x, wo[i].y * wo[i].x / wp[i].y);
  }
  return out;
}

Expected<stats::SegmentedFit> detect_in_changepoint(const stats::Series& in,
                                                    std::size_t min_seg) {
  if (in.size() < 2 * min_seg) return FitError::kInsufficientData;
  stats::SegmentedFit seg;
  try {
    seg = stats::fit_segmented(in, min_seg);
  } catch (const std::invalid_argument&) {
    return FitError::kFitFailed;
  }
  if (!seg.has_breakpoint()) return FitError::kNoChangepoint;
  // The segmented model must beat a single line by a clear margin, or the
  // "changepoint" is just noise.
  stats::LinearFit single;
  try {
    single = stats::fit_linear(in);
  } catch (const std::invalid_argument&) {
    return seg;
  }
  const double single_sse = stats::sse(in, single);
  // A single line that fits to within rounding leaves nothing to split. The
  // sums of a least-squares fit over k points round each residual by up to
  // ~k ulps of its y (measured: 0.13·k on flat series). A flat IN(n) with a
  // non-integer level leaves just that, both SSEs are ~1e-27, and comparing
  // them would find a "changepoint" in the rounding noise.
  const double ulps =
      static_cast<double>(in.size()) * std::numeric_limits<double>::epsilon();
  double rounding_floor = 0.0;
  for (const auto& p : in) rounding_floor += (ulps * p.y) * (ulps * p.y);
  if (single_sse <= rounding_floor) return FitError::kNoChangepoint;
  if (seg.sse < 0.5 * single_sse) return seg;
  return FitError::kNoChangepoint;
}

Expected<FactorFits> fit_factors(WorkloadType type,
                                 const FactorMeasurements& m) {
  // Reject out-of-domain η at the boundary with a named error: silently
  // fitting under η ∉ [0,1] would produce a plausible-but-wrong taxonomy
  // (the classifier's η = 1 boundary separates Eq. 16 from Eq. 17).
  if (!Eta::try_make(m.eta).has_value()) return FitError::kOutOfDomain;
  FactorFits out;
  out.params.type = type;
  out.params.eta = m.eta;

  if (m.eta < 1.0 && !m.in.empty()) {
    // ε(n) = α·n^δ only asymptotically; fitting the tail of the measured
    // ratio keeps a saturating ε (δ -> 0) from reading as a growing one.
    const Expected<stats::Series> eps = epsilon_series(m.ex, m.in);
    if (!eps) return eps.error();
    const stats::Series eps_tail = tail_half(*eps, 3);
    try {
      out.epsilon_fit = stats::fit_power(eps_tail);
    } catch (const std::invalid_argument&) {
      return FitError::kFitFailed;
    }
    out.params.alpha = out.epsilon_fit.coeff;
    out.params.delta = out.epsilon_fit.exponent;

    // The paper's domain is 0 <= delta <= 1 ("IN(n) is unlikely to scale
    // down or scale up superlinearly fast"). Raw fits can step outside it —
    // e.g. a step-wise IN(n) makes the epsilon tail dip — so clamp delta
    // and refit alpha as the tail level consistent with the clamped
    // exponent.
    if (out.params.delta < 0.0 || out.params.delta > 1.0) {
      out.params.delta = std::clamp(out.params.delta, 0.0, 1.0);
      double acc = 0.0;
      for (const auto& p : eps_tail) {
        acc += p.y / std::pow(p.x, out.params.delta);
      }
      out.params.alpha = acc / static_cast<double>(eps_tail.size());
    }

    try {
      out.in_linear = stats::fit_linear(m.in);
    } catch (const std::invalid_argument&) {
      out.in_linear = FitError::kFitFailed;
    }
    out.in_segmented = detect_in_changepoint(m.in);
    out.in_has_changepoint = out.in_segmented.has_value();
  } else {
    // η = 1: ε is undefined (paper remark under Eq. 16); α cancels.
    out.params.alpha = 1.0;
    out.params.delta = type == WorkloadType::kFixedSize ? 0.0 : 1.0;
    out.epsilon_fit = {1.0, out.params.delta, 1.0};
    out.in_linear = m.in.empty() ? FitError::kNotMeasured
                                 : FitError::kNoSerialComponent;
    out.in_segmented = FitError::kNoSerialComponent;
  }

  if (type == WorkloadType::kFixedSize) {
    // Without external scaling the serial portion cannot scale either;
    // anything that grows with n is scale-out-induced (paper Section IV).
    out.params.delta = 0.0;
  }

  // q(n): keep only n > 1 (q(1) = 0 carries no log-fit information) and
  // require a non-negligible magnitude before declaring scale-out scaling.
  // The paper does the same: it measures Wo for all four MapReduce cases,
  // finds it "negligibly small" and drops it. Without a threshold, the few
  // milliseconds of dispatch cost every real system has would classify
  // every workload as pathological at some astronomically large n.
  constexpr double kNegligibleQ = 0.15;
  stats::Series q_pos("q(n>1)");
  double q_max = 0.0;
  for (const auto& p : m.q) {
    if (p.x > 1.0 && p.y > 0.0) {
      q_pos.add(p.x, p.y);
      q_max = std::max(q_max, p.y);
    }
  }
  if (q_pos.size() >= 2 && q_max > kNegligibleQ) {
    // Fit gamma on the tail: q(n) = beta*n^gamma holds asymptotically
    // (Eq. 15), and small-n points distort the exponent. The fit is bound to
    // a local before entering q_fit so no Expected is dereferenced — the
    // lint wall bans unchecked access paths in src/ even when a preceding
    // assignment makes them safe.
    const stats::Series q_tail = tail_half(q_pos, 3);
    stats::PowerFit q_power;
    try {
      q_power = stats::fit_power(q_tail);
    } catch (const std::invalid_argument&) {
      return FitError::kFitFailed;
    }
    out.q_fit = q_power;
    out.params.beta = q_power.coeff;
    out.params.gamma = q_power.exponent;

    // The model's domain is gamma >= 0 (AsymptoticParams, classify): a
    // falling q tail is overhead that does not grow with n. Clamp gamma to 0
    // and refit beta as the tail level, as the delta clamp does for alpha;
    // q_fit keeps the raw fit, so the falling exponent stays visible.
    if (out.params.gamma < 0.0) {
      out.params.gamma = 0.0;
      double acc = 0.0;
      for (const auto& p : q_tail) acc += p.y;
      out.params.beta = acc / static_cast<double>(q_tail.size());
    }
  } else {
    // Distinguish "Wo was never measured" from "measured and negligible" —
    // the paper's MapReduce cases are all the latter.
    out.q_fit = m.q.empty() ? FitError::kNotMeasured
                            : FitError::kNegligibleOverhead;
    out.params.beta = 0.0;
    out.params.gamma = 0.0;
  }
  return out;
}

stats::Series tail_half(const stats::Series& s, std::size_t min_points) {
  if (s.size() <= min_points) return s;
  const std::size_t keep = std::max(min_points, s.size() / 2);
  stats::Series tail(s.name() + " tail");
  for (std::size_t i = s.size() - keep; i < s.size(); ++i) {
    tail.add(s[i].x, s[i].y);
  }
  return tail;
}

Expected<stats::PowerFit> fit_tail_growth(const stats::Series& speedup) {
  if (speedup.size() < 3) return FitError::kInsufficientData;
  // Experiment sweeps are usually geometric in n, so "the tail" is the last
  // half of the points, not the upper half of the x-range (which would keep
  // a single point).
  try {
    return stats::fit_power(tail_half(speedup, 3));
  } catch (const std::invalid_argument&) {
    return FitError::kFitFailed;
  }
}

}  // namespace ipso
