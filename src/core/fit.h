#pragma once

#include "core/domain.h"
#include "core/expected.h"
#include "core/scaling_factors.h"
#include "stats/nonlinear.h"
#include "stats/regression.h"
#include "stats/series.h"

/// \file fit.h
/// Estimation of the IPSO scaling factors from measurements — the procedure
/// of paper Section V ("Scaling Prediction"): measure per-phase times at
/// small n, attribute them to Wp/Ws/Wo, then fit EX(n), IN(n) and q(n) by
/// (segmented) linear and log-log regression.
///
/// Every entry point returns Expected instead of throwing or yielding a
/// bare std::optional, so callers can distinguish the reasons a fit is
/// absent — e.g. q(n) was never measured (FitError::kNotMeasured) versus
/// measured-but-negligible (kNegligibleOverhead) versus a failed regression.

namespace ipso {

/// Per-n factor measurements extracted from experiment traces. All series
/// are indexed by the scale-out degree n and normalized so that
/// EX(1) = IN(1) = 1 and q(1) = 0.
struct FactorMeasurements {
  double eta = 1.0;        ///< parallelizable fraction at n = 1 (Eq. 9);
                           ///< fit_factors rejects values outside [0,1]
                           ///< with FitError::kOutOfDomain
  stats::Series ex;        ///< measured EX(n) = Wp(n)/Wp(1)
  stats::Series in;        ///< measured IN(n) = Ws(n)/Ws(1); empty if Ws = 0
  stats::Series q;         ///< measured q(n) = Wo(n)·n/Wp(n); empty if Wo = 0
};

/// Result of fitting the asymptotic power laws to factor measurements.
/// The Expected members carry the reason when a component fit is absent:
///  - q_fit:        kNotMeasured (no q series) or kNegligibleOverhead
///                  (below the paper's threshold — beta is set to 0).
///  - in_linear:    kNoSerialComponent (eta = 1) or kNotMeasured.
///  - in_segmented: kNoChangepoint when IN(n) is adequately straight.
struct FactorFits {
  AsymptoticParams params;              ///< fitted (η, α, δ, β, γ) + type
  stats::PowerFit epsilon_fit;          ///< ε(n) ≈ α·n^δ (Eq. 14)
  Expected<stats::PowerFit> q_fit = FitError::kNotMeasured;  ///< q(n) ≈ β·n^γ (Eq. 15)
  Expected<stats::LinearFit> in_linear = FitError::kNotMeasured;  ///< straight-line IN(n) (Fig. 6)
  Expected<stats::SegmentedFit> in_segmented = FitError::kNotMeasured;  ///< step-wise IN(n) (Fig. 5)
  bool in_has_changepoint = false;      ///< true when IN(n) is step-wise
};

/// Builds the pointwise in-proportion ratio ε(n) = EX(n)/IN(n) from two
/// measured factor series. Errors: kLengthMismatch, kMisalignedSeries,
/// kNonPositiveValue (an IN(n) sample <= 0).
[[nodiscard]] Expected<stats::Series> epsilon_series(const stats::Series& ex,
                                                     const stats::Series& in);

/// Computes q(n) = Wo(n)·n / Wp(n) pointwise from measured workloads.
/// Errors: kLengthMismatch, kMisalignedSeries, kNonPositiveValue.
[[nodiscard]] Expected<stats::Series> q_series_from_workloads(
    const stats::Series& wo, const stats::Series& wp);

/// Fits every scaling factor and assembles AsymptoticParams. `type` selects
/// the external-scaling regime; δ is forced to 0 for fixed-size workloads
/// (paper Section IV). The params stay in the model's domain: δ is clamped
/// into [0,1] (α refit as the ε tail level) and a negative γ to 0 (β refit
/// as the q tail level), while `q_fit` keeps the raw power fit. Series may be restricted to small n by the caller
/// (the paper fits on n <= 16, TeraSort on 16..64). Errors: kOutOfDomain
/// (measured η outside [0,1]), kLengthMismatch (EX vs IN),
/// kMisalignedSeries, kNonPositiveValue, kInsufficientData, kFitFailed (a
/// regression rejected its input).
[[nodiscard]] Expected<FactorFits> fit_factors(WorkloadType type,
                                               const FactorMeasurements& m);

/// Detects a step-wise changepoint in IN(n) (Fig. 5: TeraSort's reducer
/// memory overflow). Errors: kInsufficientData (< 2*min_seg points),
/// kNoChangepoint (the two segments do not beat a single line, or a single
/// line already fits to within rounding).
[[nodiscard]] Expected<stats::SegmentedFit> detect_in_changepoint(
    const stats::Series& in, std::size_t min_seg = 3);

/// Fits the empirical growth exponent of a measured speedup curve's tail:
/// S(n) ≈ c·n^e over the upper half of the x-range. Used by the diagnostic
/// procedure to judge linear/sublinear/saturating growth from data alone.
/// Errors: kInsufficientData (< 3 points), kFitFailed.
[[nodiscard]] Expected<stats::PowerFit> fit_tail_growth(
    const stats::Series& speedup);

}  // namespace ipso
