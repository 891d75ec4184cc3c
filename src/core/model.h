#pragma once

#include "core/domain.h"
#include "core/scaling_factors.h"
#include "core/workload.h"

/// \file model.h
/// The IPSO speedup model itself: the statistical form (Eq. 8), the
/// deterministic form (Eq. 10), and the asymptotic form (Eqs. 16-17).

namespace ipso {

/// Measured quantities needed by the statistical IPSO formula (Eq. 8).
/// All times are in the same (arbitrary) unit.
struct StatisticalInputs {
  double e_max_tp = 0.0;  ///< E[max_i Tp,i(n)]: mean slowest-task time at n
  double e_tp1 = 0.0;     ///< E[Tp,1(1)]: mean parallel workload time at n = 1
  double e_ts1 = 0.0;     ///< E[Ts(1)]: mean serial workload time at n = 1
};

/// Statistical IPSO speedup (Eq. 8) at scale-out degree n given the scaling
/// factors and the measured task-time statistics. Degenerates to Eq. 10 when
/// e_max_tp equals tp(1)·EX(n)/n.
[[nodiscard]] double speedup_statistical(const ScalingFactors& f,
                                         const StatisticalInputs& m,
                                         NodeCount n);

/// Deterministic IPSO speedup (Eq. 10): every parallel task takes the same
/// time, so E[max Tp,i(n)] = tp(n) = Wp(n)/n. The domain types validate
/// η ∈ [0,1] and n ≥ 1 at the call boundary (contracts.h).
[[nodiscard]] double speedup_deterministic(const ScalingFactors& f, Eta eta,
                                           NodeCount n);

/// Asymptotic IPSO speedup (Eq. 16; Eq. 17 when eta = 1):
/// S(n) ≈ (η·α·n^δ + 1-η) / (η·α·n^(δ-1)·(1+β·n^γ) + 1-η).
[[nodiscard]] double speedup_asymptotic(const AsymptoticParams& p,
                                        NodeCount n);

/// Speedup directly from measured workload components (Eq. 7).
[[nodiscard]] double speedup_from_components(
    const WorkloadComponents& c) noexcept;

/// Parallelizable fraction η from the n = 1 workload split (Eq. 9/11).
/// Negative time components are a caller bug and trip the η-domain contract.
[[nodiscard]] Eta eta_from_times(double tp1, double ts1);

}  // namespace ipso
