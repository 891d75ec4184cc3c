#include "core/model.h"

#include "core/contracts.h"

#include <cmath>

namespace ipso {

double speedup_statistical(const ScalingFactors& f, const StatisticalInputs& m,
                           NodeCount n) {
  const double total1 = m.e_tp1 + m.e_ts1;
  IPSO_EXPECTS(total1 > 0.0, "speedup_statistical: zero baseline time");
  const double eta = m.e_tp1 / total1;
  const double ex = f.ex(n);
  const double in = f.in(n);
  const double num = eta * ex + (1.0 - eta) * in;
  const double den =
      m.e_max_tp / total1 + (1.0 - eta) * in + eta * ex * f.q(n) / n;
  return num / den;
}

double speedup_deterministic(const ScalingFactors& f, Eta eta, NodeCount n) {
  // η ∈ [0,1] and n ≥ 1 are guaranteed by the domain types at the boundary.
  const double ex = f.ex(n);
  const double in = f.in(n);
  const double num = eta * ex + (1.0 - eta) * in;
  const double den = eta * (ex / n) * (1.0 + f.q(n)) + (1.0 - eta) * in;
  return num / den;
}

double speedup_asymptotic(const AsymptoticParams& p, NodeCount n) {
  // q(n) ≈ β n^γ, with γ = 0 meaning q = 0 (paper convention) and q(1) = 0
  // by definition (sequential execution induces no scale-out workload).
  const double q =
      p.has_scale_out() && n > 1.0 ? p.beta * std::pow(n, p.gamma) : 0.0;
  if (p.eta >= 1.0) {
    // Eq. 17: no serial portion.
    return n / (1.0 + q);
  }
  // Fixed-size workloads have delta = 0 by definition (paper Section IV:
  // without external scaling the serial portion cannot scale either).
  const double delta =
      p.type == WorkloadType::kFixedSize ? 0.0 : p.delta;
  const double ead = p.eta * p.alpha * std::pow(n, delta);
  const double num = ead + (1.0 - p.eta);
  const double den = ead / n * (1.0 + q) + (1.0 - p.eta);
  return num / den;
}

double speedup_from_components(const WorkloadComponents& c) noexcept {
  return c.speedup();
}

Eta eta_from_times(double tp1, double ts1) {
  const double total = tp1 + ts1;
  if (total <= 0.0) return 0.0;
  return tp1 / total;  // out-of-domain (negative input) trips Eta's contract
}

}  // namespace ipso
