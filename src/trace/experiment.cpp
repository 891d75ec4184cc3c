#include "trace/experiment.h"

#include "core/laws.h"

namespace ipso::trace {

stats::Series law_baseline(const MrSweepResult& result, WorkloadType type) {
  const double eta = result.factors.eta;
  stats::Series out(type == WorkloadType::kFixedSize ? "Amdahl" : "Gustafson");
  for (const auto& p : result.points) {
    out.add(p.n, type == WorkloadType::kFixedSize
                     ? laws::amdahl(eta, p.n)
                     : laws::gustafson(eta, p.n));
  }
  return out;
}

}  // namespace ipso::trace
