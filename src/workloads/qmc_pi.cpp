#include "workloads/qmc_pi.h"

namespace ipso::wl {

double van_der_corput(std::uint64_t index, std::uint32_t base) noexcept {
  double result = 0.0;
  double denom = 1.0;
  while (index > 0) {
    denom *= base;
    result += static_cast<double>(index % base) / denom;
    index /= base;
  }
  return result;
}

QmcTally qmc_map(std::uint64_t offset, std::uint64_t samples) noexcept {
  QmcTally t;
  for (std::uint64_t i = 0; i < samples; ++i) {
    // Halton point (base-2, base-3), shifted to the cell centre like the
    // Hadoop example does (index + 1 avoids the origin).
    const double x = van_der_corput(offset + i + 1, 2) - 0.5;
    const double y = van_der_corput(offset + i + 1, 3) - 0.5;
    if (x * x + y * y <= 0.25) {
      ++t.inside;
    } else {
      ++t.outside;
    }
  }
  return t;
}

double qmc_estimate(const QmcTally* tallies, std::size_t count) noexcept {
  std::uint64_t inside = 0, total = 0;
  for (std::size_t i = 0; i < count; ++i) {
    inside += tallies[i].inside;
    total += tallies[i].inside + tallies[i].outside;
  }
  if (total == 0) return 0.0;
  return 4.0 * static_cast<double>(inside) / static_cast<double>(total);
}

mr::MrWorkloadSpec qmc_pi_spec() {
  mr::MrWorkloadSpec spec;
  spec.name = "QMC";
  // ~10 ops per sample-byte keeps task times in the paper's regime
  // (a 128 MB-equivalent slice runs ~12.8 s on the default cluster).
  spec.map_ops_per_byte = 10.0;
  spec.intermediate_ratio = 0.0;
  spec.fixed_intermediate_bytes = 16.0;  // two 8-byte counters per task
  spec.merge_ops_per_byte = 1.0;
  spec.fixed_reduce_ops = 1e6;  // summing + writing one number: ~10 ms
  spec.spill_enabled = false;
  return spec;
}

}  // namespace ipso::wl
