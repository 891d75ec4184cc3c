#include "sim/queueing.h"

#include <algorithm>
#include <stdexcept>

namespace ipso::sim {

SharedResourceContention::SharedResourceContention(double phi,
                                                   double capacity)
    : phi_(phi), capacity_(capacity) {
  if (phi_ < 0.0 || phi_ >= 1.0) {
    throw std::invalid_argument("SharedResourceContention: phi in [0, 1)");
  }
  if (capacity_ <= 0.0) {
    throw std::invalid_argument(
        "SharedResourceContention: capacity must be positive");
  }
}

double SharedResourceContention::utilization(std::size_t n) const noexcept {
  const double rho = static_cast<double>(n) * phi_ / capacity_;
  return std::min(rho, kSaturation);
}

double SharedResourceContention::slowdown(std::size_t n) const noexcept {
  if (phi_ == 0.0) return 1.0;
  const double rho = utilization(n);
  return (1.0 - phi_) + phi_ / (1.0 - rho);
}

double SharedResourceContention::saturation_n() const noexcept {
  if (phi_ == 0.0) return 1e300;
  return capacity_ / phi_;
}

}  // namespace ipso::sim
