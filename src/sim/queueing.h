#pragma once

#include <cstddef>

/// \file queueing.h
/// Queueing-theoretic contention models. The paper (Section II) cites the
/// queuing-network analysis of [9] (Che & Nguyen): "any resource contention
/// among parallel tasks is guaranteed to induce an effective serial
/// workload, resulting in lower speedup than that predicted by the existing
/// laws". This module provides a shared-resource contention model that
/// injects exactly that effect into the simulated cluster.

namespace ipso::sim {

/// Contention on one shared resource (DFS namenode, shared disk array,
/// memory bus...). Each of the n parallel tasks directs a fraction `phi`
/// of its work through the resource, whose capacity is `capacity`
/// task-equivalents of that work. Under processor sharing the contended
/// portion stretches by 1/(1 - rho) with utilization rho = n·phi/capacity,
/// so one task's slowdown is
///
///   slowdown(n) = (1 - phi) + phi / (1 - rho(n)),  rho < 1.
///
/// As n approaches capacity/phi the slowdown diverges: the resource has
/// become an effective serial workload, the [9] result.
class SharedResourceContention {
 public:
  /// phi in [0, 1); capacity > 0. Throws std::invalid_argument otherwise.
  SharedResourceContention(double phi, double capacity);

  /// Per-task duration multiplier at scale-out degree n (>= 1). When the
  /// offered load reaches `saturation_cap` of capacity the slowdown is
  /// clamped there (a real resource saturates rather than diverges).
  double slowdown(std::size_t n) const noexcept;

  /// Utilization rho(n), clamped to [0, saturation).
  double utilization(std::size_t n) const noexcept;

  /// The scale-out degree at which the resource saturates (rho = 1).
  double saturation_n() const noexcept;

  /// Contended work fraction.
  double phi() const noexcept { return phi_; }

 private:
  static constexpr double kSaturation = 0.98;  ///< rho clamp
  double phi_;
  double capacity_;
};

}  // namespace ipso::sim
