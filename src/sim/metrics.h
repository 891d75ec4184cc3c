#pragma once

#include <cmath>

/// \file metrics.h
/// Phase-level timing capture for simulated job executions. The paper's
/// measurement methodology (Section V, "Scaling Prediction") breaks a
/// MapReduce job into four parts — (a) init/scheduling, (b) map, (c)
/// map-to-reduce communication, (d) reduce (shuffle/merge/reduce stages) —
/// and attributes each to Wp, Ws or Wo. PhaseBreakdown is that record.

namespace ipso::sim {

/// Simulated wall-clock durations of one job execution, by phase. All in
/// simulated seconds; phases absent from a given engine stay 0.
struct PhaseBreakdown {
  double init = 0.0;       ///< (a) environment init + job scheduling
  double map = 0.0;        ///< (b) split/map phase (barrier to last task)
  double comm = 0.0;       ///< (c) map->reduce communication / broadcast
  double shuffle = 0.0;    ///< (d1) reducer pulling mapper outputs
  double merge = 0.0;      ///< (d2) merging intermediate results
  double reduce = 0.0;     ///< (d3) final reduce producing the result
  double spill = 0.0;      ///< disk I/O caused by memory overflow (inside d2)

  /// End-to-end job time.
  double total() const noexcept {
    return init + map + comm + shuffle + merge + reduce;
  }

  /// Serial (merge-phase) portion: everything after the map barrier.
  double serial() const noexcept { return shuffle + merge + reduce; }

  /// Quantizes every phase to the given measurement precision (the paper's
  /// testbed measured with 1-second precision; sub-second map phases became
  /// unmeasurable). Returns the quantized copy.
  PhaseBreakdown quantized(double precision) const noexcept;
};

}  // namespace ipso::sim
