#pragma once

#include "core/fit.h"
#include "core/workload.h"
#include "mapreduce/engine.h"
#include "sim/cluster.h"
#include "spark/engine.h"
#include "stats/series.h"

#include <vector>

/// \file experiment.h
/// Experiment sweeps: the configuration and result types of a sweep over
/// scale-out degrees that runs both the parallel and the sequential
/// execution model at each point and extracts the measured speedup plus the
/// normalized scaling factors — exactly the measurement procedure of paper
/// Section V. Results are averages over repetitions ("the data presented
/// are average results of multiple experimental runs").
/// trace::ExperimentRunner (runner.h) runs the sweeps.

namespace ipso::trace {

/// The HDFS-block memory budget per processing unit used by the
/// memory-bounded (Sun-Ni) sweep mode (paper: "e.g., 128 MB").
inline constexpr double kMemoryBlockBytes = 128e6;

/// Sweep parameters.
struct MrSweepConfig {
  WorkloadType type = WorkloadType::kFixedTime;
  std::vector<double> ns;      ///< scale-out degrees to sweep
  /// Fixed-time: input bytes per map task (a 128 MB block by default).
  /// Fixed-size: total working-set bytes, split across the n tasks.
  /// Memory-bounded: total working-set bytes; each unit takes at most one
  /// 128 MB block, so EX(n) = g(n) grows ~n until the data is exhausted.
  double bytes = 128e6;
  std::size_t repetitions = 3;  ///< averaged runs per point
  std::uint64_t seed = 1;
  double measurement_precision = 0.0;  ///< 1.0 reproduces the paper's clock
  /// Fault injection applied to every job of the sweep (sim::FaultModel);
  /// inactive by default. Failure draws are deterministic per
  /// (seed, n, task, attempt), so sweep results stay bit-identical at any
  /// runner thread count.
  sim::FaultModelParams faults{};
};

/// One sweep point, averaged over repetitions.
struct MrSweepPoint {
  double n = 1.0;
  double parallel_time = 0.0;    ///< mean parallel makespan
  double sequential_time = 0.0;  ///< mean sequential-model makespan
  double speedup = 0.0;          ///< sequential / parallel
  WorkloadComponents components; ///< mean Wp/Ws/Wo/maxTp attribution
  bool spilled = false;          ///< reducer memory overflowed
  sim::FaultStats faults;        ///< fault counters summed over repetitions
};

/// Full sweep result with derived factor series.
struct MrSweepResult {
  std::vector<MrSweepPoint> points;
  stats::Series speedup;   ///< measured S(n)
  FactorMeasurements factors;  ///< normalized EX/IN/q and eta (Section V)
  double tp1 = 0.0;  ///< E[Tp,1(1)]: parallel workload at n = 1, time units
  double ts1 = 0.0;  ///< E[Ts(1)]: serial workload at n = 1
};

/// Gustafson / Amdahl baseline curve over the sweep's n values, using the
/// sweep's measured eta (for side-by-side tables as in Figs. 4, 7, 8).
stats::Series law_baseline(const MrSweepResult& result, WorkloadType type);

/// Spark sweep parameters (paper Section V.B): scale the parallel degree m
/// while either keeping N/m fixed (fixed-time dimension, Fig. 9) or keeping
/// N fixed (fixed-size dimension, Fig. 10).
struct SparkSweepConfig {
  WorkloadType type = WorkloadType::kFixedTime;
  std::vector<double> ms;  ///< parallel degrees to sweep
  std::size_t tasks_per_executor = 4;  ///< N/m for the fixed-time dimension
  std::size_t total_tasks = 96;        ///< N for the fixed-size dimension
  std::uint64_t seed = 1;
  spark::SparkEngineParams params{};
};

/// One Spark sweep point.
struct SparkSweepPoint {
  double m = 1.0;
  std::size_t total_tasks = 1;
  double parallel_time = 0.0;
  double sequential_time = 0.0;
  double speedup = 0.0;
  WorkloadComponents components;
  bool spilled = false;
  sim::FaultStats faults;  ///< fault counters of the parallel run
};

/// Spark sweep result.
struct SparkSweepResult {
  std::vector<SparkSweepPoint> points;
  stats::Series speedup;       ///< measured S(m)
  FactorMeasurements factors;  ///< EX/IN/q normalized; eta from m = 1
  double tp1 = 0.0;
  double ts1 = 0.0;
};

}  // namespace ipso::trace
