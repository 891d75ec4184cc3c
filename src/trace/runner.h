#pragma once

#include "runtime/exec_pool.h"
#include "trace/experiment.h"

#include <cstddef>
#include <functional>
#include <string>

#include "core/sync.h"

/// \file runner.h
/// ExperimentRunner: the parallel sweep engine behind every experiment in
/// this repository. A sweep's (workload, n, repetition) grid decomposes
/// into independent simulator runs — each task's RNG seed is derived only
/// from (base seed, n, rep), and repetition averages are reduced in
/// repetition order — so results are bit-identical to the historical serial
/// harness at any thread count.

namespace ipso::trace {

/// Runner configuration.
struct RunnerConfig {
  /// Worker threads. 0 = IPSO_THREADS environment variable if set,
  /// otherwise the hardware concurrency.
  std::size_t threads = 0;
};

/// Aggregate counters across every sweep a runner has executed.
struct RunnerMetrics {
  std::size_t sweeps_run = 0;       ///< completed sweep calls
  std::size_t tasks_completed = 0;  ///< simulator tasks executed
  double busy_seconds = 0.0;        ///< summed per-task wall time
  double wall_seconds = 0.0;        ///< summed per-sweep wall time
};

/// One completed sweep task, reported through the progress callback.
struct TaskEvent {
  std::string sweep;           ///< sweep label (workload name or "spark")
  double n = 1.0;              ///< scale-out degree of the task
  std::size_t rep = 0;         ///< repetition index (0 for Spark points)
  std::size_t completed = 0;   ///< tasks finished so far in this sweep
  std::size_t total = 0;       ///< total tasks in this sweep
  double wall_seconds = 0.0;   ///< wall time of this task
  /// Aggregate counters snapshotted atomically with `completed`: the event
  /// stream observes metrics.tasks_completed strictly increasing.
  RunnerMetrics metrics;
};

/// Owns the thread pool, the progress callback, and the metrics. Safe to
/// reuse across many sweeps; a single sweep call uses the whole pool.
class ExperimentRunner {
 public:
  using ProgressCallback = std::function<void(const TaskEvent&)>;

  explicit ExperimentRunner(RunnerConfig cfg = {});

  /// Installs a progress callback, invoked once per finished task. Called
  /// from worker threads, but never concurrently (an internal mutex
  /// serializes invocations), and delivered in counter order: successive
  /// events carry strictly increasing `completed` and metrics snapshots.
  /// The callback may call metrics() — the counters are guarded by a
  /// different mutex than the one serializing delivery.
  void on_progress(ProgressCallback cb) IPSO_EXCLUDES(mu_);

  /// Resolved worker-thread count.
  std::size_t threads() const noexcept { return pool_.size(); }

  /// Parallel MapReduce sweep; bit-identical to the serial procedure of
  /// paper Section V (see experiment.h for the semantics of `sweep`).
  /// `base` supplies every cluster parameter except the worker count, which
  /// is overridden per point. Throws on an empty sweep.
  MrSweepResult run_mr_sweep(const mr::MrWorkloadSpec& workload,
                             const sim::ClusterConfig& base,
                             const MrSweepConfig& sweep);

  /// Parallel Spark sweep (paper Section V.B). `app_for` builds the
  /// application for a given N (CF divides a fixed total workload across N
  /// tasks; the ML apps ignore N in their per-task costs). It is invoked
  /// from worker threads and must be thread-safe; the bundled Spark app
  /// builders are pure functions of their argument. `base` supplies cluster
  /// parameters; workers are overridden with m at each point.
  SparkSweepResult run_spark_sweep(
      const std::function<spark::SparkAppSpec(std::size_t)>& app_for,
      const sim::ClusterConfig& base, const SparkSweepConfig& sweep);

  /// Snapshot of the aggregate counters.
  RunnerMetrics metrics() const IPSO_EXCLUDES(mu_);

 private:
  void record_task(const std::string& sweep_label, double n, std::size_t rep,
                   std::size_t total, std::size_t* completed,
                   double wall_seconds) IPSO_EXCLUDES(progress_mu_, mu_);

  runtime::ExecPool pool_;
  /// Outer delivery lock: held across counter update + snapshot + callback,
  /// so events arrive serialized and in counter order. Guards no fields by
  /// design — it exists purely to order deliveries, so the guarded-by audit
  /// is waived for it. DESIGN.md §13, capability "trace.progress", acquired
  /// strictly before mu_.
  sync::Mutex progress_mu_  // NOLINT(guarded-by-audit): pure delivery-ordering lock; state lives under mu_
      IPSO_ACQUIRED_BEFORE(mu_);
  /// Inner state lock (metrics_ and progress_). Never held while the user
  /// callback runs, so a callback may call metrics() without deadlocking.
  /// DESIGN.md §13, capability "trace.runner".
  mutable sync::Mutex mu_;
  ProgressCallback progress_ IPSO_GUARDED_BY(mu_);
  RunnerMetrics metrics_ IPSO_GUARDED_BY(mu_);
};

}  // namespace ipso::trace
