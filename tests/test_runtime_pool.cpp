#include "runtime/exec_pool.h"

#include "trace/experiment.h"
#include "trace/cli_opts.h"
#include "trace/runner.h"
#include "workloads/sort.h"
#include "workloads/spark_apps.h"
#include "workloads/terasort.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

namespace ipso {
namespace {

TEST(ExecPool, RunsSubmittedJobs) {
  runtime::ExecPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ExecPool, ParallelForCoversEveryIndexExactlyOnce) {
  runtime::ExecPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&hits](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecPool, ParallelForZeroCountIsANoOp) {
  runtime::ExecPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ExecPool, ParallelForPropagatesException) {
  runtime::ExecPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable after a failed parallel_for.
  std::atomic<int> counter{0};
  pool.parallel_for(10, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ExecPool, ParallelForLateThrowRace) {
  // Regression for an unguarded read found by thread-safety analysis:
  // parallel_for used to read the shared exception slot after the
  // completion wait with no lock held, racing a helper whose throw landed
  // on the final index (the `failed` flag flips before the pointer is
  // written). The error is now copied out under the mutex. Throwing on the
  // *last* index maximizes the window; TSan (CI matrix) sees the write
  // unsynchronized if the fix regresses.
  runtime::ExecPool pool(4);
  for (int round = 0; round < 50; ++round) {
    constexpr std::size_t kCount = 64;
    bool threw = false;
    try {
      pool.parallel_for(kCount, [](std::size_t i) {
        if (i == kCount - 1) throw std::runtime_error("late boom");
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "late boom");
    }
    EXPECT_TRUE(threw) << "round " << round;
  }
}

TEST(ExecPool, SingleWorkerPoolCompletes) {
  runtime::ExecPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(DefaultThreadCount, ExplicitRequestWins) {
  ::setenv("IPSO_THREADS", "2", 1);
  EXPECT_EQ(runtime::default_thread_count(5), 5u);
  ::unsetenv("IPSO_THREADS");
}

TEST(DefaultThreadCount, ReadsEnvironmentVariable) {
  ::setenv("IPSO_THREADS", "3", 1);
  EXPECT_EQ(runtime::default_thread_count(), 3u);
  ::setenv("IPSO_THREADS", "garbage", 1);
  EXPECT_GE(runtime::default_thread_count(), 1u);
  ::unsetenv("IPSO_THREADS");
}

// --- Determinism: the tentpole guarantee. A sweep run on 1, 2, and 8
// threads must produce bit-for-bit identical results (EXPECT_EQ on raw
// doubles, no tolerance): per-task seeds depend only on (base seed, n,
// rep), and the reduction replays the serial accumulation order.

void expect_series_identical(const stats::Series& a, const stats::Series& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
  }
}

void expect_mr_identical(const trace::MrSweepResult& a,
                         const trace::MrSweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].n, b.points[i].n);
    EXPECT_EQ(a.points[i].parallel_time, b.points[i].parallel_time);
    EXPECT_EQ(a.points[i].sequential_time, b.points[i].sequential_time);
    EXPECT_EQ(a.points[i].speedup, b.points[i].speedup);
    EXPECT_EQ(a.points[i].components.wp, b.points[i].components.wp);
    EXPECT_EQ(a.points[i].components.ws, b.points[i].components.ws);
    EXPECT_EQ(a.points[i].components.wo, b.points[i].components.wo);
    EXPECT_EQ(a.points[i].spilled, b.points[i].spilled);
  }
  expect_series_identical(a.speedup, b.speedup);
  EXPECT_EQ(a.factors.eta, b.factors.eta);
  expect_series_identical(a.factors.ex, b.factors.ex);
  expect_series_identical(a.factors.in, b.factors.in);
  expect_series_identical(a.factors.q, b.factors.q);
  EXPECT_EQ(a.tp1, b.tp1);
  EXPECT_EQ(a.ts1, b.ts1);
}

trace::MrSweepConfig determinism_sweep() {
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8, 16};
  sweep.repetitions = 3;
  sweep.seed = 7;
  return sweep;
}

TEST(Determinism, MrSweepIsBitIdenticalAcrossThreadCounts) {
  const auto base = sim::default_emr_cluster(1);
  const auto sweep = determinism_sweep();

  trace::ExperimentRunner serial({.threads = 1});
  const auto reference = serial.run_mr_sweep(wl::sort_spec(), base, sweep);

  for (std::size_t threads : {2u, 8u}) {
    trace::ExperimentRunner parallel({.threads = threads});
    EXPECT_EQ(parallel.threads(), threads);
    const auto r = parallel.run_mr_sweep(wl::sort_spec(), base, sweep);
    expect_mr_identical(reference, r);
  }
}

TEST(Determinism, DuplicateAndUnsortedNsReplaySerialSemantics) {
  const auto base = sim::default_emr_cluster(1);
  trace::MrSweepConfig sweep = determinism_sweep();
  sweep.ns = {4, 1, 4, 2, 1};

  trace::ExperimentRunner serial({.threads = 1});
  trace::ExperimentRunner parallel({.threads = 8});
  const auto a = serial.run_mr_sweep(wl::terasort_spec(), base, sweep);
  const auto b = parallel.run_mr_sweep(wl::terasort_spec(), base, sweep);
  expect_mr_identical(a, b);
  // Duplicate grid entries map to one computed point.
  ASSERT_EQ(b.points.size(), 5u);
  EXPECT_EQ(b.points[0].parallel_time, b.points[2].parallel_time);
  EXPECT_EQ(b.points[1].speedup, b.points[4].speedup);
}

TEST(Determinism, SparkSweepIsBitIdenticalAcrossThreadCounts) {
  const auto base = sim::default_emr_cluster(1);
  trace::SparkSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.tasks_per_executor = 2;
  sweep.ms = {1, 2, 4, 8};
  sweep.seed = 11;

  auto app_for = [](std::size_t) { return wl::bayes_app(); };

  trace::ExperimentRunner serial({.threads = 1});
  const auto reference = serial.run_spark_sweep(app_for, base, sweep);
  for (std::size_t threads : {2u, 8u}) {
    trace::ExperimentRunner parallel({.threads = threads});
    const auto r = parallel.run_spark_sweep(app_for, base, sweep);
    ASSERT_EQ(reference.points.size(), r.points.size());
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      EXPECT_EQ(reference.points[i].m, r.points[i].m);
      EXPECT_EQ(reference.points[i].parallel_time, r.points[i].parallel_time);
      EXPECT_EQ(reference.points[i].speedup, r.points[i].speedup);
    }
    expect_series_identical(reference.speedup, r.speedup);
    EXPECT_EQ(reference.tp1, r.tp1);
    EXPECT_EQ(reference.ts1, r.ts1);
  }
}

TEST(Runner, ProgressCallbackSeesEveryTask) {
  trace::ExperimentRunner runner({.threads = 4});
  std::atomic<std::size_t> events{0};
  std::atomic<std::size_t> max_completed{0};
  runner.on_progress([&](const trace::TaskEvent& ev) {
    events.fetch_add(1);
    std::size_t seen = ev.completed;
    std::size_t prev = max_completed.load();
    while (seen > prev && !max_completed.compare_exchange_weak(prev, seen)) {
    }
    EXPECT_LE(ev.completed, ev.total);
    EXPECT_GE(ev.wall_seconds, 0.0);
  });

  const auto sweep = determinism_sweep();
  runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);

  // 5 distinct n values x 3 repetitions = 15 tasks.
  EXPECT_EQ(events.load(), 15u);
  EXPECT_EQ(max_completed.load(), 15u);

  const auto metrics = runner.metrics();
  EXPECT_EQ(metrics.sweeps_run, 1u);
  EXPECT_EQ(metrics.tasks_completed, 15u);
  EXPECT_GT(metrics.wall_seconds, 0.0);
  EXPECT_GE(metrics.busy_seconds, 0.0);
}

TEST(Runner, ProgressEventsAreStrictlyMonotoneUnderThreads) {
  // Regression: events must arrive serialized and in counter order — the
  // `completed` field and the bundled metrics snapshot observed by the
  // callback must both be strictly increasing, at any thread count.
  trace::ExperimentRunner runner({.threads = 8});
  std::size_t last_completed = 0;       // callback is serialized: no atomics
  std::size_t last_tasks_completed = 0;
  bool monotone = true;
  runner.on_progress([&](const trace::TaskEvent& ev) {
    monotone = monotone && ev.completed == last_completed + 1 &&
               ev.metrics.tasks_completed > last_tasks_completed;
    last_completed = ev.completed;
    last_tasks_completed = ev.metrics.tasks_completed;
  });

  trace::MrSweepConfig sweep = determinism_sweep();
  sweep.ns = {1, 2, 4, 8, 16, 32};
  sweep.repetitions = 4;
  runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);

  EXPECT_TRUE(monotone);
  EXPECT_EQ(last_completed, 6u * 4u);
  EXPECT_EQ(last_tasks_completed, 6u * 4u);
}

TEST(Runner, ProgressCallbackMayCallMetrics) {
  // Regression: metrics() used to share the mutex held during callback
  // delivery, so a callback reading the aggregate counters deadlocked.
  trace::ExperimentRunner runner({.threads = 4});
  bool consistent = true;
  runner.on_progress([&](const trace::TaskEvent& ev) {
    const auto live = runner.metrics();  // must not deadlock
    // Another task may have finished its simulator run, but its event has
    // not been delivered yet: the live counter can only be >= the snapshot.
    consistent = consistent &&
                 live.tasks_completed >= ev.metrics.tasks_completed;
  });
  runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1),
                      determinism_sweep());
  EXPECT_TRUE(consistent);
}

TEST(Runner, RejectsInvalidSweeps) {
  trace::ExperimentRunner runner({.threads = 2});
  const auto base = sim::default_emr_cluster(1);
  trace::MrSweepConfig sweep = determinism_sweep();
  sweep.ns = {};
  EXPECT_THROW(runner.run_mr_sweep(wl::sort_spec(), base, sweep),
               std::invalid_argument);
  sweep = determinism_sweep();
  sweep.repetitions = 0;
  EXPECT_THROW(runner.run_mr_sweep(wl::sort_spec(), base, sweep),
               std::invalid_argument);
}

TEST(RunnerConfig, ParsesThreadsFlag) {
  const char* argv1[] = {"prog", "--threads", "6"};
  EXPECT_EQ(trace::runner_config_from_args(3, const_cast<char**>(argv1))
                .threads,
            6u);
  const char* argv2[] = {"prog", "--threads=9"};
  EXPECT_EQ(trace::runner_config_from_args(2, const_cast<char**>(argv2))
                .threads,
            9u);
  const char* argv3[] = {"prog"};
  EXPECT_EQ(trace::runner_config_from_args(1, const_cast<char**>(argv3))
                .threads,
            0u);
}

}  // namespace
}  // namespace ipso
