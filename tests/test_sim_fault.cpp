#include "sim/fault.h"

#include "mapreduce/engine.h"
#include "sim/cluster.h"
#include "spark/engine.h"
#include "trace/experiment.h"
#include "trace/cli_opts.h"
#include "trace/runner.h"
#include "workloads/sort.h"
#include "workloads/spark_apps.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace ipso {
namespace {

using sim::FaultModel;
using sim::FaultModelParams;
using sim::FaultStats;
using sim::TaskFaultOutcome;

FaultModelParams faulty(double p) {
  FaultModelParams params;
  params.task_failure_prob = p;
  return params;
}

TEST(FaultParams, ValidateRejectsBadValues) {
  EXPECT_NO_THROW(FaultModelParams{}.validate());
  EXPECT_THROW(faulty(-0.1).validate(), std::invalid_argument);
  EXPECT_THROW(faulty(1.0).validate(), std::invalid_argument);
  FaultModelParams bad_mult;
  bad_mult.spill_failure_multiplier = 0.5;
  EXPECT_THROW(bad_mult.validate(), std::invalid_argument);
  FaultModelParams bad_frac;
  bad_frac.speculation_fraction = 1.5;
  EXPECT_THROW(bad_frac.validate(), std::invalid_argument);
}

TEST(FaultModel, ActiveOnlyWithFailuresOrSpeculation) {
  EXPECT_FALSE(FaultModel({}, 1).active());
  EXPECT_TRUE(FaultModel(faulty(0.1), 1).active());
  FaultModelParams spec;
  spec.speculation = true;
  EXPECT_TRUE(FaultModel(spec, 1).active());
}

TEST(FaultModel, DrawsAreDeterministicPerSeedStageTaskAttempt) {
  const FaultModel a(faulty(0.5), 42);
  const FaultModel b(faulty(0.5), 42);
  const FaultModel other_seed(faulty(0.5), 43);
  std::size_t diffs = 0;
  for (std::uint64_t stage = 0; stage < 3; ++stage) {
    for (std::uint64_t task = 0; task < 64; ++task) {
      for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
        const bool fa = a.attempt_fails(stage, task, attempt, false);
        EXPECT_EQ(fa, a.attempt_fails(stage, task, attempt, false));
        EXPECT_EQ(fa, b.attempt_fails(stage, task, attempt, false));
        if (fa != other_seed.attempt_fails(stage, task, attempt, false)) {
          ++diffs;
        }
      }
    }
  }
  // A different job seed yields a genuinely different failure schedule.
  EXPECT_GT(diffs, 100u);
}

TEST(FaultModel, FailureRateMatchesProbability) {
  const double p = 0.2;
  const FaultModel m(faulty(p), 7);
  std::size_t failures = 0;
  constexpr std::size_t kDraws = 100000;
  for (std::uint64_t task = 0; task < kDraws; ++task) {
    failures += m.attempt_fails(0, task, 0, false) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(failures) / kDraws, p, 5e-3);
}

TEST(FaultModel, SpillMultiplierAmplifiesFailures) {
  FaultModelParams params = faulty(0.05);
  params.spill_failure_multiplier = 4.0;
  const FaultModel m(params, 7);
  std::size_t clean = 0, spilled = 0;
  for (std::uint64_t task = 0; task < 20000; ++task) {
    clean += m.attempt_fails(0, task, 0, false) ? 1 : 0;
    spilled += m.attempt_fails(0, task, 0, true) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(spilled) / clean, 4.0, 0.5);
}

TEST(FaultModel, RunTaskCleanPathIsExactlyTheAttempt) {
  const FaultModel m(FaultModelParams{}, 1);
  const auto out = m.run_task(2.5, 0, 0, false);
  EXPECT_DOUBLE_EQ(out.clean, 2.5);
  EXPECT_DOUBLE_EQ(out.duration, 2.5);
  EXPECT_DOUBLE_EQ(out.busy, 2.5);
  EXPECT_EQ(out.failed_attempts, 0u);
  EXPECT_FALSE(out.exhausted);
}

TEST(FaultModel, RunTaskChargesOneFullAttemptPerFailure) {
  const FaultModel m(faulty(0.6), 3);
  std::size_t total_failures = 0;
  for (std::uint64_t task = 0; task < 256; ++task) {
    const auto out = m.run_task(1.0, 0, task, false);
    EXPECT_DOUBLE_EQ(out.duration, 1.0 * (1 + out.failed_attempts));
    EXPECT_DOUBLE_EQ(out.busy, out.duration);
    EXPECT_LE(out.failed_attempts, m.params().max_task_retries);
    if (out.exhausted) {
      EXPECT_EQ(out.failed_attempts, m.params().max_task_retries);
    }
    total_failures += out.failed_attempts;
  }
  EXPECT_GT(total_failures, 0u);
}

TEST(FaultModel, HighFailureRateExhaustsRetryBudgets) {
  const FaultModel m(faulty(0.95), 5);
  std::size_t exhausted = 0;
  for (std::uint64_t task = 0; task < 256; ++task) {
    exhausted += m.run_task(1.0, 0, task, false).exhausted ? 1 : 0;
  }
  // P(exhausted) = 0.95^4 ~ 0.81 per task.
  EXPECT_GT(exhausted, 128u);
}

TaskFaultOutcome plain_task(double duration) {
  TaskFaultOutcome t;
  t.clean = duration;
  t.duration = duration;
  t.busy = duration;
  return t;
}

TEST(Speculation, BackupWinsAgainstExtremeStraggler) {
  FaultModelParams params;
  params.speculation = true;
  params.speculation_fraction = 0.25;
  const FaultModel m(params, 1);
  std::vector<TaskFaultOutcome> cohort{plain_task(1.0), plain_task(1.0),
                                       plain_task(1.0), plain_task(10.0)};
  const std::vector<std::uint64_t> ids{0, 1, 2, 3};
  m.apply_speculation(cohort, 0, ids, false, [](std::size_t) { return 1.0; });
  // Only the straggler gets a backup; it launches at the cutoff (1.0) and
  // finishes at 2.0, beating the original's 10.0.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(cohort[i].speculated);
    EXPECT_DOUBLE_EQ(cohort[i].duration, 1.0);
  }
  EXPECT_TRUE(cohort[3].speculated);
  EXPECT_TRUE(cohort[3].backup_won);
  EXPECT_DOUBLE_EQ(cohort[3].duration, 2.0);
  // The original ran until the backup's finish: busy = 2.0 + 1.0.
  EXPECT_DOUBLE_EQ(cohort[3].busy, 3.0);
}

TEST(Speculation, OriginalWinsAgainstSlowBackup) {
  FaultModelParams params;
  params.speculation = true;
  params.speculation_fraction = 0.25;
  const FaultModel m(params, 1);
  std::vector<TaskFaultOutcome> cohort{plain_task(1.0), plain_task(1.0),
                                       plain_task(1.0), plain_task(10.0)};
  const std::vector<std::uint64_t> ids{0, 1, 2, 3};
  m.apply_speculation(cohort, 0, ids, false, [](std::size_t) { return 20.0; });
  EXPECT_TRUE(cohort[3].speculated);
  EXPECT_FALSE(cohort[3].backup_won);
  EXPECT_DOUBLE_EQ(cohort[3].duration, 10.0);
  // The killed backup ran from the cutoff (1.0) to the original's finish.
  EXPECT_DOUBLE_EQ(cohort[3].busy, 10.0 + 9.0);
}

TEST(Speculation, BackupWinRescuesExhaustedTask) {
  FaultModelParams params;
  params.speculation = true;
  params.speculation_fraction = 0.5;
  const FaultModel m(params, 1);
  std::vector<TaskFaultOutcome> cohort{plain_task(1.0), plain_task(8.0)};
  cohort[1].exhausted = true;
  const std::vector<std::uint64_t> ids{0, 1};
  m.apply_speculation(cohort, 0, ids, false, [](std::size_t) { return 1.0; });
  EXPECT_TRUE(cohort[1].backup_won);
  EXPECT_FALSE(cohort[1].exhausted);  // no stage rollback needed anymore
}

TEST(Speculation, AccumulateCountsCopiesWinsAndWaste) {
  std::vector<TaskFaultOutcome> cohort{plain_task(1.0), plain_task(4.0)};
  cohort[1].speculated = true;
  cohort[1].backup_won = true;
  cohort[1].busy = 5.0;
  cohort[1].failed_attempts = 2;
  FaultStats stats;
  FaultModel::accumulate(cohort, &stats);
  EXPECT_EQ(stats.failed_attempts, 2u);
  EXPECT_EQ(stats.speculative_copies, 1u);
  EXPECT_EQ(stats.backup_wins, 1u);
  EXPECT_DOUBLE_EQ(stats.wasted_seconds, 1.0);
}

// --- Engine integration --------------------------------------------------

TEST(MrFaults, FailuresSlowTheJobAndChargeWo) {
  mr::MrEngine engine(sim::default_emr_cluster(16));
  mr::MrJobConfig job;
  job.num_tasks = 16;
  job.seed = 3;
  const auto clean = engine.run_parallel(wl::sort_spec(), job);
  job.faults.task_failure_prob = 0.3;
  const auto hurt = engine.run_parallel(wl::sort_spec(), job);
  EXPECT_GT(hurt.makespan, clean.makespan);
  EXPECT_GT(hurt.faults.failed_attempts, 0u);
  EXPECT_GT(hurt.faults.wasted_seconds, 0.0);
  EXPECT_EQ(clean.faults.failed_attempts, 0u);
  EXPECT_DOUBLE_EQ(clean.faults.wasted_seconds, 0.0);
}

TEST(MrFaults, DisabledFaultsAreBitIdenticalToDefault) {
  mr::MrEngine engine(sim::default_emr_cluster(8));
  mr::MrJobConfig job;
  job.num_tasks = 8;
  job.seed = 11;
  const auto a = engine.run_parallel(wl::sort_spec(), job);
  job.faults.speculation_fraction = 0.5;  // inert without speculation=true
  const auto b = engine.run_parallel(wl::sort_spec(), job);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sum_task_time, b.sum_task_time);
  EXPECT_EQ(a.max_task_time, b.max_task_time);
}

TEST(MrFaults, RollbackDoublesTheMapPhase) {
  mr::MrEngine engine(sim::default_emr_cluster(8));
  mr::MrJobConfig job;
  job.num_tasks = 8;
  job.seed = 5;
  job.faults.task_failure_prob = 0.9;
  job.faults.max_task_retries = 1;
  const auto r = engine.run_parallel(wl::sort_spec(), job);
  EXPECT_TRUE(r.rolled_back);
  EXPECT_GE(r.faults.rollbacks, 1u);
  EXPECT_GT(r.faults.wasted_seconds, 0.0);
}

TEST(SparkFaults, SpeculationTamesStragglersOnAverage) {
  sim::ClusterConfig cluster = sim::default_emr_cluster(8);
  cluster.straggler.enabled = true;
  cluster.straggler.cap = 6.0;
  spark::SparkEngineParams plain;
  spark::SparkEngineParams speculative;
  speculative.faults.speculation = true;
  spark::SparkEngine a(cluster, plain);
  spark::SparkEngine b(cluster, speculative);
  const auto app = wl::bayes_app();
  double sum_plain = 0.0, sum_spec = 0.0;
  std::size_t copies = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    spark::SparkJobConfig job;
    job.total_tasks = 64;
    job.executors = 8;
    job.seed = seed;
    const auto ra = a.run(app, job);
    const auto rb = b.run(app, job);
    sum_plain += ra.makespan;
    sum_spec += rb.makespan;
    copies += rb.faults.speculative_copies;
  }
  EXPECT_GT(copies, 0u);
  EXPECT_LT(sum_spec, sum_plain);
}

// --- The tentpole guarantee: fault-injected sweeps stay bit-identical
// across runner thread counts, because every failure draw is a pure
// function of (seed, stage, task, attempt).

void expect_fault_stats_equal(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.speculative_copies, b.speculative_copies);
  EXPECT_EQ(a.backup_wins, b.backup_wins);
  EXPECT_EQ(a.wasted_seconds, b.wasted_seconds);
}

TEST(FaultDeterminism, MrSweepBitIdenticalAcrossThreadCounts) {
  const auto base = sim::default_emr_cluster(1);
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8, 16};
  sweep.repetitions = 3;
  sweep.seed = 7;
  sweep.faults.task_failure_prob = 0.2;
  sweep.faults.speculation = true;

  trace::ExperimentRunner serial({.threads = 1});
  const auto reference = serial.run_mr_sweep(wl::sort_spec(), base, sweep);

  std::size_t attempts = 0;
  for (const auto& p : reference.points) attempts += p.faults.failed_attempts;
  EXPECT_GT(attempts, 0u);  // the fault path actually engaged

  trace::ExperimentRunner parallel({.threads = 8});
  const auto r = parallel.run_mr_sweep(wl::sort_spec(), base, sweep);
  ASSERT_EQ(reference.points.size(), r.points.size());
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    EXPECT_EQ(reference.points[i].parallel_time, r.points[i].parallel_time);
    EXPECT_EQ(reference.points[i].speedup, r.points[i].speedup);
    EXPECT_EQ(reference.points[i].components.wo, r.points[i].components.wo);
    expect_fault_stats_equal(reference.points[i].faults, r.points[i].faults);
  }
}

TEST(FaultDeterminism, SparkSweepBitIdenticalAcrossThreadCounts) {
  const auto base = sim::default_emr_cluster(1);
  trace::SparkSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.tasks_per_executor = 4;
  sweep.ms = {1, 2, 4, 8};
  sweep.seed = 11;
  sweep.params.faults.task_failure_prob = 0.25;
  sweep.params.faults.speculation = true;

  auto app_for = [](std::size_t) { return wl::bayes_app(); };

  trace::ExperimentRunner serial({.threads = 1});
  const auto reference = serial.run_spark_sweep(app_for, base, sweep);

  std::size_t attempts = 0;
  for (const auto& p : reference.points) attempts += p.faults.failed_attempts;
  EXPECT_GT(attempts, 0u);

  trace::ExperimentRunner parallel({.threads = 8});
  const auto r = parallel.run_spark_sweep(app_for, base, sweep);
  ASSERT_EQ(reference.points.size(), r.points.size());
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    EXPECT_EQ(reference.points[i].parallel_time, r.points[i].parallel_time);
    EXPECT_EQ(reference.points[i].speedup, r.points[i].speedup);
    expect_fault_stats_equal(reference.points[i].faults, r.points[i].faults);
  }
}

// --- CLI flag parsing ----------------------------------------------------

TEST(FaultArgs, ParsesFlagsAndIgnoresMalformedValues) {
  const char* argv[] = {"prog",        "--fail-prob", "0.1", "--speculate",
                        "--max-retries", "5"};
  const auto p = trace::fault_params_from_args(
      static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(p.task_failure_prob, 0.1);
  EXPECT_TRUE(p.speculation);
  EXPECT_EQ(p.max_task_retries, 5u);

  const char* argv2[] = {"prog", "--fail-prob=2.0", "--speculate=0.4"};
  const auto q = trace::fault_params_from_args(
      static_cast<int>(std::size(argv2)), const_cast<char**>(argv2));
  EXPECT_DOUBLE_EQ(q.task_failure_prob, 0.0);  // out of range: ignored
  EXPECT_TRUE(q.speculation);
  EXPECT_DOUBLE_EQ(q.speculation_fraction, 0.4);
}

}  // namespace
}  // namespace ipso
