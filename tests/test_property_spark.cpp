#include "spark/engine.h"
#include "spark/eventlog.h"

#include <gtest/gtest.h>

#include <tuple>

/// Property sweeps over the Spark engine's (N, m) space: structural
/// invariants that must hold for every job shape.

namespace ipso::spark {
namespace {

SparkAppSpec iterative_app() {
  SparkAppSpec app;
  app.name = "prop";
  StageSpec heavy;
  heavy.name = "heavy";
  heavy.task_ops = 1.2e8;
  heavy.shuffle_bytes_per_task = 1e5;
  heavy.broadcast_bytes = 2e5;
  StageSpec light;
  light.name = "light";
  light.task_ops = 3e7;
  light.task_count_factor = 0.25;
  app.stages = {heavy, light};
  app.iterations = 2;
  app.driver_ops_per_job = 1e7;
  return app;
}

using Shape = std::tuple<std::size_t /*N*/, std::size_t /*m*/>;

class SparkShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(SparkShapes, StageAccountingHolds) {
  const auto [N, m] = GetParam();
  SparkEngine engine(sim::default_emr_cluster(m));
  SparkJobConfig job;
  job.total_tasks = N;
  job.executors = m;
  const auto r = engine.run(iterative_app(), job);

  ASSERT_EQ(r.stages.size(), 4u);  // 2 stages x 2 iterations
  double prev_end = 0.0;
  for (const auto& s : r.stages) {
    EXPECT_GE(s.submission_time, prev_end - 1e-9);  // stages serialize
    EXPECT_GE(s.completion_time, s.submission_time);
    EXPECT_GE(s.waves, 1u);
    EXPECT_EQ(s.waves, (s.tasks + m - 1) / m);
    prev_end = s.completion_time;
  }
  // Makespan = last stage completion + the serial driver work (1e7 ops
  // at 1e8 ops/s = 0.1 s for this app).
  EXPECT_NEAR(r.makespan, r.stages.back().completion_time + 0.1, 1e-9);
}

TEST_P(SparkShapes, ComponentsAreNonNegativeAndComplete) {
  const auto [N, m] = GetParam();
  SparkEngine engine(sim::default_emr_cluster(m));
  SparkJobConfig job;
  job.total_tasks = N;
  job.executors = m;
  const auto r = engine.run(iterative_app(), job);
  EXPECT_GT(r.components.wp, 0.0);
  EXPECT_GE(r.components.ws, 0.0);
  EXPECT_GE(r.components.wo, 0.0);
  EXPECT_GT(r.components.max_tp, 0.0);
  EXPECT_DOUBLE_EQ(r.components.n, static_cast<double>(m));
}

TEST_P(SparkShapes, ParallelWpMatchesSequential) {
  const auto [N, m] = GetParam();
  SparkEngine engine(sim::default_emr_cluster(m));
  SparkJobConfig job;
  job.total_tasks = N;
  job.executors = m;
  const auto par = engine.run(iterative_app(), job);
  const auto seq = engine.run_sequential(iterative_app(), job);
  EXPECT_NEAR(par.components.wp, seq.components.wp, 1e-9);
  EXPECT_DOUBLE_EQ(seq.components.wo, 0.0);
}

TEST_P(SparkShapes, EventLogRoundTripsAndSpeedupDerivable) {
  const auto [N, m] = GetParam();
  SparkEngine engine(sim::default_emr_cluster(m));
  SparkJobConfig job;
  job.total_tasks = N;
  job.executors = m;
  const auto par = engine.run(iterative_app(), job);
  const auto seq = engine.run_sequential(iterative_app(), job);

  const auto seq_latency = job_latency(parse_event_log(to_event_log(seq)));
  const auto par_latency = job_latency(parse_event_log(to_event_log(par)));
  ASSERT_TRUE(seq_latency.has_value());
  ASSERT_TRUE(par_latency.has_value());
  ASSERT_GT(*par_latency, 0.0);
  const double speedup = *seq_latency / *par_latency;
  EXPECT_GT(speedup, 0.0);
  // The log method measures exactly the stage span (what the paper's
  // timestamp tracing measured); it excludes init and post-stage driver
  // work, so compare against the span ratio exactly...
  const double seq_span = seq.stages.back().completion_time -
                          seq.stages.front().submission_time;
  const double par_span = par.stages.back().completion_time -
                          par.stages.front().submission_time;
  EXPECT_NEAR(speedup, seq_span / par_span, 1e-6);
  // ...and against the full makespan ratio only loosely.
  EXPECT_NEAR(speedup, seq.makespan / par.makespan,
              0.3 * (seq.makespan / par.makespan));
}

TEST_P(SparkShapes, StageLatencyTotalsCoverEveryStageName) {
  const auto [N, m] = GetParam();
  SparkEngine engine(sim::default_emr_cluster(m));
  SparkJobConfig job;
  job.total_tasks = N;
  job.executors = m;
  const auto r = engine.run(iterative_app(), job);
  const auto totals = stage_latency_totals(parse_event_log(to_event_log(r)));
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_GT(totals.at("heavy"), totals.at("light"));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SparkShapes,
    ::testing::Combine(::testing::Values(1u, 4u, 17u, 64u),   // N
                       ::testing::Values(1u, 3u, 8u, 32u)));  // m

}  // namespace
}  // namespace ipso::spark
