#include "workloads/spark_apps.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ipso::wl {
namespace {

TEST(SparkApps, HaveStagesAndNames) {
  for (const auto& app :
       {bayes_app(), svm_app(), random_forest_app()}) {
    EXPECT_FALSE(app.name.empty());
    EXPECT_FALSE(app.stages.empty());
    EXPECT_GE(app.iterations, 1u);
  }
}

TEST(SparkApps, IterativeAppsBroadcastEachEpoch) {
  const auto app = svm_app();
  EXPECT_GT(app.iterations, 1u);
  EXPECT_GT(app.stages[0].broadcast_bytes, 0.0);
}

TEST(CfApp, TwoBroadcastStagesPerIteration) {
  const auto app = collab_filter_app(60);
  EXPECT_EQ(app.stages.size(), 2u);
  EXPECT_EQ(app.iterations, 10u);
  for (const auto& s : app.stages) EXPECT_GT(s.broadcast_bytes, 0.0);
  EXPECT_DOUBLE_EQ(app.driver_ops_per_job, 0.0);  // Ws = 0: eta = 1
}

TEST(CfApp, TotalWorkIndependentOfTaskCount) {
  const auto a = collab_filter_app(10);
  const auto b = collab_filter_app(100);
  EXPECT_NEAR(a.stages[0].task_ops * 10, b.stages[0].task_ops * 100, 1e-3);
  EXPECT_THROW(collab_filter_app(0), std::invalid_argument);
}

TEST(NWeightApp, OneStagePerHop) {
  const auto app = nweight_app(3);
  EXPECT_EQ(app.iterations, 3u);
  EXPECT_EQ(app.stages.size(), 1u);
  EXPECT_GT(app.stages[0].shuffle_bytes_per_task, 0.0);
  EXPECT_THROW(nweight_app(0), std::invalid_argument);
}

}  // namespace
}  // namespace ipso::wl
