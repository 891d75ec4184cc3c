#include "sim/queueing.h"

#include "mapreduce/engine.h"
#include "workloads/qmc_pi.h"

#include <gtest/gtest.h>

namespace ipso::sim {
namespace {

TEST(Contention, ValidatesParameters) {
  EXPECT_THROW(SharedResourceContention(1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(SharedResourceContention(-0.1, 10.0), std::invalid_argument);
  EXPECT_THROW(SharedResourceContention(0.5, 0.0), std::invalid_argument);
}

TEST(Contention, ZeroPhiIsNeutral) {
  SharedResourceContention c(0.0, 10.0);
  for (std::size_t n : {1u, 100u, 100000u}) {
    EXPECT_DOUBLE_EQ(c.slowdown(n), 1.0);
  }
}

TEST(Contention, SlowdownGrowsWithN) {
  SharedResourceContention c(0.3, 64.0);
  double prev = 0.0;
  for (std::size_t n : {1u, 16u, 64u, 128u, 200u}) {
    const double s = c.slowdown(n);
    EXPECT_GE(s, prev);
    EXPECT_GE(s, 1.0);
    prev = s;
  }
}

TEST(Contention, SaturationPoint) {
  SharedResourceContention c(0.5, 32.0);
  EXPECT_DOUBLE_EQ(c.saturation_n(), 64.0);
  // Near saturation the clamped slowdown is large but finite.
  EXPECT_GT(c.slowdown(64), 10.0);
  EXPECT_LT(c.slowdown(100000), 100.0);
}

TEST(Contention, UtilizationClamped) {
  SharedResourceContention c(0.5, 4.0);
  EXPECT_DOUBLE_EQ(c.utilization(2), 0.25);
  EXPECT_LT(c.utilization(10000), 1.0);
}

TEST(Contention, LowLoadNearUnity) {
  SharedResourceContention c(0.2, 1000.0);
  EXPECT_NEAR(c.slowdown(1), 1.0, 1e-3);
}

// --- integration with the MapReduce engine

TEST(ContentionInEngine, InducesScaleOutWorkload) {
  mr::MrJobConfig job;
  job.num_tasks = 32;
  job.shard_bytes = 128e6;

  auto clean_cfg = default_emr_cluster(32);
  auto contended_cfg = clean_cfg;
  contended_cfg.contention_phi = 0.3;
  contended_cfg.contention_capacity = 64.0;

  mr::MrEngine clean(clean_cfg);
  mr::MrEngine contended(contended_cfg);
  const auto spec = wl::qmc_pi_spec();
  const auto a = clean.run_parallel(spec, job);
  const auto b = contended.run_parallel(spec, job);

  // Same parallel work, extra induced work, slower job.
  EXPECT_NEAR(a.components.wp, b.components.wp, 1e-9);
  EXPECT_GT(b.components.wo, a.components.wo + 1.0);
  EXPECT_GT(b.makespan, a.makespan);
}

TEST(ContentionInEngine, ConfigValidation) {
  auto cfg = default_emr_cluster(2);
  cfg.contention_phi = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.contention_phi = 0.5;
  cfg.contention_capacity = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace ipso::sim
