#include "trace/experiment.h"
#include "trace/reference_data.h"
#include "trace/report.h"
#include "trace/runner.h"

#include "workloads/qmc_pi.h"
#include "workloads/sort.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ipso::trace {
namespace {

MrSweepConfig small_sweep() {
  MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8};
  sweep.repetitions = 1;
  return sweep;
}

TEST(MrSweep, RejectsEmptyOrZeroReps) {
  ExperimentRunner runner;
  const auto base = sim::default_emr_cluster(1);
  MrSweepConfig sweep = small_sweep();
  sweep.ns = {};
  EXPECT_THROW(runner.run_mr_sweep(wl::sort_spec(), base, sweep),
               std::invalid_argument);
  sweep = small_sweep();
  sweep.repetitions = 0;
  EXPECT_THROW(runner.run_mr_sweep(wl::sort_spec(), base, sweep),
               std::invalid_argument);
}

TEST(MrSweep, NormalizesFactorsAtNOne) {
  ExperimentRunner runner;
  const auto r = runner.run_mr_sweep(
      wl::sort_spec(), sim::default_emr_cluster(1), small_sweep());
  ASSERT_EQ(r.points.size(), 4u);
  EXPECT_NEAR(r.factors.ex[0].y, 1.0, 1e-9);
  EXPECT_NEAR(r.factors.in[0].y, 1.0, 1e-9);
  EXPECT_NEAR(r.speedup[0].y, 1.0, 0.05);
  EXPECT_GT(r.tp1, 0.0);
  EXPECT_GT(r.ts1, 0.0);
}

TEST(MrSweep, FixedTimeExternalScalingIsLinear) {
  ExperimentRunner runner;
  const auto r = runner.run_mr_sweep(
      wl::sort_spec(), sim::default_emr_cluster(1), small_sweep());
  for (const auto& p : r.factors.ex) EXPECT_NEAR(p.y, p.x, 0.01 * p.x);
}

TEST(MrSweep, FixedSizeKeepsTotalWorkConstant) {
  ExperimentRunner runner;
  MrSweepConfig sweep = small_sweep();
  sweep.type = WorkloadType::kFixedSize;
  sweep.bytes = 512e6;
  const auto r =
      runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  for (const auto& p : r.factors.ex) EXPECT_NEAR(p.y, 1.0, 0.01);
}

TEST(MrSweep, RepetitionAveragingIsStableWithoutNoise) {
  ExperimentRunner runner;
  MrSweepConfig one = small_sweep();
  MrSweepConfig many = small_sweep();
  many.repetitions = 5;
  const auto base = sim::default_emr_cluster(1);
  const auto a = runner.run_mr_sweep(wl::sort_spec(), base, one);
  const auto b = runner.run_mr_sweep(wl::sort_spec(), base, many);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_NEAR(a.points[i].speedup, b.points[i].speedup, 1e-9);
  }
}

TEST(MrSweep, LawBaselineMatchesEta) {
  ExperimentRunner runner;
  const auto r = runner.run_mr_sweep(
      wl::qmc_pi_spec(), sim::default_emr_cluster(1), small_sweep());
  const auto gustafson = law_baseline(r, WorkloadType::kFixedTime);
  ASSERT_EQ(gustafson.size(), 4u);
  EXPECT_NEAR(gustafson[3].y, r.factors.eta * 8.0 + (1 - r.factors.eta),
              1e-9);
  const auto amdahl = law_baseline(r, WorkloadType::kFixedSize);
  EXPECT_EQ(amdahl.name(), "Amdahl");
}

TEST(MrSweep, MemoryBoundedTracksFixedTime) {
  // Paper Section IV / Fig. 6: with block-capped working sets g(n) ~ n,
  // so the memory-bounded sweep coincides with the fixed-time one.
  ExperimentRunner runner;
  MrSweepConfig mem;
  mem.type = WorkloadType::kMemoryBounded;
  mem.bytes = 64e9;  // far more data than 8 blocks
  mem.ns = {1, 2, 4, 8};
  mem.repetitions = 1;
  const auto r =
      runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), mem);
  for (const auto& p : r.factors.ex) EXPECT_NEAR(p.y, p.x, 0.01 * p.x);

  MrSweepConfig ft = mem;
  ft.type = WorkloadType::kFixedTime;
  ft.bytes = kMemoryBlockBytes;
  const auto g =
      runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), ft);
  for (std::size_t i = 0; i < r.speedup.size(); ++i) {
    EXPECT_NEAR(r.speedup[i].y, g.speedup[i].y, 1e-9);
  }
}

TEST(MrSweep, MemoryBoundedExhaustsSmallData) {
  // When the data runs out, each unit's share shrinks below the block:
  // g(n) flattens (the memory bound is no longer binding).
  ExperimentRunner runner;
  MrSweepConfig mem;
  mem.type = WorkloadType::kMemoryBounded;
  mem.bytes = 4 * kMemoryBlockBytes;  // only 4 blocks of data
  mem.ns = {1, 2, 4, 8, 16};
  mem.repetitions = 1;
  const auto r =
      runner.run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), mem);
  // EX(16) is capped at the total data (4 blocks = 4 x EX(1)).
  EXPECT_NEAR(r.factors.ex[4].y, 4.0, 0.05);
}

// --- reference data

TEST(ReferenceData, TableOneMatchesPaper) {
  const auto tp = reference::cf_max_tp_series();
  const auto wo = reference::cf_wo_series();
  ASSERT_EQ(tp.size(), 4u);
  ASSERT_EQ(wo.size(), 4u);
  EXPECT_DOUBLE_EQ(tp[0].x, 10.0);
  EXPECT_DOUBLE_EQ(tp[0].y, 209.0);
  EXPECT_DOUBLE_EQ(wo[3].y, 54.3);
}

TEST(ReferenceData, WoIsLinearInN) {
  // The paper's Wo column is ~0.6 n; a linear fit must be near-perfect.
  const auto wo = reference::cf_wo_series();
  const auto fit = stats::fit_linear(wo);
  EXPECT_NEAR(fit.slope, 0.6, 0.02);
  EXPECT_GT(fit.r_squared, 0.999);
}

// --- report printing

TEST(Report, FmtFixesPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Report, TableAlignsColumns) {
  std::ostringstream os;
  print_table(os, {"n", "S"}, {{"1", "1.0"}, {"160", "140.2"}});
  const std::string out = os.str();
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("140.2"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Report, SeriesTableInterpolatesUnionGrid) {
  stats::Series a("A");
  a.add(1, 1.0);
  a.add(3, 3.0);
  stats::Series b("B");
  b.add(2, 20.0);
  std::ostringstream os;
  print_series_table(os, "n", {a, b});
  const std::string out = os.str();
  // Union grid is {1, 2, 3}; A interpolates 2 -> 2.0.
  EXPECT_NE(out.find("2.000"), std::string::npos);
  EXPECT_NE(out.find("20.000"), std::string::npos);
}

TEST(Report, BannerContainsTitle) {
  std::ostringstream os;
  print_banner(os, "Fig. 4");
  EXPECT_NE(os.str().find("Fig. 4"), std::string::npos);
}

// --- Spark sweep plumbing

TEST(SparkSweep, RejectsEmpty) {
  ExperimentRunner runner;
  SparkSweepConfig sweep;
  sweep.ms = {};
  EXPECT_THROW(
      runner.run_spark_sweep([](std::size_t) { return spark::SparkAppSpec{}; },
                             sim::default_emr_cluster(1), sweep),
      std::invalid_argument);
}

}  // namespace
}  // namespace ipso::trace
