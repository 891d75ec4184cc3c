#include "core/classify.h"
#include "core/diagnose.h"
#include "core/predict.h"
#include "trace/experiment.h"
#include "trace/reference_data.h"
#include "trace/runner.h"
#include "workloads/qmc_pi.h"
#include "workloads/sort.h"
#include "workloads/spark_apps.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

#include <gtest/gtest.h>

/// End-to-end reproduction invariants: every qualitative claim the paper
/// makes about its figures must hold for the simulated pipeline. These tests
/// are the machine-checkable core of EXPERIMENTS.md.

namespace ipso {
namespace {

trace::MrSweepResult sweep_mr(const mr::MrWorkloadSpec& spec) {
  trace::ExperimentRunner runner;
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8, 16, 32, 64, 96, 128, 160};
  sweep.repetitions = 1;
  return runner.run_mr_sweep(spec, sim::default_emr_cluster(1), sweep);
}

// --- Fig. 4(a): QMC matches Gustafson (type It, eta ~ 1)

TEST(Fig4, QmcFollowsGustafson) {
  const auto r = sweep_mr(wl::qmc_pi_spec());
  EXPECT_GT(r.factors.eta, 0.99);
  const auto gustafson = trace::law_baseline(r, WorkloadType::kFixedTime);
  for (std::size_t i = 0; i < r.speedup.size(); ++i) {
    EXPECT_NEAR(r.speedup[i].y, gustafson[i].y, 0.15 * gustafson[i].y);
  }
}

// --- Fig. 4(b): WordCount near-linear (It/IIt, benign)

TEST(Fig4, WordCountNearLinearAndUnbounded) {
  const auto r = sweep_mr(wl::wordcount_spec());
  const auto shape = judge_shape(r.speedup).value();
  EXPECT_TRUE(shape.monotone);
  EXPECT_FALSE(shape.peaked);
  EXPECT_GT(shape.tail_exponent, 0.85);
  // IN(n) ~ 1: no in-proportion scaling (paper Fig. 6).
  for (const auto& p : r.factors.in) EXPECT_LT(p.y, 1.1);
}

// --- Fig. 4(c)+(d): Sort and TeraSort deviate from Gustafson and saturate

TEST(Fig4, SortDeviatesFromGustafsonAndSaturates) {
  const auto r = sweep_mr(wl::sort_spec());
  const auto gustafson = trace::law_baseline(r, WorkloadType::kFixedTime);
  // At n = 160, Gustafson predicts ~10x more speedup than measured.
  EXPECT_GT(gustafson[9].y, 5.0 * r.speedup[9].y);
  // Bounded by ~5 (paper Fig. 4(c) levels off around 5).
  EXPECT_LT(r.speedup.max_y(), 5.5);
  EXPECT_GT(r.speedup.max_y(), 4.0);
  EXPECT_TRUE(stats::is_monotone_nondecreasing(r.speedup, 0.02));
}

TEST(Fig4, TeraSortBoundedByThree) {
  const auto r = sweep_mr(wl::terasort_spec());
  EXPECT_LT(r.speedup.max_y(),
            trace::reference::kTeraSortSpeedupBound + 0.3);
  EXPECT_GT(r.speedup.max_y(),
            trace::reference::kTeraSortSpeedupBound - 0.6);
}

// --- Fig. 4(d) detail: TeraSort's speedup surges just before the spill
// onset and falls back at it ("a small surge of the speedup around n = 15
// and then falls back before it grows again").

TEST(Fig4, TeraSortSurgeAndDipAtSpillOnset) {
  trace::ExperimentRunner runner;
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.repetitions = 1;
  for (double n = 12; n <= 20; ++n) sweep.ns.push_back(n);
  const auto r = runner.run_mr_sweep(wl::terasort_spec(),
                                     sim::default_emr_cluster(1), sweep);
  const double before = r.speedup.interpolate(15.0);
  const double at_spill = r.speedup.interpolate(16.0);
  const double later = r.speedup.interpolate(20.0);
  EXPECT_GT(before, at_spill);  // the dip
  EXPECT_GT(later, at_spill);   // then it grows again
}

// --- Fig. 5: TeraSort IN(n) is step-wise at the memory overflow

TEST(Fig5, TeraSortInternalScalingHasChangepoint) {
  trace::ExperimentRunner runner;
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.repetitions = 1;
  for (double n = 1; n <= 40; ++n) sweep.ns.push_back(n);
  const auto r = runner.run_mr_sweep(wl::terasort_spec(),
                                     sim::default_emr_cluster(1), sweep);
  const auto seg = detect_in_changepoint(r.factors.in);
  ASSERT_TRUE(seg.has_value());
  EXPECT_NEAR(seg->knot, trace::reference::kTeraSortSpillOnsetN, 3.0);
  EXPECT_NEAR(seg->left.slope, trace::reference::kTeraSortPreSpillSlope,
              0.03);
  EXPECT_NEAR(seg->right.slope, trace::reference::kTeraSortPostSpillSlope,
              0.03);
  // The burst at the onset exceeds 30% (paper: "burst by over 30%").
  const double before = r.factors.in.interpolate(15.0);
  const double after = r.factors.in.interpolate(16.0);
  EXPECT_GT(after / before, 1.3);
}

// --- Fig. 6: EX(n) ~ n for all; IN linear for Sort/TeraSort, ~1 otherwise

TEST(Fig6, ExternalScalingIsFixedTimeForAllFour) {
  for (const auto& spec : {wl::qmc_pi_spec(), wl::wordcount_spec(),
                           wl::sort_spec(), wl::terasort_spec()}) {
    const auto r = sweep_mr(spec);
    for (const auto& p : r.factors.ex) {
      EXPECT_NEAR(p.y, p.x, 0.02 * p.x) << spec.name;
    }
  }
}

TEST(Fig6, SortInternalScalingSlopeMatchesPaper) {
  const auto r = sweep_mr(wl::sort_spec());
  const auto fit = stats::fit_linear(r.factors.in);
  EXPECT_NEAR(fit.slope, trace::reference::kSortInSlope, 0.02);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Fig6, TeraSortPostSpillLineMatchesPaper) {
  const auto r = sweep_mr(wl::terasort_spec());
  const auto tail = r.factors.in.slice_x(17, 200);
  const auto fit = stats::fit_linear(tail);
  // Paper fit: 0.23 n + 2.72 for n > 16; we accept the slope within 0.03.
  EXPECT_NEAR(fit.slope, trace::reference::kTeraSortInSlope, 0.03);
}

// --- Fig. 7: IPSO fitted at small n predicts large-n speedups

class Fig7Prediction : public ::testing::TestWithParam<const char*> {};

TEST_P(Fig7Prediction, SmallNFitPredictsLargeN) {
  trace::ExperimentRunner runner;
  const std::string which = GetParam();
  mr::MrWorkloadSpec spec;
  if (which == "QMC") spec = wl::qmc_pi_spec();
  if (which == "WordCount") spec = wl::wordcount_spec();
  if (which == "Sort") spec = wl::sort_spec();
  if (which == "TeraSort") spec = wl::terasort_spec();

  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.repetitions = 1;
  // Fit window per the paper: n <= 16, except TeraSort fitted on 16..64.
  const bool tera = which == "TeraSort";
  sweep.ns = tera ? std::vector<double>{16, 24, 32, 40, 48, 56, 64}
                  : std::vector<double>{1, 2, 4, 6, 8, 10, 12, 14, 16};
  const auto fit_sweep =
      runner.run_mr_sweep(spec, sim::default_emr_cluster(1), sweep);

  const FactorFits fits =
      fit_factors(WorkloadType::kFixedTime, fit_sweep.factors).value();
  const auto predictor = SpeedupPredictor::from_fits(fits);

  // Validate against the measured speedup at n in {96, 160}.
  trace::MrSweepConfig big;
  big.type = WorkloadType::kFixedTime;
  big.repetitions = 1;
  big.ns = {96, 160};
  const auto measured =
      runner.run_mr_sweep(spec, sim::default_emr_cluster(1), big);
  // 20% tolerance: constants that are invisible inside the small-n fit
  // window (job init, dispatch) surface at n = 160 — the paper's own
  // Fig. 7 shows the IPSO curve slightly above the measured points for
  // WordCount for the same reason.
  for (const auto& p : measured.speedup) {
    EXPECT_NEAR(predictor(p.x), p.y, 0.20 * p.y)
        << which << " at n=" << p.x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFourCases, Fig7Prediction,
                         ::testing::Values("QMC", "WordCount", "Sort",
                                           "TeraSort"));

// --- Table I + Fig. 8: Collaborative Filtering pathology (IVs)

TEST(Fig8, PaperTableOneYieldsGammaTwoAndPeakNearSixty) {
  // Run IPSO's own pipeline on the paper's published Table I numbers.
  const auto wo = trace::reference::cf_wo_series();
  stats::Series wp("Wp");
  for (const auto& p : wo) wp.add(p.x, trace::reference::kCfTp1);
  const auto q = q_series_from_workloads(wo, wp).value();
  const auto qfit = stats::fit_power(q);
  EXPECT_NEAR(qfit.exponent, 2.0, 0.05);  // gamma = 2, as the paper derives

  AsymptoticParams params;
  params.type = WorkloadType::kFixedSize;
  params.eta = 1.0;
  params.beta = qfit.coeff;
  params.gamma = qfit.exponent;
  const auto c = classify(params);
  EXPECT_EQ(c.type, ScalingType::kIVs);
  EXPECT_NEAR(c.peak_n, trace::reference::kCfPeakN, 15.0);
  EXPECT_NEAR(c.peak_speedup, trace::reference::kCfPeakSpeedup, 6.0);
}

TEST(Fig8, SimulatedCfPeaksAndFalls) {
  trace::ExperimentRunner runner;
  trace::SparkSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;  // CF runs one task per node
  sweep.tasks_per_executor = 1;           // but the *workload* is fixed-size
  sweep.ms = {1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 120};
  sweep.params.first_wave_overhead = 0.45;
  const auto r = runner.run_spark_sweep(
      [](std::size_t n) { return wl::collab_filter_app(n); },
      sim::default_emr_cluster(1), sweep);
  EXPECT_TRUE(stats::is_peaked(r.speedup));
  EXPECT_NEAR(r.speedup.argmax_x(), trace::reference::kCfPeakN, 20.0);
  EXPECT_NEAR(r.speedup.max_y(), trace::reference::kCfPeakSpeedup, 6.0);
  // Amdahl (eta = 1) would predict S = n: off by an order of magnitude.
  EXPECT_GT(120.0, 4.0 * r.speedup.interpolate(120.0));
}

// --- Fig. 9: Spark fixed-time dimension: N/m = 4 > 2 > 1 and 8 < 4

sim::ClusterConfig spark_cluster() {
  auto cfg = sim::default_emr_cluster(1);
  cfg.scheduler.contention_coeff = 5e-4;  // centralized-scheduler contention
  cfg.scheduler.contention_exponent = 1.0;
  return cfg;
}

class Fig9Ordering : public ::testing::TestWithParam<int> {};

TEST_P(Fig9Ordering, PerExecutorLoadOrdering) {
  trace::ExperimentRunner runner;
  spark::SparkAppSpec app;
  switch (GetParam()) {
    case 0: app = wl::bayes_app(); break;
    case 1: app = wl::random_forest_app(); break;
    case 2: app = wl::svm_app(); break;
    default: app = wl::nweight_app(); break;
  }
  auto speedup_at = [&](std::size_t k, double m) {
    trace::SparkSweepConfig sweep;
    sweep.type = WorkloadType::kFixedTime;
    sweep.tasks_per_executor = k;
    sweep.ms = {m};
    return runner.run_spark_sweep([&](std::size_t) { return app; },
                                  spark_cluster(), sweep)
        .speedup[0]
        .y;
  };
  for (double m : {16.0, 32.0, 64.0}) {
    const double s1 = speedup_at(1, m);
    const double s2 = speedup_at(2, m);
    const double s4 = speedup_at(4, m);
    const double s8 = speedup_at(8, m);
    EXPECT_GT(s2, s1) << app.name << " m=" << m;
    EXPECT_GT(s4, s2) << app.name << " m=" << m;
    EXPECT_LT(s8, s4) << app.name << " m=" << m;  // RAM pressure
  }
}

INSTANTIATE_TEST_SUITE_P(AllFourApps, Fig9Ordering,
                         ::testing::Values(0, 1, 2, 3));

// --- Fig. 10: Spark fixed-size dimension peaks and falls (IVs)

class Fig10Peak : public ::testing::TestWithParam<int> {};

TEST_P(Fig10Peak, FixedSizeSpeedupPeaksThenFalls) {
  trace::ExperimentRunner runner;
  spark::SparkAppSpec app;
  switch (GetParam()) {
    case 0: app = wl::bayes_app(); break;
    case 1: app = wl::random_forest_app(); break;
    case 2: app = wl::svm_app(); break;
    default: app = wl::nweight_app(); break;
  }
  trace::SparkSweepConfig sweep;
  sweep.type = WorkloadType::kFixedSize;
  sweep.total_tasks = 192;
  sweep.ms = {1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 160, 192};
  const auto r = runner.run_spark_sweep([&](std::size_t) { return app; },
                                        spark_cluster(), sweep);
  EXPECT_TRUE(stats::is_peaked(r.speedup)) << app.name;
  const double peak_m = r.speedup.argmax_x();
  EXPECT_GT(peak_m, 8.0) << app.name;
  EXPECT_LT(peak_m, 160.0) << app.name;
}

INSTANTIATE_TEST_SUITE_P(AllFourApps, Fig10Peak,
                         ::testing::Values(0, 1, 2, 3));

// --- Section V diagnosis: the six-step procedure names every case

TEST(Diagnosis, NineCasesGetTheExpectedTypes) {
  trace::ExperimentRunner runner;
  // MapReduce fixed-time cases.
  {
    const auto r = sweep_mr(wl::qmc_pi_spec());
    const auto d =
        diagnose(WorkloadType::kFixedTime, r.speedup, r.factors).value();
    EXPECT_EQ(shape_of(d.best_guess), GrowthShape::kLinear);
  }
  {
    const auto r = sweep_mr(wl::sort_spec());
    const auto d =
        diagnose(WorkloadType::kFixedTime, r.speedup, r.factors).value();
    EXPECT_EQ(d.best_guess, ScalingType::kIIIt1);  // in-proportion bound
  }
  {
    const auto r = sweep_mr(wl::terasort_spec());
    const auto d =
        diagnose(WorkloadType::kFixedTime, r.speedup, r.factors).value();
    EXPECT_EQ(shape_of(d.best_guess), GrowthShape::kBounded);
  }
  // Collaborative Filtering (fixed-size pathology).
  {
    trace::SparkSweepConfig sweep;
    sweep.type = WorkloadType::kFixedTime;
    sweep.tasks_per_executor = 1;
    sweep.ms = {1, 10, 30, 60, 90, 120};
    sweep.params.first_wave_overhead = 0.45;
    const auto r = runner.run_spark_sweep(
        [](std::size_t n) { return wl::collab_filter_app(n); },
        sim::default_emr_cluster(1), sweep);
    const auto d = diagnose(WorkloadType::kFixedSize, r.speedup).value();
    EXPECT_EQ(d.best_guess, ScalingType::kIVs);
  }
}

}  // namespace
}  // namespace ipso
