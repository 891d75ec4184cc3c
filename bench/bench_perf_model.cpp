/// google-benchmark microbenchmarks of the IPSO library itself: model
/// evaluation, classification, fitting and a full simulated sweep. These
/// quantify the cost of using IPSO as an online diagnostic/provisioning
/// tool (the paper's motivation for measurement-based resource
/// provisioning requires the fit to be cheap).

#include "core/classify.h"
#include "core/fit.h"
#include "core/model.h"
#include "core/predict.h"
#include "stats/nonlinear.h"
#include "trace/experiment.h"
#include "trace/runner.h"
#include "workloads/sort.h"

#include <benchmark/benchmark.h>

namespace {

using namespace ipso;

void BM_SpeedupDeterministic(benchmark::State& state) {
  const ScalingFactors f{identity_factor(), linear_factor(0.23, 0.77),
                         make_q(1e-4, 1.5)};
  double n = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(speedup_deterministic(f, 0.6, n));
    n = n >= 1024 ? 1.0 : n + 1.0;
  }
}
BENCHMARK(BM_SpeedupDeterministic);

void BM_SpeedupAsymptotic(benchmark::State& state) {
  AsymptoticParams p;
  p.eta = 0.8;
  p.alpha = 2.0;
  p.delta = 0.3;
  p.beta = 1e-3;
  p.gamma = 1.4;
  double n = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(speedup_asymptotic(p, n));
    n = n >= 1024 ? 1.0 : n + 1.0;
  }
}
BENCHMARK(BM_SpeedupAsymptotic);

void BM_Classify(benchmark::State& state) {
  AsymptoticParams p;
  p.eta = 0.8;
  p.alpha = 2.0;
  p.delta = 0.0;
  p.beta = 1e-3;
  p.gamma = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify(p));
  }
}
BENCHMARK(BM_Classify);

void BM_PowerFit(benchmark::State& state) {
  stats::Series s("q");
  for (double n = 2; n <= 256; n *= 2) s.add(n, 3.7e-4 * n * n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_power(s));
  }
}
BENCHMARK(BM_PowerFit);

// Fig. 5's IN(n) shape (slope 0.15, then 0.25 after a jump at 15/64 of the
// range) at trace lengths from the paper's sweeps to the serving traces.
void BM_SegmentedFit(benchmark::State& state) {
  const int points = static_cast<int>(state.range(0));
  const int knee = 15 * points / 64;
  stats::Series s("IN");
  for (int n = 1; n <= points; ++n) {
    s.add(n, n <= knee ? 0.15 * n + 0.85 : 0.25 * n + 0.85);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_segmented(s));
  }
  state.SetComplexityN(points);
}
BENCHMARK(BM_SegmentedFit)
    ->Arg(64)
    ->Arg(512)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond)
    ->Complexity();

void BM_NelderMeadHyperbolic(benchmark::State& state) {
  stats::Series s("tp");
  for (double n : {10.0, 30.0, 60.0, 90.0}) s.add(n, 2001.0 / n + 9.0);
  auto model = [](const std::vector<double>& p, double x) {
    return p[0] / x + p[1];
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_curve(s, model, {100.0, 1.0}));
  }
}
BENCHMARK(BM_NelderMeadHyperbolic);

void BM_FullMrSweep(benchmark::State& state) {
  const auto spec = wl::sort_spec();
  const auto base = sim::default_emr_cluster(1);
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8, 16};
  sweep.repetitions = 1;
  trace::ExperimentRunner runner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run_mr_sweep(spec, base, sweep));
  }
}
BENCHMARK(BM_FullMrSweep);

void BM_FitAndPredictPipeline(benchmark::State& state) {
  const auto spec = wl::sort_spec();
  const auto base = sim::default_emr_cluster(1);
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8, 16};
  sweep.repetitions = 1;
  trace::ExperimentRunner runner;
  const auto r = runner.run_mr_sweep(spec, base, sweep);
  for (auto _ : state) {
    const auto fits = fit_factors(WorkloadType::kFixedTime, r.factors).value();
    const auto predictor = SpeedupPredictor::from_fits(fits);
    benchmark::DoNotOptimize(predictor(160.0));
  }
}
BENCHMARK(BM_FitAndPredictPipeline);

}  // namespace

BENCHMARK_MAIN();
