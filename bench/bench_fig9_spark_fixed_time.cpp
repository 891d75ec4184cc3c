/// Fig. 9 of the paper: Spark benchmarks (Bayes, RandomForest, SVM,
/// NWeight) projected onto the fixed-time dimension — speedup vs m with
/// N/m held at 1, 2, 4 and 8. Expected ordering at every m: 4 > 2 > 1
/// (larger per-executor load amortizes the first-wave scheduling and
/// deserialization cost) while 8 falls below 4 (executor RAM pressure
/// spills persistent RDDs to disk).

#include "obs/export.h"
#include "stats/surface.h"
#include "trace/cli_opts.h"
#include "trace/experiment.h"
#include "trace/runner.h"
#include "trace/report.h"
#include "workloads/spark_apps.h"

#include <iostream>

using namespace ipso;

namespace {

sim::ClusterConfig spark_cluster() {
  auto cfg = sim::default_emr_cluster(1);
  // Centralized-scheduler contention: per-task dispatch cost grows with m
  // (the paper cites Canary's observation of quadratic scheduling growth).
  cfg.scheduler.contention_coeff = 5e-4;
  cfg.scheduler.contention_exponent = 1.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  if (trace::handle_info_flags(argc, argv,
                               "Fig. 9 of the paper: Spark benchmarks (Bayes, RandomForest, SVM,")) {
    return 0;
  }
  const trace::CliOptions opts = trace::parse_cli_options(argc, argv);
  const obs::TraceSession trace_session(opts.trace_out);
  trace::ExperimentRunner runner(opts.runner);
  const auto base = spark_cluster();
  const std::vector<double> ms{1, 2, 4, 8, 16, 24, 32, 48, 64};
  // Optional fault injection (--fail-prob P, --speculate [F],
  // --max-retries K); inactive by default, leaving the output unchanged.
  const sim::FaultModelParams faults = opts.faults;

  for (const auto& app : {wl::bayes_app(), wl::random_forest_app(),
                          wl::svm_app(), wl::nweight_app()}) {
    trace::print_banner(std::cout, "Fig. 9: " + app.name +
                                       " — fixed-time dimension (N/m fixed)");
    std::vector<stats::Series> curves;
    std::vector<stats::SurfacePoint> samples;  // (N, m, S) for the surface
    for (std::size_t k : {1u, 2u, 4u, 8u}) {
      trace::SparkSweepConfig sweep;
      sweep.type = WorkloadType::kFixedTime;
      sweep.tasks_per_executor = k;
      sweep.ms = ms;
      sweep.params.faults = faults;
      auto r = runner.run_spark_sweep(
          [&](std::size_t) { return app; }, base, sweep);
      for (const auto& p : r.points) {
        samples.push_back({static_cast<double>(p.total_tasks), p.m,
                           p.speedup});
      }
      auto s = r.speedup;
      s.set_name("N/m=" + std::to_string(k) +
                 (r.points.back().spilled ? " (spill)" : ""));
      curves.push_back(std::move(s));
    }
    trace::print_series_table(std::cout, "m", curves, 2);

    // The paper plots "projected curves of the matched two-dimensional
    // surfaces as functions of N and m": fit S(N, m) and project the
    // N = k·m slices as the trend guide.
    const auto surface = stats::QuadraticSurface::fit(samples);
    std::vector<stats::Series> projections;
    for (std::size_t k : {1u, 2u, 4u}) {
      projections.push_back(surface.slice(
          ms, [k](double m) { return static_cast<double>(k) * m; },
          "matched N/m=" + std::to_string(k)));
    }
    std::cout << "matched surface R^2 = " << trace::fmt(surface.r_squared(), 3)
              << "; projected trend curves:\n";
    trace::print_series_table(std::cout, "m", projections, 2);
  }
  std::cout << "\nexpected: N/m = 4 > 2 > 1 at every m; N/m = 8 < 4 due to "
               "executor RAM pressure (paper Section V.B)\n";
  return 0;
}
