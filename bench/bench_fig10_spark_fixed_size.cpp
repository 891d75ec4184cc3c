/// Fig. 10 of the paper: Spark benchmarks projected onto the fixed-size
/// dimension — speedup vs m with the problem size N fixed. For large N all
/// four applications peak and then fall (type IVs) because the
/// scale-out-induced overhead (driver-serialized broadcast + per-task
/// scheduling contention) grows superlinearly with m — in stark contrast
/// with Amdahl's IIIs prediction.

#include "obs/export.h"
#include "core/diagnose.h"
#include "stats/linalg.h"
#include "trace/experiment.h"
#include "trace/cli_opts.h"
#include "trace/runner.h"
#include "trace/report.h"
#include "workloads/spark_apps.h"

#include <iostream>

using namespace ipso;

namespace {

sim::ClusterConfig spark_cluster() {
  auto cfg = sim::default_emr_cluster(1);
  cfg.scheduler.contention_coeff = 5e-4;
  cfg.scheduler.contention_exponent = 1.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  if (trace::handle_info_flags(argc, argv,
                               "Fig. 10 of the paper: Spark benchmarks projected onto the fixed-size")) {
    return 0;
  }
  const obs::TraceSession trace_session(
      trace::trace_out_from_args(argc, argv));
  trace::ExperimentRunner runner(trace::runner_config_from_args(argc, argv));
  const auto base = spark_cluster();
  trace::SparkSweepConfig sweep;
  sweep.type = WorkloadType::kFixedSize;
  sweep.total_tasks = 192;
  sweep.ms = {1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 160, 192};
  // Optional fault injection (--fail-prob P, --speculate [F],
  // --max-retries K); inactive by default, leaving the output unchanged.
  sweep.params.faults =
      trace::fault_params_from_args(argc, argv, sweep.params.faults);

  std::vector<stats::Series> curves;
  std::vector<stats::Series> matched;
  std::vector<std::vector<std::string>> verdicts;
  for (const auto& app : {wl::bayes_app(), wl::random_forest_app(),
                          wl::svm_app(), wl::nweight_app()}) {
    auto r = runner.run_spark_sweep([&](std::size_t) { return app; }, base,
                                    sweep);
    auto s = r.speedup;
    s.set_name(app.name);
    const auto d = diagnose(WorkloadType::kFixedSize, s).value();
    verdicts.push_back({app.name, std::string(to_string(d.best_guess)),
                        trace::fmt(s.argmax_x(), 0),
                        trace::fmt(s.max_y(), 2)});

    // Matched trend curve at fixed N (the paper's surface projection);
    // with N constant the 2-D surface degenerates to a polynomial in m,
    // fitted on the past-spill region where the IVs shape lives.
    std::vector<double> ms_fit, s_fit;
    for (const auto& p : r.points) {
      if (!p.spilled) {
        ms_fit.push_back(p.m);
        s_fit.push_back(p.speedup);
      }
    }
    if (ms_fit.size() >= 4) {
      const auto coeffs = stats::polyfit(ms_fit, s_fit, 2);
      stats::Series trend("matched " + app.name);
      for (double m : sweep.ms) {
        if (m >= ms_fit.front()) trend.add(m, stats::polyval(coeffs, m));
      }
      matched.push_back(std::move(trend));
    }
    curves.push_back(std::move(s));
  }

  trace::print_banner(std::cout,
                      "Fig. 10: fixed-size dimension (N = 192), S vs m");
  trace::print_series_table(std::cout, "m", curves, 2);

  if (!matched.empty()) {
    trace::print_banner(std::cout,
                        "Matched trend curves (quadratic regression on the "
                        "no-spill region, as the paper's surface fits)");
    trace::print_series_table(std::cout, "m", matched, 2);
  }

  trace::print_banner(std::cout, "Diagnosis per app (expected IVs)");
  trace::print_table(std::cout, {"app", "type", "peak m", "peak S"},
                     verdicts);
  std::cout << "note: the small-m region runs with spilled RDD caches "
               "(N/m > executor memory), as the paper observes for "
               "over-committed executors\n";
  return 0;
}
