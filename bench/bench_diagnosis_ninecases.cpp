/// Section V of the paper applies IPSO as a diagnostic tool to nine cases:
/// four MapReduce fixed-time benchmarks, Collaborative Filtering
/// (fixed-size, from Orchestra [12]), and four Spark benchmarks. This bench
/// runs the recommended six-step diagnostic procedure end-to-end on all
/// nine simulated cases and prints the matched scaling type and root cause.

#include "obs/export.h"
#include "core/diagnose.h"
#include "trace/experiment.h"
#include "trace/cli_opts.h"
#include "trace/runner.h"
#include "trace/report.h"
#include "workloads/qmc_pi.h"
#include "workloads/sort.h"
#include "workloads/spark_apps.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

#include <iostream>

using namespace ipso;

int main(int argc, char** argv) {
  if (trace::handle_info_flags(argc, argv,
                               "Section V of the paper applies IPSO as a diagnostic tool to nine cases:")) {
    return 0;
  }
  const obs::TraceSession trace_session(
      trace::trace_out_from_args(argc, argv));
  trace::ExperimentRunner runner(trace::runner_config_from_args(argc, argv));
  std::vector<std::vector<std::string>> rows;

  // --- four MapReduce cases (fixed-time) with factor measurements
  for (const auto& spec : {wl::qmc_pi_spec(), wl::wordcount_spec(),
                           wl::sort_spec(), wl::terasort_spec()}) {
    trace::MrSweepConfig sweep;
    sweep.type = WorkloadType::kFixedTime;
    sweep.ns = {1, 2, 4, 8, 16, 32, 64, 96, 128, 160};
    sweep.repetitions = 1;
    const auto r =
        runner.run_mr_sweep(spec, sim::default_emr_cluster(1), sweep);
    const auto d =
        diagnose(WorkloadType::kFixedTime, r.speedup, r.factors).value();
    trace::print_banner(std::cout, "Case: " + spec.name + " (MapReduce)");
    std::cout << d.summary;
    rows.push_back({spec.name, "MapReduce/fixed-time",
                    std::string(to_string(d.best_guess))});
  }

  // --- Collaborative Filtering (fixed-size)
  {
    trace::SparkSweepConfig sweep;
    sweep.type = WorkloadType::kFixedTime;
    sweep.tasks_per_executor = 1;
    sweep.ms = {1, 10, 30, 60, 90, 120};
    sweep.params.first_wave_overhead = 0.45;
    const auto r = runner.run_spark_sweep(
        [](std::size_t n) { return wl::collab_filter_app(n); },
        sim::default_emr_cluster(1), sweep);
    const auto d =
        diagnose(WorkloadType::kFixedSize, r.speedup, r.factors).value();
    trace::print_banner(std::cout, "Case: CollaborativeFiltering (Spark)");
    std::cout << d.summary;
    rows.push_back({"CollaborativeFiltering", "Spark/fixed-size",
                    std::string(to_string(d.best_guess))});
  }

  // --- four Spark ML/graph cases, fixed-size dimension
  auto cluster = sim::default_emr_cluster(1);
  cluster.scheduler.contention_coeff = 5e-4;
  for (const auto& app : {wl::bayes_app(), wl::random_forest_app(),
                          wl::svm_app(), wl::nweight_app()}) {
    trace::SparkSweepConfig sweep;
    sweep.type = WorkloadType::kFixedSize;
    sweep.total_tasks = 192;
    sweep.ms = {1, 4, 16, 48, 64, 96, 128, 160, 192};
    const auto r = runner.run_spark_sweep(
        [&](std::size_t) { return app; }, cluster, sweep);
    const auto d = diagnose(WorkloadType::kFixedSize, r.speedup).value();
    trace::print_banner(std::cout, "Case: " + app.name + " (Spark)");
    std::cout << d.summary;
    rows.push_back({app.name, "Spark/fixed-size",
                    std::string(to_string(d.best_guess))});
  }

  trace::print_banner(std::cout, "Summary: nine-case diagnosis");
  trace::print_table(std::cout, {"case", "setting", "matched type"}, rows);
  std::cout << "paper expectation: QMC It; WordCount It/IIt; Sort, TeraSort "
               "IIIt,1; CF IVs; the four Spark apps IVs on the fixed-size "
               "dimension\n";
  return 0;
}
