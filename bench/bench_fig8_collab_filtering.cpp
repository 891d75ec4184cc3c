/// Table I + Fig. 8 of the paper: the Collaborative Filtering case study.
/// Part 1 reproduces Table I from the simulated CF job (E[max Tp,i(n)] and
/// Wo(n) per n) next to the paper's published values. Part 2 runs IPSO's
/// statistical pipeline on the paper's own numbers (hyperbolic fit of the
/// task times, gamma from the Wo power law) and prints measured/IPSO/Amdahl
/// speedups: the IVs pathology — peak ~21 near n = 60, then decline —
/// versus Amdahl's S(n) = n.

#include "obs/export.h"
#include "core/classify.h"
#include "core/fit.h"
#include "stats/nonlinear.h"
#include "trace/experiment.h"
#include "trace/cli_opts.h"
#include "trace/runner.h"
#include "trace/reference_data.h"
#include "trace/report.h"
#include "workloads/spark_apps.h"

#include <iostream>

using namespace ipso;

int main(int argc, char** argv) {
  if (trace::handle_info_flags(argc, argv,
                               "Table I + Fig. 8 of the paper: the Collaborative Filtering case study.")) {
    return 0;
  }
  const obs::TraceSession trace_session(
      trace::trace_out_from_args(argc, argv));
  trace::ExperimentRunner runner(trace::runner_config_from_args(argc, argv));
  // --- Part 1: re-simulated Table I.
  trace::SparkSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;  // one task per node...
  sweep.tasks_per_executor = 1;           // ...of a fixed total workload
  sweep.ms = {1, 10, 30, 60, 90, 120};
  sweep.params.first_wave_overhead = 0.45;
  const auto r = runner.run_spark_sweep(
      [](std::size_t n) { return wl::collab_filter_app(n); },
      sim::default_emr_cluster(1), sweep);

  trace::print_banner(std::cout,
                      "Table I: CF measured workloads (simulated vs paper)");
  std::vector<std::vector<std::string>> rows;
  for (const auto& p : r.points) {
    std::string paper_tp = "-", paper_wo = "-";
    for (const auto& ref : trace::reference::kCollabFilteringTable) {
      if (ref.n == p.m) {
        paper_tp = trace::fmt(ref.e_max_tp, 1);
        paper_wo = trace::fmt(ref.wo, 1);
      }
    }
    // Per-node compute share approximates E[max Tp,i(n)] (deterministic).
    rows.push_back({trace::fmt(p.m, 0),
                    trace::fmt(p.components.wp / p.m, 1), paper_tp,
                    trace::fmt(p.components.wo, 1), paper_wo,
                    trace::fmt(p.speedup, 2)});
  }
  trace::print_table(std::cout,
                     {"n", "E[maxTp] sim", "paper", "Wo sim", "paper", "S(n)"},
                     rows);

  // --- Part 2: IPSO pipeline on the paper's published Table I numbers.
  trace::print_banner(std::cout,
                      "Fig. 8: IPSO fit on the paper's Table I data");
  const auto tp = trace::reference::cf_max_tp_series();
  const auto wo = trace::reference::cf_wo_series();
  const auto tp_fit = stats::fit_hyperbolic(tp);
  std::cout << "E[max Tp,i(n)] ~ " << trace::fmt(tp_fit.a, 1) << "/n + "
            << trace::fmt(tp_fit.c, 1)
            << "  => extrapolated E[Tp,1(1)] = " << trace::fmt(tp_fit(1.0), 1)
            << " (paper: " << trace::reference::kCfTp1 << ")\n";

  stats::Series wp("Wp");
  for (const auto& p : wo) wp.add(p.x, tp_fit(1.0));
  const auto q = q_series_from_workloads(wo, wp).value();
  const auto q_fit = stats::fit_power(q);
  std::cout << "q(n) ~ " << trace::fmt(q_fit.coeff, 6) << " * n^"
            << trace::fmt(q_fit.exponent, 2) << "  => gamma = "
            << trace::fmt(q_fit.exponent, 2) << " (paper: 2)\n";

  AsymptoticParams params;
  params.type = WorkloadType::kFixedSize;
  params.eta = 1.0;
  params.beta = q_fit.coeff;
  params.gamma = q_fit.exponent;
  const auto cls = classify(params);
  std::cout << "classified type: " << to_string(cls.type) << " — peak S ~ "
            << trace::fmt(cls.peak_speedup, 1) << " at n ~ "
            << trace::fmt(cls.peak_n, 0) << " (paper: ~"
            << trace::reference::kCfPeakSpeedup << " at ~"
            << trace::reference::kCfPeakN << ")\n";

  // Speedup table: Eq. 18 on the fitted curves vs simulation vs Amdahl.
  trace::print_banner(std::cout,
                      "Fig. 8: speedups — simulated, IPSO (Eq. 18), Amdahl");
  stats::Series ipso_curve("IPSO (Eq. 18)");
  stats::Series amdahl("Amdahl (S=n)");
  for (double n : {1.0, 10.0, 30.0, 60.0, 90.0, 120.0}) {
    const double wo_n = n > 1 ? tp_fit(1.0) * params.beta *
                                    std::pow(n, params.gamma - 1.0)
                              : 0.0;
    ipso_curve.add(n, tp_fit(1.0) / (tp_fit(n) + wo_n));
    amdahl.add(n, n);
  }
  auto sim_curve = r.speedup;
  sim_curve.set_name("Simulated");
  trace::print_series_table(std::cout, "n", {sim_curve, ipso_curve, amdahl},
                            2);
  return 0;
}
