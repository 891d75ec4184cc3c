/// One-command reproduction scoreboard: re-derives every headline claim of
/// the paper from the simulated pipeline and prints PASS/FAIL per claim
/// (the README table, machine-checked). Exit code 0 iff everything passes.

#include "obs/export.h"
#include "core/classify.h"
#include "core/diagnose.h"
#include "core/laws.h"
#include "core/predict.h"
#include "trace/experiment.h"
#include "trace/cli_opts.h"
#include "trace/runner.h"
#include "trace/reference_data.h"
#include "trace/report.h"
#include "workloads/qmc_pi.h"
#include "workloads/sort.h"
#include "workloads/spark_apps.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

#include <cmath>
#include <iostream>

using namespace ipso;

namespace {

struct Scoreboard {
  std::vector<std::vector<std::string>> rows;
  bool all_pass = true;

  void check(const std::string& claim, bool pass,
             const std::string& detail) {
    rows.push_back({claim, pass ? "PASS" : "FAIL", detail});
    all_pass = all_pass && pass;
  }
};

}  // namespace

int main(int argc, char** argv) {
  if (trace::handle_info_flags(argc, argv,
                               "One-command reproduction scoreboard: re-derives every headline claim of")) {
    return 0;
  }
  Scoreboard board;
  const auto base = sim::default_emr_cluster(1);

  // One pool serves every sweep below; results are bit-identical to serial
  // execution at any thread count (--threads / IPSO_THREADS override).
  const obs::TraceSession trace_session(
      trace::trace_out_from_args(argc, argv));
  trace::ExperimentRunner runner(trace::runner_config_from_args(argc, argv));

  // --- MapReduce fixed-time sweeps (Figs. 4-6).
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8, 16, 32, 64, 96, 128, 160};
  sweep.repetitions = 1;

  {
    const auto r = runner.run_mr_sweep(wl::qmc_pi_spec(), base, sweep);
    const double gust = laws::gustafson(r.factors.eta, 160.0);
    const double rel = std::abs(r.speedup[9].y - gust) / gust;
    board.check("QMC follows Gustafson (It)", rel < 0.15,
                "S(160)=" + trace::fmt(r.speedup[9].y, 1) + " vs Gustafson " +
                    trace::fmt(gust, 1));
  }
  {
    const auto r = runner.run_mr_sweep(wl::sort_spec(), base, sweep);
    const auto fit = stats::fit_linear(r.factors.in);
    board.check("Sort IN(n) slope ~0.36 (paper Fig. 6)",
                std::abs(fit.slope - 0.36) < 0.02,
                "slope=" + trace::fmt(fit.slope, 3));
    board.check("Sort speedup bounded ~5 (IIIt,1)",
                r.speedup.max_y() > 4.0 && r.speedup.max_y() < 5.5,
                "max S=" + trace::fmt(r.speedup.max_y(), 2));
  }
  {
    trace::MrSweepConfig fine = sweep;
    fine.ns.clear();
    for (double n = 1; n <= 40; ++n) fine.ns.push_back(n);
    const auto r = runner.run_mr_sweep(wl::terasort_spec(), base, fine);
    const auto seg = detect_in_changepoint(r.factors.in);
    board.check("TeraSort IN(n) changepoint at n~15 (Fig. 5)",
                seg && std::abs(seg->knot - 15.0) <= 3.0,
                seg ? "knot=" + trace::fmt(seg->knot, 1) : "none");
    board.check(
        "TeraSort IN slopes 0.15 -> 0.25 (Fig. 5)",
        seg && std::abs(seg->left.slope - 0.15) < 0.03 &&
            std::abs(seg->right.slope - 0.25) < 0.03,
        seg ? trace::fmt(seg->left.slope, 3) + " -> " +
                  trace::fmt(seg->right.slope, 3)
            : "-");
    const double burst =
        r.factors.in.interpolate(16.0) / r.factors.in.interpolate(15.0);
    board.check("TeraSort IN bursts >30% at overflow", burst > 1.3,
                "+" + trace::fmt(100 * (burst - 1), 0) + "%");
  }
  {
    const auto r = runner.run_mr_sweep(wl::terasort_spec(), base, sweep);
    board.check("TeraSort speedup bounded ~3 (Fig. 4d)",
                r.speedup.max_y() > 2.4 && r.speedup.max_y() < 3.3,
                "max S=" + trace::fmt(r.speedup.max_y(), 2));
  }

  // --- Fig. 7: prediction from small n.
  {
    trace::MrSweepConfig fit_sweep = sweep;
    fit_sweep.ns = {1, 2, 4, 6, 8, 10, 12, 14, 16};
    const auto small = runner.run_mr_sweep(wl::sort_spec(), base, fit_sweep);
    const auto fits =
        fit_factors(WorkloadType::kFixedTime, small.factors).value();
    const auto pred = SpeedupPredictor::from_fits(fits);
    trace::MrSweepConfig big = sweep;
    big.ns = {160};
    const auto truth = runner.run_mr_sweep(wl::sort_spec(), base, big);
    const double rel =
        std::abs(pred(160.0) - truth.speedup[0].y) / truth.speedup[0].y;
    board.check("IPSO fit at n<=16 predicts Sort S(160) (Fig. 7)",
                rel < 0.1, "err=" + trace::fmt(100 * rel, 1) + "%");
  }

  // --- Table I / Fig. 8: CF pathology.
  {
    const auto wo = trace::reference::cf_wo_series();
    stats::Series wp("Wp");
    for (const auto& p : wo) wp.add(p.x, trace::reference::kCfTp1);
    const auto qfit = stats::fit_power(q_series_from_workloads(wo, wp).value());
    board.check("CF Table I yields gamma ~ 2",
                std::abs(qfit.exponent - 2.0) < 0.1,
                "gamma=" + trace::fmt(qfit.exponent, 2));

    trace::SparkSweepConfig cf;
    cf.type = WorkloadType::kFixedTime;
    cf.tasks_per_executor = 1;
    cf.ms = {1, 10, 30, 50, 60, 70, 90, 120};
    cf.params.first_wave_overhead = 0.45;
    const auto r = runner.run_spark_sweep(
        [](std::size_t n) { return wl::collab_filter_app(n); }, base, cf);
    board.check("CF speedup peaks ~21 near n=60 then falls (IVs, Fig. 8)",
                stats::is_peaked(r.speedup) &&
                    std::abs(r.speedup.argmax_x() - 60.0) <= 20.0 &&
                    std::abs(r.speedup.max_y() - 21.0) <= 6.0,
                "peak S=" + trace::fmt(r.speedup.max_y(), 1) + " at n=" +
                    trace::fmt(r.speedup.argmax_x(), 0));
  }

  // --- Figs. 9-10: Spark dimensions.
  auto spark_base = base;
  spark_base.scheduler.contention_coeff = 5e-4;
  {
    auto s_at = [&](std::size_t k) {
      trace::SparkSweepConfig cfg;
      cfg.type = WorkloadType::kFixedTime;
      cfg.tasks_per_executor = k;
      cfg.ms = {32};
      return runner.run_spark_sweep(
                 [](std::size_t) { return wl::bayes_app(); }, spark_base,
                 cfg)
          .speedup[0]
          .y;
    };
    const double s1 = s_at(1), s2 = s_at(2), s4 = s_at(4), s8 = s_at(8);
    board.check("Spark fixed-time ordering 4 > 2 > 1 and 8 < 4 (Fig. 9)",
                s4 > s2 && s2 > s1 && s8 < s4,
                trace::fmt(s1, 1) + "/" + trace::fmt(s2, 1) + "/" +
                    trace::fmt(s4, 1) + "/" + trace::fmt(s8, 1));
  }
  {
    trace::SparkSweepConfig cfg;
    cfg.type = WorkloadType::kFixedSize;
    cfg.total_tasks = 192;
    cfg.ms = {1, 4, 16, 48, 64, 96, 128, 160, 192};
    bool all_peaked = true;
    for (const auto& app : {wl::bayes_app(), wl::random_forest_app(),
                            wl::svm_app(), wl::nweight_app()}) {
      const auto r = runner.run_spark_sweep(
          [&](std::size_t) { return app; }, spark_base, cfg);
      all_peaked = all_peaked && stats::is_peaked(r.speedup);
    }
    board.check("Spark fixed-size peak-and-fall for all 4 apps (Fig. 10)",
                all_peaked, "Bayes/RF/SVM/NWeight");
  }

  // --- Law degeneration.
  {
    double worst = 0.0;
    for (double eta = 0.1; eta <= 1.0; eta += 0.1) {
      for (double n = 1; n <= 1024; n *= 4) {
        const ScalingFactors amdahl_f{constant_factor(1.0),
                                      constant_factor(1.0),
                                      constant_factor(0.0)};
        const ScalingFactors gust_f{identity_factor(), constant_factor(1.0),
                                    constant_factor(0.0)};
        worst = std::max(
            worst, std::abs(speedup_deterministic(amdahl_f, eta, n) -
                            laws::amdahl(eta, n)));
        worst = std::max(
            worst, std::abs(speedup_deterministic(gust_f, eta, n) -
                            laws::gustafson(eta, n)));
      }
    }
    board.check("Classical laws are exact IPSO special cases (Eq. 12-13)",
                worst < 1e-12, "max err=" + trace::fmt(worst, 15));
  }

  trace::print_banner(std::cout, "IPSO reproduction scoreboard");
  trace::print_table(std::cout, {"claim", "verdict", "detail"}, board.rows);
  const auto metrics = runner.metrics();
  // Wall-clock timing varies run to run, so it goes to stderr and stdout
  // stays byte-comparable against the checked-in golden.
  std::cerr << "\nsweep engine: " << runner.threads() << " threads, "
            << metrics.sweeps_run << " sweeps, " << metrics.tasks_completed
            << " tasks, " << trace::fmt(metrics.busy_seconds, 2)
            << "s task time in " << trace::fmt(metrics.wall_seconds, 2)
            << "s wall ("
            << trace::fmt(metrics.wall_seconds > 0.0
                              ? metrics.busy_seconds / metrics.wall_seconds
                              : 0.0,
                          1)
            << "x parallelism)\n";
  std::cout << (board.all_pass ? "\nALL CLAIMS REPRODUCED\n"
                               : "\nSOME CLAIMS FAILED\n");
  return board.all_pass ? 0 : 1;
}
