/// Ablations over the design choices DESIGN.md calls out:
///  (i)   statistical vs deterministic model under straggler injection —
///        the paper argues both agree qualitatively since task tails are
///        finite (Section IV);
///  (ii)  scheduler-contention exponent sweep — where the IVt pathology
///        switches on (gamma crosses 1);
///  (iii) memory spill on/off for TeraSort — the sole source of the Fig. 5
///        step;
///  (iv)  measurement quantization — the paper's 1 s clock makes small
///        fixed-size map phases unmeasurable (Section V).

#include "obs/export.h"
#include "core/classify.h"
#include "core/fit.h"
#include "trace/experiment.h"
#include "trace/cli_opts.h"
#include "trace/runner.h"
#include "trace/report.h"
#include "workloads/qmc_pi.h"
#include "workloads/sort.h"
#include "workloads/spark_apps.h"
#include "workloads/terasort.h"

#include <iostream>

using namespace ipso;

namespace {

void ablation_stragglers(trace::ExperimentRunner& runner) {
  trace::print_banner(std::cout,
                      "Ablation (i): stragglers — statistical vs "
                      "deterministic speedup");
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 4, 16, 64, 160};
  sweep.repetitions = 5;

  auto clean = sim::default_emr_cluster(1);
  auto noisy = clean;
  noisy.straggler.enabled = true;
  noisy.straggler.tail_shape = 3.0;
  noisy.straggler.cap = 3.0;

  const auto det =
      runner.run_mr_sweep(wl::terasort_spec(), clean, sweep);
  const auto stat =
      runner.run_mr_sweep(wl::terasort_spec(), noisy, sweep);
  auto a = det.speedup;
  a.set_name("deterministic");
  auto b = stat.speedup;
  b.set_name("with stragglers (cap 3x)");
  trace::print_series_table(std::cout, "n", {a, b}, 2);
  std::cout << "both saturate at the same bound: stragglers change the "
               "constant, not the scaling type (paper Section IV)\n";
}

void ablation_scheduler(trace::ExperimentRunner& runner) {
  trace::print_banner(std::cout,
                      "Ablation (ii): scheduler contention exponent vs "
                      "scaling type");
  std::vector<std::vector<std::string>> rows;
  for (double exponent : {0.0, 0.5, 1.0, 1.5}) {
    auto cfg = sim::default_emr_cluster(1);
    cfg.scheduler.contention_coeff = 2e-3;
    cfg.scheduler.contention_exponent = exponent;
    trace::MrSweepConfig sweep;
    sweep.type = WorkloadType::kFixedTime;
    sweep.ns = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
    sweep.repetitions = 1;
    const auto r = runner.run_mr_sweep(wl::qmc_pi_spec(), cfg, sweep);
    const auto fits =
        fit_factors(WorkloadType::kFixedTime, r.factors).value();
    const auto cls = classify(fits.params);
    // Dispatch is serial per task: total ~ n^(1+exponent), so q ~ n^(1+e).
    rows.push_back({trace::fmt(exponent, 1),
                    trace::fmt(fits.params.gamma, 2),
                    std::string(to_string(cls.type)),
                    trace::fmt(r.speedup.max_y(), 1)});
  }
  trace::print_table(std::cout,
                     {"contention exp", "fitted gamma", "type", "max S"},
                     rows);
  std::cout << "gamma tracks 1 + exponent; the type flips to IVt once "
               "gamma > 1\n";
}

void ablation_spill(trace::ExperimentRunner& runner) {
  trace::print_banner(std::cout,
                      "Ablation (iii): TeraSort with and without the "
                      "reducer-memory spill");
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  for (double n = 1; n <= 40; ++n) sweep.ns.push_back(n);
  sweep.repetitions = 1;
  const auto base = sim::default_emr_cluster(1);

  auto with = wl::terasort_spec();
  auto without = wl::terasort_spec();
  without.spill_enabled = false;
  const auto r_with = runner.run_mr_sweep(with, base, sweep);
  const auto r_without = runner.run_mr_sweep(without, base, sweep);

  const auto seg_with = detect_in_changepoint(r_with.factors.in);
  const auto seg_without = detect_in_changepoint(r_without.factors.in);
  std::cout << "spill ON : changepoint "
            << (seg_with ? "at n ~ " + trace::fmt(seg_with->knot, 1)
                         : std::string("none"))
            << "\n";
  std::cout << "spill OFF: changepoint "
            << (seg_without ? "at n ~ " + trace::fmt(seg_without->knot, 1)
                            : std::string("none"))
            << "  (straight line: the step is entirely the spill)\n";
}

void ablation_quantization() {
  trace::print_banner(std::cout,
                      "Ablation (iv): 1 s measurement precision vs exact "
                      "clocks (fixed-size MapReduce)");
  // Fixed-size: per-task shards shrink as n grows; with the paper's 1 s
  // clock the map phase becomes unmeasurable past a modest n.
  auto base = sim::default_emr_cluster(1);
  std::vector<std::vector<std::string>> rows;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    auto cfg = base;
    cfg.workers = static_cast<std::size_t>(n);
    mr::MrEngine engine(cfg);
    mr::MrJobConfig job;
    job.num_tasks = cfg.workers;
    job.shard_bytes = 32e6 / n;  // small fixed-size working set
    job.measurement_precision = 1.0;
    const auto exact_job = [&] {
      auto j = job;
      j.measurement_precision = 0.0;
      return j;
    }();
    const auto q = engine.run_parallel(wl::qmc_pi_spec(), job);
    const auto e = engine.run_parallel(wl::qmc_pi_spec(), exact_job);
    rows.push_back({trace::fmt(n, 0), trace::fmt(e.phases.map, 2),
                    trace::fmt(q.phases.map, 0),
                    q.phases.map == 0.0 ? "unmeasurable" : "ok"});
  }
  trace::print_table(std::cout,
                     {"n", "map (exact s)", "map (1 s clock)", "verdict"},
                     rows);
  std::cout << "matches the paper's remark that fixed-size map phases drop "
               "to sub-seconds past n = 8 and cannot be measured\n";
}

void ablation_incast(trace::ExperimentRunner& runner) {
  trace::print_banner(std::cout,
                      "Ablation (v): TCP-incast at the single reducer "
                      "(paper Section II cites incast as a speedup killer)");
  // Incast penalty makes the shuffle excess grow ~n^2 (per-sender penalty
  // on a volume that itself grows with n), i.e. gamma ~ 2: Sort's IIIt,1
  // turns into the pathological IVt.
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8, 16, 32, 64, 128, 192, 256, 320};
  sweep.repetitions = 1;

  auto clean = sim::default_emr_cluster(1);
  auto incast = clean;
  incast.network.incast_penalty_per_sender = 0.004;  // +0.4% per extra flow

  const auto r_clean = runner.run_mr_sweep(wl::sort_spec(), clean, sweep);
  const auto r_incast = runner.run_mr_sweep(wl::sort_spec(), incast, sweep);
  auto a = r_clean.speedup;
  a.set_name("no incast");
  auto b = r_incast.speedup;
  b.set_name("with incast");
  trace::print_series_table(std::cout, "n", {a, b}, 2);

  const auto fits =
      fit_factors(WorkloadType::kFixedTime, r_incast.factors).value();
  const auto cls = classify(fits.params);
  std::cout << "with incast: fitted gamma = "
            << trace::fmt(fits.params.gamma, 2) << ", type "
            << to_string(cls.type)
            << (stats::is_peaked(r_incast.speedup)
                    ? " (curve peaks and falls)"
                    : "")
            << "\n";
}

void ablation_failures(trace::ExperimentRunner& runner) {
  trace::print_banner(std::cout,
                      "Ablation (vi): task-failure injection in Spark "
                      "(paper: RAM pressure raises failure rates and forces "
                      "stage rollback)");
  trace::SparkSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.tasks_per_executor = 8;  // the over-committed, spilling regime
  sweep.ms = {1, 8, 16, 32, 64};

  auto faulty = sweep;
  faulty.params.faults.task_failure_prob = 0.05;
  faulty.params.faults.spill_failure_multiplier = 6.0;

  const auto base = sim::default_emr_cluster(1);
  const auto app = [](std::size_t) { return wl::bayes_app(); };
  const auto r_clean = runner.run_spark_sweep(app, base, sweep);
  const auto r_faulty = runner.run_spark_sweep(app, base, faulty);
  auto a = r_clean.speedup;
  a.set_name("no failures");
  auto b = r_faulty.speedup;
  b.set_name("5% failures (6x when spilled)");
  trace::print_series_table(std::cout, "m", {a, b}, 2);
  std::cout << "retried work counts as scale-out-induced Wo: failures push "
               "the already-spilling N/m=8 configuration further below "
               "N/m=4\n";
}

void ablation_contention(trace::ExperimentRunner& runner) {
  trace::print_banner(std::cout,
                      "Ablation (vii): shared-resource contention "
                      "(paper's citation [9]: contention induces an "
                      "effective serial workload)");
  trace::MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8, 16, 32, 64, 96, 128, 160, 200};
  sweep.repetitions = 1;

  std::vector<stats::Series> curves;
  for (double phi : {0.0, 0.1, 0.3}) {
    auto cfg = sim::default_emr_cluster(1);
    cfg.contention_phi = phi;
    cfg.contention_capacity = 64.0;
    auto r = runner.run_mr_sweep(wl::qmc_pi_spec(), cfg, sweep);
    auto s = r.speedup;
    s.set_name("phi=" + trace::fmt(phi, 1));
    curves.push_back(std::move(s));
  }
  trace::print_series_table(std::cout, "n", curves, 2);
  std::cout << "phi = 0: QMC stays Gustafson-like (It). With contention the "
               "same perfectly parallel workload saturates as the shared "
               "resource approaches capacity (n -> capacity/phi) — an "
               "effective serial workload appears although the program has "
               "none\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (trace::handle_info_flags(argc, argv,
                               "Ablations over the design choices DESIGN.md calls out:")) {
    return 0;
  }
  const obs::TraceSession trace_session(
      trace::trace_out_from_args(argc, argv));
  trace::ExperimentRunner runner(trace::runner_config_from_args(argc, argv));
  ablation_stragglers(runner);
  ablation_scheduler(runner);
  ablation_spill(runner);
  ablation_quantization();
  ablation_incast(runner);
  ablation_failures(runner);
  ablation_contention(runner);
  return 0;
}
