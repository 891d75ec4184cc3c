// perfbench: runs one workload of the serving benchmark against the
// shipped daemons and prints one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --tools DIR
//   perfbench --self-check
//
// Workloads: cold-fit, hot-mix, observe-compare, routed-mix. See README.md.

#include "bench.h"
#include "reference.h"

#include "serve/engine.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace perfbench {

namespace {

int g_missed = 0;

/// Expects `why` to be empty (right == true) or not.
void expect(bool verbose, const char* name, const std::string& why,
            bool right) {
  const bool ok = right ? why.empty() : !why.empty();
  if (!ok) ++g_missed;
  if (verbose || !ok) {
    std::fprintf(stderr, "self-check %-34s %s%s%s\n", name,
                 ok ? (right ? "passes" : "caught") : "MISSED",
                 why.empty() ? "" : ": ", why.substr(0, 90).c_str());
  }
}

}  // namespace

int self_check(bool verbose) {
  g_missed = 0;
  ipso::serve::ServeConfig cfg;
  cfg.threads = 1;
  ipso::serve::ServeEngine engine(cfg);
  Rng rng(7, 99);

  for (int shape = 0; shape < 4; ++shape) {
    const Trace t = make_trace(rng, 256, shape);
    const std::string resp = engine.handle(trace_line("fit", "s", t));
    expect(verbose, "fit matches its trace", check_fit(resp, t), true);
    Trace bad = t;
    bad.gen.alpha *= 1 + 1e-5;
    expect(verbose, "fit vs alpha*(1+1e-5)", check_fit(resp, bad), false);
    bad = t;
    bad.gen.delta = t.gen.fixed_size ? 1e-9 : t.gen.delta * (1 + 1e-5);
    expect(verbose, "fit vs perturbed delta", check_fit(resp, bad), false);
    bad = t;
    bad.gen.beta *= 1 + 1e-5;
    expect(verbose, "fit vs beta*(1+1e-5)", check_fit(resp, bad), false);
    bad = t;
    bad.gen.gamma *= 1 + 1e-5;
    expect(verbose, "fit vs gamma*(1+1e-5)", check_fit(resp, bad), false);
    bad = t;
    if (t.changepoint) {
      bad.knot += 2;
      expect(verbose, "fit vs knot+2", check_fit(resp, bad), false);
    }
    bad.changepoint = !t.changepoint;
    expect(verbose, "fit vs changepoint flipped", check_fit(resp, bad), false);
  }

  for (int cls = 0; cls < 10; ++cls) {
    const Params p = draw_explicit(rng, cls);
    const std::string pr = engine.handle(explicit_line("predict", "s", p));
    expect(verbose, "predict matches Eq. 16", check_predict(pr, p), true);
    Params bad = p;
    bad.alpha *= 1 + 1e-7;
    bad.eta = p.eta == 1.0 ? p.eta : p.eta * (1 + 1e-7);
    bad.beta = p.beta > 0 ? p.beta * (1 + 1e-7) : 1e-7;
    expect(verbose, "predict vs params*(1+1e-7)", check_predict(pr, bad), false);
    const std::string cr = engine.handle(explicit_line("classify", "s", p));
    expect(verbose, "classify matches its region", check_classify(cr, kClasses[cls]),
           true);
    expect(verbose, "classify vs neighbouring class",
           check_classify(cr, kClasses[(cls + 1) % 10]), false);
  }
  expect(verbose, "ping", check_ping(engine.handle("{\"op\":\"ping\"}")), true);
  expect(verbose, "ping vs an error answer",
         check_ping(engine.handle("{\"op\":\"nope\"}")), false);

  const std::vector<double> ns = {1, 2, 3, 4, 6, 8, 12, 16};
  for (int law = 0; law < 3; ++law) {
    Curve c;
    c.law = static_cast<Curve::Law>(law);
    c.a = law == Curve::kUsl ? 0.05 : 0.85;
    c.b = law == Curve::kUsl ? 0.002 : 0.0;
    const std::string key = std::string("self-") + c.name();
    WindowModel m;
    for (double n : ns) {
      const auto o = m.observe(n, c(n));
      const std::string r = engine.handle(observe_line("s", key, n, c(n)));
      expect(verbose, "observe matches the window rule",
             check_observe(r, key, m, o), true);
    }
    // An absorbed repeat, then a material one, each against a wrong model.
    WindowModel wrong = m;
    const auto absorbed = m.observe(8, c(8) * 1.005);
    std::string r = engine.handle(observe_line("s", key, 8, c(8) * 1.005));
    expect(verbose, "absorbed repeat matches", check_observe(r, key, m, absorbed),
           true);
    wrong.points[8] = c(8) * 1.005;
    ++wrong.version;
    expect(verbose, "absorbed repeat vs stored value",
           check_observe(r, key, wrong, {true, false, false}), false);
    const std::string cmp = engine.handle(
        "{\"op\":\"compare\",\"id\":\"s\",\"key\":\"" + key + "\"}");
    expect(verbose, "law row recovers its curve", check_law_row(cmp, c), true);
    Curve bad = c;
    bad.a *= 1 + 1e-5;
    expect(verbose, "law row vs a*(1+1e-5)", check_law_row(cmp, bad), false);
    if (c.law == Curve::kUsl) {
      bad = c;
      bad.b *= 1 + 1e-5;
      expect(verbose, "law row vs kappa*(1+1e-5)", check_law_row(cmp, bad), false);
    }
    const auto material = m.observe(4, c(4) * 1.05);
    r = engine.handle(observe_line("s", key, 4, c(4) * 1.05));
    expect(verbose, "material change matches", check_observe(r, key, m, material),
           true);
    wrong = m;
    wrong.points[4] = c(4);
    expect(verbose, "material change vs old value",
           check_observe(r, key, wrong, material), false);
  }
  {
    // Eviction past capacity: the smallest n goes; an n below every kept
    // one is dropped on arrival.
    WindowModel m;
    std::string r;
    WindowModel::Outcome o;
    for (int n = 2; n <= 66; ++n) {
      o = m.observe(n, n * 0.5);
      r = engine.handle(observe_line("s", "self-wide", n, n * 0.5));
    }
    expect(verbose, "eviction matches the window rule",
           check_observe(r, "self-wide", m, o), true);
    WindowModel keep_all = m;
    keep_all.points.emplace(2, 1.0);
    expect(verbose, "eviction vs keeping the smallest n",
           check_observe(r, "self-wide", keep_all, o), false);
    o = m.observe(1, 0.5);
    r = engine.handle(observe_line("s", "self-wide", 1, 0.5));
    expect(verbose, "drop matches the window rule",
           check_observe(r, "self-wide", m, o), true);
    expect(verbose, "drop vs material",
           check_observe(r, "self-wide", m, {true, false, false}), false);
  }
  return g_missed;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Ctx ctx;
  bool self_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    if (a == "--self-check") {
      self_only = true;
    } else if (a == "--workload") {
      ctx.opt.workload = v, ++i;
    } else if (a == "--seed") {
      ctx.opt.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      ctx.opt.seconds = std::atof(v), ++i;
    } else if (a == "--trace") {
      ctx.opt.trace = std::strcmp(v, "1") == 0, ++i;
    } else if (a == "--tools") {
      ctx.opt.tools = v, ++i;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (self_only) return self_check(true) == 0 ? 0 : 1;

  using Run = void (*)(Ctx&);
  const std::map<std::string, Run> runs = {{"cold-fit", run_cold_fit},
                                           {"hot-mix", run_hot_mix},
                                           {"observe-compare", run_observe_compare},
                                           {"routed-mix", run_routed_mix}};
  const auto run = runs.find(ctx.opt.workload);
  if (run == runs.end() || ctx.opt.tools.empty() || ctx.opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold-fit|hot-mix|"
                 "observe-compare|routed-mix --seed N --seconds S --trace 0|1 "
                 "--tools DIR\n");
    return 2;
  }
  install_exit_handlers();
  // The checks must notice a wrong answer before they are trusted with
  // right ones; the in-process engine is gone before any daemon starts.
  if (self_check(false) != 0) ctx.res.wrong("self-check missed a perturbation");
  g_spans.enabled = ctx.opt.trace;
  if (ctx.opt.trace) declare_layers(ctx);
  run->second(ctx);

  const Result& r = ctx.res;
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  if (r.attempted == 0 || (!ctx.opt.trace && r.metrics.size() != 5)) {
    std::fprintf(stderr, "perfbench: the workload did not run to its end\n");
    return 3;
  }
  if (ctx.opt.trace) {
    ctx.opt.out_dir = ".bench_out/" + ctx.opt.workload + "-seed" +
                      std::to_string(ctx.opt.seed);
    write_trace_outputs(ctx);
    std::fprintf(stderr, "perfbench: spans and layer table in %s\n",
                 ctx.opt.out_dir.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double v, const std::string& unit) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num(v) + ", \"unit\": \"" + unit + "\"}";
  };
  if (ctx.opt.trace) {
    for (const auto& [name, vu] : ctx.layers) emit(name, vu.first, vu.second);
  } else {
    for (const auto& [name, vu] : r.metrics) emit(name, vu.first, vu.second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  remove_temp_dir();
  return 0;
}
