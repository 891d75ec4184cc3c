#include "reference.h"

#include <cmath>

namespace perfbench {

namespace {

std::string rel_error(const char* what, double got, double want,
                      double tol) {
  const double err = want == 0.0 ? std::abs(got)
                                 : std::abs(got - want) / std::abs(want);
  if (err <= (want == 0.0 ? 1e-12 : tol)) return {};
  return std::string(what) + " = " + num(got) + ", expected " + num(want);
}

std::optional<Json> ok_json(const std::string& resp, std::string* why) {
  auto j = parse_json(resp);
  if (!j) {
    *why = "unparseable response: " + resp.substr(0, 160);
    return std::nullopt;
  }
  const Json* ok = j->get("ok");
  if (ok == nullptr || !ok->b) {
    *why = "not ok: " + resp.substr(0, 160);
    return std::nullopt;
  }
  return j;
}

void append_series(std::string& out, const char* name, std::size_t points,
                   const std::function<double(double)>& f) {
  out += ",\"";
  out += name;
  out += "\":[";
  for (std::size_t i = 1; i <= points; ++i) {
    if (i > 1) out += ',';
    const double n = static_cast<double>(i);
    out += '[';
    out += num(n);
    out += ',';
    out += num(f(n));
    out += ']';
  }
  out += ']';
}

const char* workload_name(const Params& p) {
  return p.fixed_size ? "fixed-size" : "fixed-time";
}

}  // namespace

double eq16(const Params& p, double n) {
  const double delta = p.fixed_size ? 0.0 : p.delta;
  const double ea = p.eta * p.alpha;
  const double num_ = ea * std::pow(n, delta) + 1.0 - p.eta;
  // q(1) = 0 by definition (Eq. 6); βn^γ is its form for n > 1.
  const double q = n <= 1.0 ? 0.0 : p.beta * std::pow(n, p.gamma);
  const double den = ea * std::pow(n, delta - 1.0) * (1.0 + q) + 1.0 - p.eta;
  return num_ / den;
}

const char* const kClasses[10] = {"It",  "IIt", "IIIt,1", "IIIt,2", "IVt",
                                  "Is",  "IIs", "IIIs,1", "IIIs,2", "IVs"};

Params draw_explicit(Rng& rng, int cls) {
  // Each region is entered with margin: exponents sit at least 0.3 from
  // every class boundary, and the bounded classes use exact 0 or 1.
  Params p;
  p.fixed_size = cls >= 5;
  p.eta = rng.uniform(0.3, 0.9);
  p.alpha = rng.uniform(0.5, 2.0);
  p.delta = p.fixed_size ? 0.0 : 1.0;
  const double beta = rng.uniform(0.01, 0.1);
  switch (cls) {
    case 0: break;                                            // It
    case 1: p.beta = beta; p.gamma = rng.uniform(0.3, 0.7); break;   // IIt
    case 2: p.delta = 0.0; break;                             // IIIt,1
    case 3: p.beta = beta; p.gamma = 1.0; break;              // IIIt,2
    case 4: p.beta = beta; p.gamma = rng.uniform(1.4, 2.0); break;   // IVt
    case 5: p.eta = 1.0; break;                               // Is
    case 6: p.eta = 1.0; p.beta = beta; p.gamma = rng.uniform(0.3, 0.7);
            break;                                            // IIs
    case 7: break;                                            // IIIs,1
    case 8: p.eta = 1.0; p.beta = beta; p.gamma = 1.0; break; // IIIs,2
    default: p.beta = beta; p.gamma = rng.uniform(1.4, 2.0); break;  // IVs
  }
  return p;
}

const std::vector<double> kGrid = {1, 3, 8, 20, 64, 150, 512, 1000};

std::string explicit_line(const std::string& op, const std::string& id,
                          const Params& p) {
  std::string s = "{\"op\":\"" + op + "\",\"id\":\"" + id +
                  "\",\"workload\":\"" + workload_name(p) +
                  "\",\"params\":{\"workload\":\"" + workload_name(p) +
                  "\",\"eta\":" + num(p.eta) + ",\"alpha\":" + num(p.alpha) +
                  ",\"delta\":" + num(p.delta) + ",\"beta\":" + num(p.beta) +
                  ",\"gamma\":" + num(p.gamma) + "}";
  if (op == "predict") {
    s += ",\"ns\":[";
    for (std::size_t i = 0; i < kGrid.size(); ++i) {
      if (i) s += ',';
      s += num(kGrid[i]);
    }
    s += ']';
  }
  return s + "}";
}

Trace make_trace(Rng& rng, std::size_t points, int shape) {
  Trace t;
  t.points = points;
  t.gen.fixed_size = (shape & 1) != 0;
  t.changepoint = (shape & 2) != 0;
  t.gen.eta = rng.uniform(0.5, 0.95);
  t.gen.alpha = rng.uniform(0.5, 2.0);
  t.gen.delta = t.gen.fixed_size ? 0.0 : rng.uniform(0.2, 0.9);
  t.gen.gamma = rng.uniform(0.3, 1.5);
  const double n_max = static_cast<double>(points);
  // q(n_max) between 0.5 and 4 keeps q well above the fit's 0.15
  // negligibility threshold.
  t.gen.beta = rng.uniform(0.5, 4.0) / std::pow(n_max, t.gen.gamma);

  const double a1 = rng.uniform(0.002, 0.02);
  const double a2 = a1 * rng.uniform(2.0, 4.0);
  const double knot = std::round(n_max * rng.uniform(0.3, 0.7));
  const double in_knot = 1.0 + a1 * (knot - 1.0);
  const double jump = in_knot * rng.uniform(0.05, 0.3);
  t.knot = knot;
  const bool cp = t.changepoint;
  auto in = [=](double n) {
    if (!cp || n <= knot) return 1.0 + a1 * (n - 1.0);
    return in_knot + jump + a2 * (n - knot);
  };
  const Params g = t.gen;
  t.body = "\"workload\":\"" + std::string(workload_name(g)) +
           "\",\"eta\":" + num(g.eta);
  append_series(t.body, "ex", points, [&](double n) {
    return g.alpha * std::pow(n, g.delta) * in(n);
  });
  append_series(t.body, "in", points, in);
  append_series(t.body, "q", points, [&](double n) {
    return n <= 1.0 ? 0.0 : g.beta * std::pow(n, g.gamma);
  });
  return t;
}

std::string trace_line(const std::string& op, const std::string& id,
                       const Trace& t) {
  return "{\"op\":\"" + op + "\",\"id\":\"" + id + "\"," + t.body + "}";
}

std::string check_fit(const std::string& resp, const Trace& t) {
  std::string why;
  const auto j = ok_json(resp, &why);
  if (!j) return why;
  const Params& g = t.gen;
  for (const auto& [name, want] :
       {std::pair<const char*, double>{"alpha", g.alpha},
        {"delta", g.delta},
        {"beta", g.beta},
        {"gamma", g.gamma}}) {
    const std::string path = std::string("result.params.") + name;
    why = rel_error(name, j->number(path), want, 1e-6);
    if (!why.empty()) return why;
  }
  const std::string kind = j->str("result.in.kind");
  if (t.changepoint) {
    if (kind != "segmented") return "IN(n) changepoint missed: " + kind;
    const double knot = j->number("result.in.knot");
    if (std::abs(knot - t.knot) > 1.0) {
      return "knot = " + num(knot) + ", expected " + num(t.knot);
    }
  } else if (kind != "linear") {
    return "IN(n) is straight but reported " + kind;
  }
  return {};
}

std::string check_predict(const std::string& resp, const Params& p) {
  std::string why;
  const auto j = ok_json(resp, &why);
  if (!j) return why;
  const Json* pts = j->at("result.speedup.points");
  if (pts == nullptr || pts->arr.size() != kGrid.size()) {
    return "prediction grid has the wrong size";
  }
  for (std::size_t i = 0; i < kGrid.size(); ++i) {
    const Json& pt = pts->arr[i];
    if (pt.arr.size() != 2 || pt.arr[0].n != kGrid[i]) {
      return "prediction grid point " + std::to_string(i) + " moved";
    }
    why = rel_error("S(n)", pt.arr[1].n, eq16(p, kGrid[i]), 1e-9);
    if (!why.empty()) return why + " at n = " + num(kGrid[i]);
  }
  return {};
}

std::string check_classify(const std::string& resp, const std::string& cls) {
  std::string why;
  const auto j = ok_json(resp, &why);
  if (!j) return why;
  const std::string got = j->str("result.classification.type");
  if (got != cls) return "class " + got + ", expected " + cls;
  return {};
}

std::string check_ping(const std::string& resp) {
  std::string why;
  const auto j = ok_json(resp, &why);
  if (!j) return why;
  const Json* pong = j->at("result.pong");
  if (pong == nullptr || !pong->b) return "ping without pong";
  return {};
}

double Curve::operator()(double n) const {
  switch (law) {
    case kAmdahl: return 1.0 / ((1.0 - a) + a / n);
    case kGustafson: return (1.0 - a) + a * n;
    case kUsl: return n / (1.0 + a * (n - 1.0) + b * n * (n - 1.0));
  }
  return 0.0;
}

const char* Curve::name() const {
  switch (law) {
    case kAmdahl: return "amdahl";
    case kGustafson: return "gustafson";
    case kUsl: return "usl";
  }
  return "?";
}

std::string check_law_row(const std::string& resp, const Curve& c) {
  std::string why;
  const auto j = ok_json(resp, &why);
  if (!j) return why;
  const Json* models = j->at("result.models");
  if (models == nullptr) return "compare without models";
  for (const Json& row : models->arr) {
    if (row.str("model") != c.name()) continue;
    if (row.get("ok") == nullptr || !row.get("ok")->b) {
      return std::string(c.name()) + " row failed on its own curve";
    }
    if (c.law == Curve::kUsl) {
      why = rel_error("usl.sigma", row.number("params.sigma"), c.a, 1e-6);
      if (why.empty()) {
        why = rel_error("usl.kappa", row.number("params.kappa"), c.b, 1e-6);
      }
      return why;
    }
    return rel_error(c.name(), row.number("params.f"), c.a, 1e-6);
  }
  return std::string("no ") + c.name() + " row";
}

WindowModel::Outcome WindowModel::observe(double n, double value) {
  Outcome o;
  const auto it = points.find(n);
  if (it != points.end()) {
    const double rel = std::abs(value - it->second) /
                       std::max(std::abs(it->second), 1e-12);
    if (rel <= kThreshold) {
      o.absorbed = true;
    } else {
      it->second = value;
      o.material = true;
    }
  } else {
    points.emplace(n, value);
    if (points.size() > kCapacity) {
      const bool self = points.begin()->first == n;
      points.erase(points.begin());
      o.dropped = self;
      o.material = !self;
    } else {
      o.material = true;
    }
  }
  if (o.material) ++version;
  return o;
}

std::string observe_line(const std::string& id, const std::string& key,
                         double n, double value) {
  return "{\"op\":\"observe\",\"id\":\"" + id + "\",\"key\":\"" + key +
         "\",\"n\":" + num(n) + ",\"value\":" + num(value) + "}";
}

std::string check_observe(const std::string& resp, const std::string& key,
                          const WindowModel& after,
                          const WindowModel::Outcome& o) {
  std::string why;
  const auto j = ok_json(resp, &why);
  if (!j) return why;
  auto flag = [&](const char* name) {
    const Json* v = j->at(std::string("result.") + name);
    return v != nullptr && v->b;
  };
  if (j->str("result.key") != key) return "observe answered another key";
  if (flag("material") != o.material || flag("absorbed") != o.absorbed ||
      flag("dropped") != o.dropped) {
    return "observe outcome flags differ from the window rule for " + key;
  }
  if (j->number("result.version") != static_cast<double>(after.version)) {
    return "window version " + num(j->number("result.version")) +
           ", expected " + std::to_string(after.version);
  }
  const Json* w = j->at("result.window");
  if (w == nullptr || w->arr.size() != after.points.size() ||
      j->number("result.points") != static_cast<double>(after.points.size())) {
    return "window of " + key + " has the wrong number of points";
  }
  std::size_t i = 0;
  for (const auto& [n, v] : after.points) {
    const Json& pt = w->arr[i++];
    if (pt.arr.size() != 2 || pt.arr[0].n != n || pt.arr[1].n != v) {
      return "window of " + key + " differs at n = " + num(n);
    }
  }
  return {};
}

}  // namespace perfbench
