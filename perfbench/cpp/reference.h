#pragma once

// Reference computations the benchmark checks responses against. None of
// this calls the program: inputs are generated from known parameters and
// the expected answers are derived from those parameters and the paper's
// formulas.

#include "bench.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// IPSO asymptotic parameters (paper Eq. 14-16).
struct Params {
  bool fixed_size = false;
  double eta = 1.0, alpha = 1.0, delta = 1.0, beta = 0.0, gamma = 0.0;
};

/// Eq. 16: S(n) = [ηαn^δ + 1−η] / [ηαn^(δ−1)(1+q(n)) + 1−η] with
/// q(n) = βn^γ for n > 1 and q(1) = 0, δ = 0 for fixed-size workloads.
double eq16(const Params& p, double n);

/// The Fig. 2-3 classes, in the order draw_explicit() takes them.
extern const char* const kClasses[10];

/// A parameter set drawn well inside the region of class `cls`.
Params draw_explicit(Rng& rng, int cls);

/// The prediction grid sent with every explicit-params predict.
extern const std::vector<double> kGrid;

/// {"op":op,"id":id,"workload":..,"params":{..}[,"ns":kGrid]}
std::string explicit_line(const std::string& op, const std::string& id,
                          const Params& p);

/// A factor trace generated from known parameters: ε(n) = αn^δ exactly,
/// q(n) = βn^γ for n > 1, and IN(n) linear or with one changepoint.
struct Trace {
  Params gen;
  bool changepoint = false;
  double knot = 0.0;
  std::size_t points = 0;
  std::string body;  ///< "workload","eta","ex","in","q" members
};

/// shape: bit 0 = fixed-size, bit 1 = IN(n) has a changepoint.
Trace make_trace(Rng& rng, std::size_t points, int shape);

std::string trace_line(const std::string& op, const std::string& id,
                       const Trace& t);

// Checks return an empty string when the response is right, else why not.
std::string check_fit(const std::string& resp, const Trace& t);
std::string check_predict(const std::string& resp, const Params& p);
std::string check_classify(const std::string& resp, const std::string& cls);
std::string check_ping(const std::string& resp);

/// Noise-free speedup curves of the laws the model zoo fits.
struct Curve {
  enum Law { kAmdahl, kGustafson, kUsl } law = kAmdahl;
  double a = 0.0;  ///< f, or σ for USL
  double b = 0.0;  ///< κ for USL
  double operator()(double n) const;
  const char* name() const;
};

/// The generating law's row of a compare response recovers a and b.
std::string check_law_row(const std::string& resp, const Curve& c);

/// The observation-window rule: latest value per n, smallest n evicted
/// past capacity, changes of at most 1% absorbed.
struct WindowModel {
  static constexpr std::size_t kCapacity = 64;
  static constexpr double kThreshold = 0.01;
  std::map<double, double> points;
  std::uint64_t version = 0;
  struct Outcome {
    bool material = false, absorbed = false, dropped = false;
  };
  Outcome observe(double n, double value);
};

std::string observe_line(const std::string& id, const std::string& key,
                         double n, double value);
std::string check_observe(const std::string& resp, const std::string& key,
                          const WindowModel& after,
                          const WindowModel::Outcome& o);

}  // namespace perfbench
