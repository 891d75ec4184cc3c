#pragma once

// Shared declarations of the serving benchmark: options, seeded
// randomness, a small JSON reader for checking responses, the socket
// client, daemon processes, spans, and the result every workload fills in.

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tools;    ///< directory holding ipso_serve / ipso_router
  std::string out_dir;  ///< traced-run artifacts
};

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the benchmark started.
double now_s();

// ------------------------------------------------------------------ random

/// Seeded generator with explicit transforms, so inputs depend only on the
/// seed and not on the standard library's distribution code.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : g_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 0x632BE59BD9B4E019ull)) {}
  double u01() { return static_cast<double>(g_() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * u01(); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(u01() * static_cast<double>(n)) % n;
  }
  bool chance(double p) { return u01() < p; }

 private:
  std::mt19937_64 g_;
};

/// Shortest round-trip decimal form of a double.
std::string num(double v);

// ------------------------------------------------------------------ JSON

struct Json {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj } kind = kNull;
  bool b = false;
  double n = 0.0;
  std::string s;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* get(std::string_view key) const;
  /// Dotted path lookup ("result.params.alpha"); null when absent.
  const Json* at(std::string_view path) const;
  double number(std::string_view path, double fallback = -1e300) const;
  std::string str(std::string_view path) const;
};

std::optional<Json> parse_json(std::string_view text);

// ------------------------------------------------------------------ spans

/// One recorded interval of the benchmark's own calls (traced runs only).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::string id;
};

class Spans {
 public:
  bool enabled = false;
  int begin(std::string name, int parent = -1, std::string id = {});
  void end(int span);
  const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

extern Spans g_spans;

// ------------------------------------------------------------------ wire

/// One connection to a daemon, JSON lines or binary frames.
struct Conn {
  int fd = -1;
  bool binary = false;
  std::string wbuf;
  std::size_t woff = 0;
  std::string rbuf;
  ~Conn();
};

bool connect_conn(Conn& c, std::uint16_t port, bool binary);

/// One batch of request lines and what came back for it.
struct Batch {
  std::deque<std::string> owned;           ///< lines generated for it
  std::vector<const std::string*> lines;   ///< what is sent, in order
  std::vector<int> tags;                   ///< caller's per-line tag
  std::vector<const char*> cls;            ///< request class per line
  double t_send = 0.0;
  std::vector<std::string> resp;
  std::vector<double> t_recv;

  void add(const std::string* line, int tag, const char* klass) {
    lines.push_back(line);
    tags.push_back(tag);
    cls.push_back(klass);
  }
  void add_owned(std::string line, int tag, const char* klass);
};

/// Drives every connection as a closed loop: each has at most one batch in
/// flight; `next(i, batch)` fills the next batch for connection i (false
/// ends that connection) and `done(i, batch)` receives it answered.
/// Returns false when a connection fails.
/// `sent(i)`, when given, runs once a batch is on the wire, so the next
/// one can be generated while the daemon works.
bool closed_loop(const std::vector<Conn*>& conns,
                 const std::function<bool(std::size_t, Batch&)>& next,
                 const std::function<void(std::size_t, Batch&)>& done,
                 const char* span_name = "batch", int span_parent = -1,
                 const std::function<void(std::size_t)>& sent = nullptr);

/// One synchronous batch on one connection: its answers, or nullopt when
/// the connection failed.
std::optional<std::vector<std::string>> call(Conn& c,
                                             const std::vector<std::string>& lines);

// ------------------------------------------------------------------ daemons

struct Daemon {
  std::string name;
  pid_t pid = -1;
  int out_fd = -1;
  std::uint16_t port = 0;
  std::vector<std::string> lines;  ///< stdout lines seen so far
  std::string partial;
};

/// Starts a daemon and waits for its "listening on HOST:PORT" line.
bool start_daemon(Daemon& d, const std::string& name,
                  const std::vector<std::string>& argv);
/// SIGTERM, collect stdout to EOF, reap. Returns false on timeout/crash.
bool stop_daemon(Daemon& d);
/// First stdout line starting with `prefix`, or empty.
std::string daemon_line(const Daemon& d, const std::string& prefix);
/// Value of "name=N" inside a daemon line; -1 when absent.
double line_field(const std::string& line, const std::string& name);

/// user + system CPU seconds of a process (all threads).
double proc_cpu_s(pid_t pid);
/// VmHWM of a process in MiB.
double proc_hwm_mib(pid_t pid);

/// The run's private scratch directory (created on first use, removed on
/// every exit path including fatal signals).
const std::string& temp_dir();
void remove_temp_dir();
void install_exit_handlers();

// ------------------------------------------------------------------ result

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a failed output check.
  void wrong(const std::string& what);
  /// Records an operation that answered ok:false.
  void fail(const std::string& what);
};

/// Timed-phase accounting shared by every workload.
struct Timed {
  double t0 = 0.0, t1 = 0.0;
  std::uint64_t responses = 0;
  std::vector<double> lat_ms;
  std::map<std::string, std::vector<double>> lat_by_class;
  double cpu_s = 0.0;
  void note(const Batch& b);
};

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Emits the five end-to-end metrics (untraced) and the p99 per request
/// class on stderr.
void end_to_end(Result& r, double setup_s, const Timed& t, double rss_mib);

// ------------------------------------------------------------------ runs

struct Ctx {
  Options opt;
  Result res;
  /// Per-layer metrics gathered by traced runs, name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> layers;
  void layer(const std::string& name, double v, const std::string& unit) {
    layers[name] = {v, unit};
  }
};

/// What a traced run replays in-process: request lines by class, in send
/// order, and the socket round trips measured for the same lines.
struct ReplayInput {
  std::vector<std::pair<std::string, std::string>> lines;  ///< (class, line)
  std::size_t batch = 1;          ///< records per frame on the wire
  bool warm = false;              ///< the daemon had answered them before
  std::string store_dir;          ///< persistent store to reopen, if any
  /// Round trip of each line sent alone to the daemon (0 = not measured).
  std::vector<double> socket_rtt_us;
  /// Routed minus direct round trip of keyless lines (routed-mix only).
  std::vector<double> router_extra_us;
};

/// Gives every per-layer metric its name and unit, valued 0 until a layer
/// that does work on the workload measures it.
void declare_layers(Ctx& ctx);

/// Replays `in` through each layer's public functions and records the
/// per-layer timings in ctx.layers.
void replay(Ctx& ctx, const ReplayInput& in);

/// Writes the spans as a Chrome trace and the per-layer table.
void write_trace_outputs(const Ctx& ctx);

void run_cold_fit(Ctx& ctx);
void run_hot_mix(Ctx& ctx);
void run_routed_mix(Ctx& ctx);
void run_observe_compare(Ctx& ctx);

/// Checks every output check against a perturbed expectation; returns the
/// number of checks that failed to notice the perturbation.
int self_check(bool verbose);

}  // namespace perfbench
