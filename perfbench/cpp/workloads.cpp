// The four workloads. Each starts its own daemons, runs a set-up phase and
// a timed closed-loop phase, checks every response, and reports either the
// end-to-end metrics or (traced) the per-layer counts plus a replay.

#include "bench.h"
#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

namespace {

const std::string kStatsLine = "{\"op\":\"stats\",\"id\":\"stats\"}";

std::vector<std::string> serve_argv(const Ctx& ctx,
                                    std::vector<std::string> extra) {
  std::vector<std::string> argv = {ctx.opt.tools + "/ipso_serve", "--port",
                                   "0", "--shards", "1"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return argv;
}

/// "<prefix><n>", built by appending: `"c" + std::to_string(n)` trips a
/// gcc 12 -Wrestrict false positive inside libstdc++.
std::string make_id(char prefix, std::uint64_t n) {
  std::string id(1, prefix);
  id += std::to_string(n);
  return id;
}

bool ok_of(const std::string& resp) {
  return resp.find("\"ok\":true") != std::string::npos;
}

/// One `stats` op over `c`; counts as an attempted operation.
std::optional<Json> read_stats(Ctx& ctx, Conn& c, int parent) {
  const int sp = g_spans.begin("stats", parent, "stats");
  const auto r = call(c, {kStatsLine});
  g_spans.end(sp);
  ++ctx.res.attempted;
  if (!r) {
    ctx.res.wrong("connection failed in a stats read");
    return std::nullopt;
  }
  auto j = parse_json(r->front());
  if (!j || !ok_of(r->front())) {
    ctx.res.wrong("stats answered " + r->front().substr(0, 120));
    return std::nullopt;
  }
  return j;
}

double stat(const std::optional<Json>& j, const char* path) {
  return j ? j->number(std::string("result.") + path, 0.0) : 0.0;
}

/// Per-layer counts of the serving daemons: stats-op deltas over the timed
/// phase, drain-line totals over the whole run.
void count_layers(Ctx& ctx, const std::vector<std::optional<Json>>& before,
                  const std::vector<std::optional<Json>>& after,
                  const std::vector<const Daemon*>& drained) {
  auto delta = [&](const char* path) {
    double s = 0.0;
    for (std::size_t i = 0; i < after.size(); ++i) {
      s += stat(after[i], path) - stat(before[i], path);
    }
    return s;
  };
  auto total = [&](const char* path) {
    double s = 0.0;
    for (const auto& a : after) s += stat(a, path);
    return s;
  };
  double peak = 0.0;
  for (const auto& a : after) peak = std::max(peak, stat(a, "peak_queue_depth"));
  ctx.layer("engine.received", delta("received"), "count");
  ctx.layer("engine.completed", delta("completed"), "count");
  ctx.layer("engine.peak_queue_depth", peak, "count");
  const double hits = delta("cache.hits"), misses = delta("cache.misses");
  ctx.layer("store.hits", hits, "count");
  ctx.layer("store.misses", misses, "count");
  ctx.layer("store.coalesced", delta("cache.coalesced"), "count");
  ctx.layer("store.disk_hits", delta("store.disk_hits"), "count");
  ctx.layer("store.spilled", delta("store.spilled"), "count");
  ctx.layer("store.spill_rejected", delta("store.spill_rejected"), "count");
  ctx.layer("store.invalidations", delta("store.invalidations"), "count");
  ctx.layer("store.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
            "ratio");
  ctx.layer("store.records", total("store.records"), "count");
  ctx.layer("store.segments", total("store.segments"), "count");
  ctx.layer("store.disk_mib", total("store.bytes") / (1 << 20), "MiB");
  ctx.layer("core.fits_performed", delta("fits_performed"), "count");
  const double material = delta("observe.material");
  const double absorbed = delta("observe.absorbed");
  const double observed = delta("observe.observed");
  ctx.layer("observe.material", material, "count");
  ctx.layer("observe.absorbed", absorbed, "count");
  ctx.layer("observe.absorbed_ratio", observed > 0 ? absorbed / observed : 0,
            "ratio");
  double frames = 0, in = 0, out = 0, wakeups = 0, stalls = 0;
  for (const Daemon* d : drained) {
    const std::string net = daemon_line(*d, "ipso_serve: net");
    frames += std::max(0.0, line_field(net, "frames_in"));
    in += std::max(0.0, line_field(net, "bytes_in"));
    out += std::max(0.0, line_field(net, "bytes_out"));
    wakeups += std::max(0.0, line_field(net, "wakeups"));
    stalls += std::max(0.0, line_field(net, "stalls"));
  }
  ctx.layer("event_loop.frames_in", frames, "count");
  ctx.layer("event_loop.kib_in", in / 1024, "KiB");
  ctx.layer("event_loop.kib_out", out / 1024, "KiB");
  ctx.layer("event_loop.wakeups", wakeups, "count");
  ctx.layer("event_loop.stalls", stalls, "count");
}

/// Round trip of each line sent alone over `c`, in microseconds.
std::vector<double> probe_rtt(Ctx& ctx, Conn& c,
                              const std::vector<std::string>& lines,
                              int parent) {
  std::vector<double> us;
  for (const std::string& l : lines) {
    const double t = now_s();
    const int sp = g_spans.begin("probe", parent, "probe");
    const auto r = call(c, {l});
    g_spans.end(sp);
    ++ctx.res.attempted;
    if (!r) {
      ctx.res.wrong("connection failed in a probe");
    } else if (!ok_of(r->front())) {
      ctx.res.fail("probe " + l.substr(0, 60));
    }
    us.push_back((now_s() - t) * 1e6);
  }
  return us;
}

double cpu_of(const std::vector<const Daemon*>& ds) {
  double s = 0.0;
  for (const Daemon* d : ds) s += proc_cpu_s(d->pid);
  return s;
}

double rss_of(const std::vector<const Daemon*>& ds) {
  double s = 0.0;
  for (const Daemon* d : ds) s += proc_hwm_mib(d->pid);
  return s;
}

/// Checks the daemon drained cleanly and answered everything it admitted.
void check_drain(Ctx& ctx, Daemon& d) {
  if (!stop_daemon(d)) {
    ctx.res.wrong(d.name + " did not drain cleanly");
    return;
  }
  const std::string line = daemon_line(d, "ipso_serve: drained");
  if (!line.empty() &&
      line_field(line, "received") != line_field(line, "completed")) {
    ctx.res.wrong(d.name + " drained with unanswered requests: " + line);
  }
}

/// Untraced runs report the five end-to-end metrics. Traced runs print
/// the same figures on stderr only (their distance from an untraced run
/// is the tracing overhead) and report the per-layer replay instead.
void finish(Ctx& ctx, double setup_s, const Timed& t, double rss,
            const ReplayInput& rin) {
  if (!ctx.opt.trace) {
    end_to_end(ctx.res, setup_s, t, rss);
    return;
  }
  Result shadow;
  end_to_end(shadow, setup_s, t, rss);
  for (const auto& [name, vu] : shadow.metrics) {
    std::fprintf(stderr, "perfbench: traced run %s = %s %s\n", name.c_str(),
                 num(vu.first).c_str(), vu.second.c_str());
  }
  replay(ctx, rin);
}

}  // namespace

// ------------------------------------------------------------------ cold-fit

void run_cold_fit(Ctx& ctx) {
  // Every request is a distinct fit over 2048-point traces; one request in
  // flight per connection, DRAM-only store.
  constexpr std::size_t kPoints = 2048;
  constexpr int kWarm = 64;
  Result& res = ctx.res;
  Rng rng(ctx.opt.seed, 1);
  std::map<int, Trace> pending;
  int made = 0;
  auto make = [&] {
    Trace t = make_trace(rng, kPoints, made % 4);
    std::string line = trace_line("fit", make_id('c', made), t);
    t.body.clear();
    pending.emplace(made, std::move(t));
    return std::pair<int, std::string>(made++, std::move(line));
  };
  std::deque<std::pair<int, std::string>> warm;
  for (int i = 0; i < kWarm; ++i) warm.push_back(make());
  std::optional<std::pair<int, std::string>> ready[2] = {make(), make()};

  int sent = 0;
  auto check = [&](std::size_t, Batch& b) {
    for (std::size_t k = 0; k < b.resp.size(); ++k) {
      const auto it = pending.find(b.tags[k]);
      if (it == pending.end()) {
        res.wrong("answer for a fit that was not sent");
      } else if (!ok_of(b.resp[k])) {
        res.fail(b.resp[k].substr(0, 160));
      } else if (const std::string why = check_fit(b.resp[k], it->second);
                 !why.empty()) {
        res.wrong("fit c" + std::to_string(b.tags[k]) + ": " + why);
      }
      if (it != pending.end()) pending.erase(it);
    }
  };

  const int root = g_spans.begin("cold-fit");
  const double t_setup = now_s();
  const int sp_setup = g_spans.begin("setup", root);
  Daemon d;
  if (!start_daemon(d, "serve", serve_argv(ctx, {"--threads", "2"}))) {
    res.wrong("ipso_serve did not start");
    return;
  }
  Conn cj, cb;
  if (!connect_conn(cj, d.port, false) || !connect_conn(cb, d.port, true)) {
    res.wrong("cannot connect to ipso_serve");
    return;
  }
  std::vector<Conn*> conns = {&cj, &cb};
  const bool setup_ok = closed_loop(
      conns,
      [&](std::size_t, Batch& b) {
        if (warm.empty()) return false;
        b.add_owned(std::move(warm.front().second), warm.front().first, "fit");
        warm.pop_front();
        ++sent;
        return true;
      },
      check, "setup", sp_setup);
  if (!setup_ok) res.wrong("connection failed in set-up");
  const double setup_s = now_s() - t_setup;
  g_spans.end(sp_setup);
  const auto before = read_stats(ctx, cj, root);

  const std::vector<const Daemon*> ds = {&d};
  Timed t;
  ReplayInput rin;
  const int sp_timed = g_spans.begin("timed", root);
  const double cpu0 = cpu_of(ds);
  t.t0 = now_s();
  const double deadline = t.t0 + ctx.opt.seconds;
  const bool timed_ok = closed_loop(
      conns,
      [&](std::size_t i, Batch& b) {
        if (now_s() >= deadline || !ready[i]) return false;
        b.add_owned(std::move(ready[i]->second), ready[i]->first, "fit");
        ready[i].reset();
        ++sent;
        return true;
      },
      [&](std::size_t i, Batch& b) {
        t.note(b);
        t.t1 = now_s();
        check(i, b);
      },
      "timed", sp_timed, [&](std::size_t i) { ready[i] = make(); });
  if (!timed_ok) res.wrong("connection failed in the timed phase");
  t.cpu_s = cpu_of(ds) - cpu0;
  g_spans.end(sp_timed);
  const double rss = rss_of(ds);
  const auto after = read_stats(ctx, cj, root);
  res.attempted += static_cast<std::uint64_t>(sent);

  if (stat(after, "fits_performed") != sent) {
    res.wrong("fits_performed " + num(stat(after, "fits_performed")) +
              " != distinct fits sent " + std::to_string(sent));
  }
  if (stat(after, "received") != sent + 2) {
    res.wrong("daemon received " + num(stat(after, "received")) +
              " records, benchmark sent " + std::to_string(sent + 2));
  }

  if (ctx.opt.trace) {
    // Cold round trips need lines the daemon has never seen.
    std::vector<std::string> probes;
    for (int i = 0; i < 6; ++i) probes.push_back(make().second);
    rin.lines.clear();
    for (const std::string& p : probes) rin.lines.emplace_back("fit", p);
    rin.socket_rtt_us = probe_rtt(ctx, cj, probes, root);
    // bench_serve_load's C1: the same lines again are cache hits.
    const std::vector<double> hot = probe_rtt(ctx, cj, probes, root);
    std::fprintf(stderr,
                 "perfbench: reference C1 cold/hot round trip = %.2f "
                 "(%zu 2048-point fits, %.0f us / %.0f us)\n",
                 median(rin.socket_rtt_us) / median(hot), probes.size(),
                 median(rin.socket_rtt_us), median(hot));
  }
  check_drain(ctx, d);
  g_spans.end(root);
  if (ctx.opt.trace) count_layers(ctx, {before}, {after}, {&d});
  finish(ctx, setup_s, t, rss, rin);
}

// ------------------------------------------------------- hot-mix, routed-mix

namespace {

const char* const kKeyedOps[4] = {"fit", "predict", "classify", "recommend"};

/// Shared body of hot-mix (one daemon) and routed-mix (router + two
/// replicas): a working set of keyed traces fitted in set-up, then a Zipf
/// stream over them plus explicit-params ops and pings, 8 per batch.
void run_mix(Ctx& ctx, bool routed) {
  Result& res = ctx.res;
  const std::size_t keys = routed ? 96 : 64;
  constexpr std::size_t kBatch = 8;
  Rng rng(ctx.opt.seed, routed ? 3 : 2);

  // Trace length grows with key rank, from 128 points for the hottest
  // sixth of the keys to 4096 for the coldest, so every seed has the same
  // lengths at the same Zipf ranks and only the trace values vary. Keeping
  // the long traces cold keeps the timed phase on per-request costs rather
  // than on streaming half-megabyte lines through memory, which made runs
  // swing with the host's memory traffic.
  std::vector<Trace> traces;
  std::vector<std::string> lines;  // key r, op k at r * 4 + k
  for (std::size_t r = 0; r < keys; ++r) {
    const std::size_t step = std::min<std::size_t>(5, r * 6 / keys);
    traces.push_back(make_trace(rng, std::size_t{128} << step,
                                static_cast<int>(r % 4)));
    for (const char* op : kKeyedOps) {
      std::string id = make_id('k', r);
      id += '.';
      id += op;
      lines.push_back(trace_line(op, id, traces.back()));
    }
    traces.back().body.clear();
  }
  std::vector<std::string> answer(lines.size());
  // The keyed stream is dealt in rounds: each round holds key rank r
  // round(64 / (r + 1)) times (at least once), its occurrences cycling
  // through the four ops, in a seeded order. Every whole round has the same
  // Zipf(1) make-up, so runs differ in order, not in mix.
  std::vector<std::size_t> round;
  std::size_t dealt = 0;
  auto next_keyed = [&] {
    if (dealt == round.size()) {
      round.clear();
      for (std::size_t r = 0; r < keys; ++r) {
        const auto count = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(64.0 / (r + 1))));
        for (std::size_t c = 0; c < count; ++c) round.push_back(r * 4 + c % 4);
      }
      for (std::size_t j = round.size(); j > 1; --j) {
        std::swap(round[j - 1], round[rng.below(j)]);
      }
      dealt = 0;
    }
    return round[dealt++];
  };

  const int root = g_spans.begin(routed ? "routed-mix" : "hot-mix");
  const double t_setup = now_s();
  const int sp_setup = g_spans.begin("setup", root);
  Daemon front, rep[2];
  std::vector<const Daemon*> ds;
  if (routed) {
    for (int i = 0; i < 2; ++i) {
      if (!start_daemon(rep[i], "replica" + std::to_string(i),
                        serve_argv(ctx, {"--threads", "1", "--cache-cap",
                                         "72"}))) {
        res.wrong("replica did not start");
        return;
      }
      ds.push_back(&rep[i]);
    }
    const std::string list = "127.0.0.1:" + std::to_string(rep[0].port) +
                             ",127.0.0.1:" + std::to_string(rep[1].port);
    if (!start_daemon(front, "router",
                      {ctx.opt.tools + "/ipso_router", "--port", "0",
                       "--shards", "1", "--replicas", list, "--placement",
                       "hash", "--conns-per-replica", "1"})) {
      res.wrong("router did not start");
      return;
    }
  } else if (!start_daemon(front, "serve",
                           serve_argv(ctx, {"--threads", "2"}))) {
    res.wrong("ipso_serve did not start");
    return;
  }
  ds.push_back(&front);
  Conn cj, cb, direct[2];
  if (!connect_conn(cj, front.port, false) ||
      !connect_conn(cb, front.port, true)) {
    res.wrong("cannot connect");
    return;
  }
  if (routed && (!connect_conn(direct[0], rep[0].port, false) ||
                 !connect_conn(direct[1], rep[1].port, false))) {
    res.wrong("cannot connect to a replica");
    return;
  }
  std::vector<Conn*> conns = {&cj, &cb};
  std::uint64_t sent = 0;

  // Set-up: every keyed line once, fits first, each fit checked against
  // its trace's generating parameters.
  std::size_t cursor = 0;
  std::vector<std::size_t> order;
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t r = 0; r < keys; ++r) order.push_back(r * 4 + k);
  }
  const bool setup_ok = closed_loop(
      conns,
      [&](std::size_t, Batch& b) {
        for (; cursor < order.size() && b.lines.size() < kBatch; ++cursor) {
          b.add(&lines[order[cursor]], static_cast<int>(order[cursor]), "keyed");
        }
        sent += b.lines.size();
        return !b.lines.empty();
      },
      [&](std::size_t, Batch& b) {
        for (std::size_t k = 0; k < b.resp.size(); ++k) {
          const std::size_t idx = static_cast<std::size_t>(b.tags[k]);
          answer[idx] = b.resp[k];
          if (!ok_of(b.resp[k])) {
            res.fail(b.resp[k].substr(0, 160));
          } else if (idx % 4 == 0) {
            const std::string why = check_fit(b.resp[k], traces[idx / 4]);
            if (!why.empty()) res.wrong("set-up fit: " + why);
          }
        }
      },
      "setup", sp_setup);
  if (!setup_ok) res.wrong("connection failed in set-up");
  const double setup_s = now_s() - t_setup;
  g_spans.end(sp_setup);

  auto snapshot = [&] {
    std::vector<std::optional<Json>> s;
    if (routed) {
      s.push_back(read_stats(ctx, direct[0], root));
      s.push_back(read_stats(ctx, direct[1], root));
    } else {
      s.push_back(read_stats(ctx, cj, root));
    }
    return s;
  };
  const auto before = snapshot();
  const auto router_before =
      routed ? read_stats(ctx, cj, root) : std::optional<Json>();

  // Timed phase: 5 Zipf-keyed records, one explicit predict, one explicit
  // classify and one ping per batch, on both connections.
  // Explicit-params records sent so far (tag -1 - index), with the class
  // each was drawn in; pings carry kPingTag.
  constexpr int kPingTag = -(1 << 30);
  std::vector<std::pair<Params, int>> explicit_sent;
  ReplayInput rin;
  rin.batch = kBatch;
  rin.warm = true;
  Timed t;
  const int sp_timed = g_spans.begin("timed", root);
  const double cpu0 = cpu_of(ds);
  t.t0 = now_s();
  const double deadline = t.t0 + ctx.opt.seconds;
  const std::string ping = "{\"op\":\"ping\",\"id\":\"p\"}";
  const bool timed_ok = closed_loop(
      conns,
      [&](std::size_t, Batch& b) {
        if (now_s() >= deadline) return false;
        for (int k = 0; k < 5; ++k) {
          const std::size_t idx = next_keyed();
          b.add(&lines[idx], static_cast<int>(idx), "keyed");
        }
        for (const char* op : {"predict", "classify"}) {
          const int e = static_cast<int>(explicit_sent.size());
          const int cls = e % 10;
          explicit_sent.emplace_back(draw_explicit(rng, cls), cls);
          b.add_owned(explicit_line(op, make_id('x', e),
                                    explicit_sent.back().first),
                      -1 - e, "params");
        }
        b.add(&ping, kPingTag, "ping");
        if (rin.lines.size() < 64) {
          for (std::size_t k = 0; k < b.lines.size(); ++k) {
            rin.lines.emplace_back(b.cls[k], *b.lines[k]);
          }
        }
        sent += b.lines.size();
        return true;
      },
      [&](std::size_t, Batch& b) {
        t.note(b);
        t.t1 = now_s();
        for (std::size_t k = 0; k < b.resp.size(); ++k) {
          const int tag = b.tags[k];
          const std::string& r = b.resp[k];
          if (!ok_of(r)) {
            res.fail(r.substr(0, 160));
            continue;
          }
          std::string why;
          if (tag >= 0) {
            if (r != answer[static_cast<std::size_t>(tag)]) {
              why = "keyed answer differs from its set-up answer: " +
                    b.lines[k]->substr(0, 40);
            }
          } else if (tag == kPingTag) {
            why = check_ping(r);
          } else {
            const auto& [p, cls] = explicit_sent[static_cast<std::size_t>(-1 - tag)];
            why = r.find("\"op\":\"predict\"") != std::string::npos
                      ? check_predict(r, p)
                      : check_classify(r, kClasses[cls]);
          }
          if (!why.empty()) res.wrong(why);
        }
      },
      "timed", sp_timed);
  if (!timed_ok) res.wrong("connection failed in the timed phase");
  t.cpu_s = cpu_of(ds) - cpu0;
  g_spans.end(sp_timed);
  const double rss = rss_of(ds);
  const auto router_after =
      routed ? read_stats(ctx, cj, root) : std::optional<Json>();
  const auto after = snapshot();
  res.attempted += sent;

  // Totals: every record the benchmark sent is counted exactly once.
  double fits = 0.0, received = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    fits += stat(after[i], "fits_performed") - stat(before[i], "fits_performed");
    received += stat(after[i], "received");
  }
  if (fits != 0.0) res.wrong("timed phase performed " + num(fits) + " fits");
  if (!routed && received != static_cast<double>(sent) + 2) {
    res.wrong("daemon received " + num(received) + ", benchmark sent " +
              std::to_string(sent + 2));
  }
  if (routed) {
    // Router stats ops are answered by the router; replica stats ops go
    // to the replicas directly (two reads each, the last counting itself).
    const double forwarded = static_cast<double>(sent);
    if (received != forwarded + 4) {
      res.wrong("replicas received " + num(received) + ", router forwarded " +
                num(forwarded) + " and 4 direct stats");
    }
    double per = 0.0;
    const Json* pr = router_after ? router_after->at("result.per_replica") : nullptr;
    if (pr != nullptr) {
      for (const Json& v : pr->arr) per += v.n;
    }
    if (per != forwarded) {
      res.wrong("router per_replica sums to " + num(per) + ", benchmark sent " +
                num(forwarded));
    }
    if (stat(router_after, "received") != forwarded + 2) {
      res.wrong("router received " + num(stat(router_after, "received")));
    }
  }

  if (ctx.opt.trace) {
    // Each sampled line alone: on the daemon, or for routed-mix on replica
    // 0 and through the router. Keyed lines are skipped there, since only
    // their owner replica holds them; keyless ones cost the same on any
    // replica, so routed minus direct isolates the router's hop.
    rin.socket_rtt_us.assign(rin.lines.size(), 0.0);
    for (std::size_t k = 0; k < rin.lines.size(); ++k) {
      if (routed && rin.lines[k].first == "keyed") continue;
      const std::string& l = rin.lines[k].second;
      rin.socket_rtt_us[k] = probe_rtt(ctx, routed ? direct[0] : cj, {l}, root)[0];
      if (routed) {
        rin.router_extra_us.push_back(probe_rtt(ctx, cj, {l}, root)[0] -
                                      rin.socket_rtt_us[k]);
      }
    }
  }
  std::vector<const Daemon*> drained;
  if (routed) {
    if (!stop_daemon(front)) res.wrong("router did not drain cleanly");
    for (Daemon& r : rep) {
      check_drain(ctx, r);
      drained.push_back(&r);
    }
  } else {
    check_drain(ctx, front);
    drained.push_back(&front);
  }
  g_spans.end(root);
  if (ctx.opt.trace) {
    count_layers(ctx, before, after, drained);
    if (routed) {
      auto d = [&](const char* p) {
        return stat(router_after, p) - stat(router_before, p);
      };
      ctx.layer("router.routed_keyed", d("routed_keyed"), "count");
      ctx.layer("router.routed_keyless", d("routed_keyless"), "count");
      ctx.layer("router.upstream_batches", d("upstream_batches"), "count");
      const Json* a = router_after ? router_after->at("result.per_replica") : nullptr;
      const Json* b0 = router_before ? router_before->at("result.per_replica") : nullptr;
      if (a != nullptr && b0 != nullptr && a->arr.size() == b0->arr.size()) {
        double mx = 0.0, sum = 0.0;
        for (std::size_t k = 0; k < a->arr.size(); ++k) {
          const double v = a->arr[k].n - b0->arr[k].n;
          mx = std::max(mx, v);
          sum += v;
        }
        ctx.layer("router.replica_skew",
                  sum > 0 ? mx * a->arr.size() / sum : 0, "ratio");
      }
    }
  }
  finish(ctx, setup_s, t, rss, rin);
}

}  // namespace

void run_hot_mix(Ctx& ctx) { run_mix(ctx, false); }
void run_routed_mix(Ctx& ctx) { run_mix(ctx, true); }

// ----------------------------------------------------------- observe-compare

namespace {

/// One workload key's stream state: the benchmark's window model plus the
/// curve its values come from.
struct KeyState {
  std::string key;
  bool wide = false;       ///< streams more distinct n than a window holds
  bool noise_free = false;
  Curve curve;             ///< generating curve
  WindowModel model;
  std::vector<double> part1;  ///< first-part n order (then a compare)
  std::string last_compare;   ///< last compare answer before the restart
};

const std::vector<double> kNs = {1, 2, 3, 4, 6, 8, 12, 16};
constexpr std::size_t kKeys = 160;  // compared keys; two wide keys follow
// First-pass rounds of a compare and three repeats per key. Every compare
// refits the zoo's other laws (the store keeps only the IPSO member's fit),
// so the rounds make the first pass a few seconds of zoo fits: long enough
// to average out the host's second-to-second speed changes in setup_s, and
// long against the fixed costs of process starts and drain.
constexpr int kRounds = 16;

}  // namespace

void run_observe_compare(Ctx& ctx) {
  // 160 compared keys (24 carry noise-free Amdahl, Gustafson and USL
  // curves) and 2 wide keys, split between the two connections; the daemon
  // keeps 16 fits in DRAM and spills to a store directory in the run's
  // scratch area.
  Result& res = ctx.res;
  Rng rng(ctx.opt.seed, 4);
  std::vector<KeyState> keys(kKeys + 2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    KeyState& k = keys[i];
    k.key = make_id('w', i);
    k.wide = i >= kKeys;
    k.noise_free = i < 24;
    k.curve.law = static_cast<Curve::Law>(i % 3);
    if (k.curve.law == Curve::kUsl) {
      k.curve.a = rng.uniform(0.02, 0.2);
      k.curve.b = rng.uniform(0.0005, 0.005);
    } else {
      k.curve.a = rng.uniform(0.5, 0.98);
    }
    if (k.wide) {
      for (double n = 1; n <= 96; ++n) k.part1.push_back(n);
      for (std::size_t j = k.part1.size(); j > 1; --j) {
        std::swap(k.part1[j - 1], k.part1[rng.below(j)]);
      }
      k.part1.resize(72);
    } else {
      // Every n once, then kRounds rounds of a compare and three repeats;
      // the part ends with a compare (written as n = 0).
      k.part1 = kNs;
      for (std::size_t j = k.part1.size(); j > 1; --j) {
        std::swap(k.part1[j - 1], k.part1[rng.below(j)]);
      }
      for (int j = 0; j < kRounds; ++j) {
        k.part1.push_back(0.0);
        for (int r = 0; r < 3; ++r) k.part1.push_back(kNs[rng.below(kNs.size())]);
      }
      k.part1.push_back(0.0);
    }
  }

  // Value for an observe of key k at n: noise-free keys stay on their
  // curve (repeats move by under 0.8%, so they are absorbed); other keys
  // stay within 10% of theirs and, in the timed phase, either move by at
  // least 2% (material) or by under 0.8% (absorbed). No value lies near
  // the 1% threshold. Before the restart every repeat is absorbed: a
  // material change after a compare invalidates a stored fit, and
  // DiskTier::invalidate drops only the index entry, so recovery would
  // re-read the record and the restart check would count it.
  bool timed_phase = false;
  auto value = [&](KeyState& k, double n) {
    const auto it = k.model.points.find(n);
    const double base = k.curve(n);
    if (it == k.model.points.end()) {
      return k.noise_free ? base : base * rng.uniform(0.9, 1.1);
    }
    if (k.noise_free || !timed_phase || rng.chance(0.5)) {
      return rng.chance(0.5) ? it->second
                             : it->second * (1.0 + rng.uniform(-0.008, 0.008));
    }
    for (;;) {
      const double v = base * rng.uniform(0.9, 1.1);
      if (std::abs(v - it->second) >= 0.02 * it->second) return v;
    }
  };

  std::set<std::string> compared;  // window contents compared so far
  auto content = [](const KeyState& k) {
    std::string s;
    for (const auto& [n, v] : k.model.points) s += num(n) + ":" + num(v) + ";";
    return s;
  };
  std::uint64_t sent = 0, compares = 0, first_time = 0, ids = 0;

  struct Op {
    KeyState* k;
    bool compare;
    double n, v;
    WindowModel::Outcome o;
    WindowModel after;
  };
  // Ops of the batch being built, then of the batches awaiting answers.
  std::vector<Op> building[2];
  std::deque<std::vector<Op>> queued[2];
  auto seal = [&](std::size_t i, const Batch& b) {
    if (b.lines.empty()) return false;
    queued[i].push_back(std::move(building[i]));
    building[i].clear();
    return true;
  };
  // Builds one record for key k into batch b (observe at n, or compare).
  auto add_op = [&](std::size_t i, Batch& b, KeyState& k, bool is_compare,
                    double n) {
    Op op{&k, is_compare, n, 0.0, {}, {}};
    const std::string id = make_id('o', ids++);
    if (is_compare) {
      // One id per key, so a key's compare lines are byte-identical and so
      // are the answers to unchanged windows.
      b.add_owned("{\"op\":\"compare\",\"id\":\"c" + k.key + "\",\"key\":\"" +
                      k.key + "\"}",
                  static_cast<int>(building[i].size()), "compare");
      if (timed_phase) {
        ++compares;
        if (compared.insert(content(k)).second) ++first_time;
      } else {
        compared.insert(content(k));
      }
    } else {
      op.v = value(k, n);
      op.o = k.model.observe(n, op.v);
      op.after = k.model;
      b.add_owned(observe_line(id, k.key, n, op.v),
                  static_cast<int>(building[i].size()), "observe");
    }
    building[i].push_back(std::move(op));
    ++sent;
  };
  // Checks every response of a batch; compare answers are returned by key.
  auto check = [&](std::size_t i, Batch& b) {
    const std::vector<Op> ops = std::move(queued[i].front());
    queued[i].pop_front();
    for (std::size_t r = 0; r < b.resp.size(); ++r) {
      const Op& op = ops[static_cast<std::size_t>(b.tags[r])];
      const std::string& resp = b.resp[r];
      if (!ok_of(resp)) {
        res.fail(resp.substr(0, 160));
        continue;
      }
      std::string why;
      if (op.compare) {
        if (op.k->noise_free) why = check_law_row(resp, op.k->curve);
        op.k->last_compare = resp;
      } else {
        why = check_observe(resp, op.k->key, op.after, op.o);
      }
      if (!why.empty()) res.wrong(why);
    }
  };
  auto conn_of = [](std::size_t key_index) { return key_index % 2; };

  const int root = g_spans.begin("observe-compare");
  const double t_setup = now_s();
  const int sp_setup = g_spans.begin("setup", root);
  const std::string store = temp_dir() + "/store";
  const std::vector<std::string> argv =
      serve_argv(ctx, {"--threads", "2", "--cache-cap", "16", "--store-dir",
                       store});
  Daemon d1, d2;
  if (!start_daemon(d1, "serve1", argv)) {
    res.wrong("ipso_serve did not start");
    return;
  }
  const double t_started = now_s();
  std::vector<std::size_t> pos(keys.size(), 0);
  {
    Conn cj, cb;
    if (!connect_conn(cj, d1.port, false) || !connect_conn(cb, d1.port, true)) {
      res.wrong("cannot connect");
      return;
    }
    // First part: each connection's keys advance one op per batch, so no
    // batch holds two records of one key and per-key order is the stream
    // order.
    const bool first_ok = closed_loop(
        {&cj, &cb},
        [&](std::size_t i, Batch& b) {
          for (std::size_t k = 0; k < keys.size(); ++k) {
            if (conn_of(k) != i) continue;
            KeyState& ks = keys[k];
            if (pos[k] < ks.part1.size()) {
              const double n = ks.part1[pos[k]++];
              add_op(i, b, ks, n == 0.0, n);
            }
          }
          return seal(i, b);
        },
        check, "setup", sp_setup);
    if (!first_ok) res.wrong("connection failed in the first pass");
  }
  const double t_first = now_s();
  const double cpu_first = proc_cpu_s(d1.pid);
  check_drain(ctx, d1);
  const double t_drained = now_s();
  const double records = line_field(daemon_line(d1, "ipso_serve: store ("), "records");

  if (!start_daemon(d2, "serve2", argv)) {
    res.wrong("restarted ipso_serve did not start");
    return;
  }
  const double t_restarted = now_s();
  const double recovered =
      line_field(daemon_line(d2, "ipso_serve: store recovered"), "records");
  if (records < 0 || recovered != records) {
    res.wrong("restart recovered " + num(recovered) + " records, drain reported " +
              num(records));
  }
  Conn cj, cb;
  if (!connect_conn(cj, d2.port, false) || !connect_conn(cb, d2.port, true)) {
    res.wrong("cannot connect");
    return;
  }
  std::vector<Conn*> conns = {&cj, &cb};
  // Re-stream every window into the fresh daemon, then compare each key
  // once: the answer must be byte-identical to its last one before.
  std::vector<std::vector<std::pair<double, double>>> restream(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) {
    restream[k].assign(keys[k].model.points.begin(), keys[k].model.points.end());
    keys[k].model = WindowModel();
    pos[k] = 0;
  }
  std::vector<std::string> before_restart(keys.size());
  for (std::size_t k = 0; k < keys.size(); ++k) before_restart[k] = keys[k].last_compare;
  // A traced run replays the re-stream first, so the sampled compares
  // meet full windows in-process too.
  ReplayInput rin;
  rin.batch = 8;
  const bool restream_ok = closed_loop(
      conns,
      [&](std::size_t i, Batch& b) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          if (conn_of(k) != i) continue;
          KeyState& ks = keys[k];
          if (pos[k] < restream[k].size()) {
            // Replays the stored value exactly, so it is new at this n.
            const auto [n, v] = restream[k][pos[k]++];
            Op op{&ks, false, n, v, ks.model.observe(n, v), {}};
            op.after = ks.model;
            b.add_owned(observe_line(make_id('r', ids++), ks.key, n, v),
                        static_cast<int>(building[i].size()), "observe");
            if (ctx.opt.trace) rin.lines.emplace_back("observe", b.owned.back());
            building[i].push_back(std::move(op));
            ++sent;
          } else if (!ks.wide && pos[k] == restream[k].size()) {
            add_op(i, b, ks, true, 0.0);
            ++pos[k];
          }
        }
        return seal(i, b);
      },
      check, "setup", sp_setup);
  if (!restream_ok) res.wrong("connection failed in the re-stream");
  for (std::size_t k = 0; k < kKeys; ++k) {
    if (keys[k].last_compare != before_restart[k]) {
      res.wrong("first compare of " + keys[k].key +
                " after the restart differs from its last one before");
    }
  }
  const double setup_s = now_s() - t_setup;
  g_spans.end(sp_setup);
  std::fprintf(stderr,
               "perfbench: set-up phases: start %.3f s, first pass %.3f s "
               "(daemon CPU %.2f s), drain %.3f s, restart %.3f s, "
               "re-stream %.3f s\n",
               t_started - t_setup, t_first - t_started, cpu_first,
               t_drained - t_first, t_restarted - t_drained,
               now_s() - t_restarted);
  const auto before = read_stats(ctx, cj, root);

  // Timed phase: per connection, batches of one wide-key observe, five
  // observes and two compares on seven distinct keys taken in rotation.
  timed_phase = true;
  std::vector<std::size_t> mine[2];
  for (std::size_t k = 0; k < kKeys; ++k) mine[conn_of(k)].push_back(k);
  std::size_t rot[2] = {0, 0};
  const std::size_t prelude = rin.lines.size();
  Timed t;
  const std::vector<const Daemon*> ds = {&d2};
  const int sp_timed = g_spans.begin("timed", root);
  const double cpu0 = cpu_of(ds);
  t.t0 = now_s();
  const double deadline = t.t0 + ctx.opt.seconds;
  const bool timed_ok = closed_loop(
      conns,
      [&](std::size_t i, Batch& b) {
        if (now_s() >= deadline) return false;
        add_op(i, b, keys[kKeys + i], false, 1.0 + static_cast<double>(rng.below(96)));
        for (std::size_t s = 0; s < 7; ++s) {
          KeyState& ks = keys[mine[i][rot[i]++ % mine[i].size()]];
          add_op(i, b, ks, s >= 5, kNs[rng.below(kNs.size())]);
        }
        if (rin.lines.size() < prelude + 96) {
          for (std::size_t k = 0; k < b.lines.size(); ++k) {
            rin.lines.emplace_back(b.cls[k], *b.lines[k]);
          }
        }
        return seal(i, b);
      },
      [&](std::size_t i, Batch& b) {
        t.note(b);
        t.t1 = now_s();
        check(i, b);
      },
      "timed", sp_timed);
  if (!timed_ok) res.wrong("connection failed in the timed phase");
  t.cpu_s = cpu_of(ds) - cpu0;
  g_spans.end(sp_timed);
  const double rss = rss_of(ds);
  const auto after = read_stats(ctx, cj, root);
  res.attempted += sent;

  const double fits = stat(after, "fits_performed") - stat(before, "fits_performed");
  if (fits < static_cast<double>(first_time) || fits > static_cast<double>(compares)) {
    res.wrong("timed phase performed " + num(fits) + " fits; expected between " +
              std::to_string(first_time) + " new windows and " +
              std::to_string(compares) + " compares");
  }
  if (ctx.opt.trace) {
    std::vector<std::string> probe;
    for (const auto& [cls, l] : rin.lines) {
      // Observes change windows; only compares are safe to resend.
      probe.push_back(cls == "compare" ? l : std::string());
    }
    for (std::size_t k = 0; k < probe.size(); ++k) {
      if (probe[k].empty()) continue;
      rin.socket_rtt_us.resize(probe.size(), 0.0);
      rin.socket_rtt_us[k] = probe_rtt(ctx, cj, {probe[k]}, root)[0];
    }
    rin.store_dir = store;
  }
  check_drain(ctx, d2);
  g_spans.end(root);
  if (ctx.opt.trace) count_layers(ctx, {before}, {after}, {&d2});
  finish(ctx, setup_s, t, rss, rin);
}

}  // namespace perfbench
