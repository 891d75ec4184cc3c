// The traced run's second part: the workload's request lines replayed
// in-process through each layer's public functions, in the order the
// daemon calls them, to give each layer's self time per request class.

#include "bench.h"

#include "core/classify.h"
#include "core/fit.h"
#include "core/predict.h"
#include "models/ipso_model.h"
#include "models/zoo.h"
#include "runtime/exec_pool.h"
#include "serve/engine.h"
#include "serve/framing.h"
#include "serve/observe.h"
#include "serve/placement.h"
#include "serve/proto.h"
#include "stats/regression.h"
#include "store/fit_cache.h"
#include "store/tiered_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>

namespace perfbench {

namespace {

namespace sv = ipso::serve;
namespace st = ipso::store;

const char* const kReqClasses[] = {"fit",     "keyed",   "params",
                                   "ping",    "observe", "compare"};
const char* const kResultKinds[] = {"fit",     "predict", "classify",
                                    "recommend", "observe", "compare",
                                    "ping"};
const std::size_t kLengths[] = {128, 256, 512, 1024, 2048, 4096};
const char* const kLaws[] = {"amdahl", "gustafson", "usl", "unified", "ipso"};

/// Median wall time of `reps` calls of f, in microseconds.
template <class F>
double time_us(F&& f, int reps = 5) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const double t = now_s();
    f();
    v.push_back((now_s() - t) * 1e6);
  }
  return median(std::move(v));
}

/// Per-name sample lists reduced to medians at the end.
struct Samples {
  std::map<std::string, std::vector<double>> v;
  void add(const std::string& name, double x) { v[name].push_back(x); }
  double med(const std::string& name) const {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : median(it->second);
  }
  double mean(const std::string& name) const {
    const auto it = v.find(name);
    if (it == v.end() || it->second.empty()) return 0.0;
    double s = 0.0;
    for (double x : it->second) s += x;
    return s / static_cast<double>(it->second.size());
  }
};

std::string length_name(std::size_t n) { return ".n" + std::to_string(n); }

}  // namespace

void declare_layers(Ctx& ctx) {
  for (const char* c : {"json", "binary"}) {
    ctx.layer(std::string("event_loop.frame_decode_us.") + c, 0, "us");
    ctx.layer(std::string("event_loop.frame_encode_us.") + c, 0, "us");
  }
  ctx.layer("event_loop.socket_overhead_us", 0, "us");
  for (const char* m : {"frames_in", "wakeups", "stalls"}) {
    ctx.layer(std::string("event_loop.") + m, 0, "count");
  }
  ctx.layer("event_loop.kib_in", 0, "KiB");
  ctx.layer("event_loop.kib_out", 0, "KiB");
  ctx.layer("router.pick_us", 0, "us");
  ctx.layer("router.extra_rtt_us", 0, "us");
  for (const char* m : {"routed_keyed", "routed_keyless", "upstream_batches"}) {
    ctx.layer(std::string("router.") + m, 0, "count");
  }
  ctx.layer("router.replica_skew", 0, "ratio");
  for (const char* c : kReqClasses) {
    ctx.layer(std::string("proto.parse_us.") + c, 0, "us");
    ctx.layer(std::string("engine.overhead_us.") + c, 0, "us");
  }
  ctx.layer("proto.parse_mib_per_s", 0, "MiB/s");
  for (const char* k : kResultKinds) {
    ctx.layer(std::string("proto.encode_us.") + k, 0, "us");
  }
  ctx.layer("proto.request_kib", 0, "KiB");
  ctx.layer("proto.response_kib", 0, "KiB");
  ctx.layer("engine.ping_us", 0, "us");
  for (const char* m : {"received", "completed", "peak_queue_depth"}) {
    ctx.layer(std::string("engine.") + m, 0, "count");
  }
  ctx.layer("runtime.pool_hop_us", 0, "us");
  ctx.layer("observe.observe_us", 0, "us");
  ctx.layer("observe.material", 0, "count");
  ctx.layer("observe.absorbed", 0, "count");
  ctx.layer("observe.absorbed_ratio", 0, "ratio");
  ctx.layer("store.key_us", 0, "us");
  ctx.layer("store.key_kib", 0, "KiB");
  ctx.layer("store.hit_us", 0, "us");
  ctx.layer("store.promote_us", 0, "us");
  ctx.layer("store.recover_s", 0, "s");
  for (const char* m : {"hits", "misses", "coalesced", "disk_hits", "spilled",
                        "spill_rejected", "invalidations", "records",
                        "segments"}) {
    ctx.layer(std::string("store.") + m, 0, "count");
  }
  ctx.layer("store.hit_ratio", 0, "ratio");
  ctx.layer("store.disk_mib", 0, "MiB");
  for (std::size_t n : kLengths) {
    ctx.layer("core.fit_factors_ms" + length_name(n), 0, "ms");
    ctx.layer("stats.fit_segmented_ms" + length_name(n), 0, "ms");
  }
  ctx.layer("core.predict_us", 0, "us");
  ctx.layer("core.classify_us", 0, "us");
  ctx.layer("core.fits_performed", 0, "count");
  ctx.layer("stats.segmented_share", 0, "ratio");
  ctx.layer("models.compare_ms", 0, "ms");
  for (const char* l : kLaws) {
    ctx.layer(std::string("models.fit_us.") + l, 0, "us");
  }
}

void replay(Ctx& ctx, const ReplayInput& in) {
  const int root = g_spans.begin("replay");
  Samples s;
  std::vector<double> handle_us(in.lines.size(), 0.0);
  std::vector<std::string> responses(in.lines.size());

  // ServeEngine::handle, the whole in-process request path.
  {
    sv::ServeConfig cfg;
    cfg.threads = 2;
    cfg.cache_capacity = 4096;
    sv::ServeEngine engine(cfg);
    if (in.warm) {
      for (const auto& [cls, line] : in.lines) (void)engine.handle(line);
    }
    for (std::size_t i = 0; i < in.lines.size(); ++i) {
      const double t = now_s();
      responses[i] = engine.handle(in.lines[i].second);
      handle_us[i] = (now_s() - t) * 1e6;
    }
    const std::string ping = "{\"op\":\"ping\"}";
    ctx.layer("engine.ping_us",
              time_us([&] { (void)engine.handle(ping); }, 2001), "us");
  }

  // runtime: ExecPool submit -> task start.
  {
    ipso::runtime::ExecPool pool(2);
    std::vector<double> hop;
    for (int i = 0; i < 2001; ++i) {
      std::promise<double> started;
      auto f = started.get_future();
      const double t = now_s();
      pool.submit([&started] { started.set_value(now_s()); });
      hop.push_back((f.get() - t) * 1e6);
    }
    ctx.layer("runtime.pool_hop_us", median(hop), "us");
  }

  // Frame codecs, batch by batch as the wire carried them.
  for (std::size_t b = 0; b < in.lines.size(); b += in.batch) {
    std::vector<std::string> reqs, resps;
    for (std::size_t i = b; i < std::min(in.lines.size(), b + in.batch); ++i) {
      reqs.push_back(in.lines[i].second);
      resps.push_back(responses[i]);
    }
    sv::JsonLineCodec json;
    sv::BinaryFrameCodec binary;
    for (sv::FrameCodec* codec :
         std::initializer_list<sv::FrameCodec*>{&json, &binary}) {
      const std::string wire = codec->encode(reqs);
      const std::string name(codec->name());
      s.add("decode." + name, time_us([&] {
              std::string buf = wire;
              std::vector<sv::WireBatch> out;
              (void)codec->decode(buf, out);
            }));
      s.add("encode." + name, time_us([&] { (void)codec->encode(resps); }));
    }
  }

  // proto parse, store key and placement pick, store lookup, core compute,
  // result encode: each line through the layers in the daemon's order.
  st::TieredStore store(st::TieredStoreConfig{4096, "", 4ull << 20});
  sv::ObservationStore windows;
  ipso::models::ModelZoo zoo;
  sv::ConsistentHashPlacement placement(2);
  std::set<std::string> fitted;
  double parse_bytes = 0.0, parse_s = 0.0;
  std::vector<std::pair<std::string, st::FitOutcome>> promote_items;
  double fit_total = 0.0, seg_total = 0.0;
  for (std::size_t i = 0; i < in.lines.size(); ++i) {
    const std::string& cls = in.lines[i].first;
    const std::string& line = in.lines[i].second;
    double sum = 0.0;
    auto parsed = sv::parse_request(line);
    if (!parsed.has_value()) continue;
    const double parse_us = time_us([&] { (void)sv::parse_request(line); });
    const sv::Request& req = *parsed;
    s.add("parse." + cls, parse_us);
    s.add("request_kib", static_cast<double>(line.size()) / 1024.0);
    s.add("response_kib", static_cast<double>(responses[i].size()) / 1024.0);
    parse_bytes += static_cast<double>(line.size());
    parse_s += parse_us / 1e6;
    sum += parse_us;
    std::string body;
    const char* kind = sv::to_string(req.op).data();

    if (req.has_observations()) {
      std::string key;
      const double k_us = time_us([&] {
        key = st::canonical_fit_key(req.workload, req.eta, req.ex, req.in,
                                    req.q);
      });
      s.add("key_us", k_us);
      s.add("key_kib", static_cast<double>(key.size()) / 1024.0);
      s.add("pick_us", time_us([&] { (void)placement.replica_for(key); }));
      sum += k_us;
      const std::string len = length_name(req.ex.size());
      if (fitted.insert(key).second) {
        st::FitOutcome outcome;
        const double f_us = time_us(
            [&] { outcome.fits = ipso::fit_factors(req.workload, req.measurements()); },
            3);
        const double seg_us = time_us(
            [&] { (void)ipso::stats::fit_segmented(req.in, 3); }, 3);
        s.add("fit_ms" + len, f_us / 1e3);
        s.add("seg_ms" + len, seg_us / 1e3);
        fit_total += f_us;
        seg_total += seg_us;
        (void)store.get_or_compute(key, [&] { return outcome; });
        if (promote_items.size() < 8) promote_items.emplace_back(key, outcome);
        if (!in.warm) sum += f_us;
      }
      st::TieredStore::Result hit;
      const double h_us = time_us(
          [&] { hit = store.get_or_compute(key, [] { return st::FitOutcome{}; }); });
      s.add("hit_us", h_us);
      if (in.warm) sum += h_us;
      if (hit.outcome && hit.outcome->fits) {
        const ipso::FactorFits& fits = *hit.outcome->fits;
        const double e_us = time_us([&] {
          switch (req.op) {
            case sv::Op::kFit:
              body = sv::ok_response(req, sv::fit_result_json(fits));
              break;
            case sv::Op::kPredict: {
              const auto pred = ipso::SpeedupPredictor::from_fits(fits);
              body = sv::ok_response(
                  req, sv::predict_result_json(fits.params, pred.curve(req.grid())));
              break;
            }
            case sv::Op::kRecommend: {
              const auto pred = ipso::SpeedupPredictor::from_fits(fits);
              const auto grid = req.grid();
              body = sv::ok_response(
                  req, sv::recommend_result_json(
                           fits.params,
                           ipso::plan_provisioning(pred, grid, req.knee_frac)));
              break;
            }
            default:
              body = sv::ok_response(
                  req, "{\"params\":" + sv::params_json(fits.params) +
                           ",\"classification\":" +
                           sv::classification_json(ipso::classify(fits.params)) +
                           "}");
          }
        });
        s.add(std::string("encode.") + kind, e_us);
        sum += e_us;
      }
    } else if (req.params) {
      const ipso::AsymptoticParams p = *req.params;
      if (req.op == sv::Op::kPredict) {
        ipso::stats::Series curve;
        const double c_us = time_us([&] {
          curve = ipso::SpeedupPredictor(p.materialize(), p.eta).curve(req.grid());
        });
        s.add("predict_us", c_us);
        const double e_us =
            time_us([&] { body = sv::ok_response(req, sv::predict_result_json(p, curve)); });
        s.add("encode.predict", e_us);
        sum += c_us + e_us;
      } else {
        ipso::Classification c;
        const double c_us = time_us([&] { c = ipso::classify(p); });
        s.add("classify_us", c_us);
        const double e_us = time_us([&] {
          body = sv::ok_response(req, "{\"params\":" + sv::params_json(p) +
                                          ",\"classification\":" +
                                          sv::classification_json(c) + "}");
        });
        s.add("encode.classify", e_us);
        sum += c_us + e_us;
      }
    } else if (req.op == sv::Op::kObserve) {
      sv::ObservationStore::ObserveResult r;
      const double o_us = time_us(
          [&] { r = windows.observe(req.workload_key, req.observe_n, req.observe_value); },
          1);
      s.add("observe_us", o_us);
      const double e_us = time_us(
          [&] { body = sv::ok_response(req, sv::observe_result_json(req.workload_key, r)); });
      s.add("encode.observe", e_us);
      sum += o_us + e_us;
    } else if (req.op == sv::Op::kCompare) {
      const auto snap = windows.snapshot(req.workload_key);
      if (snap && snap->window.size() >= 3) {
        ipso::models::Observations obs;
        obs.type = req.workload;
        obs.eta = req.eta;
        obs.speedup = snap->window;
        ipso::Expected<ipso::models::ZooResult> zr = ipso::FitError::kNotMeasured;
        const double c_us = time_us([&] { zr = zoo.compare(obs); }, 1);
        s.add("compare_ms", c_us / 1e3);
        for (const auto& law : zoo.laws()) {
          s.add(std::string("law.") + law->name(),
                time_us([&] { (void)law->fit(obs); }, 3));
        }
        if (zr.has_value()) {
          const double e_us = time_us([&] {
            body = sv::ok_response(
                req, sv::compare_result_json(*zr, req.workload_key, snap->window));
          });
          s.add("encode.compare", e_us);
          sum += e_us;
        }
        sum += c_us;
        if (promote_items.size() < 8) {
          std::string key = st::canonical_fit_key(obs.type, obs.eta, obs.speedup,
                                                  {}, {});
          promote_items.emplace_back(
              key, st::FitOutcome{ipso::models::IpsoModel::fit_observations(obs)});
        }
      }
    } else if (req.op == sv::Op::kPing) {
      const double e_us =
          time_us([&] { body = sv::ok_response(req, "{\"pong\":true}"); });
      s.add("encode.ping", e_us);
      sum += e_us;
    }
    s.add("handle." + cls, handle_us[i]);
    s.add("sum." + cls, sum);
    if (!in.socket_rtt_us.empty() && i < in.socket_rtt_us.size() &&
        in.socket_rtt_us[i] > 0) {
      s.add("socket_overhead", in.socket_rtt_us[i] - handle_us[i]);
    }
  }

  // Disk promote: persist, drop DRAM, read back through the store.
  if (!promote_items.empty()) {
    const std::string dir = temp_dir() + "/replay-store";
    st::TieredStore disk(st::TieredStoreConfig{1, dir, 4ull << 20});
    if (disk.open()) {
      for (const auto& [key, outcome] : promote_items) {
        (void)disk.get_or_compute(key, [&] { return outcome; });
      }
      disk.flush();
      for (const auto& [key, outcome] : promote_items) {
        disk.clear_memory();
        s.add("promote_us",
              time_us([&] { (void)disk.get_or_compute(key, [] { return st::FitOutcome{}; }); },
                      1));
      }
    }
  }
  if (!in.warm && s.v.count("handle.fit") && s.v.count("promote_us")) {
    // bench_serve_load's C9: a cold fit against the same answer promoted
    // from disk after a restart (parse + promote + encode).
    const double warm = s.med("parse.fit") + s.med("promote_us") + s.med("encode.fit");
    std::fprintf(stderr,
                 "perfbench: reference C9 cold/warm in-process = %.2f "
                 "(%.0f us / %.0f us)\n",
                 s.med("handle.fit") / warm, s.med("handle.fit"), warm);
  }
  if (!in.store_dir.empty()) {
    const double t = now_s();
    st::TieredStore reopened(st::TieredStoreConfig{16, in.store_dir, 4ull << 20});
    (void)reopened.open();
    ctx.layer("store.recover_s", now_s() - t, "s");
  }

  ctx.layer("event_loop.frame_decode_us.json", s.med("decode.json"), "us");
  ctx.layer("event_loop.frame_decode_us.binary", s.med("decode.binary"), "us");
  ctx.layer("event_loop.frame_encode_us.json", s.med("encode.json"), "us");
  ctx.layer("event_loop.frame_encode_us.binary", s.med("encode.binary"), "us");
  ctx.layer("event_loop.socket_overhead_us", s.med("socket_overhead"), "us");
  ctx.layer("router.pick_us", s.med("pick_us"), "us");
  if (!in.router_extra_us.empty()) {
    ctx.layer("router.extra_rtt_us", median(in.router_extra_us), "us");
  }
  for (const char* c : kReqClasses) {
    ctx.layer(std::string("proto.parse_us.") + c, s.med(std::string("parse.") + c), "us");
    // A difference of medians: it can dip below 0 by the noise of the two.
    ctx.layer(std::string("engine.overhead_us.") + c,
              s.med(std::string("handle.") + c) - s.med(std::string("sum.") + c),
              "us");
  }
  ctx.layer("proto.parse_mib_per_s", parse_s > 0 ? parse_bytes / (1 << 20) / parse_s : 0,
            "MiB/s");
  for (const char* k : kResultKinds) {
    ctx.layer(std::string("proto.encode_us.") + k, s.med(std::string("encode.") + k), "us");
  }
  ctx.layer("proto.request_kib", s.mean("request_kib"), "KiB");
  ctx.layer("proto.response_kib", s.mean("response_kib"), "KiB");
  ctx.layer("observe.observe_us", s.med("observe_us"), "us");
  ctx.layer("store.key_us", s.med("key_us"), "us");
  ctx.layer("store.key_kib", s.mean("key_kib"), "KiB");
  ctx.layer("store.hit_us", s.med("hit_us"), "us");
  ctx.layer("store.promote_us", s.med("promote_us"), "us");
  for (std::size_t n : kLengths) {
    ctx.layer("core.fit_factors_ms" + length_name(n), s.med("fit_ms" + length_name(n)), "ms");
    ctx.layer("stats.fit_segmented_ms" + length_name(n), s.med("seg_ms" + length_name(n)),
              "ms");
  }
  ctx.layer("stats.segmented_share", fit_total > 0 ? seg_total / fit_total : 0, "ratio");
  ctx.layer("core.predict_us", s.med("predict_us"), "us");
  ctx.layer("core.classify_us", s.med("classify_us"), "us");
  ctx.layer("models.compare_ms", s.med("compare_ms"), "ms");
  for (const char* l : kLaws) {
    ctx.layer(std::string("models.fit_us.") + l, s.med(std::string("law.") + l), "us");
  }
  g_spans.end(root);
}

void write_trace_outputs(const Ctx& ctx) {
  std::error_code ec;
  std::filesystem::create_directories(ctx.opt.out_dir, ec);
  std::ofstream trace(ctx.opt.out_dir + "/trace.json");
  trace << "{\"traceEvents\":[";
  const auto& spans = g_spans.all();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (i) trace << ",\n";
    // One track per connection, so each track's spans nest properly.
    const bool binary = sp.name.size() > 7 &&
                        sp.name.compare(sp.name.size() - 7, 7, ".binary") == 0;
    trace << "{\"name\":\"" << sp.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << (binary ? 2 : 1) << ",\"ts\":" << num(sp.start * 1e6)
          << ",\"dur\":" << num(std::max(0.0, sp.end - sp.start) * 1e6)
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << sp.parent
          << ",\"id\":\"" << sp.id << "\"}}";
  }
  trace << "]}\n";
  std::ofstream table(ctx.opt.out_dir + "/layers.tsv");
  table << "metric\tvalue\tunit\n";
  for (const auto& [name, vu] : ctx.layers) {
    table << name << '\t' << num(vu.first) << '\t' << vu.second << '\n';
  }
}

}  // namespace perfbench
