/// Tests for the sharded serving tier: placement policies (determinism,
/// distribution, consistent-hash redistribution bound, affinity
/// stickiness) and the Router end-to-end against real replica processes'
/// in-process equivalents — including the contract that routing through
/// the tier is byte-invisible: every deterministic op answers exactly the
/// bytes a single ipso_serve would have produced, on both protocols and
/// under every placement policy.

#include "serve/client.h"
#include "serve/engine.h"
#include "serve/placement.h"
#include "serve/proto.h"
#include "serve/router.h"
#include "serve/server.h"
#include "stats/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace ipso::serve {
namespace {

/// A deterministic fit request; the seed perturbs EX so distinct seeds are
/// distinct cache keys (and distinct routing keys).
std::string fit_request(int seed, const char* op = "fit") {
  const double t1 = 100.0 + seed;
  std::ostringstream os;
  os << "{\"op\":\"" << op
     << "\",\"workload\":\"fixed-time\",\"eta\":0.99,\"ex\":[";
  bool first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (t1 / n + 0.5) << "]";
  }
  os << "],\"in\":[";
  first = true;
  for (double n : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    if (!first) os << ",";
    first = false;
    os << "[" << n << "," << (0.4 + 1.05 * n) << "]";
  }
  os << "]}";
  return os.str();
}

std::vector<std::string> test_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back("key-" + std::to_string(i * 2654435761u));
  }
  return keys;
}

// --------------------------------------------------------------- placement

TEST(Placement, FactoryKnowsAllPoliciesAndRejectsUnknown) {
  for (const char* name : {"hash", "range", "affinity"}) {
    auto policy = make_placement(name, 3);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_STREQ(policy->name(), name);
    EXPECT_EQ(policy->replicas(), 3u);
  }
  EXPECT_EQ(make_placement("round-robin", 3), nullptr);
  EXPECT_EQ(make_placement("", 3), nullptr);
}

TEST(Placement, MappingIsDeterministicAndInRange) {
  const auto keys = test_keys(500);
  for (const char* name : {"hash", "range", "affinity"}) {
    auto policy = make_placement(name, 5);
    ASSERT_NE(policy, nullptr);
    for (const std::string& key : keys) {
      const std::size_t first = policy->replica_for(key);
      EXPECT_LT(first, 5u);
      // Same key, same replica — on this instance and on a fresh one
      // (affinity pins are per-instance, so only same-instance repeats are
      // guaranteed sticky; hash and range must agree across instances).
      EXPECT_EQ(policy->replica_for(key), first) << name << " " << key;
    }
  }
  // Stateless policies are deterministic across instances too (a router
  // restart keeps the same routing table).
  for (const char* name : {"hash", "range"}) {
    auto a = make_placement(name, 7);
    auto b = make_placement(name, 7);
    for (const std::string& key : keys) {
      EXPECT_EQ(a->replica_for(key), b->replica_for(key)) << name;
    }
  }
}

TEST(Placement, HashAndRangeSpreadKeysAcrossAllReplicas) {
  const auto keys = test_keys(3000);
  for (const char* name : {"hash", "range"}) {
    auto policy = make_placement(name, 3);
    std::vector<std::size_t> counts(3, 0);
    for (const std::string& key : keys) ++counts[policy->replica_for(key)];
    for (std::size_t r = 0; r < counts.size(); ++r) {
      // Perfect balance is 1000 per replica; 128 vnodes keeps consistent
      // hashing well within 2x of fair share.
      EXPECT_GT(counts[r], keys.size() / 6) << name << " replica " << r;
      EXPECT_LT(counts[r], keys.size() / 2) << name << " replica " << r;
    }
  }
}

TEST(Placement, ConsistentHashBoundsRedistributionOnReplicaAdd) {
  // Growing the tier 5 -> 6 should move about 1/6 of the keys (the new
  // replica's fair share) and certainly far fewer than a naive mod-N
  // rehash, which moves ~5/6. Range partitioning is the contrast: block
  // boundaries all shift, so most keys move.
  const auto keys = test_keys(2000);
  ConsistentHashPlacement five(5);
  ConsistentHashPlacement six(6);
  std::size_t moved = 0;
  for (const std::string& key : keys) {
    if (five.replica_for(key) != six.replica_for(key)) ++moved;
  }
  const double moved_frac =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_GT(moved_frac, 0.05) << "the new replica must take over some keys";
  EXPECT_LT(moved_frac, 0.35) << "consistent hashing must not reshuffle "
                                 "the tier on a single replica add";
}

TEST(Placement, AffinityPinsRoundRobinThenSticks) {
  AffinityPlacement affinity(3);
  // First sight of each distinct key walks the replicas round-robin.
  EXPECT_EQ(affinity.replica_for("k0"), 0u);
  EXPECT_EQ(affinity.replica_for("k1"), 1u);
  EXPECT_EQ(affinity.replica_for("k2"), 2u);
  EXPECT_EQ(affinity.replica_for("k3"), 0u);
  // Every later sight returns the pin, regardless of arrival order.
  EXPECT_EQ(affinity.replica_for("k2"), 2u);
  EXPECT_EQ(affinity.replica_for("k0"), 0u);
  EXPECT_EQ(affinity.pins(), 4u);
}

TEST(Placement, AffinityStaysStickyUnderZipfSkew) {
  // A Zipf(1.2)-skewed stream over 64 keys: hot keys repeat constantly,
  // cold keys trickle. Every occurrence of a key must land on the replica
  // its first occurrence was pinned to.
  constexpr std::size_t kKeys = 64;
  std::vector<double> cdf(kKeys);
  double mass = 0.0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    mass += 1.0 / std::pow(static_cast<double>(i + 1), 1.2);
    cdf[i] = mass;
  }
  for (double& c : cdf) c /= mass;

  AffinityPlacement affinity(4);
  std::map<std::string, std::size_t> first_seen;
  stats::Rng rng(0x5eed);
  for (int draw = 0; draw < 20000; ++draw) {
    const double u = rng.uniform();
    std::size_t idx = 0;
    while (idx + 1 < kKeys && cdf[idx] < u) ++idx;
    const std::string key = "zipf-" + std::to_string(idx);
    const std::size_t replica = affinity.replica_for(key);
    const auto [it, inserted] = first_seen.emplace(key, replica);
    if (!inserted) {
      ASSERT_EQ(replica, it->second)
          << "key " << key << " migrated off its first-serving replica";
    }
  }
  EXPECT_LE(affinity.pins(), kKeys);
}

TEST(Placement, AffinityPinTableIsBounded) {
  AffinityPlacement affinity(2, /*max_pins=*/16);
  for (int i = 0; i < 1000; ++i) {
    (void)affinity.replica_for("one-shot-" + std::to_string(i));
  }
  EXPECT_LE(affinity.pins(), 16u);
  // A hot key touched throughout survives the churn and keeps its pin.
  AffinityPlacement hot(2, /*max_pins=*/16);
  const std::size_t pinned = hot.replica_for("hot");
  for (int i = 0; i < 1000; ++i) {
    (void)hot.replica_for("cold-" + std::to_string(i));
    EXPECT_EQ(hot.replica_for("hot"), pinned) << "iteration " << i;
  }
}

// ------------------------------------------------------------------ router

/// One in-process replica: engine + TCP front end, as ipso_serve runs it.
struct ReplicaStack {
  explicit ReplicaStack(std::size_t threads = 1) {
    ServeConfig cfg;
    cfg.threads = threads;
    engine = std::make_unique<ServeEngine>(cfg);
    server = std::make_unique<TcpServer>(*engine);
  }
  std::unique_ptr<ServeEngine> engine;
  std::unique_ptr<TcpServer> server;
};

/// The deterministic-op corpus: every op whose response must be a pure
/// function of the request, plus a parse error (stats is checked
/// separately — it is counters, not a function of the request).
std::vector<std::string> deterministic_corpus() {
  return {
      "{\"op\":\"ping\",\"id\":\"p1\"}",
      fit_request(1),
      fit_request(2, "classify"),
      fit_request(3, "predict"),
      fit_request(4, "recommend"),
      fit_request(1),  // repeat: a cache hit somewhere in the tier
      "{\"op\":\"diagnose\",\"workload\":\"fixed-time\",\"eta\":0.99,"
      "\"speedup\":[[1,1],[2,1.9],[4,3.4],[8,5.1],[16,6.0]]}",
      "{\"op\":\"classify\",\"params\":{\"workload\":\"fixed-time\","
      "\"eta\":0.95,\"alpha\":1,\"delta\":0.1,\"beta\":0.2,"
      "\"gamma\":0.01}}",
      "this is not json",
      fit_request(5),
      fit_request(6),
      fit_request(7),
  };
}

TEST(Router, StartRejectsBadConfig) {
  {
    RouterConfig cfg;  // no replicas
    Router router(cfg);
    auto started = router.start();
    ASSERT_FALSE(started.has_value());
    EXPECT_NE(started.error().message.find("replica"), std::string::npos);
  }
  {
    RouterConfig cfg;
    cfg.replicas = {{"127.0.0.1", 1}};
    cfg.placement = "mystery";
    Router router(cfg);
    auto started = router.start();
    ASSERT_FALSE(started.has_value());
    EXPECT_NE(started.error().message.find("placement"), std::string::npos);
  }
}

TEST(Router, ResponsesByteIdenticalToSingleNodeForEveryPlacement) {
  const std::vector<std::string> corpus = deterministic_corpus();

  // Reference: one engine, driven directly (protocol-independent bytes).
  std::vector<std::string> reference;
  {
    ServeConfig cfg;
    cfg.threads = 1;
    ServeEngine engine(cfg);
    for (const std::string& req : corpus) {
      reference.push_back(engine.handle(req));
    }
  }

  for (const char* placement : {"hash", "range", "affinity"}) {
    ReplicaStack replicas[3];
    RouterConfig cfg;
    cfg.placement = placement;
    for (ReplicaStack& r : replicas) {
      ASSERT_TRUE(r.server->start().has_value());
      cfg.replicas.push_back(ReplicaEndpoint{"127.0.0.1", r.server->port()});
    }
    Router router(cfg);
    ASSERT_TRUE(router.start().has_value());

    for (const Proto proto : {Proto::kJson, Proto::kBinary}) {
      Client client(proto);
      ASSERT_TRUE(client.connect("127.0.0.1", router.port()).has_value());
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        auto response = client.call(corpus[i]);
        ASSERT_TRUE(response.has_value()) << response.error().message;
        EXPECT_EQ(*response, reference[i])
            << "placement=" << placement << " proto=" << to_string(proto)
            << " request=" << corpus[i];
      }
    }

    const RouterStats s = router.stats();
    EXPECT_GT(s.routed_keyed, 0u);
    EXPECT_GT(s.routed_keyless, 0u);
    EXPECT_EQ(s.upstream_errors, 0u);
    std::size_t forwarded = 0;
    for (const std::size_t c : s.per_replica) forwarded += c;
    EXPECT_EQ(forwarded, s.routed_keyed + s.routed_keyless);
    router.shutdown();
  }
}

TEST(Router, KeyedRequestsStickToOneReplicaAcrossRepeats) {
  // The same fit key must always hit the same replica, so the tier fits
  // once and serves the rest from that replica's cache.
  ReplicaStack replicas[3];
  RouterConfig cfg;
  for (ReplicaStack& r : replicas) {
    ASSERT_TRUE(r.server->start().has_value());
    cfg.replicas.push_back(ReplicaEndpoint{"127.0.0.1", r.server->port()});
  }
  Router router(cfg);
  ASSERT_TRUE(router.start().has_value());

  Client client(Proto::kBinary);
  ASSERT_TRUE(client.connect("127.0.0.1", router.port()).has_value());
  const std::string req = fit_request(99);
  for (int i = 0; i < 8; ++i) {
    auto response = client.call(req);
    ASSERT_TRUE(response.has_value()) << response.error().message;
  }
  router.shutdown();

  std::size_t total_fits = 0;
  std::size_t replicas_with_fits = 0;
  for (ReplicaStack& r : replicas) {
    const std::size_t fits = r.engine->fits_performed();
    total_fits += fits;
    if (fits > 0) ++replicas_with_fits;
  }
  EXPECT_EQ(total_fits, 1u) << "8 identical requests must fit exactly once";
  EXPECT_EQ(replicas_with_fits, 1u);
}

TEST(Router, StatsOpIsAnsweredLocallyWithTierCounters) {
  ReplicaStack replica;
  ASSERT_TRUE(replica.server->start().has_value());
  RouterConfig cfg;
  cfg.replicas = {{"127.0.0.1", replica.server->port()}};
  cfg.placement = "affinity";
  Router router(cfg);
  ASSERT_TRUE(router.start().has_value());

  Client client(Proto::kJson);
  ASSERT_TRUE(client.connect("127.0.0.1", router.port()).has_value());
  ASSERT_TRUE(client.call("{\"op\":\"ping\"}").has_value());
  auto stats = client.call("{\"op\":\"stats\",\"id\":\"s1\"}");
  ASSERT_TRUE(stats.has_value()) << stats.error().message;
  EXPECT_NE(stats->find("\"router\":true"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"placement\":\"affinity\""), std::string::npos);
  EXPECT_NE(stats->find("\"replicas\":1"), std::string::npos);
  EXPECT_NE(stats->find("\"id\":\"s1\""), std::string::npos);
  EXPECT_NE(stats->find("\"ok\":true"), std::string::npos);
  // The ping was forwarded; the stats op itself never reached a replica.
  EXPECT_EQ(router.stats().answered_local, 1u);
}

TEST(Router, LocalStatsReplyIsPinnedByteForByte) {
  // The router's whole locally answered `stats` reply after a fixed
  // sequence over two in-process replicas (hash placement, two pooled
  // connections each): two keyless pings and a parse error round-robin,
  // one fit is placed by its key. The stats op counts itself in
  // `received` before it renders and in `answered_local` after.
  ReplicaStack replicas[2];
  RouterConfig cfg;
  for (ReplicaStack& r : replicas) {
    ASSERT_TRUE(r.server->start().has_value());
    cfg.replicas.push_back(ReplicaEndpoint{"127.0.0.1", r.server->port()});
  }
  Router router(cfg);
  ASSERT_TRUE(router.start().has_value());

  Client client(Proto::kJson);
  ASSERT_TRUE(client.connect("127.0.0.1", router.port()).has_value());
  for (const std::string& req :
       {std::string("{\"op\":\"ping\"}"), fit_request(1),
        std::string("this is not json"), std::string("{\"op\":\"ping\"}")}) {
    ASSERT_TRUE(client.call(req).has_value());
  }
  auto stats = client.call("{\"op\":\"stats\",\"id\":\"s1\"}");
  ASSERT_TRUE(stats.has_value()) << stats.error().message;
  EXPECT_EQ(*stats,
            "{\"id\":\"s1\",\"op\":\"stats\",\"ok\":true,\"result\":{"
            "\"router\":true,\"placement\":\"hash\",\"replicas\":2,"
            "\"connections_per_replica\":2,\"received\":5,"
            "\"routed_keyed\":1,\"routed_keyless\":3,\"answered_local\":0,"
            "\"rejected_draining\":0,\"upstream_batches\":4,"
            "\"upstream_errors\":0,\"reconnects\":3,\"per_replica\":[3,1]}}");
  router.shutdown();
}

TEST(Router, DeadReplicaAnswersUpstreamUnavailableWithoutHanging) {
  auto replica = std::make_unique<ReplicaStack>();
  ASSERT_TRUE(replica->server->start().has_value());
  RouterConfig cfg;
  cfg.replicas = {{"127.0.0.1", replica->server->port()}};
  cfg.connections_per_replica = 1;
  Router router(cfg);
  ASSERT_TRUE(router.start().has_value());

  Client client(Proto::kJson);
  ASSERT_TRUE(client.connect("127.0.0.1", router.port()).has_value());
  auto pong = client.call("{\"op\":\"ping\"}");
  ASSERT_TRUE(pong.has_value()) << pong.error().message;
  EXPECT_NE(pong->find("\"pong\":true"), std::string::npos);

  // Kill the replica. Requests routed to it must come back as structured
  // upstream_unavailable errors, echoing id and op — never a hang, never a
  // dropped connection on the router's front side.
  replica->server->shutdown();
  replica.reset();
  auto failed = client.call("{\"op\":\"ping\",\"id\":\"dead1\"}");
  ASSERT_TRUE(failed.has_value()) << failed.error().message;
  EXPECT_NE(failed->find("\"error\":\"upstream_unavailable\""),
            std::string::npos)
      << *failed;
  EXPECT_NE(failed->find("\"id\":\"dead1\""), std::string::npos);
  EXPECT_NE(failed->find("\"op\":\"ping\""), std::string::npos);
  EXPECT_GE(router.stats().upstream_errors, 1u);

  // The router front end survives: further requests still get answers.
  auto again = client.call("{\"op\":\"ping\"}");
  ASSERT_TRUE(again.has_value()) << again.error().message;
  EXPECT_NE(again->find("\"error\":\"upstream_unavailable\""),
            std::string::npos);
  router.shutdown();
}

TEST(Router, ReplicaRestartTriggersReconnect) {
  ReplicaStack first;
  ASSERT_TRUE(first.server->start().has_value());
  const std::uint16_t port = first.server->port();
  RouterConfig cfg;
  cfg.replicas = {{"127.0.0.1", port}};
  cfg.connections_per_replica = 1;
  Router router(cfg);
  ASSERT_TRUE(router.start().has_value());

  Client client(Proto::kJson);
  ASSERT_TRUE(client.connect("127.0.0.1", router.port()).has_value());
  ASSERT_TRUE(client.call("{\"op\":\"ping\"}").has_value());
  first.server->shutdown();

  // One request fails over to upstream_unavailable while the replica is
  // down; once something listens on the port again, the next batch
  // reconnects and real answers resume.
  auto down = client.call("{\"op\":\"ping\"}");
  ASSERT_TRUE(down.has_value());
  EXPECT_NE(down->find("upstream_unavailable"), std::string::npos);

  ServeConfig engine_cfg;
  engine_cfg.threads = 1;
  ServeEngine engine2(engine_cfg);
  TcpServer second(engine2, EventLoopConfig{"127.0.0.1", port});
  ASSERT_TRUE(second.start().has_value());
  auto back = client.call("{\"op\":\"ping\"}");
  ASSERT_TRUE(back.has_value()) << back.error().message;
  EXPECT_NE(back->find("\"pong\":true"), std::string::npos) << *back;
  EXPECT_GE(router.stats().reconnects, 2u);
  router.shutdown();
}

TEST(Router, ShutdownDrainsAndRejectsLateRequests) {
  ReplicaStack replica;
  ASSERT_TRUE(replica.server->start().has_value());
  RouterConfig cfg;
  cfg.replicas = {{"127.0.0.1", replica.server->port()}};
  Router router(cfg);
  ASSERT_TRUE(router.start().has_value());

  Client client(Proto::kBinary);
  ASSERT_TRUE(client.connect("127.0.0.1", router.port()).has_value());
  ASSERT_TRUE(client.call("{\"op\":\"ping\"}").has_value());

  router.shutdown();  // must not hang and must be idempotent
  router.shutdown();
  const RouterStats s = router.stats();
  EXPECT_EQ(s.received,
            s.routed_keyed + s.routed_keyless + s.answered_local +
                s.rejected_draining);
}

}  // namespace
}  // namespace ipso::serve
