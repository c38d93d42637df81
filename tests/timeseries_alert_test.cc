// Telemetry layer: time-series recorder interval/wrap semantics, alert
// fire/resolve hysteresis, the per-node health state machine on a live
// cluster, SpaceSaving heavy-hitter accuracy under Zipf skew, per-vnode
// byte accounting, and Prometheus label escaping.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/monitor.h"
#include "cluster/sedna_cluster.h"
#include "common/hash.h"
#include "common/heavy_hitters.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timeseries.h"
#include "store/local_store.h"

namespace sedna {
namespace {

// ---- TimeSeriesRecorder -----------------------------------------------------

TEST(TimeSeriesRecorder, SamplesRegisteredSeriesAndExportsCsv) {
  TimeSeriesRecorder rec(16);
  double a = 1.0, b = 10.0;
  EXPECT_EQ(rec.add_series("alpha", [&] { return a; }), 0u);
  EXPECT_EQ(rec.add_series("beta", [&] { return b; }), 1u);

  rec.sample(sim_ms(500));
  a = 2.5;
  b = 20.0;
  rec.sample(sim_ms(1000));

  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.total_samples(), 2u);
  EXPECT_EQ(rec.time_at(0), sim_ms(500));
  EXPECT_EQ(rec.time_at(1), sim_ms(1000));
  EXPECT_DOUBLE_EQ(rec.value_at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(rec.value_at(1, 0), 2.5);
  EXPECT_DOUBLE_EQ(rec.value_at(1, 1), 20.0);

  EXPECT_EQ(rec.series_index("beta"), 1u);
  EXPECT_EQ(rec.series_index("nope"), TimeSeriesRecorder::npos);

  const std::string csv = rec.csv();
  EXPECT_EQ(csv,
            "time_us,alpha,beta\n"
            "500000,1,10\n"
            "1000000,2.5,20\n");
}

TEST(TimeSeriesRecorder, RingWrapKeepsNewestSamplesInOrder) {
  TimeSeriesRecorder rec(4);
  double v = 0;
  rec.add_series("v", [&] { return v; });
  for (int i = 1; i <= 10; ++i) {
    v = i;
    rec.sample(sim_ms(100 * i));
  }
  ASSERT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_samples(), 10u);
  // Oldest retained sample is #7; rows stay chronological after wrap.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.time_at(i), sim_ms(100 * (7 + i)));
    EXPECT_DOUBLE_EQ(rec.value_at(i, 0), static_cast<double>(7 + i));
  }
}

// ---- AlertEngine ------------------------------------------------------------

TEST(AlertEngine, FiresAfterForSamplesAndResolvesAfterClearSamples) {
  TimeSeriesRecorder rec(32);
  double v = 0;
  rec.add_series("load", [&] { return v; });

  AlertEngine alerts;
  alerts.add_rule({"hot", "load", AlertOp::kGreaterThan, 5.0,
                   /*for_samples=*/2, /*clear_samples=*/2, "warning"});

  auto step = [&](double value, SimTime at) {
    v = value;
    rec.sample(at);
    alerts.evaluate(rec, at);
  };

  step(9, sim_ms(100));  // first breach: pending, not yet firing
  EXPECT_EQ(alerts.state("hot"), AlertState::kPending);
  EXPECT_TRUE(alerts.events().empty());

  step(9, sim_ms(200));  // second consecutive breach: fires
  EXPECT_TRUE(alerts.firing("hot"));
  ASSERT_EQ(alerts.events().size(), 1u);
  EXPECT_TRUE(alerts.events()[0].fired);
  EXPECT_EQ(alerts.events()[0].at, sim_ms(200));

  step(1, sim_ms(300));  // one clean sample: hysteresis holds it firing
  EXPECT_TRUE(alerts.firing("hot"));

  step(9, sim_ms(400));  // breach again: clear streak resets
  step(1, sim_ms(500));
  EXPECT_TRUE(alerts.firing("hot"));

  step(1, sim_ms(600));  // second consecutive clean sample: resolves
  EXPECT_FALSE(alerts.firing("hot"));
  ASSERT_EQ(alerts.events().size(), 2u);
  EXPECT_FALSE(alerts.events()[1].fired);
  EXPECT_EQ(alerts.events()[1].at, sim_ms(600));

  const std::string text = alerts.text();
  EXPECT_NE(text.find("FIRING"), std::string::npos);
  EXPECT_NE(text.find("RESOLVED"), std::string::npos);
  EXPECT_NE(text.find("hot"), std::string::npos);
}

TEST(AlertEngine, InterruptedBreachStreakNeverFires) {
  TimeSeriesRecorder rec(32);
  double v = 0;
  rec.add_series("load", [&] { return v; });
  AlertEngine alerts;
  alerts.add_rule({"hot", "load", AlertOp::kGreaterThan, 5.0,
                   /*for_samples=*/3, /*clear_samples=*/1, "warning"});
  const double pattern[] = {9, 9, 1, 9, 9, 1, 9, 9, 1};
  SimTime t = 0;
  for (const double value : pattern) {
    v = value;
    t += sim_ms(100);
    rec.sample(t);
    alerts.evaluate(rec, t);
  }
  EXPECT_EQ(alerts.state("hot"), AlertState::kInactive);
  EXPECT_TRUE(alerts.events().empty());
}

TEST(AlertEngine, LessThanRuleWatchesFloors) {
  TimeSeriesRecorder rec(8);
  double v = 10;
  rec.add_series("replicas", [&] { return v; });
  AlertEngine alerts;
  alerts.add_rule({"under-replicated", "replicas", AlertOp::kLessThan, 3.0,
                   /*for_samples=*/1, /*clear_samples=*/1, "critical"});
  rec.sample(sim_ms(100));
  alerts.evaluate(rec, sim_ms(100));
  EXPECT_FALSE(alerts.firing("under-replicated"));
  v = 2;
  rec.sample(sim_ms(200));
  alerts.evaluate(rec, sim_ms(200));
  EXPECT_TRUE(alerts.firing("under-replicated"));
  EXPECT_EQ(alerts.firing_count(), 1u);
}

// ---- SpaceSaving heavy hitters ---------------------------------------------

TEST(SpaceSavingSketch, RecoversZipfTopKeysExactly) {
  constexpr std::size_t kUniverse = 1000;
  constexpr std::size_t kSamples = 20000;
  constexpr std::size_t kTop = 8;

  auto key_of = [](std::size_t i) { return "key-" + std::to_string(i); };

  ZipfGenerator zipf(kUniverse, 1.2, 42);
  SpaceSavingSketch sketch(64);
  std::map<std::string, std::uint64_t> exact;
  for (std::size_t s = 0; s < kSamples; ++s) {
    const std::string key = key_of(zipf.next());
    sketch.record(key);
    ++exact[key];
  }
  EXPECT_EQ(sketch.total(), kSamples);
  EXPECT_LE(sketch.tracked(), 64u);

  // Exact top-8 with the sketch's tie order (count desc, key asc).
  std::vector<std::pair<std::string, std::uint64_t>> truth(exact.begin(),
                                                           exact.end());
  std::sort(truth.begin(), truth.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  truth.resize(kTop);

  const auto top = sketch.top(kTop);
  ASSERT_EQ(top.size(), kTop);
  std::set<std::string> truth_keys, sketch_keys;
  for (const auto& [key, count] : truth) truth_keys.insert(key);
  for (const auto& e : top) sketch_keys.insert(e.key);
  EXPECT_EQ(sketch_keys, truth_keys);

  // SpaceSaving guarantee on everything it reports:
  //   count - error <= true count <= count.
  for (const auto& e : top) {
    const std::uint64_t true_count = exact[e.key];
    EXPECT_LE(e.count - e.error, true_count) << e.key;
    EXPECT_GE(e.count, true_count) << e.key;
  }
}

TEST(SpaceSavingSketch, EvictsMinimumAndInheritsItsFloor) {
  SpaceSavingSketch sketch(2);
  sketch.record("a");
  sketch.record("a");
  sketch.record("b");
  // Full: "c" evicts the smallest counter ("b", count 1) and inherits its
  // count as error floor.
  sketch.record("c");
  const auto entries = sketch.entries();
  ASSERT_EQ(entries.size(), 2u);
  const auto top = sketch.top(2);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[0].count, 2u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, "c");
  EXPECT_EQ(top[1].count, 2u);  // floor 1 + weight 1
  EXPECT_EQ(top[1].error, 1u);
}

TEST(SpaceSavingSketch, TiedMinimumEvictsTheSmallestKey) {
  // Insertion order must not matter: among the minimum counts, the
  // smallest key is the victim.
  SpaceSavingSketch sketch(3);
  sketch.record("m");
  sketch.record("z");
  sketch.record("b");
  sketch.record("m");  // m=2, z=1, b=1
  sketch.record("q");  // evicts b (b < z), q inherits floor 1
  auto entries = sketch.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "m");
  EXPECT_EQ(entries[1].key, "q");
  EXPECT_EQ(entries[1].count, 2u);
  EXPECT_EQ(entries[1].error, 1u);
  EXPECT_EQ(entries[2].key, "z");

  // m=2, q=2, z=1: the lone minimum goes even though it is the largest key.
  sketch.record("a", 5);  // evicts z, a = 1 + 5 with error 1
  entries = sketch.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "a");
  EXPECT_EQ(entries[0].count, 6u);
  EXPECT_EQ(entries[0].error, 1u);
  EXPECT_EQ(entries[1].key, "m");
  EXPECT_EQ(entries[2].key, "q");

  // m=2, q=2 tie at the minimum: m is the smaller key.
  sketch.record("n");
  const auto top = sketch.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, "a");
  EXPECT_EQ(top[1].key, "n");
  EXPECT_EQ(top[1].count, 3u);
  EXPECT_EQ(top[1].error, 2u);
  EXPECT_EQ(top[2].key, "q");
  EXPECT_EQ(sketch.total(), 11u);
}

// ---- Prometheus label escaping ---------------------------------------------

TEST(MetricsRegistry, HostileLabelValuesAreEscapedInExposition) {
  MetricRegistry inner;
  inner.counter("requests").add(3);

  MetricsRegistry registry;
  registry.attach("bad\"label\\with\nnewline", inner);
  const std::string text = registry.prometheus_text();

  // The raw quote/backslash/newline must not appear inside the label;
  // their escaped forms must.
  EXPECT_NE(text.find("node=\"bad\\\"label\\\\with\\nnewline\""),
            std::string::npos)
      << text;
  // No exposition line may be split by an unescaped label newline: every
  // line that mentions the label must also close its value on that line.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (line.find("node=\"bad") != std::string::npos) {
      EXPECT_NE(line.find("\"}"), std::string::npos) << line;
    }
    start = end + 1;
  }
}

// ---- LocalStore per-vnode byte accounting ----------------------------------

TEST(LocalStore, VnodeBytesTracksResidencyPerVnode) {
  constexpr std::uint32_t kVnodes = 8;
  store::LocalStore store;
  EXPECT_TRUE(store.vnode_bytes_all().empty());  // digests off
  store.enable_digests(kVnodes);

  const std::vector<std::string> keys = {"alpha", "bravo", "charlie",
                                         "delta", "echo"};
  for (const auto& key : keys) {
    ASSERT_TRUE(store.set(key, "0123456789").ok());
  }

  auto bytes = store.vnode_bytes_all();
  ASSERT_EQ(bytes.size(), kVnodes);
  std::uint64_t sum = 0;
  for (std::uint32_t v = 0; v < kVnodes; ++v) {
    EXPECT_EQ(bytes[v], store.vnode_bytes(v));
    sum += bytes[v];
  }
  EXPECT_GT(sum, 0u);

  // Every written key's vnode row is charged; untouched vnodes are zero.
  std::set<VnodeId> touched;
  for (const auto& key : keys) {
    touched.insert(static_cast<VnodeId>(ring_hash(key) % kVnodes));
  }
  for (std::uint32_t v = 0; v < kVnodes; ++v) {
    if (touched.count(v)) {
      EXPECT_GT(bytes[v], 0u) << "vnode " << v;
    } else {
      EXPECT_EQ(bytes[v], 0u) << "vnode " << v;
    }
  }

  // Removing a key refunds exactly its vnode; growing a value recharges.
  const VnodeId va = static_cast<VnodeId>(ring_hash("alpha") % kVnodes);
  const std::uint64_t before = store.vnode_bytes(va);
  ASSERT_TRUE(store.del("alpha").ok());
  EXPECT_LT(store.vnode_bytes(va), before);

  ASSERT_TRUE(store.set("bravo", std::string(200, 'x')).ok());
  const VnodeId vb = static_cast<VnodeId>(ring_hash("bravo") % kVnodes);
  EXPECT_GT(store.vnode_bytes(vb), bytes[vb]);

  store.clear();
  for (const std::uint64_t b : store.vnode_bytes_all()) EXPECT_EQ(b, 0u);
}

// ---- ClusterMonitor on a live cluster --------------------------------------

cluster::SednaClusterConfig small_config(std::uint64_t seed) {
  cluster::SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 64;
  cfg.seed = seed;
  return cfg;
}

TEST(ClusterMonitor, HealthWalksSuspectDeadAndBackAndAlertsFireResolve) {
  cluster::SednaCluster cluster(small_config(11));
  ASSERT_TRUE(cluster.boot().ok());
  auto& monitor = cluster.enable_monitor();
  auto& client = cluster.make_client();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        cluster.write_latest(client, "k" + std::to_string(i), "v").ok());
  }
  cluster.run_for(sim_sec(1));
  const NodeId victim = cluster.node(1).id();
  EXPECT_EQ(monitor.health(victim), cluster::HealthState::kHealthy);
  EXPECT_FALSE(monitor.alerts().firing("heartbeat-loss"));

  cluster.crash_node(1);
  cluster.run_for(sim_sec(2));  // < dead_after: suspect, alert firing
  EXPECT_EQ(monitor.health(victim), cluster::HealthState::kSuspect);
  EXPECT_TRUE(monitor.alerts().firing("heartbeat-loss"));

  cluster.run_for(sim_sec(3));  // past dead_after
  EXPECT_EQ(monitor.health(victim), cluster::HealthState::kDead);

  cluster.restart_node(1);
  cluster.run_for(sim_sec(2));  // ready again + two clean samples
  EXPECT_EQ(monitor.health(victim), cluster::HealthState::kHealthy);
  EXPECT_FALSE(monitor.alerts().firing("heartbeat-loss"));

  // The log walks healthy -> suspect -> dead -> healthy for the victim.
  std::vector<cluster::HealthState> walk;
  for (const auto& t : monitor.health_log()) {
    if (t.node == victim) walk.push_back(t.to);
  }
  ASSERT_GE(walk.size(), 3u);
  EXPECT_EQ(walk[0], cluster::HealthState::kSuspect);
  EXPECT_EQ(walk[1], cluster::HealthState::kDead);
  EXPECT_EQ(walk.back(), cluster::HealthState::kHealthy);

  // heartbeat-loss fired exactly once and resolved exactly once.
  int fired = 0, resolved = 0;
  for (const auto& e : monitor.alerts().events()) {
    if (e.rule != "heartbeat-loss") continue;
    ++(e.fired ? fired : resolved);
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(resolved, 1);

  // Dashboard reflects all of it.
  const std::string dash = monitor.dashboard();
  EXPECT_NE(dash.find("health:"), std::string::npos);
  EXPECT_NE(dash.find("heartbeat-loss"), std::string::npos);
  EXPECT_NE(dash.find("health log:"), std::string::npos);
  const std::string csv = monitor.timeseries_csv();
  EXPECT_NE(csv.find("time_us,nodes_down,hints_pending"), std::string::npos);
}

TEST(ClusterMonitor, SurfacesAreByteDeterministicAcrossSeededRuns) {
  auto run = [](std::uint64_t seed) {
    cluster::SednaCluster cluster(small_config(seed));
    EXPECT_TRUE(cluster.boot().ok());
    auto& monitor = cluster.enable_monitor();
    auto& client = cluster.make_client();
    for (int i = 0; i < 30; ++i) {
      (void)cluster.write_latest(client, "k" + std::to_string(i), "v");
    }
    cluster.crash_node(2);
    for (int i = 0; i < 30; ++i) {
      (void)cluster.read_latest(client, "k" + std::to_string(i));
    }
    cluster.run_for(sim_sec(4));
    cluster.restart_node(2);
    cluster.run_for(sim_sec(2));
    return monitor.timeseries_csv() + "\n---\n" + monitor.dashboard() +
           "\n---\n" + monitor.alerts_text();
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // different seeds genuinely diverge
}

}  // namespace
}  // namespace sedna
