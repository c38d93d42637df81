// Determinism property of the whole simulated stack: identical seeds give
// bit-identical behaviour, plain and with observability dumps, the
// auditor, the rebalancer, overload defences and causal writes on.
#include <gtest/gtest.h>

#include "cluster/admin.h"
#include "cluster/sedna_cluster.h"
#include "store/local_store.h"
#include "workload/open_loop.h"

namespace sedna::cluster {
namespace {

SednaClusterConfig small_config(std::uint64_t seed) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 128;
  cfg.seed = seed;
  return cfg;
}

struct RunTrace {
  SimTime final_time = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<std::size_t> store_sizes;
  std::vector<Timestamp> read_timestamps;

  friend bool operator==(const RunTrace& a, const RunTrace& b) {
    return a.final_time == b.final_time && a.messages == b.messages &&
           a.bytes == b.bytes && a.store_sizes == b.store_sizes &&
           a.read_timestamps == b.read_timestamps;
  }
};

RunTrace run_workload(std::uint64_t seed) {
  SednaCluster cluster(small_config(seed));
  EXPECT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(cluster.write_latest(client, "det-" + std::to_string(i),
                                     "v" + std::to_string(i)).ok());
  }
  cluster.crash_node(1);
  RunTrace trace;
  for (int i = 0; i < 100; ++i) {
    auto got = cluster.read_latest(client, "det-" + std::to_string(i));
    trace.read_timestamps.push_back(got.ok() ? got->ts : 0);
  }
  cluster.run_for(sim_sec(1));
  trace.final_time = cluster.sim().now();
  trace.messages = cluster.network().messages_sent();
  trace.bytes = cluster.network().bytes_sent();
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    trace.store_sizes.push_back(cluster.node(i).local_store().size());
  }
  return trace;
}

TEST(Determinism, IdenticalSeedsReplayBitIdentically) {
  const RunTrace a = run_workload(1234);
  const RunTrace b = run_workload(1234);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const RunTrace a = run_workload(1);
  const RunTrace b = run_workload(2);
  // Jitter differs, so message timings and timestamps must differ.
  EXPECT_NE(a.read_timestamps, b.read_timestamps);
}

// ---- observability determinism ------------------------------------------------
//
// The tracing + metrics layer must not merely leave behaviour unchanged —
// its own dumps are part of the deterministic surface. For a fixed seed,
// the Prometheus text and the JSON span dump must be byte-identical
// across runs, including a crash, client retries and read repair.

struct ObservabilityDump {
  std::string metrics;
  std::string traces;
  std::string timeseries;
  std::string dashboard;
  std::string tail_report;
  std::string attribution;
  std::string incidents;
  std::string alerts;

  static ObservabilityDump from(const ClusterInspector& inspector) {
    return {inspector.metrics_text(),   inspector.trace_json(),
            inspector.timeseries_csv(), inspector.dashboard(),
            inspector.tail_report(),    inspector.attribution_csv(),
            inspector.incidents_csv(),  inspector.alerts_json()};
  }
};

void expect_dumps_equal(const ObservabilityDump& a, const ObservabilityDump& b,
                        std::uint64_t seed) {
  EXPECT_EQ(a.metrics, b.metrics) << "metrics diverged for seed " << seed;
  EXPECT_EQ(a.traces, b.traces) << "traces diverged for seed " << seed;
  EXPECT_EQ(a.timeseries, b.timeseries)
      << "time series diverged for seed " << seed;
  EXPECT_EQ(a.dashboard, b.dashboard)
      << "dashboard diverged for seed " << seed;
  EXPECT_EQ(a.tail_report, b.tail_report)
      << "tail report diverged for seed " << seed;
  EXPECT_EQ(a.attribution, b.attribution)
      << "attribution CSV diverged for seed " << seed;
  EXPECT_EQ(a.incidents, b.incidents)
      << "incident CSV diverged for seed " << seed;
  EXPECT_EQ(a.alerts, b.alerts) << "alerts JSON diverged for seed " << seed;
}

ObservabilityDump run_traced(std::uint64_t seed) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 5;
  cfg.cluster.total_vnodes = 64;
  cfg.seed = seed;
  SednaCluster cluster(cfg);
  EXPECT_TRUE(cluster.boot().ok());
  cluster.enable_monitor();
  auto& client = cluster.make_client();
  cluster.sim().tracer().set_enabled(true);
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(cluster.write_latest(client, "obs-" + std::to_string(i),
                                     "v" + std::to_string(i)).ok());
  }
  cluster.crash_node(1);
  for (int i = 0; i < 30; ++i) {
    (void)cluster.read_latest(client, "obs-" + std::to_string(i));
  }
  cluster.run_for(sim_sec(1));
  return ObservabilityDump::from(ClusterInspector(cluster));
}

TEST(Determinism, ObservabilityDumpsAreByteIdenticalAcrossSeedSweep) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    const ObservabilityDump a = run_traced(seed);
    const ObservabilityDump b = run_traced(seed);
    expect_dumps_equal(a, b, seed);
    // The dumps are non-trivial: real counters, spans, samples, health.
    EXPECT_NE(a.metrics.find("sedna_client_writes"), std::string::npos);
    EXPECT_NE(a.traces.find("client.write_latest"), std::string::npos);
    EXPECT_NE(a.timeseries.find("time_us,nodes_down"), std::string::npos);
    EXPECT_NE(a.dashboard.find("health:"), std::string::npos);
    EXPECT_NE(a.tail_report.find("tail traces by operation"),
              std::string::npos);
    EXPECT_NE(a.attribution.find("trace,op,start_us,total_us"),
              std::string::npos);
  }
}

// ---- auditor-enabled determinism ----------------------------------------------
//
// The consistency auditor adds read-side sampling, lag gossip rows and
// probe RPCs to the data path, and the flight recorder journals health
// and alert transitions. A partitioned, audited run — probes and all —
// must replay bit-identically across runs for every seed, including the
// incident CSV and the alerts JSON.

ObservabilityDump run_audited(std::uint64_t seed) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 64;
  cfg.seed = seed;
  cfg.node_template.audit.enabled = true;
  cfg.node_template.audit.probe_sample_every = 4;
  cfg.node_template.degraded_reads = true;
  SednaCluster cluster(cfg);
  EXPECT_TRUE(cluster.boot().ok());
  MonitorConfig mon;
  mon.sample_interval = sim_ms(100);
  cluster.enable_monitor(mon);
  auto& client = cluster.make_client();
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(cluster.write_latest(client, "aud-" + std::to_string(i),
                                     "v" + std::to_string(i)).ok());
  }
  // Isolate one node so stale serves, lag rows and probe failures all
  // happen inside the window, then heal and let the probes drain.
  const std::vector<NodeId> ids = cluster.data_ids();
  for (std::size_t b = 1; b < ids.size(); ++b) {
    cluster.network().partition(ids[0], ids[b]);
  }
  for (int i = 0; i < 30; ++i) {
    (void)cluster.read_latest(client, "aud-" + std::to_string(i));
    (void)cluster.write_latest(client, "aud-" + std::to_string(i), "p");
  }
  cluster.network().heal_all();
  // A crash on top: guarantees journaled health transitions and lets
  // in-flight probes hit an unreachable replica.
  cluster.crash_node(2);
  cluster.run_for(sim_sec(2));
  return ObservabilityDump::from(ClusterInspector(cluster));
}

TEST(Determinism, AuditedRunsAreByteIdenticalAcrossSeedSweep) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    const ObservabilityDump a = run_audited(seed);
    const ObservabilityDump b = run_audited(seed);
    expect_dumps_equal(a, b, seed);
    // The run exercised the auditor for real: audited reads and probe
    // rounds are in the metrics, the lag gauge is in the (order-stable)
    // CSV columns, and the flight recorder journaled the node health
    // transitions the partition caused.
    EXPECT_NE(a.metrics.find("sedna_audit_reads_audited"),
              std::string::npos);
    EXPECT_NE(a.metrics.find("sedna_audit_probe_rounds"),
              std::string::npos);
    EXPECT_NE(a.timeseries.find("replication_lag_max_us"),
              std::string::npos);
    EXPECT_NE(a.incidents.find("seq,at_us,category,source,label,detail"),
              std::string::npos);
    EXPECT_NE(a.incidents.find("health"), std::string::npos);
    EXPECT_NE(a.alerts.find("staleness-budget"), std::string::npos);
  }
}

// ---- rebalancer-enabled determinism ------------------------------------------
//
// The traffic rebalancer adds a leader-driven control loop (telemetry
// reads, migration RPCs, ZK cutover CAS) on top of the data path. The
// whole loop must stay on the deterministic surface: a skewed cluster
// with the rebalancer enabled replays bit-identically across runs for
// every seed, including its observability dumps.

ObservabilityDump run_rebalanced(std::uint64_t seed) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 32;
  cfg.seed = seed;
  // Skewed boot: two nodes own everything, so the rebalancer has real
  // migrations to run inside the measurement window.
  cfg.initial_owners = {100, 101};
  cfg.node_template.load_report_interval = sim_ms(500);
  cfg.node_template.traffic_rebalance_interval = sim_sec(2);
  cfg.node_template.traffic_rebalance.cv_trigger = 0.2;
  cfg.node_template.traffic_rebalance.vnode_cooldown = sim_sec(5);
  SednaCluster cluster(cfg);
  EXPECT_TRUE(cluster.boot().ok());
  cluster.enable_monitor();
  // Trace the control loop too: migration span trees and their stage
  // attribution are part of the deterministic surface.
  cluster.sim().tracer().set_enabled(true);
  auto& client = cluster.make_client();
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 60; ++i) {
      (void)cluster.write_latest(client, "reb-" + std::to_string(i),
                                 "r" + std::to_string(round));
    }
    cluster.run_for(sim_ms(500));
  }
  cluster.run_for(sim_sec(2));
  return ObservabilityDump::from(ClusterInspector(cluster));
}

TEST(Determinism, RebalancerRunsAreByteIdenticalAcrossSeedSweep) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    const ObservabilityDump a = run_rebalanced(seed);
    const ObservabilityDump b = run_rebalanced(seed);
    expect_dumps_equal(a, b, seed);
    // The run exercised the rebalancer for real: migrations completed and
    // the monitor recorded them in its (order-stable) CSV columns.
    EXPECT_NE(a.metrics.find("sedna_rebalance_migrations_completed"),
              std::string::npos);
    EXPECT_NE(a.timeseries.find("migrations_inflight"), std::string::npos);
  }
}

// ---- overloaded-path determinism ----------------------------------------------
//
// The overload defenses add new control flow everywhere on the hot path:
// priority-class admission at every host ingress queue, deadline checks
// at dequeue, client-side retry-budget token accounting, and degraded
// quorum-relaxed reads. All of it must stay on the deterministic
// surface even while the cluster is actively shedding: an open-loop
// pulse past saturation with every defense enabled replays
// bit-identically across runs for every seed, including the monitor's
// overload series and alert state embedded in the dumps.

ObservabilityDump run_overloaded(std::uint64_t seed) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 64;
  cfg.seed = seed;
  cfg.node_template.host.max_ingress_queue = 24;
  cfg.node_template.degraded_reads = true;
  cfg.client_template.op_timeout_us = 30'000;
  cfg.client_template.max_attempts = 3;
  cfg.client_template.op_deadline_us = 90'000;
  cfg.client_template.retry_budget_capacity = 10.0;
  cfg.client_template.retry_budget_refill = 0.3;
  SednaCluster cluster(cfg);
  EXPECT_TRUE(cluster.boot().ok());
  MonitorConfig mon;
  mon.sample_interval = sim_ms(100);
  cluster.enable_monitor(mon);
  auto& client = cluster.make_client();
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(cluster.write_latest(client, "ov-" + std::to_string(i),
                                     "v" + std::to_string(i)).ok());
  }
  // Open-loop pulse well past the 4-node service capacity, plus a crash
  // mid-pulse so retries contend with sheds for the remaining budget.
  workload::OpenLoopConfig load;
  load.curve = {{0, 1000}, {sim_ms(500), 6000}, {sim_ms(1500), 1000}};
  load.duration = sim_sec(3);
  workload::OpenLoopDriver driver(
      cluster.sim(), load,
      [&](std::uint64_t seq, const std::function<void(bool)>& done) {
        const std::string key =
            "ov-" + std::to_string(cluster.sim().rng().next_below(40));
        if (seq % 7 == 0) {
          client.write_latest(key, "p" + std::to_string(seq),
                              [done](const Status& st) { done(st.ok()); });
        } else {
          client.read_latest(key, [done](const auto& r) { done(r.ok()); });
        }
      });
  driver.start();
  cluster.sim().schedule(sim_ms(900), [&] { cluster.crash_node(2); });
  cluster.run_for(sim_sec(4));
  return ObservabilityDump::from(ClusterInspector(cluster));
}

TEST(Determinism, OverloadedRunsAreByteIdenticalAcrossSeedSweep) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    const ObservabilityDump a = run_overloaded(seed);
    const ObservabilityDump b = run_overloaded(seed);
    expect_dumps_equal(a, b, seed);
    // The pulse really overloaded the cluster: hosts shed work and the
    // monitor's overload series recorded it.
    EXPECT_NE(a.metrics.find("sedna_node_shed"), std::string::npos);
    EXPECT_NE(a.timeseries.find("shed_rate"), std::string::npos);
  }
}

// ---- causal-versioning determinism --------------------------------------------
//
// DVV causal puts add sibling lists, dot minting, causal read repair and
// causal hint replay to the replica path. A conflict-heavy workload —
// two clients racing contextual RMWs on the same keys across a zone
// partition — must replay bit-identically across runs for every seed,
// including the sibling/dvv-merge monitor series embedded in the dumps.

ObservabilityDump run_causal_conflict(std::uint64_t seed) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 64;
  cfg.seed = seed;
  SednaCluster cluster(cfg);
  EXPECT_TRUE(cluster.boot().ok());
  MonitorConfig mon;
  mon.sample_interval = sim_ms(100);
  cluster.enable_monitor(mon);
  cluster.sim().tracer().set_enabled(true);
  auto& c1 = cluster.make_client();
  auto& c2 = cluster.make_client();

  const std::vector<NodeId> ids = cluster.data_ids();
  const std::size_t half = ids.size() / 2;

  // Contextual RMW: read the sibling frontier, write back superseding it.
  auto rmw = [](SednaClient* c, const std::string& key,
                const std::string& tag, std::size_t* done) {
    c->get_causal(key, [c, key, tag, done](
                           const Result<SednaClient::CausalRead>& r) {
      store::VersionVector ctx;
      std::string value = tag;
      if (r.ok()) {
        ctx = r->ctx;
        for (const auto& sib : r->siblings) value += "|" + sib.value;
      }
      c->put_causal(key, value, ctx,
                    [done](const Status&, const store::VersionVector&) {
                      ++*done;
                    });
    });
  };

  for (int round = 0; round < 6; ++round) {
    if (round == 2) {
      for (std::size_t a = 0; a < half; ++a) {
        for (std::size_t b = half; b < ids.size(); ++b) {
          cluster.network().partition(ids[a], ids[b]);
        }
      }
    }
    if (round == 4) cluster.network().heal_all();
    std::size_t done = 0;
    for (int k = 0; k < 8; ++k) {
      const std::string key = "cc-" + std::to_string(k);
      rmw(&c1, key, "a" + std::to_string(round), &done);
      rmw(&c2, key, "b" + std::to_string(round), &done);
    }
    cluster.run_until([&] { return done == 16; });
  }
  cluster.network().heal_all();
  cluster.run_for(sim_sec(1));
  return ObservabilityDump::from(ClusterInspector(cluster));
}

TEST(Determinism, CausalConflictRunsAreByteIdenticalAcrossSeedSweep) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull}) {
    const ObservabilityDump a = run_causal_conflict(seed);
    const ObservabilityDump b = run_causal_conflict(seed);
    expect_dumps_equal(a, b, seed);
    // The run exercised real causal machinery: the monitor's conflict
    // series exist (order-stable CSV columns) and causal joins happened.
    EXPECT_NE(a.timeseries.find("siblings"), std::string::npos);
    EXPECT_NE(a.timeseries.find("dvv_merges"), std::string::npos);
    EXPECT_NE(a.traces.find("client.put_causal"), std::string::npos);
  }
}

}  // namespace
}  // namespace sedna::cluster
