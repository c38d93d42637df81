// Failure drill: an operational walkthrough of Sedna's fault-handling
// story (paper Sections III.C–III.E and Table I) with live commentary.
//
// Timeline:
//   t0  boot 3 ZK + 6 data nodes, load 500 keys
//   t1  crash a data node            → reads keep succeeding (quorum)
//   t2  ZooKeeper session expires    → ephemeral liveness marker vanishes
//   t3  reads touch affected keys    → read-triggered vnode recovery
//   t4  re-replication completes     → back to 3 live copies per key
//   t5  crash a ZooKeeper *follower* → data path unaffected
//   t6  crash the ZooKeeper *leader* → next member leads; writes continue
//   t7  restart the data node        → it rejoins and serves again
//   t8  trace one read under a fresh replica crash → the span tree shows
//       the replica timeout, the client retry and the read repair
//
// A ClusterMonitor watches the whole drill: killing the node must fire
// the heartbeat-loss and replica-lag alerts and walk its health state to
// suspect/dead; the restart plus hinted-handoff replay must resolve both
// alerts and return the node to healthy. The monitor's time series is
// dumped to failure_drill_timeseries.csv (byte-deterministic, diffed by
// the CI determinism gate).
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>

#include "cluster/admin.h"
#include "cluster/monitor.h"
#include "cluster/sedna_cluster.h"
#include "common/critical_path.h"
#include "common/outdir.h"
#include "common/trace.h"
#include "workload/kv_workload.h"

using namespace sedna;
using namespace sedna::cluster;

namespace {

void banner(SednaCluster& cluster, const char* msg) {
  std::printf("[t=%7.1f ms] %s\n", cluster.sim().now() / 1000.0, msg);
}

std::size_t live_copies(SednaCluster& cluster, const std::string& key) {
  std::size_t copies = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    auto& node = cluster.node(i);
    if (node.alive() && node.local_store().read_latest(key).ok()) ++copies;
  }
  return copies;
}

}  // namespace

int main() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 256;
  // The drill's recovery story is hinted handoff + read repair, and t8
  // hollows a replica via crash+restart to trace that repair; restart
  // hydration would refill it first, so keep it off here (the scenario
  // suite's rolling restart covers hydration).
  cfg.node_template.restart_hydration = false;
  SednaCluster cluster(cfg);
  if (!cluster.boot().ok()) {
    std::fprintf(stderr, "boot failed\n");
    return 1;
  }
  banner(cluster, "cluster up: 3 zk members + 6 data nodes, N=3 R=2 W=2");
  auto& monitor = cluster.enable_monitor();
  banner(cluster, "monitor attached: 500ms sampling, health + alert rules");

  // Critical-path attribution plumbing: every client op trace is
  // attributed the moment it finishes (before retention can evict it),
  // so the aggregate sees 100% of traced requests while the tracer's
  // memory stays bounded.
  Tracer& tracer = cluster.sim().tracer();
  AttributionAggregator agg;
  std::string attribution_csv = attribution_csv_header();
  tracer.set_on_trace_finished(
      [&](TraceId id, const Tracer::TraceRecord& rec) {
        if (rec.op.rfind("client.", 0) != 0) return;
        agg.observe(id, rec);
        attribution_csv +=
            attribution_csv_row(id, rec, agg.rows().back().breakdown);
      });

  auto& client = cluster.make_client();
  workload::KvWorkload wl;
  constexpr int kKeys = 500;
  for (int i = 0; i < kKeys; ++i) {
    if (!cluster.write_latest(client, wl.key(i), "payload").ok()) return 1;
  }
  banner(cluster, "loaded 500 keys (each on 3 replicas)");

  auto survey = [&](const char* label) {
    int ok = 0;
    for (int i = 0; i < kKeys; ++i) {
      if (cluster.read_latest(client, wl.key(i)).ok()) ++ok;
    }
    std::printf("[t=%7.1f ms]   %s: %d/%d keys readable\n",
                cluster.sim().now() / 1000.0, label, ok, kKeys);
    return ok;
  };

  // ---- t1: data node crash ----------------------------------------------
  const NodeId crashed_id = cluster.node(2).id();
  cluster.crash_node(2);
  banner(cluster, "CRASH data node (one replica of ~half the keys gone)");
  // Trace the whole kill window: the attribution verdict must pin the
  // tail on retry/hint_replay time, not on healthy service time.
  tracer.set_enabled(true);
  // Write into the outage window: replica sets that include the dead node
  // miss one copy, so coordinators queue hints against it — the backlog
  // the replica-lag alert watches until handoff replays it at t7.
  int hinted_ok = 0;
  for (int i = 0; i < 100; ++i) {
    if (cluster.write_latest(client, "hinted-" + std::to_string(i), "v")
            .ok()) {
      ++hinted_ok;
    }
  }
  std::printf("[t=%7.1f ms]   %d/100 writes accepted during the outage "
              "(third copies owed as hints)\n",
              cluster.sim().now() / 1000.0, hinted_ok);
  const int during = survey("during outage, before session expiry");
  tracer.set_enabled(false);
  const std::size_t outage_n = agg.count();
  const double outage_cov = agg.min_coverage();
  const TraceStage outage_dom = agg.tail_dominant(0.10);
  const StageBreakdown outage_tail = agg.tail(0.10);
  std::printf("[t=%7.1f ms]   attribution, kill window: %zu client ops, "
              "slowest-10%% dominant=%s (retry=%llums service=%llums), "
              "min coverage=%.4f\n",
              cluster.sim().now() / 1000.0, outage_n,
              to_string(outage_dom),
              static_cast<unsigned long long>(
                  outage_tail.stage_us(TraceStage::kRetry) / 1000),
              static_cast<unsigned long long>(
                  outage_tail.stage_us(TraceStage::kService) / 1000),
              outage_cov);
  agg.reset();

  // ---- t2/t3: expiry + read-triggered recovery ----------------------------
  cluster.run_for(sim_sec(3));
  banner(cluster, "zookeeper session expired; ephemeral znode removed");
  survey("touch everything (triggers per-vnode recovery)");
  cluster.run_for(sim_sec(3));
  // A second pass drives read repair over the reshaped replica sets.
  survey("touch again (read repair backfills new replicas)");
  cluster.run_for(sim_sec(3));

  // ---- t4: verify re-replication -----------------------------------------
  int fully = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (live_copies(cluster, wl.key(i)) >= 3) ++fully;
  }
  std::printf("[t=%7.1f ms]   %d/%d keys back to 3 live copies\n",
              cluster.sim().now() / 1000.0, fully, kKeys);
  std::uint64_t recoveries = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    recoveries += cluster.node(i)
                      .metrics()
                      .counter("failure.recoveries_completed")
                      .value();
  }
  std::printf("[t=%7.1f ms]   vnode recoveries executed: %llu\n",
              cluster.sim().now() / 1000.0,
              static_cast<unsigned long long>(recoveries));

  // ---- t5: zk follower crash ----------------------------------------------
  cluster.zk_member(2).crash();
  banner(cluster, "CRASH zookeeper follower (ensemble keeps quorum 2/3)");
  const int after_zkf = survey("data path during zk follower outage");

  // ---- t6: zk leader crash --------------------------------------------------
  cluster.zk_member(0).crash();
  banner(cluster, "CRASH zookeeper leader (member 1 takes over)");
  cluster.run_for(sim_sec(2));
  int writes_ok = 0;
  for (int i = 0; i < 50; ++i) {
    if (cluster.write_latest(client, "post-failover-" + std::to_string(i),
                             "v").ok()) {
      ++writes_ok;
    }
  }
  std::printf("[t=%7.1f ms]   %d/50 writes succeeded under new zk leader "
              "(leader now: member %d)\n",
              cluster.sim().now() / 1000.0, writes_ok,
              cluster.zk_member(1).is_leader() ? 1 : -1);

  // ---- t7: data node restart --------------------------------------------
  cluster.zk_member(0).restart();
  cluster.zk_member(2).restart();
  // Give the rejoined members a ping round to tree-sync from the member
  // that held the data; node 2's new session must not land on an
  // empty-state member.
  cluster.run_for(sim_sec(1));
  cluster.restart_node(2);
  // Long enough for every coordinator's hint backoff (max 5s ± jitter) to
  // elapse, replay its queue into node 2, and let the replica-lag alert
  // observe an empty backlog for its clear window.
  cluster.run_for(sim_sec(8));
  banner(cluster, "restarted the crashed members; node 2 rejoined, "
                  "hinted writes replayed");
  // Trace the recovered cluster: the dominant tail cause must have
  // flipped back from retry to plain service time.
  tracer.set_enabled(true);
  const int final_ok = survey("final survey");
  tracer.set_enabled(false);
  const std::size_t recovered_n = agg.count();
  const double recovered_cov = agg.min_coverage();
  const TraceStage recovered_dom = agg.tail_dominant(0.10);
  const StageBreakdown recovered_tail = agg.tail(0.10);
  std::printf("[t=%7.1f ms]   attribution, recovered: %zu client ops, "
              "slowest-10%% dominant=%s (service=%lluus net=%lluus "
              "retry=%lluus), min coverage=%.4f\n",
              cluster.sim().now() / 1000.0, recovered_n,
              to_string(recovered_dom),
              static_cast<unsigned long long>(
                  recovered_tail.stage_us(TraceStage::kService)),
              static_cast<unsigned long long>(
                  recovered_tail.stage_us(TraceStage::kNet)),
              static_cast<unsigned long long>(
                  recovered_tail.stage_us(TraceStage::kRetry)),
              recovered_cov);
  agg.reset();
  {
    ClusterInspector peek(cluster);
    std::printf("\n--- tail traces retained by the reservoir ---\n%s",
                peek.tail_report().c_str());
  }
  std::printf("tracer retention: %zu traces / %zu spans retained, "
              "%llu traces / %llu spans evicted\n",
              tracer.retained_traces(), tracer.retained_spans(),
              static_cast<unsigned long long>(tracer.evicted_traces()),
              static_cast<unsigned long long>(tracer.evicted_spans()));
  const bool retention_bounded =
      tracer.retained_traces() <= Tracer::kRecentTraces +
                                      Tracer::kTailPerWindow *
                                          Tracer::kMaxWindowsPerOp * 8 &&
      tracer.evicted_traces() > 0;
  // Reset the store (keeps the attribution CSV: it was fed by the
  // finished hook) so t8's single-trace walkthrough stays readable.
  tracer.clear();

  // ---- t8: trace one degraded read end to end ----------------------------
  // Pick a key with three distinct replicas, hollow the third (crash +
  // restart wipes its RAM copy), kill the primary, then read with the
  // tracer on: the span tree must show the timeout on the dead primary,
  // the client's retry to the second replica, and the read repair that
  // backfills the hollowed one.
  auto index_of = [&](NodeId id) {
    std::size_t idx = 0;
    for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
      if (cluster.node(i).id() == id) idx = i;
    }
    return idx;
  };
  std::string traced_key;
  ring::ReplicaSet reps;
  for (int i = 0; i < 1000 && traced_key.empty(); ++i) {
    const std::string candidate = "traced-" + std::to_string(i);
    auto r = client.metadata().table().replicas_for_key(candidate);
    if (r.size() == 3 && r[0] != r[1] && r[1] != r[2] && r[0] != r[2]) {
      traced_key = candidate;
      reps = r;
    }
  }
  if (traced_key.empty() ||
      !cluster.write_latest(client, traced_key, "traced-value").ok()) {
    std::fprintf(stderr, "trace setup failed\n");
    return 1;
  }
  cluster.crash_node(index_of(reps[2]));
  cluster.restart_node(index_of(reps[2]));  // rejoins with an empty store
  cluster.crash_node(index_of(reps[0]));
  banner(cluster, "CRASH primary replica + hollow a second one; tracing ON");

  cluster.sim().tracer().set_enabled(true);
  const auto traced = cluster.read_latest(client, traced_key);
  cluster.run_for(sim_ms(50));  // let the read repair round-trip finish
  cluster.sim().tracer().set_enabled(false);

  ClusterInspector inspector(cluster);
  std::printf("\n--- span tree for the degraded read ---\n%s",
              inspector.trace_report().c_str());
  const std::string tree = inspector.trace_report();
  const bool tree_ok = traced.ok() && traced->value == "traced-value" &&
                       tree.find("client.read.attempt#1") !=
                           std::string::npos &&
                       tree.find("timeout") != std::string::npos &&
                       tree.find("coord.read_repair") != std::string::npos;
  std::printf("--- cluster metrics (excerpt) ---\n");
  const std::string metrics = inspector.metrics_text();
  for (const char* needle :
       {"sedna_client_read_retries", "sedna_coordinator_read_repairs",
        "sedna_failure_suspicions"}) {
    std::size_t pos = metrics.find(needle);
    while (pos != std::string::npos) {
      const std::size_t end = metrics.find('\n', pos);
      std::printf("%s\n", metrics.substr(pos, end - pos).c_str());
      pos = metrics.find(needle, end);
    }
  }

  // ---- monitor verdict: kill → detect → repair → resolve ------------------
  std::printf("\n--- monitor dashboard ---\n%s", monitor.dashboard().c_str());
  {
    std::FILE* csv = std::fopen(sedna::out_path("failure_drill_timeseries.csv").c_str(), "w");
    if (csv != nullptr) {
      std::fputs(monitor.timeseries_csv().c_str(), csv);
      std::fclose(csv);
      std::printf("time series written to failure_drill_timeseries.csv "
                  "(%zu samples)\n",
                  monitor.recorder().size());
    }
    csv = std::fopen(sedna::out_path("failure_drill_attribution.csv").c_str(), "w");
    if (csv != nullptr) {
      std::fputs(attribution_csv.c_str(), csv);
      std::fclose(csv);
      std::printf("per-trace attribution written to "
                  "failure_drill_attribution.csv\n");
    }
    std::FILE* prom = std::fopen(sedna::out_path("failure_drill_metrics.prom").c_str(), "w");
    if (prom != nullptr) {
      std::fputs(inspector.metrics_text().c_str(), prom);
      std::fclose(prom);
      std::printf("metrics exposition (with exemplars) written to "
                  "failure_drill_metrics.prom\n");
    }
  }
  bool hb_fired = false, hb_resolved = false;
  bool lag_fired = false, lag_resolved = false;
  for (const AlertEvent& e : monitor.alerts().events()) {
    if (e.rule == "heartbeat-loss") (e.fired ? hb_fired : hb_resolved) = true;
    if (e.rule == "replica-lag") (e.fired ? lag_fired : lag_resolved) = true;
  }
  bool saw_suspect = false, saw_dead = false, back_healthy = false;
  for (const HealthTransition& t : monitor.health_log()) {
    if (t.node != crashed_id) continue;
    if (t.to == HealthState::kSuspect) saw_suspect = true;
    if (t.to == HealthState::kDead) saw_dead = true;
    if (saw_dead && t.to == HealthState::kHealthy) back_healthy = true;
  }
  const bool monitor_ok = hb_fired && hb_resolved && lag_fired &&
                          lag_resolved && saw_suspect && saw_dead &&
                          back_healthy;
  std::printf("monitor timeline: heartbeat-loss fired=%d resolved=%d, "
              "replica-lag fired=%d resolved=%d, node-%u "
              "suspect=%d dead=%d back-healthy=%d\n",
              hb_fired, hb_resolved, lag_fired, lag_resolved, crashed_id,
              saw_suspect, saw_dead, back_healthy);

  const bool attribution_ok =
      outage_n > 0 && recovered_n > 0 &&
      (outage_dom == TraceStage::kRetry ||
       outage_dom == TraceStage::kHintReplay) &&
      recovered_dom == TraceStage::kService && outage_cov >= 0.95 &&
      recovered_cov >= 0.95 && retention_bounded;
  std::printf("attribution verdict: kill-window dominant=%s, recovered "
              "dominant=%s, worst per-trace coverage=%.4f -> %s\n",
              to_string(outage_dom), to_string(recovered_dom),
              std::min(outage_cov, recovered_cov),
              attribution_ok ? "pass" : "FAIL");
  const bool ok = during == kKeys && after_zkf == kKeys &&
                  final_ok == kKeys && writes_ok == 50 &&
                  fully >= kKeys * 9 / 10 && recoveries > 0 && tree_ok &&
                  monitor_ok && attribution_ok;
  std::printf("\n%s\n", ok ? "drill passed: no read was ever lost, "
                             "recovery and failover worked, alerts fired "
                             "and resolved on schedule"
                           : "DRILL FAILED");
  return ok ? 0 : 1;
}
