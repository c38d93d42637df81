// ClusterInspector: operational introspection over a SednaCluster.
//
// The paper's Fig. 2 shows a "cluster status manager" layer of pluggable
// modules (replica management, nodes management, data balance). This is
// the read-only half of that layer: a consolidated snapshot of node
// health, storage, vnode distribution, imbalance, coordination state and
// hot slices, plus a formatted report for operators. Used by the examples
// and the failure drill; every field is also unit-testable.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/monitor.h"
#include "cluster/sedna_cluster.h"
#include "common/critical_path.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "ring/imbalance.h"

namespace sedna::cluster {

struct NodeReport {
  NodeId id = kInvalidNode;
  bool alive = false;
  bool ready = false;
  std::uint32_t vnodes = 0;
  std::uint64_t items = 0;
  std::uint64_t bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t misses = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t hints_pending = 0;
  std::uint64_t hints_delivered = 0;
  std::uint64_t ae_rounds = 0;
  /// Divergent keys this node pushed to or pulled from peers during
  /// anti-entropy reconciliation.
  std::uint64_t keys_repaired = 0;
  /// Messages waiting in the host's ingress queue right now.
  std::uint64_t queue_depth = 0;
  /// Requests shed so far (admission queue_full + expired deadlines).
  std::uint64_t sheds = 0;
};

struct HotVnode {
  VnodeId vnode = kInvalidVnode;
  NodeId owner = kInvalidNode;
  std::uint64_t accesses = 0;
};

struct ClusterReport {
  std::vector<NodeReport> nodes;
  std::uint64_t total_items = 0;
  std::uint64_t total_bytes = 0;
  double vnode_imbalance = 0.0;    // CV of vnode counts over live nodes
  double capacity_imbalance = 0.0;  // CV of resident bytes
  std::vector<HotVnode> hottest;    // top slices by read+write frequency
  NodeId zk_leader = kInvalidNode;
  std::uint64_t zk_commits = 0;
  std::size_t zk_sessions = 0;
};

class ClusterInspector {
 public:
  explicit ClusterInspector(SednaCluster& cluster) : cluster_(cluster) {}

  [[nodiscard]] ClusterReport snapshot(std::size_t top_vnodes = 5) const {
    ClusterReport report;
    ring::ImbalanceTable imbalance;
    std::map<VnodeId, std::uint64_t> vnode_heat;

    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      auto& node = cluster_.node(i);
      NodeReport row;
      row.id = node.id();
      row.alive = node.alive();
      row.ready = node.ready();
      const auto stats = node.local_store().stats();
      row.items = stats.curr_items;
      row.bytes = stats.bytes;
      for (const auto& [owner, count] : node.metadata().table().counts()) {
        if (owner == node.id()) row.vnodes = count;
      }
      const auto& status = node.vnode_status();
      for (std::size_t v = 0; v < status.size(); ++v) {
        row.reads += status[v].reads;
        row.writes += status[v].writes;
        row.misses += status[v].misses;
        if (status[v].reads + status[v].writes > 0) {
          vnode_heat[static_cast<VnodeId>(v)] +=
              status[v].reads + status[v].writes;
        }
      }
      const MetricRegistry& metrics = node.metrics();
      row.recoveries = metrics.counter_value("failure.recoveries_completed");
      row.read_repairs = metrics.counter_value("coordinator.read_repairs");
      row.hints_pending = node.hints_pending();
      row.hints_delivered =
          metrics.counter_value("coordinator.hints_delivered");
      row.ae_rounds = metrics.counter_value("antientropy.rounds");
      row.keys_repaired = metrics.counter_value("antientropy.keys_pushed") +
                          metrics.counter_value("antientropy.keys_pulled");
      row.queue_depth = node.queue_depth();
      row.sheds = node.shed_queue_full() + node.shed_deadline();
      report.total_items += row.items;
      report.total_bytes += row.bytes;
      if (row.alive) {
        ring::RealNodeLoad load;
        load.node = row.id;
        load.vnode_count = row.vnodes;
        load.capacity_bytes = row.bytes;
        load.reads = row.reads;
        load.writes = row.writes;
        imbalance.update(load);
      }
      report.nodes.push_back(row);
    }
    report.vnode_imbalance = imbalance.vnode_imbalance();
    report.capacity_imbalance = imbalance.capacity_imbalance();

    // Hottest slices, with their current owners.
    std::vector<HotVnode> heat;
    const auto& table = cluster_.node(0).metadata().table();
    for (const auto& [vnode, accesses] : vnode_heat) {
      heat.push_back({vnode, table.owner(vnode), accesses});
    }
    std::sort(heat.begin(), heat.end(),
              [](const HotVnode& a, const HotVnode& b) {
                return a.accesses > b.accesses;
              });
    if (heat.size() > top_vnodes) heat.resize(top_vnodes);
    report.hottest = std::move(heat);

    for (std::size_t i = 0; i < cluster_.config().zk_members; ++i) {
      // leader + aggregate stats from whichever members are alive
      auto& member = cluster_.zk_member(i);
      if (member.alive() && member.is_leader()) {
        report.zk_leader = member.id();
      }
      report.zk_commits =
          std::max(report.zk_commits, member.commits_applied());
      report.zk_sessions =
          std::max(report.zk_sessions, member.session_count());
    }
    return report;
  }

  /// Human-readable report, one call for operators and examples.
  void print(std::FILE* out = stdout, std::size_t top_vnodes = 5) const {
    const ClusterReport r = snapshot(top_vnodes);
    std::fprintf(out, "=== Sedna cluster report ===\n");
    std::fprintf(out,
                 "zookeeper: leader=member-%u commits=%llu sessions=%zu\n",
                 r.zk_leader,
                 static_cast<unsigned long long>(r.zk_commits),
                 r.zk_sessions);
    std::fprintf(out,
                 "storage: %llu items, %llu bytes; imbalance: vnodes %.3f, "
                 "capacity %.3f\n",
                 static_cast<unsigned long long>(r.total_items),
                 static_cast<unsigned long long>(r.total_bytes),
                 r.vnode_imbalance, r.capacity_imbalance);
    std::fprintf(out,
                 "%-6s %-6s %-6s %7s %9s %12s %9s %9s %6s %7s %6s %6s "
                 "%6s %6s\n",
                 "node", "alive", "ready", "vnodes", "items", "bytes",
                 "reads", "writes", "recov", "repairs", "hints", "aesync",
                 "qdepth", "sheds");
    for (const auto& n : r.nodes) {
      std::fprintf(out,
                   "%-6u %-6s %-6s %7u %9llu %12llu %9llu %9llu %6llu "
                   "%7llu %6llu %6llu %6llu %6llu\n",
                   n.id, n.alive ? "yes" : "NO", n.ready ? "yes" : "NO",
                   n.vnodes, static_cast<unsigned long long>(n.items),
                   static_cast<unsigned long long>(n.bytes),
                   static_cast<unsigned long long>(n.reads),
                   static_cast<unsigned long long>(n.writes),
                   static_cast<unsigned long long>(n.recoveries),
                   static_cast<unsigned long long>(n.read_repairs),
                   static_cast<unsigned long long>(n.hints_pending),
                   static_cast<unsigned long long>(n.keys_repaired),
                   static_cast<unsigned long long>(n.queue_depth),
                   static_cast<unsigned long long>(n.sheds));
    }
    if (!r.hottest.empty()) {
      std::fprintf(out, "hottest vnodes:");
      for (const auto& h : r.hottest) {
        std::fprintf(out, "  v%u@%u(%llu)", h.vnode, h.owner,
                     static_cast<unsigned long long>(h.accesses));
      }
      std::fprintf(out, "\n");
    }
  }

  /// ASCII span trees for every trace recorded so far (tracer must have
  /// been enabled on the cluster's simulation before the traffic ran).
  [[nodiscard]] std::string trace_report() const {
    return cluster_.sim().tracer().render_all();
  }

  /// Machine-readable span dump; byte-identical across same-seed runs.
  [[nodiscard]] std::string trace_json() const {
    return cluster_.sim().tracer().dump_json();
  }

  /// Cluster-wide Prometheus-style text exposition: every data node and
  /// client registry, labeled, plus the network and tracer registries.
  [[nodiscard]] std::string metrics_text() const {
    MetricsRegistry registry;
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      auto& node = cluster_.node(i);
      registry.attach("node-" + std::to_string(node.id()), node.metrics());
    }
    for (std::size_t i = 0; i < cluster_.client_count(); ++i) {
      auto& client = cluster_.client(i);
      registry.attach("client-" + std::to_string(client.id()),
                      client.metrics());
    }
    registry.attach("network", cluster_.network().metrics());
    // Tracer retention accounting (trace.evicted_* are the satellite
    // memory-cap counters).
    const Tracer& tracer = cluster_.sim().tracer();
    MetricRegistry tracer_reg;
    tracer_reg.counter("trace.evicted_spans").add(tracer.evicted_spans());
    tracer_reg.counter("trace.evicted_traces").add(tracer.evicted_traces());
    tracer_reg.counter("trace.retained_spans").add(tracer.retained_spans());
    tracer_reg.counter("trace.retained_traces")
        .add(tracer.retained_traces());
    registry.attach("tracer", tracer_reg);
    return registry.prometheus_text();
  }

  /// Per-trace critical-path attribution of every retained finished
  /// trace, as CSV. Deterministic: rows in trace-id order.
  [[nodiscard]] std::string attribution_csv() const {
    const Tracer& tracer = cluster_.sim().tracer();
    std::string out = attribution_csv_header();
    for (const TraceId id : tracer.finished_trace_ids()) {
      const Tracer::TraceRecord* rec = tracer.trace(id);
      if (rec == nullptr) continue;
      out += attribution_csv_row(id, *rec, attribute_trace(rec->spans));
    }
    return out;
  }

  /// The tail reservoir, explained: per operation, the retained slowest
  /// traces with their per-stage attribution and dominant cause.
  [[nodiscard]] std::string tail_report() const {
    const Tracer& tracer = cluster_.sim().tracer();
    std::string out = "=== tail traces by operation ===\n";
    char buf[160];
    for (const auto& [op, ids] : tracer.tail_trace_ids()) {
      std::snprintf(buf, sizeof buf, "op %s: %zu retained tail trace(s)\n",
                    op.c_str(), ids.size());
      out += buf;
      for (const TraceId id : ids) {
        const Tracer::TraceRecord* rec = tracer.trace(id);
        if (rec == nullptr) continue;
        const StageBreakdown bd = attribute_trace(rec->spans);
        std::snprintf(buf, sizeof buf,
                      "  trace %llu total=%lluus dominant=%s "
                      "coverage=%.4f [",
                      static_cast<unsigned long long>(id),
                      static_cast<unsigned long long>(bd.total_us),
                      to_string(bd.dominant()), bd.coverage());
        out += buf;
        for (std::size_t i = 1; i < kTraceStageCount; ++i) {
          std::snprintf(buf, sizeof buf, "%s%s=%llu", i == 1 ? "" : " ",
                        to_string(static_cast<TraceStage>(i)),
                        static_cast<unsigned long long>(bd.us[i]));
          out += buf;
        }
        std::snprintf(buf, sizeof buf, " unattributed=%llu]\n",
                      static_cast<unsigned long long>(bd.unattributed_us()));
        out += buf;
      }
    }
    return out;
  }

  // ---- monitor surfaces (require cluster.enable_monitor()) --------------

  /// Operator health dashboard; explains itself when no monitor is
  /// attached so examples degrade gracefully.
  [[nodiscard]] std::string dashboard() const {
    const ClusterMonitor* mon = cluster_.monitor();
    return mon ? mon->dashboard() : "(no monitor attached)\n";
  }

  /// CSV dump of the monitor's ring-buffer time series.
  [[nodiscard]] std::string timeseries_csv() const {
    const ClusterMonitor* mon = cluster_.monitor();
    return mon ? mon->timeseries_csv() : std::string{};
  }

  /// Alert fire/resolve transition log.
  [[nodiscard]] std::string alerts_text() const {
    const ClusterMonitor* mon = cluster_.monitor();
    return mon ? mon->alerts_text() : std::string{};
  }

  /// Machine-readable alert export: every rule with its configuration and
  /// current state, plus the full fire/resolve transition history.
  /// Deterministic (rule order = registration order, events oldest first)
  /// so same-seed runs produce byte-identical JSON.
  [[nodiscard]] std::string alerts_json() const {
    const ClusterMonitor* mon = cluster_.monitor();
    std::string out = "{\"rules\":[";
    if (mon != nullptr) {
      const AlertEngine& eng = mon->alerts();
      char buf[64];
      bool first = true;
      for (const AlertRule& rule : eng.rules()) {
        if (!first) out += ",";
        first = false;
        const AlertState st = eng.state(rule.name);
        out += "{\"name\":\"" + json_escape(rule.name) + "\",\"series\":\"" +
               json_escape(rule.series) + "\",\"severity\":\"" +
               json_escape(rule.severity) + "\",\"threshold\":";
        std::snprintf(buf, sizeof buf, "%.6g", rule.threshold);
        out += buf;
        out += ",\"state\":\"";
        out += st == AlertState::kFiring    ? "firing"
               : st == AlertState::kPending ? "pending"
                                            : "ok";
        out += "\"}";
      }
      out += "],\"events\":[";
      first = true;
      for (const AlertEvent& e : eng.events()) {
        if (!first) out += ",";
        first = false;
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(e.at));
        out += std::string("{\"at_us\":") + buf + ",\"rule\":\"" +
               json_escape(e.rule) + "\",\"action\":\"" +
               (e.fired ? "fired" : "resolved") + "\",\"value\":";
        std::snprintf(buf, sizeof buf, "%.6g", e.value);
        out += buf;
        out += ",\"severity\":\"";
        std::string severity = "warning";
        for (const AlertRule& rule : eng.rules()) {
          if (rule.name == e.rule) severity = rule.severity;
        }
        out += json_escape(severity) + "\"}";
      }
    } else {
      out += "],\"events\":[";
    }
    out += "]}";
    return out;
  }

  // ---- flight recorder / consistency surfaces ---------------------------

  /// Human-readable incident timeline assembled from the cluster flight
  /// recorder: chaos injections, alert transitions, shed bursts, health
  /// flips, migration phases and consistency violations in one
  /// sim-clock-ordered view.
  [[nodiscard]] std::string incident_report(const std::string& title) const {
    return cluster_.flight_recorder().render(title);
  }

  /// The same journal as CSV for machine diffing.
  [[nodiscard]] std::string incidents_csv() const {
    return cluster_.flight_recorder().csv();
  }

  /// PBS-style t-visibility curve: per probe offset, how many sampled
  /// acked writes were already readable on every probed replica. Offsets
  /// are merged across all data-node auditors positionally (every node
  /// probes at ConsistencyAuditor::kProbeOffsets). Header-only when
  /// auditing is disabled.
  [[nodiscard]] std::string visibility_csv() const {
    const auto& offsets = ConsistencyAuditor::kProbeOffsets;
    ConsistencyAuditor::OffsetStatsArray merged{};
    bool audited = false;
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      const ConsistencyAuditor* aud = cluster_.node(i).auditor();
      if (aud == nullptr) continue;
      audited = true;
      const auto& stats = aud->offset_stats();
      for (std::size_t o = 0; o < merged.size(); ++o) {
        merged[o].probes += stats[o].probes;
        merged[o].checked += stats[o].checked;
        merged[o].visible += stats[o].visible;
        merged[o].unreachable += stats[o].unreachable;
      }
    }
    std::string out = "offset_us,probes,checked,visible,unreachable,p_visible\n";
    if (!audited) return out;
    char buf[160];
    for (std::size_t o = 0; o < merged.size(); ++o) {
      const double p =
          merged[o].checked == 0
              ? 0.0
              : static_cast<double>(merged[o].visible) /
                    static_cast<double>(merged[o].checked);
      std::snprintf(buf, sizeof buf, "%llu,%llu,%llu,%llu,%llu,%.6f\n",
                    static_cast<unsigned long long>(offsets[o]),
                    static_cast<unsigned long long>(merged[o].probes),
                    static_cast<unsigned long long>(merged[o].checked),
                    static_cast<unsigned long long>(merged[o].visible),
                    static_cast<unsigned long long>(merged[o].unreachable), p);
      out += buf;
    }
    return out;
  }

  /// How many of `keys` live on fewer than `want` replicas right now,
  /// counted by peeking directly into every live node's local store (no
  /// network traffic, so it cannot trigger read repair). The yardstick
  /// for the repair subsystem's convergence tests and ablations.
  [[nodiscard]] std::size_t under_replicated(
      const std::vector<std::string>& keys, std::size_t want = 3) const {
    std::size_t low = 0;
    for (const auto& key : keys) {
      std::size_t holders = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        auto& node = cluster_.node(i);
        if (!node.alive()) continue;
        if (node.local_store().read_latest(key).ok()) ++holders;
      }
      if (holders < want) ++low;
    }
    return low;
  }

 private:
  /// Minimal JSON string escaping: the identifiers we emit are plain
  /// ASCII, so quotes and backslashes are the only hazards worth handling.
  [[nodiscard]] static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  SednaCluster& cluster_;
};

}  // namespace sedna::cluster
