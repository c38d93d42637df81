// ClusterMonitor: the health & alerting half of the paper's "cluster
// status manager" (Fig. 2). Couples three pieces:
//
//   * a TimeSeriesRecorder sampling cluster-wide gauges (liveness, hint
//     backlog, storage totals, request counters, latency quantiles) on a
//     fixed sim-clock interval — byte-deterministic history;
//   * an AlertEngine evaluating threshold + for-duration rules over that
//     history, with fire/resolve transitions logged and emitted as trace
//     events;
//   * a per-node health state machine (healthy → degraded → suspect →
//     dead) derived from liveness freshness and the hint backlog other
//     coordinators hold against the node.
//
// The monitor only *reads* cluster state and consumes no randomness, so
// enabling it cannot perturb the data path of a seeded run.
#pragma once

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/health.h"
#include "cluster/sedna_cluster.h"
#include "common/heavy_hitters.h"
#include "common/timeseries.h"

namespace sedna::cluster {

struct MonitorConfig {
  /// Sampling cadence for the time-series recorder (and health/alert
  /// evaluation, which runs on the same tick).
  SimDuration sample_interval = sim_ms(500);
};

struct HealthTransition {
  SimTime at = 0;
  NodeId node = kInvalidNode;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
};

class ClusterMonitor {
 public:
  ClusterMonitor(SednaCluster& cluster, MonitorConfig config = {})
      : cluster_(cluster), recorder_(kCapacity) {
    register_series();
    add_rule({"heartbeat-loss", "nodes_down", AlertOp::kGreaterThan, 0.0,
              kAlertForSamples, kAlertClearSamples, "critical"});
    add_rule({"replica-lag", "hints_pending", AlertOp::kGreaterThan, 0.0,
              kAlertForSamples, kAlertClearSamples, "warning"});
    add_rule({"stuck-migration", "migrations_inflight", AlertOp::kGreaterThan,
              0.0, kStuckMigrationSamples, kAlertClearSamples, "warning"});
    // Overload rules evaluate per-window deltas, so both fire while the
    // cluster is actively shedding/refusing and resolve when it stops.
    add_rule({"overload-shedding", "shed_rate", AlertOp::kGreaterThan, 0.0,
              kAlertForSamples, kAlertClearSamples, "warning"});
    add_rule({"retry-budget-exhausted", "budget_exhausted_rate",
              AlertOp::kGreaterThan, 0.0, kAlertForSamples,
              kAlertClearSamples, "critical"});
    // The siblings series is a gauge, so this resolves on its own once
    // contextual puts (or read repair) collapse the conflict frontier.
    add_rule({"sibling-growth", "siblings", AlertOp::kGreaterThan,
              kSiblingGrowthThreshold, kSiblingGrowthSamples,
              kAlertClearSamples, "warning"});
    // Replication lag is a gauge derived from auditor state, so the rule
    // resolves by itself once every vnode regains full-quorum reads.
    add_rule({"staleness-budget", "replication_lag_max_us",
              AlertOp::kGreaterThan, kStalenessBudgetUs, kAlertForSamples,
              kAlertClearSamples, "warning"});
    alerts_.set_transition_hook(
        [this](const AlertRule& rule, const AlertEvent& e) {
          auto& tracer = cluster_.sim().tracer();
          const auto ctx = tracer.start_trace(
              "alert." + std::string(e.fired ? "fired" : "resolved") + "." +
                  rule.name,
              0, e.at);
          tracer.end(ctx.span_id, e.at, rule.severity);
          char buf[96];
          std::snprintf(buf, sizeof buf, "value=%.6g severity=%s", e.value,
                        rule.severity.c_str());
          cluster_.flight_recorder().record(
              e.at, "alert", "monitor",
              std::string(e.fired ? "fired:" : "resolved:") + rule.name, buf);
        });
    timer_ = cluster_.sim().schedule_periodic(
        config.sample_interval == 0 ? sim_ms(500) : config.sample_interval,
        [this] { tick(); });
  }

  ~ClusterMonitor() { timer_.cancel(); }

  ClusterMonitor(const ClusterMonitor&) = delete;
  ClusterMonitor& operator=(const ClusterMonitor&) = delete;

  void add_rule(AlertRule rule) { alerts_.add_rule(std::move(rule)); }

  /// One monitor round: sample every series, evaluate alert rules on the
  /// new sample, advance the per-node health machines. Runs on the
  /// periodic timer; tests may call it directly.
  void tick() {
    const SimTime now = cluster_.sim().now();
    recorder_.sample(now);
    alerts_.evaluate(recorder_, now);
    update_health(now);
  }

  [[nodiscard]] const TimeSeriesRecorder& recorder() const {
    return recorder_;
  }
  [[nodiscard]] const AlertEngine& alerts() const { return alerts_; }

  [[nodiscard]] HealthState health(NodeId node) const {
    const auto it = health_.find(node);
    return it == health_.end() ? HealthState::kHealthy : it->second.state;
  }
  /// Every health transition observed, oldest first.
  [[nodiscard]] const std::vector<HealthTransition>& health_log() const {
    return health_log_;
  }

  [[nodiscard]] std::string timeseries_csv() const { return recorder_.csv(); }
  [[nodiscard]] std::string alerts_text() const { return alerts_.text(); }

  /// Operator dashboard: per-node health, rule states, the newest sample
  /// of every series, cluster-wide hot keys, and the transition logs.
  /// Built from deterministic state only.
  [[nodiscard]] std::string dashboard() const {
    std::string out;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "=== Sedna monitor dashboard @ %llu us ===\n",
                  static_cast<unsigned long long>(cluster_.sim().now()));
    out += buf;

    out += "health:";
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      const NodeId id = cluster_.node(i).id();
      std::snprintf(buf, sizeof buf, " node-%u=%s", id,
                    to_string(health(id)));
      out += buf;
    }
    out += "\n";

    out += "alerts:";
    for (const AlertRule& rule : alerts_.rules()) {
      const AlertState st = alerts_.state(rule.name);
      const char* label = st == AlertState::kFiring    ? "FIRING"
                          : st == AlertState::kPending ? "pending"
                                                       : "ok";
      std::snprintf(buf, sizeof buf, " %s=%s", rule.name.c_str(), label);
      out += buf;
    }
    std::snprintf(buf, sizeof buf, " (%zu transitions)\n",
                  alerts_.events().size());
    out += buf;

    if (recorder_.size() > 0) {
      out += "last sample:";
      const std::size_t newest = recorder_.size() - 1;
      const auto& names = recorder_.series_names();
      for (std::size_t s = 0; s < names.size(); ++s) {
        std::snprintf(buf, sizeof buf, " %s=%.6g", names[s].c_str(),
                      recorder_.value_at(newest, s));
        out += buf;
      }
      out += "\n";
    }

    const auto hot = hot_keys_merged(5);
    if (!hot.empty()) {
      out += "hot keys:";
      for (const auto& e : hot) {
        std::snprintf(buf, sizeof buf, " %s(%llu)", e.key.c_str(),
                      static_cast<unsigned long long>(e.count));
        out += buf;
      }
      out += "\n";
    }

    if (!health_log_.empty()) {
      out += "health log:\n";
      for (const HealthTransition& t : health_log_) {
        std::snprintf(buf, sizeof buf, "[%10llu us] node-%u %s -> %s\n",
                      static_cast<unsigned long long>(t.at), t.node,
                      to_string(t.from), to_string(t.to));
        out += buf;
      }
    }
    if (!alerts_.events().empty()) {
      out += "alert log:\n" + alerts_.text();
    }
    return out;
  }

  /// Cluster-wide top hot keys: every node's SpaceSaving sketch merged by
  /// key (count-summed), sorted (count desc, key asc).
  [[nodiscard]] std::vector<SpaceSavingSketch::Entry> hot_keys_merged(
      std::size_t k) const {
    std::map<std::string, SpaceSavingSketch::Entry> merged;
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      for (const auto& e : cluster_.node(i).hot_keys().entries()) {
        auto& slot = merged[e.key];
        slot.key = e.key;
        slot.count += e.count;
        slot.error += e.error;
      }
    }
    std::vector<SpaceSavingSketch::Entry> out;
    out.reserve(merged.size());
    for (auto& [key, e] : merged) out.push_back(std::move(e));
    std::sort(out.begin(), out.end(),
              [](const SpaceSavingSketch::Entry& a,
                 const SpaceSavingSketch::Entry& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.key < b.key;
              });
    if (out.size() > k) out.resize(k);
    return out;
  }

 private:
  /// Retained samples per series (ring buffer).
  static constexpr std::size_t kCapacity = 512;
  /// A non-live node is kSuspect until it has been unseen this long,
  /// then kDead.
  static constexpr SimDuration kDeadAfter = sim_sec(3);
  /// Default-rule hysteresis: consecutive breaching samples to fire,
  /// consecutive clean samples to resolve.
  static constexpr std::uint32_t kAlertForSamples = 2;
  static constexpr std::uint32_t kAlertClearSamples = 2;
  /// Consecutive samples with a migration in flight before the
  /// stuck-migration rule fires (migrations are normally far shorter than
  /// the sampling window times this).
  static constexpr std::uint32_t kStuckMigrationSamples = 10;
  /// Retained concurrent siblings (cluster-wide, beyond one per key)
  /// tolerated before the sibling-growth rule starts counting. A handful
  /// is healthy — racing writers are the point of DVVs — but a sustained
  /// pile-up means clients are blind-writing without reading a context.
  static constexpr double kSiblingGrowthThreshold = 16.0;
  static constexpr std::uint32_t kSiblingGrowthSamples = 4;
  /// Staleness budget (µs): the worst replication lag any coordinator may
  /// report before the staleness-budget alert fires. Only meaningful when
  /// the consistency auditor is enabled on the data nodes — the series
  /// reads 0 otherwise, so the rule simply never fires.
  static constexpr double kStalenessBudgetUs = 250000.0;

  struct NodeHealth {
    HealthState state = HealthState::kHealthy;
    SimTime last_alive = 0;
  };

  void register_series() {
    recorder_.add_series("nodes_down", [this] {
      double n = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        if (!cluster_.node(i).alive()) ++n;
      }
      return n;
    });
    recorder_.add_series("hints_pending", [this] {
      double n = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        auto& node = cluster_.node(i);
        if (node.alive()) n += static_cast<double>(node.hints_pending());
      }
      return n;
    });
    recorder_.add_series("total_items", [this] {
      double n = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        n += static_cast<double>(
            cluster_.node(i).local_store().stats().curr_items);
      }
      return n;
    });
    recorder_.add_series("total_bytes", [this] {
      double n = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        n += static_cast<double>(cluster_.node(i).local_store().stats().bytes);
      }
      return n;
    });
    recorder_.add_series("reads", [this] { return vnode_sum(kFieldReads); });
    recorder_.add_series("writes",
                         [this] { return vnode_sum(kFieldWrites); });
    recorder_.add_series("misses",
                         [this] { return vnode_sum(kFieldMisses); });
    recorder_.add_series("read_p99_us", [this] {
      return merged_quantile("coordinator.read_latency_us", 0.99);
    });
    recorder_.add_series("write_p99_us", [this] {
      return merged_quantile("coordinator.write_latency_us", 0.99);
    });
    recorder_.add_series("recoveries", [this] {
      return counter_sum("failure.recoveries_completed");
    });
    recorder_.add_series("keys_repaired", [this] {
      return counter_sum("antientropy.keys_pushed") +
             counter_sum("antientropy.keys_pulled");
    });
    // Migration telemetry (appended last: the CSV column order is part of
    // the determinism contract asserted by existing tests).
    recorder_.add_series("migrations_inflight", [this] {
      double n = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        auto& node = cluster_.node(i);
        if (node.alive()) n += static_cast<double>(node.migrations_active());
      }
      return n;
    });
    recorder_.add_series("migrations_done", [this] {
      return counter_sum("rebalance.migrations_completed");
    });
    recorder_.add_series("migration_bytes", [this] {
      return counter_sum("rebalance.bytes_moved");
    });
    // Overload telemetry (appended after the migration block for the same
    // CSV-column-order reason).
    recorder_.add_series("queue_depth", [this] {
      double n = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        auto& node = cluster_.node(i);
        if (node.alive()) n += static_cast<double>(node.queue_depth());
      }
      return n;
    });
    // Sheds per sample window (delta of the monotone per-host counters),
    // so the alert below resolves once shedding stops.
    recorder_.add_series("shed_rate", [this, prev = 0.0,
                                       burst = false]() mutable {
      double total = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        auto& node = cluster_.node(i);
        total += static_cast<double>(node.shed_queue_full()) +
                 static_cast<double>(node.shed_deadline());
      }
      const double delta = total - prev;
      prev = total;
      // Flight-record shed bursts as transitions, not per-sample spam: one
      // event when shedding starts, one when a window passes with none.
      if (delta > 0 && !burst) {
        burst = true;
        char buf[64];
        std::snprintf(buf, sizeof buf, "sheds_in_window=%.6g", delta);
        cluster_.flight_recorder().record(cluster_.sim().now(), "overload",
                                          "monitor", "shed-burst-start", buf);
      } else if (delta == 0 && burst) {
        burst = false;
        cluster_.flight_recorder().record(cluster_.sim().now(), "overload",
                                          "monitor", "shed-burst-end");
      }
      return delta;
    });
    recorder_.add_series("stale_reads", [this] {
      return client_counter_sum("client.stale_reads");
    });
    // Client retries refused per sample window because the token bucket
    // ran dry — sustained non-zero means the cluster is past saturation.
    recorder_.add_series("budget_exhausted_rate",
                         [this, prev = 0.0]() mutable {
                           const double total =
                               client_counter_sum("node.shed.retry_budget");
                           const double delta = total - prev;
                           prev = total;
                           return delta;
                         });
    // Causal conflict telemetry (appended last — CSV column order again).
    // Live excess-sibling count across the cluster: the concurrent-version
    // frontier operators watch for runaway growth (a client fleet that
    // never reads before writing mints unbounded siblings). 0 on every
    // pure-LWW workload.
    recorder_.add_series("siblings", [this] {
      double n = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        n += static_cast<double>(
            cluster_.node(i).local_store().stats().siblings);
      }
      return n;
    });
    recorder_.add_series("dvv_merges", [this] {
      double n = 0;
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        n += static_cast<double>(
            cluster_.node(i).local_store().stats().dvv_merges);
      }
      return n;
    });
    // Consistency observability (appended last — CSV column order again).
    // All three read 0 while the auditor is disabled on the data nodes.
    recorder_.add_series("staleness_p99_us", [this] {
      return merged_quantile("audit.staleness_bound_us", 0.99);
    });
    recorder_.add_series("replication_lag_max_us", [this] {
      double worst = 0;
      const SimTime now = cluster_.sim().now();
      for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
        auto& node = cluster_.node(i);
        if (!node.alive() || node.auditor() == nullptr) continue;
        worst = std::max(
            worst,
            static_cast<double>(node.auditor()->max_replication_lag_us(now)));
      }
      return worst;
    });
    recorder_.add_series("visibility_violations", [this] {
      return counter_sum("audit.visibility_violations");
    });
  }

  enum VnodeField { kFieldReads, kFieldWrites, kFieldMisses };

  [[nodiscard]] double vnode_sum(VnodeField field) const {
    double n = 0;
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      for (const auto& vs : cluster_.node(i).vnode_status()) {
        switch (field) {
          case kFieldReads: n += static_cast<double>(vs.reads); break;
          case kFieldWrites: n += static_cast<double>(vs.writes); break;
          case kFieldMisses: n += static_cast<double>(vs.misses); break;
        }
      }
    }
    return n;
  }

  [[nodiscard]] double counter_sum(const std::string& name) const {
    double n = 0;
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      n += static_cast<double>(cluster_.node(i).metrics().counter_value(name));
    }
    return n;
  }

  /// Like counter_sum but over the harness-owned clients (retry budgets
  /// and staleness are client-side state).
  [[nodiscard]] double client_counter_sum(const std::string& name) const {
    double n = 0;
    for (std::size_t i = 0; i < cluster_.client_count(); ++i) {
      n += static_cast<double>(
          cluster_.client(i).metrics().counter_value(name));
    }
    return n;
  }

  [[nodiscard]] double merged_quantile(const std::string& name,
                                       double q) const {
    Histogram merged;
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      const auto& histos = cluster_.node(i).metrics().histograms();
      const auto it = histos.find(name);
      if (it != histos.end()) merged.merge(it->second);
    }
    return merged.quantile(q);
  }

  /// Hints queued by live coordinators *against* `target` — the backlog
  /// the node must absorb before it is caught up.
  [[nodiscard]] std::uint64_t backlog_for(NodeId target) const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      auto& node = cluster_.node(i);
      if (node.alive() && node.id() != target) {
        n += node.hints_pending_for(target);
      }
    }
    return n;
  }

  void update_health(SimTime now) {
    for (std::size_t i = 0; i < cluster_.data_node_count(); ++i) {
      auto& node = cluster_.node(i);
      const NodeId id = node.id();
      NodeHealth& h = health_[id];
      const bool up = node.alive() && node.ready();
      if (up) h.last_alive = now;
      HealthState next;
      if (up) {
        next = backlog_for(id) > 0 ? HealthState::kDegraded
                                   : HealthState::kHealthy;
      } else {
        next = now - h.last_alive >= kDeadAfter
                   ? HealthState::kDead
                   : HealthState::kSuspect;
      }
      if (next != h.state) {
        health_log_.push_back(HealthTransition{now, id, h.state, next});
        auto& tracer = cluster_.sim().tracer();
        const auto ctx = tracer.start_trace(
            "health.node-" + std::to_string(id), id, now);
        tracer.end(ctx.span_id, now, to_string(next));
        cluster_.flight_recorder().record(
            now, "health", "node-" + std::to_string(id), to_string(next),
            std::string("was ") + to_string(h.state));
        h.state = next;
      }
    }
  }

  SednaCluster& cluster_;
  TimeSeriesRecorder recorder_;
  AlertEngine alerts_;
  std::map<NodeId, NodeHealth> health_;
  std::vector<HealthTransition> health_log_;
  sim::TimerHandle timer_;
};

}  // namespace sedna::cluster
