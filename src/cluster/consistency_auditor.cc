#include "cluster/consistency_auditor.h"

#include <algorithm>

namespace sedna::cluster {

ConsistencyAuditor::ConsistencyAuditor(ConsistencyAuditorConfig config,
                                       MetricRegistry& metrics)
    : config_(std::move(config)), metrics_(metrics) {}

void ConsistencyAuditor::on_full_quorum(VnodeId vnode, SimTime now) {
  VnodeAudit& v = vnodes_[vnode];
  v.last_full_quorum_at = now;
  v.serving_stale = false;
}

std::uint64_t ConsistencyAuditor::on_stale_serve(VnodeId vnode, SimTime now) {
  VnodeAudit& v = vnodes_[vnode];
  v.serving_stale = true;
  ++v.stale_serves;
  const std::uint64_t bound =
      now > v.last_full_quorum_at ? now - v.last_full_quorum_at : 1;
  metrics_.histogram("audit.staleness_bound_us").record(bound);
  metrics_.counter("audit.stale_serves").add(1);
  return bound;
}

void ConsistencyAuditor::on_read_final(const ReadAuditSample& sample) {
  metrics_.counter("audit.reads_audited").add(1);
  metrics_.histogram("audit.confirm_lag_us").record(sample.confirm_lag_us);
  if (sample.positives == 0) return;
  // Time lag in wall-clock microseconds: the timestamp's clock half
  // (ts >> 16) is the coordinator's sim-µs at write time, so the gap
  // between the served and freshest clocks is how far behind (in time)
  // the served value was.
  const std::uint64_t served_clock = timestamp_clock(sample.served_ts);
  const std::uint64_t freshest_clock = timestamp_clock(sample.freshest_ts);
  const std::uint64_t time_lag =
      freshest_clock > served_clock ? freshest_clock - served_clock : 0;
  metrics_
      .histogram(sample.stale ? "audit.stale_read_lag_us"
                              : "audit.fresh_read_lag_us")
      .record(time_lag);
  metrics_.histogram("audit.version_lag").record(sample.newer);
  if (sample.newer > 0) metrics_.counter("audit.reads_behind").add(1);
  const std::uint64_t oldest_clock = timestamp_clock(sample.oldest_ts);
  vnodes_[sample.vnode].last_spread_us =
      freshest_clock > oldest_clock ? freshest_clock - oldest_clock : 0;
}

std::uint64_t ConsistencyAuditor::vnode_lag_us(const VnodeAudit& v,
                                               SimTime now) const {
  if (v.serving_stale) {
    return now > v.last_full_quorum_at ? now - v.last_full_quorum_at : 1;
  }
  return v.last_spread_us;
}

std::uint64_t ConsistencyAuditor::max_replication_lag_us(SimTime now) const {
  std::uint64_t worst = 0;
  for (const auto& [vnode, v] : vnodes_) {
    worst = std::max(worst, vnode_lag_us(v, now));
  }
  return worst;
}

std::vector<ring::VnodeLagRow> ConsistencyAuditor::lag_rows(SimTime now) {
  std::vector<ring::VnodeLagRow> rows;
  for (auto& [vnode, v] : vnodes_) {
    const std::uint64_t stale_delta = v.stale_serves - v.reported_stale_serves;
    v.reported_stale_serves = v.stale_serves;
    const std::uint64_t lag = vnode_lag_us(v, now);
    if (lag == 0 && stale_delta == 0) continue;
    rows.push_back(ring::VnodeLagRow{vnode, lag, stale_delta});
  }
  return rows;
}

bool ConsistencyAuditor::should_probe() {
  if (config_.probe_sample_every == 0) return false;
  return (write_counter_++ % config_.probe_sample_every) == 0;
}

void ConsistencyAuditor::on_probe_fire(std::size_t idx) {
  if (idx >= offsets_.size()) return;
  ++offsets_[idx].probes;
  metrics_.counter("audit.probe_rounds").add(1);
}

void ConsistencyAuditor::on_probe_check(std::size_t idx, bool reachable,
                                        bool visible) {
  if (idx >= offsets_.size()) return;
  if (!reachable) {
    ++offsets_[idx].unreachable;
    return;
  }
  ++offsets_[idx].checked;
  if (visible) ++offsets_[idx].visible;
}

void ConsistencyAuditor::on_violation(SimTime acked_at, SimTime detected_at,
                                      const std::string& key,
                                      NodeId replica) {
  metrics_.counter("audit.visibility_violations").add(1);
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(Violation{acked_at, detected_at, key, replica});
  }
}

}  // namespace sedna::cluster
