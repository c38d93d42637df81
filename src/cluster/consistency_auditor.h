// ConsistencyAuditor: coordinator-side measurement of the consistency a
// quorum configuration *actually delivers*, not just the level it
// configures (Campêlo et al.'s survey point — see PAPERS.md).
//
// Three instruments, all fed from the existing read/write paths:
//
//   * staleness sampling — every kLatest quorum read is audited once all
//     N replies are in: version lag (replicas holding something newer
//     than the served value) and time lag (microsecond gap between the
//     served and freshest timestamps, recovered via timestamp_clock),
//     recorded separately for fresh vs stale-tagged serves. Stale serves
//     additionally get a *bound*: time since this vnode's last
//     full-quorum read, stamped into the reply's trailing audit section
//     so the client sees "stale by at most X µs", not just "stale".
//
//   * per-vnode replication lag — a vnode currently serving stale is
//     lagging by (now - last full quorum); a healthy vnode's lag is the
//     spread between its freshest and oldest replica copies observed on
//     the last fully-answered read. The per-vnode rows ride the existing
//     ZooKeeper imbalance-table gossip (trailing-optional, so the wire
//     is byte-identical with auditing off).
//
//   * t-visibility probes — PBS-style (Bailis et al.): a deterministic
//     1-in-N sample of acked LWW writes is re-read from every replica at
//     fixed offsets after the ack, yielding the empirical probability
//     that a read Δt after an acked write observes it. A *reachable*
//     replica still missing the write at the final offset is a
//     visibility violation (recorded with the write's ack time, so
//     gates can separate partition-era writes from post-heal ones).
//
// The auditor is plain bookkeeping: it owns no timers and sends no
// messages. The probe driver lives in SednaNode (it needs the host's
// scheduler and RPC machinery); everything here is deterministic state.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "ring/imbalance.h"

namespace sedna::cluster {

struct ConsistencyAuditorConfig {
  /// Master switch. Off by default: the visibility probes add replica
  /// read RPCs, which would shift every seeded benchmark.
  bool enabled = false;
  /// Probe every Nth acked LWW write (deterministic counter sampling).
  /// 0 disables probing while keeping read-side auditing.
  std::uint32_t probe_sample_every = 16;
};

/// What the coordinator learned from one fully-answered kLatest read.
struct ReadAuditSample {
  VnodeId vnode = kInvalidVnode;
  /// Timestamp of the value served to the client.
  Timestamp served_ts = 0;
  /// Whether the serve carried the stale tag.
  bool stale = false;
  /// Positive (value-carrying) replies among all N.
  std::uint32_t positives = 0;
  /// Positive replies strictly newer than the served value.
  std::uint32_t newer = 0;
  Timestamp freshest_ts = 0;
  Timestamp oldest_ts = 0;
  /// Staleness-exposure window: µs between the read settling (reply sent
  /// to the client) and the last replica's testimony arriving. A read
  /// that settled early answered without hearing `N - replies` replicas;
  /// this is how long that unexamined window stayed open. 0 when the
  /// read only settled once every replica had answered (R = N).
  std::uint64_t confirm_lag_us = 0;
};

class ConsistencyAuditor {
 public:
  struct VnodeAudit {
    /// When this vnode last settled a read with a full R-agreeing set.
    SimTime last_full_quorum_at = 0;
    /// The most recent serve was stale-tagged (cleared by full quorum).
    bool serving_stale = false;
    /// Freshest-vs-oldest replica spread on the last audited read (µs).
    std::uint64_t last_spread_us = 0;
    std::uint64_t stale_serves = 0;
    /// Gossip baseline: stale_serves as of the previous lag_rows() call.
    std::uint64_t reported_stale_serves = 0;
  };

  /// Per-offset visibility aggregate across all probed writes.
  struct OffsetStats {
    std::uint64_t probes = 0;       // writes probed at this offset
    std::uint64_t checked = 0;      // replica checks that answered
    std::uint64_t visible = 0;      // checks that saw the write (or newer)
    std::uint64_t unreachable = 0;  // checks that timed out / were shed
  };

  struct Violation {
    SimTime acked_at = 0;
    SimTime detected_at = 0;
    std::string key;
    NodeId replica = kInvalidNode;
  };

  /// Δt offsets after the ack at which each sampled write is re-read
  /// from every replica. The last offset is the violation deadline.
  static constexpr std::array<SimDuration, 4> kProbeOffsets = {
      sim_ms(5), sim_ms(25), sim_ms(100), sim_ms(500)};
  /// Retained violation records (bounded; the counter keeps the total).
  static constexpr std::size_t kMaxViolations = 256;
  /// One OffsetStats per probe offset, in kProbeOffsets order.
  using OffsetStatsArray = std::array<OffsetStats, kProbeOffsets.size()>;

  ConsistencyAuditor(ConsistencyAuditorConfig config, MetricRegistry& metrics);

  // ---- read-side staleness sampling --------------------------------------

  /// A kLatest read settled with a full R-agreeing set on `vnode`.
  void on_full_quorum(VnodeId vnode, SimTime now);

  /// A read on `vnode` is being served stale-tagged. Returns the
  /// staleness bound (µs since the last full-quorum read; >= 1 so a
  /// measured bound is always distinguishable from "not measured").
  std::uint64_t on_stale_serve(VnodeId vnode, SimTime now);

  /// All N replies of a kLatest read are in: record version/time lag.
  void on_read_final(const ReadAuditSample& sample);

  // ---- replication-lag view ----------------------------------------------

  /// Worst per-vnode lag right now: a vnode serving stale lags by the
  /// time since its last full quorum; a healthy one by its replica
  /// spread. Grows through a partition, collapses once full-quorum
  /// reads resume — gauge semantics, so the staleness-budget alert
  /// resolves on its own after heal.
  [[nodiscard]] std::uint64_t max_replication_lag_us(SimTime now) const;

  /// Per-vnode lag rows for the ZooKeeper imbalance gossip. stale_serves
  /// is a per-window delta (same contract as the load row counters);
  /// only vnodes with something to say get a row.
  [[nodiscard]] std::vector<ring::VnodeLagRow> lag_rows(SimTime now);

  // ---- t-visibility probes -----------------------------------------------

  /// Deterministic 1-in-N write sampling.
  [[nodiscard]] bool should_probe();

  /// Offset `idx` fired for one probed write.
  void on_probe_fire(std::size_t idx);

  /// One replica check at offset `idx` concluded.
  void on_probe_check(std::size_t idx, bool reachable, bool visible);

  /// Final-offset violation: a reachable replica still missing an acked
  /// write. `acked_at` is the write's ack time — gates use it to tell
  /// partition-era writes (whose repair is still backing off) from
  /// post-heal writes (which must never violate).
  void on_violation(SimTime acked_at, SimTime detected_at,
                    const std::string& key, NodeId replica);

  [[nodiscard]] const OffsetStatsArray& offset_stats() const {
    return offsets_;
  }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

 private:
  [[nodiscard]] std::uint64_t vnode_lag_us(const VnodeAudit& v,
                                           SimTime now) const;

  ConsistencyAuditorConfig config_;
  MetricRegistry& metrics_;
  std::map<VnodeId, VnodeAudit> vnodes_;
  OffsetStatsArray offsets_{};
  std::vector<Violation> violations_;
  std::uint64_t write_counter_ = 0;
};

}  // namespace sedna::cluster
