// Imbalance table (Section III.B): "We record all the virtual nodes'
// status including its capacity, read/write frequency. Besides, we also
// maintain a[n] imbalance table for all the real nodes computed from the
// virtual nodes' status. This information is calculated and stored
// locally, and periodically updated to [the] ZooKeeper cluster."
//
// Each real node aggregates its own vnode statuses into a compact
// RealNodeLoad row and pushes only that row — "quite small comparing with
// the virtual nodes number".
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/types.h"

namespace sedna::ring {

/// Per-vnode counters a node maintains locally.
struct VnodeStatus {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Local reads that found no value (miss on this vnode's slice).
  std::uint64_t misses = 0;

  VnodeStatus& operator+=(const VnodeStatus& o) {
    capacity_bytes += o.capacity_bytes;
    reads += o.reads;
    writes += o.writes;
    misses += o.misses;
    return *this;
  }
};

/// One vnode's counters inside a RealNodeLoad row: the per-vnode detail
/// the paper's rebalancer needs to pick which slice to move, not just
/// which node is hot.
struct VnodeLoadRow {
  VnodeId vnode = 0;
  std::uint64_t capacity_bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t misses = 0;

  friend bool operator==(const VnodeLoadRow& a, const VnodeLoadRow& b) {
    return a.vnode == b.vnode && a.capacity_bytes == b.capacity_bytes &&
           a.reads == b.reads && a.writes == b.writes && a.misses == b.misses;
  }

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.vnode, m.capacity_bytes, m.reads, m.writes, m.misses);
  }
};

/// One vnode's replication-lag row (consistency auditor gossip): how far
/// this coordinator believes the vnode's replicas lag behind, plus the
/// stale-tagged serves it issued since the previous report. Rides the
/// RealNodeLoad row as a trailing section.
struct VnodeLagRow {
  VnodeId vnode = 0;
  std::uint64_t lag_us = 0;
  std::uint64_t stale_serves = 0;

  friend bool operator==(const VnodeLagRow& a, const VnodeLagRow& b) {
    return a.vnode == b.vnode && a.lag_us == b.lag_us &&
           a.stale_serves == b.stale_serves;
  }

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.vnode, m.lag_us, m.stale_serves);
  }
};

/// One row of the imbalance table: a real node's aggregate plus the
/// per-vnode breakdown (only vnodes with activity are listed, so the row
/// stays "quite small comparing with the virtual nodes number").
struct RealNodeLoad {
  NodeId node = kInvalidNode;
  std::uint32_t vnode_count = 0;
  std::uint64_t capacity_bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t misses = 0;
  std::vector<VnodeLoadRow> vnodes;
  /// Replication-lag rows (consistency auditor), in a trailing section.
  std::vector<VnodeLagRow> lags;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.node, m.vnode_count, m.capacity_bytes, m.reads, m.writes, m.misses,
       m.vnodes);
    io.trailing(!m.lags.empty(), [&] { io(m.lags); });
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<RealNodeLoad> decode(std::string_view bytes) {
    return codec::decode<RealNodeLoad>(bytes, "bad load row");
  }
};

/// The cluster-wide imbalance view, assembled from per-node rows.
class ImbalanceTable {
 public:
  void update(const RealNodeLoad& row) { rows_[row.node] = row; }
  void remove(NodeId node) { rows_.erase(node); }

  [[nodiscard]] const std::map<NodeId, RealNodeLoad>& rows() const {
    return rows_;
  }

  /// Coefficient of variation of a load dimension across nodes
  /// (0 = perfectly balanced). Dimension selected by pointer-to-member.
  template <typename T>
  [[nodiscard]] double imbalance(T RealNodeLoad::* field) const {
    // Degenerate tables (no nodes, a single node, or all-zero loads) are
    // balanced by definition; without these guards the CV math divides by
    // zero and reports NaN, which then poisons every comparison downstream.
    if (rows_.size() < 2) return 0.0;
    double sum = 0.0;
    for (const auto& [node, row] : rows_) {
      sum += static_cast<double>(row.*field);
    }
    const double mean = sum / static_cast<double>(rows_.size());
    if (mean == 0.0) return 0.0;
    double var = 0.0;
    for (const auto& [node, row] : rows_) {
      const double d = static_cast<double>(row.*field) - mean;
      var += d * d;
    }
    var /= static_cast<double>(rows_.size());
    const double cv = std::sqrt(var) / mean;
    return std::isfinite(cv) ? cv : 0.0;
  }

  [[nodiscard]] double capacity_imbalance() const {
    return imbalance(&RealNodeLoad::capacity_bytes);
  }
  [[nodiscard]] double vnode_imbalance() const {
    return imbalance(&RealNodeLoad::vnode_count);
  }

  /// The most and least loaded nodes by capacity (rebalance candidates).
  [[nodiscard]] std::pair<NodeId, NodeId> hottest_coldest() const;

 private:
  std::map<NodeId, RealNodeLoad> rows_;
};

inline std::pair<NodeId, NodeId> ImbalanceTable::hottest_coldest() const {
  NodeId hot = kInvalidNode, cold = kInvalidNode;
  std::uint64_t hot_cap = 0, cold_cap = UINT64_MAX;
  for (const auto& [node, row] : rows_) {
    if (row.capacity_bytes >= hot_cap) {
      hot_cap = row.capacity_bytes;
      hot = node;
    }
    if (row.capacity_bytes < cold_cap) {
      cold_cap = row.capacity_bytes;
      cold = node;
    }
  }
  return {hot, cold};
}

}  // namespace sedna::ring
