// VnodeTable: the consistent-hash ring of Section III.B.
//
// The ring is divided into a fixed number of equal slices — virtual nodes.
// A key hashes to an integer and mods onto a vnode; the vnode's assigned
// real node stores the primary copy (r1) and the owners of the next
// distinct vnodes clockwise hold the replicas (r2, r3 in Fig. 3).
// The vnode count is fixed at cluster creation ("once it is set, we can
// not change it unless restart the Sedna cluster", Section III.D).
//
// The authoritative table lives in ZooKeeper (one znode per vnode); this
// class is the in-memory form every node caches locally — Sedna's
// zero-hop DHT routing state (Section VII).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace sedna::ring {

/// A vnode's replica set (r1 first), held inline: it is looked up on every
/// request, and N never exceeds kCapacity (see the VnodeTable constructor).
class ReplicaSet {
 public:
  static constexpr std::size_t kCapacity = 8;
  using value_type = NodeId;
  using iterator = const NodeId*;
  using const_iterator = const NodeId*;

  ReplicaSet() = default;
  ReplicaSet(std::initializer_list<NodeId> nodes) {
    for (NodeId n : nodes) push_back(n);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const NodeId* begin() const { return nodes_.data(); }
  [[nodiscard]] const NodeId* end() const { return nodes_.data() + size_; }
  [[nodiscard]] NodeId operator[](std::size_t i) const { return nodes_[i]; }
  [[nodiscard]] NodeId front() const { return nodes_[0]; }
  [[nodiscard]] bool contains(NodeId n) const {
    return std::find(begin(), end(), n) != end();
  }

  /// Appends `n`; the set must hold fewer than kCapacity nodes.
  void push_back(NodeId n) { nodes_[size_++] = n; }
  /// Removes `n` if present, keeping the others in order.
  void erase(NodeId n) {
    size_ = static_cast<std::uint32_t>(
        std::remove(nodes_.begin(), nodes_.begin() + size_, n) -
        nodes_.begin());
  }

  friend bool operator==(const ReplicaSet& a, const ReplicaSet& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<NodeId, kCapacity> nodes_{};
  std::uint32_t size_ = 0;
};

class VnodeTable {
 public:
  VnodeTable() = default;
  /// `replicas` must not exceed ReplicaSet::kCapacity: configs are
  /// checked where they come in (SednaCluster::boot, ClusterConfig::decode),
  /// so a larger N here is a bug and aborts.
  VnodeTable(std::uint32_t total_vnodes, std::uint32_t replicas)
      : replicas_(replicas), assignment_(total_vnodes, kInvalidNode) {
    if (replicas > ReplicaSet::kCapacity) std::abort();
  }

  [[nodiscard]] std::uint32_t total_vnodes() const {
    return static_cast<std::uint32_t>(assignment_.size());
  }
  [[nodiscard]] std::uint32_t replicas() const { return replicas_; }

  [[nodiscard]] VnodeId vnode_for_key(std::string_view key) const {
    return static_cast<VnodeId>(ring_hash(key) % assignment_.size());
  }

  [[nodiscard]] NodeId owner(VnodeId v) const { return assignment_[v]; }
  void assign(VnodeId v, NodeId n) { assignment_[v] = n; }

  /// Replica set for a vnode: the owner of `v` (r1) plus the owners of the
  /// next vnodes clockwise, skipping repeats, until `replicas` distinct
  /// real nodes are found (or the ring is exhausted).
  [[nodiscard]] ReplicaSet replicas_for_vnode(VnodeId v) const;

  [[nodiscard]] ReplicaSet replicas_for_key(std::string_view key) const {
    return replicas_for_vnode(vnode_for_key(key));
  }

  /// vnode count per real node (the load view the imbalance table uses).
  [[nodiscard]] std::unordered_map<NodeId, std::uint32_t> counts() const;

  /// All vnodes assigned to `n`.
  [[nodiscard]] std::vector<VnodeId> vnodes_of(NodeId n) const;

  /// All vnodes whose replica set (primary or clockwise successor copies)
  /// includes `n` — the full set of vnodes the node holds data for, which
  /// is what anti-entropy must iterate (a node syncs every vnode it
  /// replicates, not just the ones it owns).
  [[nodiscard]] std::vector<VnodeId> replica_vnodes_of(NodeId n) const;

  /// Distinct real nodes present in the table.
  [[nodiscard]] std::vector<NodeId> nodes() const;

  /// Number of assignments that differ between two tables (for the
  /// minimal-movement property benches/tests).
  [[nodiscard]] static std::uint32_t moved_vnodes(const VnodeTable& before,
                                                  const VnodeTable& after);

  friend bool operator==(const VnodeTable& a, const VnodeTable& b) {
    return a.replicas_ == b.replicas_ && a.assignment_ == b.assignment_;
  }

 private:
  std::uint32_t replicas_ = 3;
  std::vector<NodeId> assignment_;
};

}  // namespace sedna::ring
