#include "ring/vnode_table.h"

#include <algorithm>

namespace sedna::ring {

ReplicaSet VnodeTable::replicas_for_vnode(VnodeId v) const {
  ReplicaSet result;
  const std::uint32_t n = total_vnodes();
  for (std::uint32_t step = 0; step < n && result.size() < replicas_;
       ++step) {
    const NodeId owner_id = assignment_[(v + step) % n];
    if (owner_id != kInvalidNode && !result.contains(owner_id)) {
      result.push_back(owner_id);
    }
  }
  return result;
}

std::unordered_map<NodeId, std::uint32_t> VnodeTable::counts() const {
  std::unordered_map<NodeId, std::uint32_t> counts;
  for (NodeId n : assignment_) {
    if (n != kInvalidNode) ++counts[n];
  }
  return counts;
}

std::vector<VnodeId> VnodeTable::vnodes_of(NodeId n) const {
  std::vector<VnodeId> result;
  for (std::uint32_t v = 0; v < assignment_.size(); ++v) {
    if (assignment_[v] == n) result.push_back(v);
  }
  return result;
}

std::vector<VnodeId> VnodeTable::replica_vnodes_of(NodeId n) const {
  std::vector<VnodeId> result;
  for (std::uint32_t v = 0; v < assignment_.size(); ++v) {
    if (replicas_for_vnode(v).contains(n)) result.push_back(v);
  }
  return result;
}

std::vector<NodeId> VnodeTable::nodes() const {
  std::vector<NodeId> result;
  for (const auto& [node, count] : counts()) result.push_back(node);
  std::sort(result.begin(), result.end());
  return result;
}

std::uint32_t VnodeTable::moved_vnodes(const VnodeTable& before,
                                       const VnodeTable& after) {
  std::uint32_t moved = 0;
  const std::uint32_t n = std::min(before.total_vnodes(),
                                   after.total_vnodes());
  for (std::uint32_t v = 0; v < n; ++v) {
    if (before.assignment_[v] != after.assignment_[v]) ++moved;
  }
  return moved;
}

}  // namespace sedna::ring
