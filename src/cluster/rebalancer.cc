#include "cluster/rebalancer.h"

#include <algorithm>
#include <cmath>

namespace sedna::cluster {

namespace {

/// A node is "hot" (migration source) while its traffic exceeds
/// mean * kHotHeadroom.
constexpr double kHotHeadroom = 1.15;
/// Fraction of its node's traffic a vnode must carry to count as
/// dominating.
constexpr double kSplitShare = 0.5;

/// Traffic score of one load window: reads + writes. Misses are already
/// counted inside reads; capacity is deliberately ignored here — this
/// planner evens out *request* load, while vnode counts are levelled only
/// when a node joins (ring::Rebalancer::plan_join).
[[nodiscard]] std::uint64_t row_traffic(const ring::VnodeLoadRow& v) {
  return v.reads + v.writes;
}

}  // namespace

std::vector<MigrationPlan> TrafficRebalancer::plan(
    const ring::ImbalanceTable& table, const ring::VnodeTable& ring,
    const std::vector<NodeId>& live, const HealthFn& health, SimTime now) {
  std::vector<MigrationPlan> moves;
  if (live.size() < 2) return moves;

  // Per-node traffic over the reporting window, and the per-vnode
  // breakdown restricted to vnodes the reporting node currently *owns*
  // (a replica's share of a slice travels with the owner when the walk
  // changes, so only owned slices are movable mass).
  std::map<NodeId, double> traffic;  // id-sorted: deterministic iteration
  for (NodeId n : live) traffic[n] = 0.0;
  std::map<NodeId, std::vector<std::pair<VnodeId, std::uint64_t>>> owned;
  for (const auto& [node, row] : table.rows()) {
    const auto it = traffic.find(node);
    if (it == traffic.end()) continue;  // dead holder: recovery's business
    it->second = static_cast<double>(row.reads + row.writes);
    for (const ring::VnodeLoadRow& v : row.vnodes) {
      const std::uint64_t t = row_traffic(v);
      if (t == 0) continue;
      if (v.vnode < ring.total_vnodes() && ring.owner(v.vnode) == node) {
        owned[node].emplace_back(v.vnode, t);
      }
    }
  }

  double total = 0.0;
  for (const auto& [node, t] : traffic) total += t;
  const double mean = total / static_cast<double>(traffic.size());
  if (total == 0.0 || mean == 0.0) {
    hot_streak_.clear();
    last_cv_ = 0.0;
    return moves;
  }
  double var = 0.0;
  for (const auto& [node, t] : traffic) var += (t - mean) * (t - mean);
  var /= static_cast<double>(traffic.size());
  last_cv_ = std::sqrt(var) / mean;
  if (!std::isfinite(last_cv_)) last_cv_ = 0.0;
  if (last_cv_ < config_.cv_trigger) {
    // Balanced: a dominating vnode on a balanced cluster needs no
    // isolation, so domination streaks reset at the fixed point.
    hot_streak_.clear();
    return moves;
  }

  // Hot sources: traffic above mean * headroom, hottest first, id
  // tie-break.
  std::vector<NodeId> hot;
  for (const auto& [node, t] : traffic) {
    if (t > mean * kHotHeadroom) hot.push_back(node);
  }
  std::sort(hot.begin(), hot.end(), [&traffic](NodeId a, NodeId b) {
    if (traffic[a] != traffic[b]) return traffic[a] > traffic[b];
    return a < b;
  });

  // Working copy updated as moves are planned, so one round's moves do
  // not collectively overshoot a cold target.
  std::map<NodeId, double>& working = traffic;

  auto coldest_healthy = [&](NodeId exclude) -> NodeId {
    NodeId best = kInvalidNode;
    double best_t = 0.0;
    for (const auto& [node, t] : working) {
      if (node == exclude) continue;
      if (health && health(node) != HealthState::kHealthy) continue;
      if (best == kInvalidNode || t < best_t) {
        best = node;
        best_t = t;
      }
    }
    return best;
  };

  for (NodeId h : hot) {
    if (moves.size() >= config_.max_moves_per_round) break;
    auto oit = owned.find(h);
    if (oit == owned.end() || oit->second.empty()) continue;
    auto& slices = oit->second;
    std::sort(slices.begin(), slices.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });

    // Domination check for the isolate ("split") path.
    const VnodeId top = slices.front().first;
    const double top_t = static_cast<double>(slices.front().second);
    const bool dominates =
        working[h] > 0.0 && top_t > kSplitShare * working[h];
    bool isolate = false;
    if (dominates) {
      isolate = ++hot_streak_[top] >= kSplitStreak;
    } else {
      hot_streak_.erase(top);
    }

    for (const auto& [v, t] : slices) {
      if (moves.size() >= config_.max_moves_per_round) break;
      if (isolate && v == top) continue;  // shed the others, keep the star
      const auto cit = cooldown_until_.find(v);
      if (cit != cooldown_until_.end() && cit->second > now) continue;
      const NodeId target = coldest_healthy(h);
      if (target == kInvalidNode) break;  // nobody healthy to receive
      const double vt = static_cast<double>(t);
      // Strict-improvement guard: moving vt from h to target shrinks the
      // variance iff vt < working[h] - working[target]; anything else
      // would just relocate (or invert) the hot spot — ping-pong fuel.
      if (working[target] + vt >= working[h]) continue;
      moves.push_back(MigrationPlan{
          v, h, target,
          isolate ? MigrationReason::kIsolate : MigrationReason::kOffload});
      working[h] -= vt;
      working[target] += vt;
      cooldown_until_[v] = now + config_.vnode_cooldown;
      if (!isolate && working[h] <= mean * kHotHeadroom) break;
    }
  }
  return moves;
}

}  // namespace sedna::cluster
