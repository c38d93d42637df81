// Traffic-aware online rebalancer (the "data balance" pluggable module of
// Fig. 2, driven by the Section III.B imbalance table instead of raw vnode
// counts).
//
// The planner half lives here: given the cluster-wide imbalance table
// (per-node rows with per-vnode read/write detail, as reported to
// ZooKeeper), the current ring, the live-node set and a health oracle, it
// plans a bounded batch of vnode migrations that strictly reduces the
// coefficient of variation of per-node traffic. The execution half — the
// multi-phase migration protocol (snapshot → delta catch-up → CAS cutover
// → old-owner drain) — lives in SednaNode.
//
// Safety/stability properties, each covered by tests/rebalance_test.cc:
//   * targets are restricted to *healthy* live nodes (never degraded,
//     suspect or dead ones);
//   * every move passes a strict-improvement guard — the target's
//     post-move traffic must stay below the source's pre-move traffic —
//     which provably shrinks the variance and rules out ping-pong;
//   * a per-vnode cooldown pins recently-moved slices (hysteresis against
//     thrashing on stale telemetry windows);
//   * per-round move caps bound transfer burstiness;
//   * a vnode that keeps dominating its node's traffic for several rounds
//     (no single move can help, because the slice itself is the hot spot)
//     flips the node into the isolate path: the *other* slices are shed
//     instead, converging to a dedicated node for the hot vnode. The ring
//     cannot split a vnode (the vnode count is fixed at cluster creation,
//     Section III.D), so isolation is the split that is actually
//     available online.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cluster/health.h"
#include "common/types.h"
#include "ring/imbalance.h"
#include "ring/vnode_table.h"

namespace sedna::cluster {

struct TrafficRebalancerConfig {
  /// Act only while the CV of per-node traffic is at least this; below it
  /// the cluster counts as balanced and the planner is a no-op (the
  /// fixed point of the convergence property test).
  double cv_trigger = 0.25;
  /// Migrations planned per round (bounds transfer burstiness).
  std::uint32_t max_moves_per_round = 2;
  /// A migrated vnode is pinned this long before it may move again.
  SimDuration vnode_cooldown = sim_sec(30);
};

enum class MigrationReason : std::uint8_t {
  kOffload,  // spread a hot node's traffic
  kIsolate,  // dedicate a node to a persistently-hot single vnode
};

struct MigrationPlan {
  VnodeId vnode = kInvalidVnode;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  MigrationReason reason = MigrationReason::kOffload;

  friend bool operator==(const MigrationPlan& a, const MigrationPlan& b) {
    return a.vnode == b.vnode && a.from == b.from && a.to == b.to &&
           a.reason == b.reason;
  }
};

class TrafficRebalancer {
 public:
  using HealthFn = std::function<HealthState(NodeId)>;

  /// Rounds a single vnode must dominate its (hot) node before the
  /// planner switches that node to the isolate path.
  static constexpr std::uint32_t kSplitStreak = 3;

  explicit TrafficRebalancer(TrafficRebalancerConfig config = {})
      : config_(config) {}

  /// Plans one round of migrations. Deterministic: iteration orders are
  /// id-sorted and every tie-break is by lowest id. `health` gates
  /// migration *targets*; sources only need to be live.
  [[nodiscard]] std::vector<MigrationPlan> plan(
      const ring::ImbalanceTable& table, const ring::VnodeTable& ring,
      const std::vector<NodeId>& live, const HealthFn& health, SimTime now);

  /// Drops all hysteresis state (cooldowns, domination streaks).
  void reset() {
    cooldown_until_.clear();
    hot_streak_.clear();
    last_cv_ = 0.0;
  }

  /// CV of per-node traffic seen by the most recent plan() call.
  [[nodiscard]] double last_cv() const { return last_cv_; }

  [[nodiscard]] const TrafficRebalancerConfig& config() const {
    return config_;
  }

 private:
  TrafficRebalancerConfig config_;
  std::map<VnodeId, SimTime> cooldown_until_;
  std::map<VnodeId, std::uint32_t> hot_streak_;
  double last_cv_ = 0.0;
};

}  // namespace sedna::cluster
