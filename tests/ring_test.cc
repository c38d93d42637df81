// Tests for partitioning: vnode table, replica placement, rebalancer
// planning properties (balance, minimal movement, determinism) and the
// imbalance table. Heavy use of TEST_P sweeps over cluster shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "ring/imbalance.h"
#include "ring/rebalancer.h"
#include "ring/vnode_table.h"

namespace sedna::ring {
namespace {

std::vector<NodeId> make_nodes(std::uint32_t n) {
  std::vector<NodeId> nodes;
  for (std::uint32_t i = 0; i < n; ++i) nodes.push_back(100 + i);
  return nodes;
}

// ---- VnodeTable ----------------------------------------------------------------

TEST(VnodeTable, KeyMapsToStableVnode) {
  VnodeTable table(256, 3);
  const VnodeId v = table.vnode_for_key("some-key");
  EXPECT_LT(v, 256u);
  EXPECT_EQ(table.vnode_for_key("some-key"), v);
}

TEST(VnodeTable, ReplicasAreDistinctRealNodes) {
  auto table = Rebalancer::initial_assignment(128, 3, make_nodes(6));
  for (std::uint32_t v = 0; v < 128; ++v) {
    const auto replicas = table.replicas_for_vnode(v);
    ASSERT_EQ(replicas.size(), 3u);
    const std::set<NodeId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 3u);
    EXPECT_EQ(replicas[0], table.owner(v));  // r1 is the vnode's owner
  }
}

TEST(VnodeTable, ReplicaWalkIsClockwise) {
  VnodeTable table(8, 3);
  for (VnodeId v = 0; v < 8; ++v) table.assign(v, 100 + v);
  const auto replicas = table.replicas_for_vnode(6);
  EXPECT_EQ(replicas, (ReplicaSet{106, 107, 100}));  // wraps
}

TEST(VnodeTable, ReplicaSetEraseKeepsOrder) {
  ReplicaSet set{5, 9, 2, 7};
  EXPECT_TRUE(set.contains(2));
  set.erase(2);
  EXPECT_EQ(set, (ReplicaSet{5, 9, 7}));
  EXPECT_FALSE(set.contains(2));
  set.erase(4);  // absent: no-op
  EXPECT_EQ(set.size(), 3u);
  EXPECT_EQ(set.front(), 5u);
}

TEST(VnodeTable, ReplicaWalkFillsAFullReplicaSet) {
  const std::uint32_t nodes = ReplicaSet::kCapacity + 4;
  VnodeTable table(nodes, ReplicaSet::kCapacity);
  for (VnodeId v = 0; v < nodes; ++v) table.assign(v, 100 + v);
  const auto replicas = table.replicas_for_vnode(0);
  ASSERT_EQ(replicas.size(), ReplicaSet::kCapacity);
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    EXPECT_EQ(replicas[i], 100 + i);
  }
}

TEST(VnodeTableDeathTest, ReplicasAboveTheReplicaSetCapacityAbort) {
  const auto too_many = static_cast<std::uint32_t>(ReplicaSet::kCapacity + 1);
  EXPECT_DEATH(VnodeTable(64, too_many), "");
}

TEST(VnodeTable, FewerNodesThanReplicasReturnsAll) {
  auto table = Rebalancer::initial_assignment(16, 3, make_nodes(2));
  const auto replicas = table.replicas_for_key("k");
  EXPECT_EQ(replicas.size(), 2u);
}

TEST(VnodeTable, CountsSumToTotal) {
  auto table = Rebalancer::initial_assignment(100, 3, make_nodes(7));
  std::uint32_t sum = 0;
  for (const auto& [node, count] : table.counts()) sum += count;
  EXPECT_EQ(sum, 100u);
}

TEST(VnodeTable, VnodesOfInverseOfOwner) {
  auto table = Rebalancer::initial_assignment(64, 3, make_nodes(4));
  for (NodeId node : table.nodes()) {
    for (VnodeId v : table.vnodes_of(node)) {
      EXPECT_EQ(table.owner(v), node);
    }
  }
}

TEST(VnodeTable, MovedVnodesCountsDifferences) {
  VnodeTable a(8, 3), b(8, 3);
  for (VnodeId v = 0; v < 8; ++v) {
    a.assign(v, 1);
    b.assign(v, v < 3 ? 2 : 1);
  }
  EXPECT_EQ(VnodeTable::moved_vnodes(a, b), 3u);
}

// ---- Rebalancer: parameterized sweeps ---------------------------------------------

struct SweepParam {
  std::uint32_t nodes;
  std::uint32_t vnodes;
};

class RebalanceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RebalanceSweep, InitialAssignmentIsBalanced) {
  const auto [n, v] = GetParam();
  auto table = Rebalancer::initial_assignment(v, 3, make_nodes(n));
  const auto counts = table.counts();
  ASSERT_EQ(counts.size(), n);
  for (const auto& [node, count] : counts) {
    EXPECT_GE(count, v / n);
    EXPECT_LE(count, v / n + 1);
  }
}

TEST_P(RebalanceSweep, JoinLevelsLoadWithMinimalMovement) {
  const auto [n, v] = GetParam();
  auto table = Rebalancer::initial_assignment(v, 3, make_nodes(n));
  const VnodeTable before = table;
  const NodeId joiner = 999;
  const auto moves = Rebalancer::plan_join(table, joiner);
  Rebalancer::apply(table, moves);

  // Every move targets the joiner; movement equals the joiner's share.
  for (const auto& move : moves) EXPECT_EQ(move.to, joiner);
  EXPECT_EQ(VnodeTable::moved_vnodes(before, table),
            static_cast<std::uint32_t>(moves.size()));

  const auto counts = table.counts();
  const std::uint32_t target = (v + n) / (n + 1);
  const auto it = counts.find(joiner);
  ASSERT_NE(it, counts.end());
  EXPECT_GE(it->second + 1, target * 3 / 4);  // a fair share
  EXPECT_LE(it->second, target + 1);
  // Donors stay near the new average.
  for (const auto& [node, count] : counts) {
    EXPECT_GE(count + 2, v / (n + 1));
  }
}

TEST_P(RebalanceSweep, PlansAreDeterministic) {
  const auto [n, v] = GetParam();
  auto table = Rebalancer::initial_assignment(v, 3, make_nodes(n));
  EXPECT_EQ(Rebalancer::plan_join(table, 999),
            Rebalancer::plan_join(table, 999));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RebalanceSweep,
    ::testing::Values(SweepParam{2, 64}, SweepParam{4, 64},
                      SweepParam{6, 128}, SweepParam{6, 1024},
                      SweepParam{16, 1024}, SweepParam{64, 8192}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.nodes) + "_v" +
             std::to_string(info.param.vnodes);
    });

TEST(Rebalancer, JoinIntoEmptyTableClaimsEverything) {
  VnodeTable table(32, 3);  // all kInvalidNode
  const auto moves = Rebalancer::plan_join(table, 7);
  EXPECT_EQ(moves.size(), 32u);
  Rebalancer::apply(table, moves);
  EXPECT_EQ(table.vnodes_of(7).size(), 32u);
}

TEST(Rebalancer, JoinSpreadsClaimsAcrossTheRing) {
  // Consecutive claimed vnodes would poison the replica walks of their
  // predecessors (see sedna_node read-path notes); claims must scatter.
  auto table = Rebalancer::initial_assignment(128, 3, make_nodes(6));
  const auto moves = Rebalancer::plan_join(table, 999);
  ASSERT_GT(moves.size(), 4u);
  std::vector<VnodeId> claimed;
  for (const auto& move : moves) claimed.push_back(move.vnode);
  std::sort(claimed.begin(), claimed.end());
  std::uint32_t consecutive_pairs = 0;
  for (std::size_t i = 1; i < claimed.size(); ++i) {
    if (claimed[i] == claimed[i - 1] + 1) ++consecutive_pairs;
  }
  EXPECT_LE(consecutive_pairs, claimed.size() / 4);
}

// ---- Imbalance table ---------------------------------------------------------------

TEST(Imbalance, RowCodecRoundTrip) {
  RealNodeLoad row;
  row.node = 5;
  row.vnode_count = 100;
  row.capacity_bytes = 1 << 30;
  row.reads = 12345;
  row.writes = 678;
  row.misses = 42;
  row.vnodes.push_back(VnodeLoadRow{7, 4096, 10, 20, 3});
  row.vnodes.push_back(VnodeLoadRow{200, 1 << 20, 9999, 0, 0});
  auto back = RealNodeLoad::decode(row.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->node, row.node);
  EXPECT_EQ(back->capacity_bytes, row.capacity_bytes);
  EXPECT_EQ(back->writes, row.writes);
  EXPECT_EQ(back->misses, row.misses);
  ASSERT_EQ(back->vnodes.size(), 2u);
  EXPECT_EQ(back->vnodes[0], row.vnodes[0]);
  EXPECT_EQ(back->vnodes[1], row.vnodes[1]);
}

TEST(Imbalance, RowCodecRejectsTruncatedVnodeRows) {
  RealNodeLoad row;
  row.node = 1;
  row.vnodes.push_back(VnodeLoadRow{3, 100, 1, 2, 0});
  std::string encoded = row.encode();
  encoded.resize(encoded.size() - 4);  // clip the last vnode field
  EXPECT_FALSE(RealNodeLoad::decode(encoded).ok());
}

TEST(Imbalance, CoefficientIsZeroNotNanOnDegenerateInputs) {
  // No rows at all.
  ImbalanceTable empty;
  EXPECT_DOUBLE_EQ(empty.capacity_imbalance(), 0.0);
  EXPECT_DOUBLE_EQ(empty.vnode_imbalance(), 0.0);

  // A single node has nothing to be imbalanced against.
  ImbalanceTable single;
  RealNodeLoad one;
  one.node = 1;
  one.capacity_bytes = 123456;
  single.update(one);
  EXPECT_DOUBLE_EQ(single.capacity_imbalance(), 0.0);

  // All-zero loads: mean is 0, CV must come back 0, not NaN.
  ImbalanceTable zeros;
  for (NodeId n = 0; n < 4; ++n) {
    RealNodeLoad row;
    row.node = n;
    zeros.update(row);
  }
  EXPECT_DOUBLE_EQ(zeros.capacity_imbalance(), 0.0);
  EXPECT_DOUBLE_EQ(zeros.vnode_imbalance(), 0.0);
  EXPECT_DOUBLE_EQ(zeros.imbalance(&RealNodeLoad::reads), 0.0);
  EXPECT_TRUE(std::isfinite(zeros.capacity_imbalance()));
}

TEST(Imbalance, PerfectBalanceIsZero) {
  ImbalanceTable table;
  for (NodeId n = 0; n < 4; ++n) {
    RealNodeLoad row;
    row.node = n;
    row.capacity_bytes = 1000;
    row.vnode_count = 10;
    table.update(row);
  }
  EXPECT_DOUBLE_EQ(table.capacity_imbalance(), 0.0);
  EXPECT_DOUBLE_EQ(table.vnode_imbalance(), 0.0);
}

TEST(Imbalance, SkewIncreasesCoefficient) {
  ImbalanceTable balanced, skewed;
  for (NodeId n = 0; n < 4; ++n) {
    RealNodeLoad row;
    row.node = n;
    row.capacity_bytes = 1000;
    balanced.update(row);
    row.capacity_bytes = n == 0 ? 4000 : 100;
    skewed.update(row);
  }
  EXPECT_GT(skewed.capacity_imbalance(), balanced.capacity_imbalance());
  EXPECT_GT(skewed.capacity_imbalance(), 1.0);
}

TEST(Imbalance, HottestColdestIdentified) {
  ImbalanceTable table;
  for (NodeId n = 0; n < 4; ++n) {
    RealNodeLoad row;
    row.node = n;
    row.capacity_bytes = (n + 1) * 100;
    table.update(row);
  }
  const auto [hot, cold] = table.hottest_coldest();
  EXPECT_EQ(hot, 3u);
  EXPECT_EQ(cold, 0u);
}

TEST(Imbalance, RemoveDropsNode) {
  ImbalanceTable table;
  RealNodeLoad row;
  row.node = 1;
  table.update(row);
  EXPECT_EQ(table.rows().size(), 1u);
  table.remove(1);
  EXPECT_TRUE(table.rows().empty());
}

}  // namespace
}  // namespace sedna::ring
