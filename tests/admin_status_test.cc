// Tests for per-vnode status tracking (paper Section III.B) and the
// ClusterInspector operational snapshot.
#include <gtest/gtest.h>

#include "cluster/admin.h"
#include "cluster/sedna_cluster.h"

namespace sedna::cluster {
namespace {

SednaClusterConfig small_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 128;
  return cfg;
}

TEST(VnodeStatus, WritesAndReadsAttributeToTheRightVnode) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "hot-key", "v").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.read_latest(client, "hot-key").ok());
  }
  cluster.run_for(sim_ms(50));

  const VnodeId vnode =
      cluster.node(0).metadata().table().vnode_for_key("hot-key");
  std::uint64_t writes = 0, reads = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    const auto& status = cluster.node(i).vnode_status();
    if (vnode < status.size()) {
      writes += status[vnode].writes;
      reads += status[vnode].reads;
    }
  }
  EXPECT_EQ(writes, 3u);   // one write applied on each of 3 replicas
  EXPECT_GE(reads, 10u);   // every quorum read touches >= R replicas
}

TEST(VnodeStatus, UntouchedVnodesStayZero) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "single", "v").ok());
  cluster.run_for(sim_ms(50));

  const VnodeId touched =
      cluster.node(0).metadata().table().vnode_for_key("single");
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    const auto& status = cluster.node(i).vnode_status();
    for (std::size_t v = 0; v < status.size(); ++v) {
      if (static_cast<VnodeId>(v) == touched) continue;
      EXPECT_EQ(status[v].writes, 0u) << "node " << i << " vnode " << v;
    }
  }
}

TEST(Inspector, SnapshotAggregatesStorageAndLiveness) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "k" + std::to_string(i),
                                     "value").ok());
  }
  cluster.run_for(sim_ms(50));

  ClusterInspector inspector(cluster);
  const ClusterReport report = inspector.snapshot();
  ASSERT_EQ(report.nodes.size(), 6u);
  EXPECT_EQ(report.total_items, 300u);  // 100 keys x 3 replicas
  EXPECT_GT(report.total_bytes, 0u);
  EXPECT_EQ(report.zk_leader, 0u);
  EXPECT_GT(report.zk_commits, 0u);
  EXPECT_GE(report.zk_sessions, 7u);  // 6 nodes + client
  EXPECT_LT(report.vnode_imbalance, 0.05);
  for (const auto& n : report.nodes) {
    EXPECT_TRUE(n.alive);
    EXPECT_TRUE(n.ready);
    EXPECT_GT(n.vnodes, 0u);
  }
  EXPECT_FALSE(report.hottest.empty());
}

TEST(Inspector, SnapshotLeavesTheMetricsDumpUnchanged) {
  // A report reads counters a quiet cluster never created (recoveries,
  // hints delivered, anti-entropy keys); reading must not create them.
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  ClusterInspector inspector(cluster);
  const std::string before = inspector.metrics_text();
  ASSERT_EQ(before.find("failure_recoveries_completed"), std::string::npos);
  (void)inspector.snapshot();
  EXPECT_EQ(inspector.metrics_text(), before);
}

TEST(Inspector, ReflectsCrashes) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  cluster.crash_node(2);
  const ClusterReport report = ClusterInspector(cluster).snapshot();
  int dead = 0;
  for (const auto& n : report.nodes) {
    if (!n.alive) ++dead;
  }
  EXPECT_EQ(dead, 1);
}

TEST(Inspector, HottestVnodesRankByAccess) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "warm", "v").ok());
  ASSERT_TRUE(cluster.write_latest(client, "scorching", "v").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.read_latest(client, "scorching").ok());
  }
  cluster.run_for(sim_ms(50));

  const ClusterReport report = ClusterInspector(cluster).snapshot(2);
  ASSERT_FALSE(report.hottest.empty());
  const VnodeId expected =
      cluster.node(0).metadata().table().vnode_for_key("scorching");
  EXPECT_EQ(report.hottest[0].vnode, expected);
  if (report.hottest.size() > 1) {
    EXPECT_GE(report.hottest[0].accesses, report.hottest[1].accesses);
  }
}

TEST(Inspector, PrintProducesOutput) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ClusterInspector(cluster).print(sink);
  EXPECT_GT(std::ftell(sink), 200L);
  std::fclose(sink);
}

}  // namespace
}  // namespace sedna::cluster
