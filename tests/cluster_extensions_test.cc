// Tests for the production-hardening extensions: vnode purge after
// handoff and join transfer fail-over.
#include <gtest/gtest.h>

#include "cluster/sedna_cluster.h"
#include "ring/rebalancer.h"

namespace sedna::cluster {
namespace {

SednaClusterConfig base_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 128;
  return cfg;
}

std::uint64_t total_items(SednaCluster& cluster) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    n += cluster.node(i).local_store().size();
  }
  return n;
}

TEST(Purge, JoinHandoffReclaimsOldCopies) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "p-" + std::to_string(i),
                                     "v").ok());
  }
  cluster.run_for(sim_ms(100));
  const std::uint64_t before = total_items(cluster);
  EXPECT_EQ(before, 900u);  // 300 keys x 3 replicas

  auto joined = cluster.join_new_node();
  ASSERT_TRUE(joined.ok());
  cluster.run_for(sim_sec(2));  // transfers + purges settle

  // Replication factor is still 3: the joiner's new copies are offset by
  // purges at the previous owners (within a small transient slack).
  const std::uint64_t after = total_items(cluster);
  EXPECT_LE(after, before + before / 5);

  // And nothing was lost.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(cluster.read_latest(client, "p-" + std::to_string(i)).ok());
  }
}

TEST(Purge, ReplicaSetMembersNeverPurgeTheirCopies) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "keepme", "v").ok());
  cluster.run_for(sim_ms(20));

  // Hand-deliver a bogus purge naming the current owner: every member of
  // the replica set must decline.
  const VnodeId vnode =
      cluster.node(0).metadata().table().vnode_for_key("keepme");
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_vnode(vnode);
  PurgeVnodeRequest purge{vnode, replicas[0]};
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    cluster.node(i).send_oneway(cluster.node(i).id(), kMsgPurgeVnode,
                                purge.encode());
  }
  cluster.run_for(sim_ms(100));

  std::size_t copies = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).local_store().read_latest("keepme").ok()) ++copies;
  }
  EXPECT_EQ(copies, 3u);
}

TEST(Join, DonorCrashMidSnapshotFallsBackToOtherReplicas) {
  SednaClusterConfig cfg = base_config();
  // Isolate the join transfer: no anti-entropy to paper over a failed
  // fetch afterwards.
  cfg.node_template.anti_entropy_interval = 0;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("jd-" + std::to_string(i));
    ASSERT_TRUE(cluster.write_latest(client, keys.back(), "v").ok());
  }
  cluster.run_for(sim_ms(100));
  const ring::VnodeTable before = cluster.node(0).metadata().table();
  const std::size_t joiner_idx = cluster.data_node_count();

  // Crash the donor of the first claimed vnode while the joiner's
  // snapshot request to it is still on the wire: the pull must fail over
  // to the slice's other replicas, and the claim must still commit.
  ring::VnodeMove first;
  std::size_t donor_idx = SIZE_MAX;
  sim::TimerHandle poll =
      cluster.sim().schedule_periodic(sim_us(10), [&] {
        if (donor_idx != SIZE_MAX ||
            cluster.data_node_count() <= joiner_idx ||
            cluster.node(joiner_idx).migrations_active() == 0) {
          return;
        }
        first = ring::Rebalancer::plan_join(before,
                                            cluster.node(joiner_idx).id())
                    .front();
        for (std::size_t i = 0; i < joiner_idx; ++i) {
          if (cluster.node(i).id() == first.from) donor_idx = i;
        }
        cluster.crash_node(donor_idx);
      });
  ASSERT_TRUE(cluster.join_new_node().ok());
  poll.cancel();
  ASSERT_NE(donor_idx, SIZE_MAX);
  // The donor died before it could serve a single snapshot.
  EXPECT_EQ(cluster.node(donor_idx)
                .metrics()
                .counter("transfer.vnodes_served")
                .value(),
            0u);

  SednaNode& joiner = cluster.node(joiner_idx);
  EXPECT_EQ(joiner.metadata().table().owner(first.vnode), joiner.id());
  EXPECT_EQ(joiner.metrics().counter("join.vnodes_claimed").value(),
            joiner.metrics().counter("join.vnodes_planned").value());
  std::size_t slice_keys = 0;
  for (const auto& key : keys) {
    if (before.vnode_for_key(key) != first.vnode) continue;
    ++slice_keys;
    EXPECT_TRUE(joiner.local_store().read_latest(key).ok()) << key;
  }
  EXPECT_GT(slice_keys, 0u);
}

}  // namespace
}  // namespace sedna::cluster
