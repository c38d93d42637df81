// Tests for the production-hardening extensions: vnode purge after
// handoff, join transfer fail-over, and batch client APIs.
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

TEST(BatchApi, WriteBatchAllSucceedAndAreReadable) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; ++i) {
    entries.emplace_back("batch-" + std::to_string(i),
                         "v" + std::to_string(i));
  }
  std::optional<std::vector<Status>> results;
  client.write_latest_batch(entries,
                            [&](const std::vector<Status>& r) { results = r; });
  cluster.run_until([&] { return results.has_value(); });
  ASSERT_TRUE(results.has_value());
  ASSERT_EQ(results->size(), 100u);
  for (const auto& st : *results) EXPECT_TRUE(st.ok());

  std::vector<std::string> keys;
  for (const auto& [k, v] : entries) keys.push_back(k);
  std::optional<std::vector<Result<store::VersionedValue>>> reads;
  client.read_latest_batch(
      keys, [&](const std::vector<Result<store::VersionedValue>>& r) {
        reads = r;
      });
  cluster.run_until([&] { return reads.has_value(); });
  ASSERT_TRUE(reads.has_value());
  for (std::size_t i = 0; i < reads->size(); ++i) {
    ASSERT_TRUE((*reads)[i].ok()) << i;
    EXPECT_EQ((*reads)[i]->value, "v" + std::to_string(i));
  }
}

TEST(BatchApi, BatchIsFasterThanClosedLoop) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  // Closed loop: 50 writes, one at a time.
  const SimTime loop_start = cluster.sim().now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "loop-" + std::to_string(i),
                                     "v").ok());
  }
  const SimDuration loop_cost = cluster.sim().now() - loop_start;

  // Batch: 50 writes pipelined.
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 50; ++i) {
    entries.emplace_back("pipe-" + std::to_string(i), "v");
  }
  std::optional<std::vector<Status>> results;
  const SimTime batch_start = cluster.sim().now();
  client.write_latest_batch(entries,
                            [&](const std::vector<Status>& r) { results = r; });
  cluster.run_until([&] { return results.has_value(); });
  const SimDuration batch_cost = cluster.sim().now() - batch_start;

  EXPECT_LT(batch_cost * 3, loop_cost);  // at least 3x faster pipelined
}

TEST(BatchApi, EmptyBatchCompletesImmediately) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  bool write_done = false, read_done = false;
  client.write_latest_batch({}, [&](const std::vector<Status>& r) {
    EXPECT_TRUE(r.empty());
    write_done = true;
  });
  client.read_latest_batch({}, [&](const auto& r) {
    EXPECT_TRUE(r.empty());
    read_done = true;
  });
  EXPECT_TRUE(write_done);
  EXPECT_TRUE(read_done);
}

TEST(BatchApi, MixedOutcomesReportedPerKey) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "exists", "v").ok());

  std::optional<std::vector<Result<store::VersionedValue>>> reads;
  client.read_latest_batch(
      {"exists", "missing-1", "missing-2"},
      [&](const std::vector<Result<store::VersionedValue>>& r) {
        reads = r;
      });
  cluster.run_until([&] { return reads.has_value(); });
  ASSERT_TRUE(reads.has_value());
  EXPECT_TRUE((*reads)[0].ok());
  EXPECT_FALSE((*reads)[1].ok());
  EXPECT_FALSE((*reads)[2].ok());
}

}  // namespace
}  // namespace sedna::cluster
