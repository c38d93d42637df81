// End-to-end tests of the simulated Sedna deployment: boot, quorum
// reads/writes, write_all value lists, node failure + read-triggered
// recovery, runtime join, client routing, and the node's answer to a
// request it cannot decode.
#include <gtest/gtest.h>

#include <string>

#include "cluster/sedna_cluster.h"

namespace sedna::cluster {
namespace {

SednaClusterConfig small_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 128;
  cfg.cluster.replicas = 3;
  cfg.cluster.read_quorum = 2;
  cfg.cluster.write_quorum = 2;
  return cfg;
}

TEST(ClusterBoot, BootsAndReportsReady) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    EXPECT_TRUE(cluster.node(i).ready());
  }
}

TEST(ClusterBoot, VnodeTableCoversAllVnodesWithDataNodes) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  const auto& table = cluster.node(0).metadata().table();
  ASSERT_EQ(table.total_vnodes(), 128u);
  const auto ids = cluster.data_ids();
  for (std::uint32_t v = 0; v < table.total_vnodes(); ++v) {
    const NodeId owner = table.owner(v);
    EXPECT_NE(owner, kInvalidNode);
    EXPECT_NE(std::find(ids.begin(), ids.end(), owner), ids.end());
  }
}

TEST(ClusterBoot, RejectsReplicasAboveTheReplicaSetCapacity) {
  SednaClusterConfig cfg = small_config();
  cfg.cluster.replicas = ring::ReplicaSet::kCapacity + 1;
  cfg.cluster.read_quorum = cfg.cluster.replicas / 2 + 1;
  cfg.cluster.write_quorum = cfg.cluster.replicas / 2 + 1;
  SednaCluster cluster(cfg);
  EXPECT_TRUE(cluster.boot().is(StatusCode::kInvalidArgument));
}

TEST(ClusterDataPath, WriteThenReadLatest) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(client.ready());

  ASSERT_TRUE(cluster.write_latest(client, "hello", "world").ok());
  auto got = cluster.read_latest(client, "hello");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "world");
}

TEST(ClusterDataPath, ReadMissingKeyIsNotFound) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  auto got = cluster.read_latest(client, "never-written");
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST(ClusterDataPath, OverwriteKeepsFreshest) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "k", "v1").ok());
  ASSERT_TRUE(cluster.write_latest(client, "k", "v2").ok());
  auto got = cluster.read_latest(client, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v2");
}

TEST(ClusterDataPath, WriteAllKeepsPerSourceValues) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& c1 = cluster.make_client();
  auto& c2 = cluster.make_client();

  ASSERT_TRUE(cluster.write_all(c1, "shared", "from-c1").ok());
  ASSERT_TRUE(cluster.write_all(c2, "shared", "from-c2").ok());

  auto got = cluster.read_all(c1, "shared");
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);
  std::vector<std::string> values;
  for (const auto& sv : got.value()) values.push_back(sv.value);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values[0], "from-c1");
  EXPECT_EQ(values[1], "from-c2");
}

TEST(ClusterDataPath, ManyKeysRoundTrip) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    ASSERT_TRUE(cluster.write_latest(client, key, "value-" +
                                     std::to_string(i)).ok());
  }
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    auto got = cluster.read_latest(client, key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got->value, "value-" + std::to_string(i));
  }
}

TEST(ClusterDataPath, DataIsTriplyReplicated) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "replicated", "x").ok());
  cluster.run_for(sim_ms(10));

  std::size_t copies = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).local_store().read_latest("replicated").ok()) {
      ++copies;
    }
  }
  EXPECT_EQ(copies, 3u);
}

TEST(ClusterFailure, ReadsSurviveSingleNodeCrash) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cluster.write_latest(client, "k" + std::to_string(i), "v").ok());
  }
  cluster.crash_node(0);
  // Session expiry + routing may add latency; reads must still succeed
  // from the two surviving replicas.
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    auto got = cluster.read_latest(client, "k" + std::to_string(i));
    if (got.ok() && got->value == "v") ++ok;
  }
  EXPECT_EQ(ok, 50);
}

TEST(ClusterFailure, RecoveryRestoresReplicationFactor) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "precious", "data").ok());
  cluster.run_for(sim_ms(10));

  // Find a node holding the key and crash it.
  std::size_t victim = SIZE_MAX;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).local_store().read_latest("precious").ok()) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, SIZE_MAX);
  cluster.crash_node(victim);

  // Let the ZooKeeper session expire so the ephemeral disappears.
  cluster.run_for(sim_sec(4));

  // Touch the key: read-triggered recovery (Section III.D).
  for (int i = 0; i < 5; ++i) {
    auto got = cluster.read_latest(client, "precious");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, "data");
    cluster.run_for(sim_ms(200));
  }
  // Give the async duplication task time to finish.
  cluster.run_for(sim_sec(2));

  std::size_t copies = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (i == victim) continue;
    if (cluster.node(i).local_store().read_latest("precious").ok()) {
      ++copies;
    }
  }
  EXPECT_GE(copies, 3u);
}

TEST(ClusterMembership, NewNodeJoinsAndTakesLoad) {
  auto cfg = small_config();
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        cluster.write_latest(client, "j" + std::to_string(i), "v").ok());
  }

  auto joined = cluster.join_new_node();
  ASSERT_TRUE(joined.ok()) << joined.status().to_string();
  cluster.run_for(sim_sec(1));

  // The joiner should now own roughly total/(n+1) vnodes.
  const auto& table =
      cluster.node(cluster.data_node_count() - 1).metadata().table();
  const auto counts = table.counts();
  const auto it = counts.find(joined.value());
  ASSERT_NE(it, counts.end());
  EXPECT_GT(it->second, 128u / 14);  // clearly nonzero share
  EXPECT_LE(it->second, 128u / 7 + 8);

  // All data still readable.
  for (int i = 0; i < 100; ++i) {
    auto got = cluster.read_latest(client, "j" + std::to_string(i));
    ASSERT_TRUE(got.ok());
  }
}

/// A peer that sends whatever bytes it is told to and serves nothing.
class RawPeer : public sim::Host {
 public:
  using Host::Host;

 protected:
  void on_message(const sim::Message&) override {}
};

/// Sends a payload that does not decode as Req to `to` as a `type`
/// request; returns the reply's status, or the typed call's own error.
template <typename Req, typename Rep>
std::string answer_to_garbage(SednaCluster& cluster, RawPeer& peer, NodeId to,
                              sim::MessageType type) {
  const std::string garbage(1, '\xff');
  EXPECT_FALSE(Req::decode(garbage).ok());
  std::string answer = "none";
  peer.call<Rep>(to, type, garbage, [&answer](const Result<Rep>& rep) {
    answer = rep.ok() ? to_string(rep->status) : to_string(rep.status().code());
  });
  cluster.run_for(sim_sec(1));
  return answer;
}

TEST(ClusterProtocol, UndecodableRequestOfEveryTypeGetsInvalidArgument) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  RawPeer peer(cluster.network(), 999);
  const NodeId node = cluster.node(0).id();
  EXPECT_EQ((answer_to_garbage<WriteRequest, WriteReply>(
                cluster, peer, node, kMsgClientWrite)),
            "invalid_argument");
  EXPECT_EQ((answer_to_garbage<ReadRequest, ReadReply>(cluster, peer, node,
                                                       kMsgClientRead)),
            "invalid_argument");
  EXPECT_EQ((answer_to_garbage<WriteRequest, WriteReply>(
                cluster, peer, node, kMsgReplicaWrite)),
            "invalid_argument");
  EXPECT_EQ((answer_to_garbage<ReadRequest, ReadReply>(cluster, peer, node,
                                                       kMsgReplicaRead)),
            "invalid_argument");
  EXPECT_EQ((answer_to_garbage<FetchVnodeRequest, FetchVnodeReply>(
                cluster, peer, node, kMsgFetchVnode)),
            "invalid_argument");
  EXPECT_EQ((answer_to_garbage<ScanRequest, ScanReply>(cluster, peer, node,
                                                       kMsgScan)),
            "invalid_argument");
  EXPECT_EQ((answer_to_garbage<HintDeliverRequest, HintAckReply>(
                cluster, peer, node, kMsgHintDeliver)),
            "invalid_argument");
  EXPECT_EQ((answer_to_garbage<VnodeDigestRequest, VnodeDigestReply>(
                cluster, peer, node, kMsgVnodeDigest)),
            "invalid_argument");
  EXPECT_EQ((answer_to_garbage<MigrateVnodeRequest, MigrateVnodeReply>(
                cluster, peer, node, kMsgMigrateVnode)),
            "invalid_argument");
  // A purge is one-way: an undecodable one is dropped, never answered.
  EXPECT_EQ((answer_to_garbage<PurgeVnodeRequest, WriteReply>(
                cluster, peer, node, kMsgPurgeVnode)),
            "timeout");
  // The node still serves.
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "after", "garbage").ok());
  EXPECT_EQ(cluster.read_latest(client, "after")->value, "garbage");
}

TEST(ClusterZk, EnsembleElectsSingleLeader) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  int leaders = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (cluster.zk_member(i).is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

}  // namespace
}  // namespace sedna::cluster
