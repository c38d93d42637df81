// Property tests of the replication protocol (Section III.C): for every
// valid (N, R, W) configuration, read-your-writes must hold — including
// under a single replica crash — because R + W > N guarantees read/write
// quorum intersection.
#include <gtest/gtest.h>

#include "cluster/sedna_cluster.h"

namespace sedna::cluster {
namespace {

struct QuorumParam {
  std::uint32_t n, r, w;
  std::uint32_t data_nodes;
};

class QuorumSweep : public ::testing::TestWithParam<QuorumParam> {
 protected:
  static SednaClusterConfig config_for(const QuorumParam& p) {
    SednaClusterConfig cfg;
    cfg.zk_members = 3;
    cfg.data_nodes = p.data_nodes;
    cfg.cluster.total_vnodes = 128;
    cfg.cluster.replicas = p.n;
    cfg.cluster.read_quorum = p.r;
    cfg.cluster.write_quorum = p.w;
    return cfg;
  }
};

TEST_P(QuorumSweep, ConstraintsHold) {
  const auto p = GetParam();
  const auto cfg = config_for(p);
  // Every swept configuration satisfies the paper's two constraints.
  EXPECT_TRUE(cfg.cluster.quorum_valid());
  EXPECT_GT(p.r + p.w, p.n);
  EXPECT_GT(2 * p.w, p.n);
}

TEST_P(QuorumSweep, ReadYourWrites) {
  SednaCluster cluster(config_for(GetParam()));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 60; ++i) {
    const std::string key = "ryw-" + std::to_string(i);
    ASSERT_TRUE(cluster.write_latest(client, key, "v" +
                                     std::to_string(i)).ok());
    auto got = cluster.read_latest(client, key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got->value, "v" + std::to_string(i));
  }
}

TEST_P(QuorumSweep, ReplicationFactorMatchesN) {
  const auto p = GetParam();
  SednaCluster cluster(config_for(p));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "counted", "x").ok());
  cluster.run_for(sim_ms(20));
  std::uint32_t copies = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).local_store().read_latest("counted").ok()) ++copies;
  }
  EXPECT_EQ(copies, std::min<std::uint32_t>(p.n, p.data_nodes));
}

TEST_P(QuorumSweep, SurvivesMinorityReplicaCrash) {
  const auto p = GetParam();
  if (p.n >= p.data_nodes) GTEST_SKIP() << "no spare capacity";
  if (p.n == 1) GTEST_SKIP() << "N=1 has no crash tolerance to verify";
  SednaCluster cluster(config_for(p));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "c-" + std::to_string(i),
                                     "v").ok());
  }
  // Crash one node. Reads always survive: R of the N replicas still
  // answer (strict quorum), or the freshest-value fallback settles once
  // the survivors have all replied.
  cluster.crash_node(1);
  int read_ok = 0;
  for (int i = 0; i < 40; ++i) {
    auto got = cluster.read_latest(client, "c-" + std::to_string(i));
    if (got.ok() && got->value == "v") ++read_ok;
  }
  EXPECT_EQ(read_ok, 40);

  if (p.w < p.n) {
    // W < N: one dead replica cannot block the write quorum.
    int write_ok = 0;
    for (int i = 0; i < 20; ++i) {
      if (cluster.write_latest(client, "post-crash-" + std::to_string(i),
                               "v").ok()) {
        ++write_ok;
      }
    }
    EXPECT_EQ(write_ok, 20);
  } else {
    // W == N (write-all): keys whose replica set includes the dead node
    // CANNOT reach the quorum until recovery reassigns the vnode —
    // exactly the availability price of that configuration. After the
    // session expires and read-triggered recovery runs, writes go green.
    cluster.run_for(sim_sec(4));  // session expiry
    for (int i = 0; i < 40; ++i) {
      (void)cluster.read_latest(client, "c-" + std::to_string(i));
    }
    cluster.run_for(sim_sec(3));  // recovery + journal propagation
    int write_ok = 0;
    for (int i = 0; i < 20; ++i) {
      const std::string key = "post-crash-" + std::to_string(i);
      if (cluster.write_latest(client, key, "v").ok()) {
        ++write_ok;
        continue;
      }
      // 'failure' means "Sedna will start a recovery task asynchronously"
      // (Section III.F) — the write-triggered recovery fixes this very
      // vnode; a retry moments later must succeed.
      cluster.run_for(sim_sec(1));
      if (cluster.write_latest(client, key, "v").ok()) ++write_ok;
    }
    EXPECT_EQ(write_ok, 20);  // full availability after recovery
  }
}

TEST_P(QuorumSweep, ConcurrentWritersConvergeToOneWinner) {
  SednaCluster cluster(config_for(GetParam()));
  ASSERT_TRUE(cluster.boot().ok());
  auto& c1 = cluster.make_client();
  auto& c2 = cluster.make_client();

  // Interleave unsynchronized writes to one key from two clients.
  int done = 0;
  for (int round = 0; round < 10; ++round) {
    c1.write_latest("contended", "from-c1-" + std::to_string(round),
                    [&](const Status&) { ++done; });
    c2.write_latest("contended", "from-c2-" + std::to_string(round),
                    [&](const Status&) { ++done; });
  }
  cluster.run_until([&] { return done == 20; });
  cluster.run_for(sim_ms(100));

  // All replicas agree on a single winner (eventual consistency via LWW
  // timestamps + read repair is not even needed: writes replicate to all).
  std::optional<std::string> winner;
  std::optional<Timestamp> winner_ts;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    auto got = cluster.node(i).local_store().read_latest("contended");
    if (!got.ok()) continue;
    if (!winner.has_value()) {
      winner = got->value;
      winner_ts = got->ts;
    } else {
      EXPECT_EQ(got->value, *winner);
      EXPECT_EQ(got->ts, *winner_ts);
    }
  }
  ASSERT_TRUE(winner.has_value());
  // And a quorum read returns that winner.
  auto read = cluster.read_latest(c1, "contended");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value, *winner);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QuorumSweep,
    ::testing::Values(QuorumParam{3, 2, 2, 6},   // the paper's default
                      QuorumParam{3, 1, 3, 6},   // read-one write-all
                      QuorumParam{3, 3, 2, 6},   // read-all
                      QuorumParam{1, 1, 1, 4},   // no replication
                      QuorumParam{5, 3, 3, 8},   // wider quorum
                      QuorumParam{5, 2, 4, 8}),
    [](const ::testing::TestParamInfo<QuorumParam>& info) {
      return "n" + std::to_string(info.param.n) + "r" +
             std::to_string(info.param.r) + "w" +
             std::to_string(info.param.w) + "_nodes" +
             std::to_string(info.param.data_nodes);
    });

TEST(QuorumConfig, InvalidCombinationsRejected) {
  ClusterConfig cfg;
  cfg.replicas = 3;
  cfg.read_quorum = 1;
  cfg.write_quorum = 2;  // R + W = N, not > N
  EXPECT_FALSE(cfg.quorum_valid());
  cfg.read_quorum = 3;
  cfg.write_quorum = 1;  // W <= N/2
  EXPECT_FALSE(cfg.quorum_valid());
  cfg.read_quorum = 4;
  cfg.write_quorum = 3;  // R > N
  EXPECT_FALSE(cfg.quorum_valid());
  cfg.read_quorum = 2;
  cfg.write_quorum = 2;
  EXPECT_TRUE(cfg.quorum_valid());
}

TEST(QuorumConfig, ReplicasAboveTheReplicaSetCapacityRejected) {
  ClusterConfig cfg;
  cfg.replicas = ring::ReplicaSet::kCapacity;
  cfg.read_quorum = cfg.replicas / 2 + 1;
  cfg.write_quorum = cfg.replicas / 2 + 1;
  EXPECT_TRUE(cfg.quorum_valid());
  cfg.replicas = ring::ReplicaSet::kCapacity + 1;
  cfg.read_quorum = cfg.replicas / 2 + 1;
  cfg.write_quorum = cfg.replicas / 2 + 1;
  EXPECT_FALSE(cfg.quorum_valid());
}

}  // namespace
}  // namespace sedna::cluster
