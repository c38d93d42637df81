// Failure-injection tests beyond the basic crash cases: lossy networks,
// partitions, coordinator failures, the client's attempt driver (retry,
// deadline and retry-budget exits), restarts, stale routing state, and
// double faults leaving the cluster degraded but available.
#include <gtest/gtest.h>

#include <string>

#include "cluster/protocol.h"
#include "cluster/sedna_cluster.h"

namespace sedna::cluster {
namespace {

SednaClusterConfig base_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 128;
  return cfg;
}

TEST(LossyNetwork, OperationsSucceedViaRetries) {
  SednaClusterConfig cfg = base_config();
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  cluster.network().set_loss_prob(0.05);  // 5% of messages vanish
  std::vector<std::string> acked;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "lossy-" + std::to_string(i);
    if (cluster.write_latest(client, key, "v").ok()) acked.push_back(key);
  }
  EXPECT_GE(acked.size(), 95u);  // retries mask almost everything

  cluster.network().set_loss_prob(0.0);
  // Anything acknowledged must be readable.
  for (const std::string& key : acked) {
    auto got = cluster.read_latest(client, key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().to_string();
    EXPECT_EQ(got->value, "v") << key;
  }
}

TEST(Partition, IsolatedReplicaHealsViaReadRepair) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "heal-me", "v1").ok());
  cluster.run_for(sim_ms(10));

  // Find the replica set and partition one member away from the others.
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("heal-me");
  ASSERT_EQ(replicas.size(), 3u);
  for (NodeId other : replicas) {
    if (other != replicas[2]) cluster.network().partition(replicas[2], other);
  }

  // Overwrite while one replica is unreachable; W=2 still succeeds.
  ASSERT_TRUE(cluster.write_latest(client, "heal-me", "v2").ok());
  cluster.run_for(sim_ms(100));

  cluster.network().heal_all();
  // Reads now see a stale third replica; quorum answers v2 and read
  // repair backfills.
  for (int i = 0; i < 3; ++i) {
    auto got = cluster.read_latest(client, "heal-me");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, "v2");
    cluster.run_for(sim_ms(50));
  }
  cluster.run_for(sim_ms(200));
  // Every replica converged to v2.
  std::size_t v2_copies = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    auto got = cluster.node(i).local_store().read_latest("heal-me");
    if (got.ok() && got->value == "v2") ++v2_copies;
  }
  EXPECT_GE(v2_copies, 3u);
}

TEST(CoordinatorCrash, ClientFailsOverToAnotherReplica) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "co", "v").ok());

  // Crash the key's primary (the client's first-choice coordinator).
  const NodeId primary =
      client.metadata().table().replicas_for_key("co")[0];
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).id() == primary) {
      cluster.crash_node(i);
      break;
    }
  }
  // The read retries against the next replica after the timeout.
  auto got = cluster.read_latest(client, "co");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v");
  EXPECT_GT(client.metrics().counter("client.read_retries").value(), 0u);
}

// ---- client attempt driver ----------------------------------------------------

/// Reads and writes share one attempt driver; every case runs for both.
class AttemptDriver : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] bool is_read() const {
    return std::string(GetParam()) == "read";
  }
  /// One op on `key`; reads go through read_latest, writes write_latest.
  Status run_op(SednaCluster& cluster, SednaClient& client,
                const std::string& key) const {
    if (is_read()) return cluster.read_latest(client, key).status();
    return cluster.write_latest(client, key, "v");
  }
  [[nodiscard]] std::uint64_t client_counter(SednaClient& client,
                                             const char* what) const {
    const std::string name =
        std::string("client.") + GetParam() + "_" + what;
    const auto& counters = client.metrics().counters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
  }
};

std::size_t index_of(SednaCluster& cluster, NodeId id) {
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).id() == id) return i;
  }
  ADD_FAILURE() << "no node with id " << id;
  return 0;
}

/// Total client requests the data nodes coordinated (reads or writes).
std::uint64_t coordinated(SednaCluster& cluster, bool reads) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    total += cluster.node(i)
                 .metrics()
                 .counter(reads ? "coordinator.reads" : "coordinator.writes")
                 .value();
  }
  return total;
}

TEST_P(AttemptDriver, DeadFirstCoordinatorCostsOneRetry) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "driver-dead";
  ASSERT_TRUE(cluster.write_latest(client, key, "v").ok());
  const auto replicas = client.metadata().table().replicas_for_key(key);
  cluster.crash_node(index_of(cluster, replicas[0]));

  EXPECT_TRUE(run_op(cluster, client, key).ok());
  EXPECT_EQ(client_counter(client, "retries"), 1u);
  EXPECT_EQ(client_counter(client, "failures"), 0u);
}

TEST_P(AttemptDriver, EveryAttemptFailingReturnsTheLastStatus) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.host.rpc_timeout_us = 20'000;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  // The key exists nowhere and no replica reaches another: each
  // coordinator answers kFailure (a read finds no positive reply, a write
  // gets one ack of W=2), which the driver retries on every replica.
  const std::string key = "driver-split";
  const auto replicas = client.metadata().table().replicas_for_key(key);
  for (std::size_t a = 0; a < replicas.size(); ++a) {
    for (std::size_t b = a + 1; b < replicas.size(); ++b) {
      cluster.network().partition(replicas[a], replicas[b]);
    }
  }

  const Status st = run_op(cluster, client, key);
  EXPECT_EQ(st.code(), StatusCode::kFailure);
  // The coordinator's answer, not the driver's own "attempts exhausted".
  EXPECT_EQ(st.message().find("exhausted"), std::string::npos);
  EXPECT_EQ(client_counter(client, "retries"), 2u);
  EXPECT_EQ(client_counter(client, "failures"), 1u);
}

TEST_P(AttemptDriver, DeadlineLapsedDuringBackoffEndsTheOp) {
  SednaClusterConfig cfg = base_config();
  // Attempt 0 times out at 250 ms; the ~100 ms backoff then outlives the
  // 260 ms op deadline.
  cfg.client_template.op_deadline_us = 260'000;
  cfg.client_template.retry_backoff_initial_us = 100'000;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "driver-deadline";
  ASSERT_TRUE(cluster.write_latest(client, key, "v").ok());
  const auto replicas = client.metadata().table().replicas_for_key(key);
  cluster.crash_node(index_of(cluster, replicas[0]));
  const std::uint64_t before = coordinated(cluster, is_read());

  EXPECT_EQ(run_op(cluster, client, key).code(), StatusCode::kTimeout);
  EXPECT_EQ(client_counter(client, "retries"), 1u);
  EXPECT_EQ(client_counter(client, "failures"), 1u);
  // No attempt went out after the backoff.
  EXPECT_EQ(coordinated(cluster, is_read()), before);
}

TEST_P(AttemptDriver, EmptyRetryBudgetFailsFastWithOverloaded) {
  SednaClusterConfig cfg = base_config();
  cfg.client_template.retry_budget_capacity = 0.5;  // under one token
  cfg.client_template.retry_budget_refill = 0.0;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "driver-budget";
  ASSERT_TRUE(cluster.write_latest(client, key, "v").ok());
  const auto replicas = client.metadata().table().replicas_for_key(key);
  cluster.crash_node(index_of(cluster, replicas[0]));

  EXPECT_EQ(run_op(cluster, client, key).code(), StatusCode::kOverloaded);
  EXPECT_EQ(client_counter(client, "retries"), 0u);
  EXPECT_EQ(client_counter(client, "failures"), 1u);
  EXPECT_EQ(client.metrics().counter("node.shed.retry_budget").value(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Ops, AttemptDriver,
                         ::testing::Values("read", "write"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(Restart, NodeRejoinsAndServesAgain) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "r-" + std::to_string(i),
                                     "v").ok());
  }
  cluster.crash_node(3);
  cluster.run_for(sim_sec(3));  // session expiry
  cluster.restart_node(3);
  EXPECT_TRUE(cluster.node(3).ready());

  // Everything still readable, including through the restarted node.
  for (int i = 0; i < 30; ++i) {
    auto got = cluster.read_latest(client, "r-" + std::to_string(i));
    ASSERT_TRUE(got.ok());
  }
}

TEST(Restart, DaemonsDoNotStackAcrossRestarts) {
  // Every start() arms the node's periodic daemons. A crash must cancel
  // them, or each restart adds another load reporter: the restarted
  // node's load row would then be written once per start it ever ran.
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  for (int round = 0; round < 3; ++round) {
    cluster.crash_node(3);
    cluster.run_for(sim_sec(3));  // session expiry drops the load row
    cluster.restart_node(3);
    ASSERT_TRUE(cluster.node(3).ready());
  }
  cluster.run_for(sim_sec(6));  // the first report recreates the row

  // Load-row writes over one window: every set() bumps the version.
  auto row_version = [&](std::size_t i) {
    const std::string path = std::string(kZkRealNodes) + "/load-" +
                             std::to_string(cluster.node(i).id());
    auto got = cluster.zk_member(0).tree().get(path);
    EXPECT_TRUE(got.ok()) << path;
    return got.ok() ? got->second.version : 0;
  };
  const std::int64_t restarted_before = row_version(3);
  const std::int64_t steady_before = row_version(0);
  cluster.run_for(sim_sec(20));
  const std::int64_t steady = row_version(0) - steady_before;
  EXPECT_EQ(steady, 4);  // one 5 s reporter over 20 s
  EXPECT_EQ(row_version(3) - restarted_before, steady);
}

TEST(Restart, FastRestartOwnsItsLivenessZnode) {
  // A node restarted before its previous ZooKeeper session expires finds
  // that session's ephemeral liveness znode still in place. The ensemble
  // deletes it when the old session times out, so the node must replace
  // it with one its new session owns, or peers take it for dead.
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  cluster.crash_node(3);
  cluster.run_for(sim_ms(100));
  cluster.restart_node(3);
  ASSERT_TRUE(cluster.node(3).ready());
  cluster.run_for(sim_sec(4));  // well past the old session's timeout

  const auto stat = cluster.zk_member(0).tree().exists(
      real_node_znode(cluster.node(3).id()));
  ASSERT_TRUE(stat.ok()) << "liveness znode gone after the old session";
  EXPECT_EQ(stat->ephemeral_owner, cluster.node(3).zk().session_id());
}

TEST(Restart, FastRestartOwnsItsLoadRow) {
  // The load row is ephemeral too. A restart inside the previous
  // session's timeout finds that session's row, and a plain set keeps the
  // old owner: the ensemble then deletes the row when that session times
  // out, and the rebalancer reads the node as idle until it is recreated.
  SednaClusterConfig cfg = base_config();
  cfg.node_template.load_report_interval = sim_ms(300);
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  const std::string row = std::string(kZkRealNodes) + "/load-" +
                          std::to_string(cluster.node(3).id());
  cluster.run_for(sim_ms(400));  // the row exists, owned by the session
  const std::uint64_t first_session = cluster.node(3).zk().session_id();
  ASSERT_TRUE(cluster.zk_member(0).tree().exists(row).ok()) << row;
  cluster.crash_node(3);
  cluster.run_for(sim_ms(100));
  cluster.restart_node(3);
  ASSERT_TRUE(cluster.node(3).ready());
  ASSERT_NE(cluster.node(3).zk().session_id(), first_session);
  cluster.run_for(sim_ms(400));  // the first report since the restart

  auto stat = cluster.zk_member(0).tree().exists(row);
  ASSERT_TRUE(stat.ok()) << row;
  EXPECT_EQ(stat->ephemeral_owner, cluster.node(3).zk().session_id());
  cluster.run_for(sim_sec(4));  // well past the old session's timeout
  stat = cluster.zk_member(0).tree().exists(row);
  ASSERT_TRUE(stat.ok()) << "load row gone after the old session";
  EXPECT_EQ(stat->ephemeral_owner, cluster.node(3).zk().session_id());
}

TEST(DoubleFault, DegradedButMajorityDataSurvives) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "d-" + std::to_string(i),
                                     "v").ok());
  }
  // Two of six data nodes crash: a key's 3 replicas lose at most 2; with
  // R=2 a key whose surviving replica count is 1 cannot assemble a strict
  // quorum, but the freshest-value fallback still answers once all
  // survivors respond.
  cluster.crash_node(0);
  cluster.crash_node(1);
  int readable = 0;
  for (int i = 0; i < 60; ++i) {
    auto got = cluster.read_latest(client, "d-" + std::to_string(i));
    if (got.ok() && got->value == "v") ++readable;
  }
  EXPECT_EQ(readable, 60);
}

TEST(StaleRouting, ClientWithOldTableStillReaches) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "stale", "v").ok());

  // Membership changes behind the client's back.
  auto joined = cluster.join_new_node();
  ASSERT_TRUE(joined.ok());
  // Do NOT run the lease sync forward; issue the read immediately with
  // whatever the client cached. Coordinators consult their own (fresh)
  // tables, so the op still succeeds.
  auto got = cluster.read_latest(client, "stale");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v");
}

TEST(ZkOutage, DataPathKeepsWorkingOnCachedMetadata) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "zk-down", "v").ok());

  // Crash a ZooKeeper *follower*: the ensemble retains quorum and Sedna
  // nodes keep their cached tables; the data path is unaffected.
  cluster.zk_member(2).crash();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "during-" + std::to_string(i),
                                     "v").ok());
  }
  auto got = cluster.read_latest(client, "zk-down");
  ASSERT_TRUE(got.ok());
}

TEST(Journal, RecoveryPropagatesToOtherNodesViaChangeJournal) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "propagate", "v").ok());

  // Crash the primary, trigger recovery via a read, then verify *other*
  // nodes learn the reassignment through the change journal within a few
  // lease periods.
  const NodeId primary =
      cluster.node(0).metadata().table().replicas_for_key("propagate")[0];
  std::size_t victim = SIZE_MAX;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).id() == primary) victim = i;
  }
  ASSERT_NE(victim, SIZE_MAX);
  cluster.crash_node(victim);
  cluster.run_for(sim_sec(4));  // session expiry
  (void)cluster.read_latest(client, "propagate");  // triggers recovery
  cluster.run_for(sim_sec(20));  // journal sync at the adaptive lease pace

  const VnodeId vnode =
      cluster.node(0).metadata().table().vnode_for_key("propagate");
  std::size_t synced = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (i == victim) continue;
    if (cluster.node(i).metadata().table().owner(vnode) != primary) {
      ++synced;
    }
  }
  EXPECT_GE(synced, cluster.data_node_count() - 2);
}

}  // namespace
}  // namespace sedna::cluster
