// Failure-injection tests beyond the basic crash cases: lossy networks,
// partitions, coordinator failures, the client's attempt driver (retry,
// deadline and retry-budget exits, hedged attempts and their delay),
// restarts, stale routing state, and double faults leaving the cluster
// degraded but available.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

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
  /// Runs enough ops of this kind for the client's recent latency window
  /// to pass the hedge sample floor. Reads of absent keys count too.
  void warm(SednaCluster& cluster, SednaClient& client) const {
    for (std::uint64_t i = 0; i < SednaClient::kHedgeSampleFloor; ++i) {
      (void)run_op(cluster, client, "warm-" + std::to_string(i));
    }
  }
};

std::uint64_t hedges(SednaClient& client) {
  return client.metrics().counter_value("client.hedges");
}
std::uint64_t hedge_wins(SednaClient& client) {
  return client.metrics().counter_value("client.hedge_wins");
}

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

TEST_P(AttemptDriver, WarmClientHedgesPastADeadFirstCoordinator) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "driver-hedge";
  ASSERT_TRUE(cluster.write_latest(client, key, "v").ok());
  warm(cluster, client);
  const auto replicas = client.metadata().table().replicas_for_key(key);
  cluster.crash_node(index_of(cluster, replicas[0]));
  const std::uint64_t retries = client_counter(client, "retries");
  const std::uint64_t sent = hedges(client);
  const std::uint64_t won = hedge_wins(client);

  // Without the hedge this op would wait out the 250 ms attempt timeout.
  const SimTime started = cluster.sim().now();
  EXPECT_TRUE(run_op(cluster, client, key).ok());
  EXPECT_LT(cluster.sim().now() - started, sim_ms(10));
  EXPECT_EQ(client_counter(client, "retries"), retries);
  EXPECT_EQ(hedges(client), sent + 1);
  EXPECT_EQ(hedge_wins(client), won + 1);
}

TEST_P(AttemptDriver, EmptyRetryBudgetSendsNoHedge) {
  SednaClusterConfig cfg = base_config();
  cfg.client_template.retry_budget_capacity = 0.5;  // under one token
  cfg.client_template.retry_budget_refill = 0.0;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const std::string key = "driver-hedge-budget";
  ASSERT_TRUE(cluster.write_latest(client, key, "v").ok());
  warm(cluster, client);
  const auto replicas = client.metadata().table().replicas_for_key(key);
  cluster.crash_node(index_of(cluster, replicas[0]));

  // No token for a hedge, so attempt 0 times out; then no token for the
  // retry either. Only the refused retry counts as a budget shed.
  EXPECT_EQ(run_op(cluster, client, key).code(), StatusCode::kOverloaded);
  EXPECT_EQ(hedges(client), 0u);
  EXPECT_EQ(client_counter(client, "retries"), 0u);
  EXPECT_EQ(client.metrics().counter_value("node.shed.retry_budget"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Ops, AttemptDriver,
                         ::testing::Values("read", "write"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

/// Write-only driver cases: the causal exclusion and a hedged LWW write
/// that both coordinators applied.
class HedgedWrite : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.boot().ok());
    client_ = &cluster_.make_client();
    for (std::uint64_t i = 0; i < SednaClient::kHedgeSampleFloor; ++i) {
      ASSERT_TRUE(
          cluster_.write_latest(*client_, "warm-" + std::to_string(i), "v")
              .ok());
    }
  }
  std::size_t primary_index(const std::string& key) {
    return index_of(cluster_,
                    client_->metadata().table().replicas_for_key(key)[0]);
  }

  SednaCluster cluster_{base_config()};
  SednaClient* client_ = nullptr;
};

TEST_F(HedgedWrite, CausalPutOnADeadPrimaryIsNeverHedged) {
  const std::string key = "causal-dead";
  cluster_.crash_node(primary_index(key));

  std::optional<Status> done;
  client_->put_causal(key, "v", {},
                      [&](const Status& st, const store::VersionVector&) {
                        done = st;
                      });
  ASSERT_TRUE(cluster_.run_until([&] { return done.has_value(); }));
  EXPECT_TRUE(done->ok()) << done->to_string();
  // Attempt 0 waited out its timeout and the retry served the put.
  EXPECT_EQ(hedges(*client_), 0u);
  EXPECT_EQ(client_->metrics().counter_value("client.write_retries"), 1u);
}

TEST_F(HedgedWrite, BothCoordinatorsApplyingLeavesOneVersion) {
  const std::string key = "hedged-twice";
  const auto replicas = client_->metadata().table().replicas_for_key(key);
  SednaNode& primary = cluster_.node(primary_index(key));
  SednaNode& second = cluster_.node(index_of(cluster_, replicas[1]));
  const std::uint64_t primary_writes =
      primary.metrics().counter_value("coordinator.writes");
  const std::uint64_t second_writes =
      second.metrics().counter_value("coordinator.writes");

  std::optional<Status> done;
  client_->write_latest(key, "v2", [&](const Status& st) { done = st; });
  // The primary takes the write and coordinates it; its ack to the client
  // is then lost, so attempt 0 goes unanswered and the hedge re-sends the
  // same write to the next replica.
  ASSERT_TRUE(cluster_.run_until([&] {
    return primary.metrics().counter_value("coordinator.writes") >
           primary_writes;
  }));
  cluster_.network().partition(client_->id(), primary.id());
  ASSERT_TRUE(cluster_.run_until([&] { return done.has_value(); }));
  EXPECT_EQ(done->code(), StatusCode::kOk) << done->to_string();
  EXPECT_EQ(hedges(*client_), 1u);
  EXPECT_EQ(hedge_wins(*client_), 1u);
  EXPECT_EQ(second.metrics().counter_value("coordinator.writes"),
            second_writes + 1);
  cluster_.network().heal_all();
  cluster_.run_for(sim_ms(300));  // attempt 0's timeout passes unheard

  // Every replica holds the one version: same value, same timestamp.
  std::optional<Timestamp> ts;
  for (NodeId id : replicas) {
    const auto got =
        cluster_.node(index_of(cluster_, id)).local_store().read_latest(key);
    ASSERT_TRUE(got.ok()) << "replica " << id;
    EXPECT_EQ(got->value, "v2");
    if (!ts) ts = got->ts;
    EXPECT_EQ(got->ts, *ts) << "replica " << id;
  }
  EXPECT_EQ(client_->metrics().counter_value("client.write_retries"), 0u);
}

// ---- seeded invariant: hedged failover loses no acked write -----------------

/// Warm clients stream concurrent LWW writes and reads, the primary of a
/// hot key range crashes mid-stream, and the cluster settles. Each key has
/// one writer issuing one op at a time, so its acked writes are ordered;
/// values carry the writer's sequence number. After quiesce, every acked
/// key must read back at or past its last acked write.
class HedgedFailover : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HedgedFailover, AckedWritesSurviveAPrimaryCrash) {
  SednaClusterConfig cfg = base_config();
  cfg.seed = GetParam();
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  constexpr int kClients = 3;
  constexpr int kWorkers = 4;  // concurrent ops per client
  constexpr int kKeysPerWorker = 4;
  std::vector<SednaClient*> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(&cluster.make_client());
  std::mt19937_64 rng(GetParam());

  // Half of every worker's keys have the doomed node as their primary.
  const NodeId doomed = cluster.node(1).id();
  auto primary_of = [&](const std::string& key) {
    return clients[0]->metadata().table().replicas_for_key(key)[0];
  };
  std::vector<std::vector<std::string>> keys(kClients * kWorkers);
  int hot = 0, cold = 0;
  for (int i = 0; hot + cold < kClients * kWorkers * kKeysPerWorker; ++i) {
    const std::string key = "inv-" + std::to_string(i);
    const bool is_hot = primary_of(key) == doomed;
    int& n = is_hot ? hot : cold;
    if (n >= kClients * kWorkers * kKeysPerWorker / 2) continue;
    keys[static_cast<std::size_t>(n % (kClients * kWorkers))].push_back(key);
    ++n;
  }

  // Past the sample floor of both op kinds, on unrelated keys.
  for (SednaClient* client : clients) {
    for (std::uint64_t i = 0; i < SednaClient::kHedgeSampleFloor; ++i) {
      const std::string key = "warm-" + std::to_string(i);
      ASSERT_TRUE(cluster.write_latest(*client, key, "v").ok());
      ASSERT_TRUE(cluster.read_latest(*client, key).ok());
    }
  }

  std::map<std::string, std::uint64_t> acked;  // key -> last acked seq
  std::map<std::string, std::uint64_t> issued;
  bool streaming = true;
  int in_flight = 0;
  std::function<void(int)> next_op = [&](int worker) {
    if (!streaming) return;
    SednaClient& client = *clients[static_cast<std::size_t>(worker / kWorkers)];
    const auto& mine = keys[static_cast<std::size_t>(worker)];
    const std::string& key = mine[rng() % mine.size()];
    ++in_flight;
    if (rng() % 2 == 0) {
      client.read_latest(key, [&, worker](const auto&) {
        --in_flight;
        next_op(worker);
      });
      return;
    }
    const std::uint64_t seq = ++issued[key];
    client.write_latest(key, std::to_string(seq),
                        [&, worker, key, seq](const Status& st) {
                          if (st.ok()) acked[key] = seq;
                          --in_flight;
                          next_op(worker);
                        });
  };
  for (int w = 0; w < kClients * kWorkers; ++w) next_op(w);
  cluster.run_for(sim_ms(300));
  cluster.crash_node(1);
  cluster.run_for(sim_ms(2000));
  streaming = false;
  ASSERT_TRUE(cluster.run_until([&] { return in_flight == 0; }));
  cluster.run_for(sim_sec(5));

  std::uint64_t wins = 0;
  for (SednaClient* client : clients) wins += hedge_wins(*client);
  EXPECT_GT(wins, 0u) << "the crash never exercised a hedge";
  ASSERT_FALSE(acked.empty());
  for (const auto& [key, seq] : acked) {
    const auto got = cluster.read_latest(*clients[0], key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().to_string();
    EXPECT_GE(std::stoull(got->value), seq) << key << " read back older";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, HedgedFailover, ::testing::Values(1, 2, 3, 4, 5),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// ---- the hedge delay: recent first-attempt latency ---------------------------

/// What the hedge delay learns from and what it forgets. Node 1 is the
/// coordinator that dies.
class HedgeDelay : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cluster_.boot().ok());
    client_ = &cluster_.make_client();
  }
  [[nodiscard]] NodeId doomed() { return cluster_.node(1).id(); }
  /// `n` keys whose primary is the doomed node, each in its own vnode, so
  /// recovery set off by one key's ops leaves the others' routing alone.
  /// Each is written, since a read of an absent key finds no positive
  /// quorum once a replica is dead.
  std::vector<std::string> doomed_keys(std::size_t n) {
    const auto& table = client_->metadata().table();
    std::vector<std::string> out;
    std::set<VnodeId> vnodes;
    for (int i = 0; out.size() < n; ++i) {
      const std::string key = "doomed-" + std::to_string(i);
      if (table.replicas_for_key(key)[0] == doomed() &&
          vnodes.insert(table.vnode_for_key(key)).second) {
        EXPECT_TRUE(cluster_.write_latest(*client_, key, "v").ok()) << key;
        out.push_back(key);
      }
    }
    return out;
  }
  /// `n` keys none of whose replicas is the doomed node.
  std::vector<std::string> safe_keys(std::size_t n) {
    std::vector<std::string> out;
    for (int i = 0; out.size() < n; ++i) {
      const std::string key = "safe-" + std::to_string(i);
      if (!client_->metadata().table().replicas_for_key(key).contains(
              doomed())) {
        out.push_back(key);
      }
    }
    return out;
  }
  /// Sim time one read (or write) of `key` takes; the op must succeed.
  SimDuration timed_read(const std::string& key) {
    const SimTime started = cluster_.sim().now();
    const auto got = cluster_.read_latest(*client_, key);
    EXPECT_TRUE(got.ok() || got.status().is(StatusCode::kNotFound))
        << key << ": " << got.status().to_string();
    return cluster_.sim().now() - started;
  }
  SimDuration timed_write(const std::string& key) {
    const SimTime started = cluster_.sim().now();
    EXPECT_TRUE(cluster_.write_latest(*client_, key, "v").ok()) << key;
    return cluster_.sim().now() - started;
  }
  std::uint64_t read_retries() {
    return client_->metrics().counter_value("client.read_retries");
  }

  SednaCluster cluster_{base_config()};
  SednaClient* client_ = nullptr;
};

TEST_F(HedgeDelay, ColdReadsThatTimedOutDoNotSetTheDelay) {
  const auto keys = doomed_keys(4);
  cluster_.crash_node(1);
  // The client's first reads meet the dead primary, wait out the attempt
  // timeout and retry.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(timed_read(keys[i]), sim_ms(200));
  }
  EXPECT_EQ(read_retries(), 3u);
  for (const std::string& key : safe_keys(SednaClient::kHedgeSampleFloor)) {
    (void)timed_read(key);
  }

  // The delay is the healthy reads' p99, not the timeouts'.
  EXPECT_LT(timed_read(keys[3]), sim_ms(10));
  EXPECT_EQ(hedge_wins(*client_), 1u);
  EXPECT_EQ(read_retries(), 3u);
}

TEST_F(HedgeDelay, RetriedOpsAddNoSample) {
  const auto keys = doomed_keys(4);
  cluster_.crash_node(1);
  for (std::size_t i = 0; i < 3; ++i) (void)timed_read(keys[i]);
  // Three retried reads and one short of the floor of healthy ones: the
  // window is still cold, so this read waits out its timeout unhedged.
  for (const std::string& key :
       safe_keys(SednaClient::kHedgeSampleFloor - 1)) {
    (void)timed_read(key);
  }
  EXPECT_GT(timed_read(keys[3]), sim_ms(200));
  EXPECT_EQ(hedges(*client_), 0u);
  EXPECT_EQ(read_retries(), 4u);
}

TEST_F(HedgeDelay, HedgeWinsAddNoSample) {
  for (const std::string& key : safe_keys(SednaClient::kHedgeSampleFloor)) {
    (void)timed_read(key);
  }
  const auto keys = doomed_keys(20);
  cluster_.crash_node(1);
  // Every read is a hedge win. Were the wins sampled, they would become the
  // window's p99 and each hedge would wait longer than the last.
  std::vector<SimDuration> took;
  for (const std::string& key : keys) took.push_back(timed_read(key));
  EXPECT_EQ(hedge_wins(*client_), keys.size());
  EXPECT_EQ(read_retries(), 0u);
  const auto [fastest, slowest] = std::minmax_element(took.begin(), took.end());
  EXPECT_LT(*slowest - *fastest, sim_ms(1))
      << "hedged reads took " << *fastest << " to " << *slowest << " us";
}

TEST_F(HedgeDelay, LightTrafficReplacesABurstWithinTwoWindows) {
  // A burst of concurrent writes sets a high p99 ...
  constexpr int kBurst = 400;
  int done = 0;
  for (int i = 0; i < kBurst; ++i) {
    client_->write_latest("burst-" + std::to_string(i), "v",
                          [&](const Status& st) {
                            EXPECT_TRUE(st.ok()) << st.to_string();
                            ++done;
                          });
  }
  ASSERT_TRUE(cluster_.run_until([&] { return done == kBurst; }));
  const double burst_p99 =
      client_->metrics().histogram("client.write_latency_us").quantile(0.99);
  ASSERT_GE(burst_p99, 3000.0);

  // ... then light traffic runs for two window spans.
  Histogram light;
  const SimTime light_until =
      cluster_.sim().now() + 2 * SednaClient::kHedgeWindow + sim_ms(100);
  for (int i = 0; cluster_.sim().now() < light_until; ++i) {
    light.record(timed_write("light-" + std::to_string(i)));
    cluster_.run_for(sim_ms(5));
  }
  ASSERT_LT(light.quantile(0.99) + light.max(), burst_p99);

  // The hedge waits out the light-load p99, not the burst's: one more
  // healthy op after it and the write is done.
  const std::string key = doomed_keys(1)[0];
  cluster_.crash_node(1);
  EXPECT_LT(static_cast<double>(timed_write(key)),
            light.quantile(0.99) + static_cast<double>(light.max()));
  EXPECT_EQ(hedge_wins(*client_), 1u);
}

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
