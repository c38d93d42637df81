// Overload-safety tests: bounded priority-classed ingress queues,
// deadline propagation and expiry shedding, client retry budgets,
// degraded (stale) reads and the outcome of every read-settle branch, a
// deadline that lapses inside the coordinator, and a miniature retry-storm metastability
// experiment proving the defenses change the outcome, not just the
// numbers.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "cluster/sedna_cluster.h"
#include "sim/host.h"
#include "workload/open_loop.h"

namespace sedna::cluster {
namespace {

// ---- host-level admission / deadline mechanics ------------------------------

/// Records what got serviced and what got shed; priority class == the
/// message type (so tests pick the class directly).
class ToyHost : public sim::Host {
 public:
  ToyHost(sim::Network& net, NodeId id, sim::HostConfig cfg)
      : Host(net, id, cfg) {}

  std::vector<sim::MessageType> serviced;
  std::vector<sim::MessageType> shed_types;
  std::vector<sim::ShedReason> shed_reasons;

 protected:
  void on_message(const sim::Message& msg) override {
    serviced.push_back(msg.type);
  }
  [[nodiscard]] sim::MessageTraits message_traits(
      sim::MessageType type) const override {
    return {nullptr, TraceStage::kNet, type};
  }
  void on_shed(const sim::Message& msg, sim::ShedReason reason) override {
    shed_types.push_back(msg.type);
    shed_reasons.push_back(reason);
  }
};

sim::Message make_msg(sim::MessageType type, SimTime deadline = 0) {
  sim::Message msg{/*from=*/1, /*to=*/2, type, /*rpc_id=*/0,
                   /*is_response=*/false, "payload"};
  msg.deadline = deadline;
  return msg;
}

TEST(IngressQueue, AdmissionCapsShedBackgroundClassesFirst) {
  sim::Simulation simulation(7);
  sim::Network net(simulation, {});
  sim::HostConfig cfg;
  cfg.base_service_us = 100;
  cfg.service_jitter_frac = 0.0;
  cfg.max_ingress_queue = 4;  // class caps: 4, 3, 2, 1
  ToyHost host(net, 2, cfg);

  // First message goes straight into service (queue empty again).
  host.deliver(make_msg(0));
  // Class 3 (migration-like): cap 1 — one slot, then shed.
  host.deliver(make_msg(3));
  host.deliver(make_msg(3));
  EXPECT_EQ(host.shed_queue_full(), 1u);
  // Class 2: cap 2 — fits at depth 1, shed at depth 2.
  host.deliver(make_msg(2));
  host.deliver(make_msg(2));
  EXPECT_EQ(host.shed_queue_full(), 2u);
  // Class 0 (client reads) still has room up to the full cap of 4.
  host.deliver(make_msg(0));
  host.deliver(make_msg(0));
  EXPECT_EQ(host.queue_depth(), 4u);
  host.deliver(make_msg(0));  // over the full cap: even reads shed now
  EXPECT_EQ(host.shed_queue_full(), 3u);

  simulation.run_for(sim_ms(10));
  // Everything admitted was serviced, highest class first after the one
  // already on the CPU.
  const std::vector<sim::MessageType> want = {0, 0, 0, 2, 3};
  EXPECT_EQ(host.serviced, want);
  EXPECT_EQ(host.shed_types, (std::vector<sim::MessageType>{3, 2, 0}));
  for (sim::ShedReason r : host.shed_reasons) {
    EXPECT_EQ(r, sim::ShedReason::kQueueFull);
  }
}

TEST(IngressQueue, ExpiredDeadlineShedAtDequeueWithoutService) {
  sim::Simulation simulation(7);
  sim::Network net(simulation, {});
  sim::HostConfig cfg;
  cfg.base_service_us = 100;
  cfg.service_jitter_frac = 0.0;
  ToyHost host(net, 2, cfg);

  // A occupies the CPU until t=100; B's deadline (t=50) expires while it
  // waits behind A, so it is shed at dequeue and costs no CPU. C (no
  // deadline) and D (future deadline) run normally.
  host.deliver(make_msg(0));               // A
  host.deliver(make_msg(1, /*deadline=*/50));   // B: dead on dequeue
  host.deliver(make_msg(2));               // C
  host.deliver(make_msg(3, sim_sec(1)));   // D: plenty of time
  simulation.run_for(sim_ms(10));

  EXPECT_EQ(host.serviced, (std::vector<sim::MessageType>{0, 2, 3}));
  EXPECT_EQ(host.shed_deadline(), 1u);
  EXPECT_EQ(host.shed_types, (std::vector<sim::MessageType>{1}));
  EXPECT_EQ(host.shed_reasons[0], sim::ShedReason::kDeadlineExceeded);
}

TEST(IngressQueue, ExpiredOnArrivalNeverServicedEvenWhenIdle) {
  sim::Simulation simulation(7);
  sim::Network net(simulation, {});
  ToyHost host(net, 2, {});

  simulation.run_for(100);  // advance the clock past the deadline
  host.deliver(make_msg(0, /*deadline=*/50));
  simulation.run_for(sim_ms(1));

  EXPECT_TRUE(host.serviced.empty());
  EXPECT_EQ(host.shed_deadline(), 1u);
}

TEST(IngressQueue, ResponsesAreNeverShed) {
  sim::Simulation simulation(7);
  sim::Network net(simulation, {});
  sim::HostConfig cfg;
  cfg.max_ingress_queue = 1;
  ToyHost host(net, 2, cfg);

  host.deliver(make_msg(0));  // on the CPU (leaves the queue immediately)
  host.deliver(make_msg(0));  // fills the queue (cap 1)
  host.deliver(make_msg(0));  // over the cap: shed
  EXPECT_EQ(host.shed_queue_full(), 1u);
  sim::Message resp{/*from=*/1, /*to=*/2, /*type=*/9, /*rpc_id=*/77,
                    /*is_response=*/true, ""};
  host.deliver(resp);  // responses bypass admission control
  EXPECT_EQ(host.shed_queue_full(), 1u);  // still only the request shed
  EXPECT_EQ(host.queue_depth(), 2u);      // request + response queued
}

// ---- cluster-level behavior -------------------------------------------------

SednaClusterConfig small_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 128;
  return cfg;
}

/// Index of the data node owning `id` (ids are assigned 100, 101, ...).
std::size_t node_index(SednaCluster& cluster, NodeId id) {
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).id() == id) return i;
  }
  ADD_FAILURE() << "no node with id " << id;
  return 0;
}

TEST(RetryBudget, ExhaustedBudgetFailsFastWithOverloaded) {
  SednaClusterConfig cfg = small_config();
  cfg.client_template.retry_budget_capacity = 2.0;
  cfg.client_template.retry_budget_refill = 0.0;  // no refill: finite fuse
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "budgeted", "v").ok());
  cluster.run_for(sim_ms(50));

  // Crash the key's primary: every read now needs exactly one retry.
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("budgeted");
  ASSERT_EQ(replicas.size(), 3u);
  cluster.crash_node(node_index(cluster, replicas[0]));

  // Two tokens → two reads ride out the dead primary...
  EXPECT_TRUE(cluster.read_latest(client, "budgeted").ok());
  EXPECT_TRUE(cluster.read_latest(client, "budgeted").ok());
  // ...the third wants a retry with an empty bucket and fails fast.
  const auto third = cluster.read_latest(client, "budgeted");
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kOverloaded);
  const auto& counters = client.metrics().counters();
  const auto it = counters.find("node.shed.retry_budget");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second.value(), 1u);
}

TEST(RetryBudget, SuccessesRefillTheBucket) {
  SednaClusterConfig cfg = small_config();
  cfg.client_template.retry_budget_capacity = 1.0;
  cfg.client_template.retry_budget_refill = 0.5;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "refilled", "v").ok());
  cluster.run_for(sim_ms(50));
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("refilled");
  cluster.crash_node(node_index(cluster, replicas[0]));

  // Burn the single token.
  EXPECT_TRUE(cluster.read_latest(client, "refilled").ok());
  // Two successes elsewhere refill 2 × 0.5 = 1 token.
  ASSERT_TRUE(cluster.write_latest(client, "other-a", "v").ok());
  ASSERT_TRUE(cluster.write_latest(client, "other-b", "v").ok());
  // The refilled token funds one more retry through the dead primary.
  EXPECT_TRUE(cluster.read_latest(client, "refilled").ok());
}

TEST(DegradedReads, MinorityCoordinatorServesStaleTaggedRead) {
  SednaClusterConfig cfg = small_config();
  cfg.node_template.degraded_reads = true;
  cfg.node_template.host.rpc_timeout_us = 20'000;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "stale-ok", "v1").ok());
  cluster.run_for(sim_ms(50));

  // Strand the primary away from both other replicas: below read quorum,
  // but it still holds a copy.
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("stale-ok");
  ASSERT_EQ(replicas.size(), 3u);
  cluster.network().partition(replicas[0], replicas[1]);
  cluster.network().partition(replicas[0], replicas[2]);

  const auto got = cluster.read_latest(client, "stale-ok");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v1");
  const auto& counters = client.metrics().counters();
  const auto it = counters.find("client.stale_reads");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second.value(), 1u);
}

TEST(DegradedReads, BelowQuorumFallbackIsTaggedStaleEvenWhenDisabled) {
  // degraded_reads only gates the *early* settle; the long-standing
  // all-responded fallback (serve the freshest reply when a quorum is
  // impossible) must now label its answers honestly either way.
  SednaClusterConfig cfg = small_config();  // degraded_reads defaults off
  cfg.node_template.host.rpc_timeout_us = 20'000;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  ASSERT_TRUE(cluster.write_latest(client, "strict", "v1").ok());
  cluster.run_for(sim_ms(50));
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key("strict");
  // Cut every inter-replica link: no coordinator can reach a quorum.
  for (std::size_t a = 0; a < replicas.size(); ++a) {
    for (std::size_t b = a + 1; b < replicas.size(); ++b) {
      cluster.network().partition(replicas[a], replicas[b]);
    }
  }
  const auto got = cluster.read_latest(client, "strict");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v1");
  const auto& counters = client.metrics().counters();
  const auto it = counters.find("client.stale_reads");
  ASSERT_NE(it, counters.end());
  EXPECT_GE(it->second.value(), 1u);
}

// ---- read settle outcomes ---------------------------------------------------

/// One read-settle shape over a key's three replicas (replicas[0]
/// coordinates): the version each replica holds before the read, and what
/// the read must serve, tag and repair.
struct SettleCase {
  const char* name;
  bool causal;
  bool degraded_on;  // node config degraded_reads
  std::uint32_t read_quorum;  // N = 3, W = N - R + 1
  std::array<int, 3> held;    // version held per replica (1 or 2)
  bool cut_last;  // partition replicas[0] from replicas[2]
  bool stale;     // served with the stale tag
  std::uint64_t read_repairs;
  std::uint64_t degraded_reads;
  std::size_t lagging;  // the replica holding version 1
  int lagging_after;    // the version it holds once the read settled
};

/// Prints a case as its name. gtest's default byte dump would print the
/// `name` pointer and padding, which differ from run to run under address
/// randomization, and the dump is part of each listed test name.
void PrintTo(const SettleCase& c, std::ostream* os) { *os << c.name; }

class ReadSettle : public ::testing::TestWithParam<SettleCase> {};

TEST_P(ReadSettle, PinsServedValueTagAndRepairs) {
  const SettleCase& c = GetParam();
  SednaClusterConfig cfg = small_config();
  cfg.cluster.read_quorum = c.read_quorum;
  cfg.cluster.write_quorum = 3 - c.read_quorum + 1;
  cfg.node_template.degraded_reads = c.degraded_on;
  cfg.node_template.host.rpc_timeout_us = 20'000;
  // No latency jitter: replica replies reach the coordinator in replica
  // order, so in quorum_agree the lagging replicas[1] answers before the
  // settle and is repaired by it, not as a late arrival.
  cfg.network.jitter_frac = 0.0;
  cfg.node_template.host.service_jitter_frac = 0.0;
  cfg.node_template.audit.enabled = true;
  cfg.node_template.audit.probe_sample_every = 0;
  // Only the read under test may repair the lagging replica.
  cfg.node_template.anti_entropy_interval = 0;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "settle";
  const auto replicas = client.metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);
  std::array<store::LocalStore*, 3> stores{};
  for (std::size_t i = 0; i < 3; ++i) {
    stores[i] = &cluster.node(node_index(cluster, replicas[i])).local_store();
  }
  // Version 2 supersedes version 1: a newer timestamp for LWW, a dot minted
  // from version 1's context for causal reads.
  const Timestamp ts1 = make_timestamp(cluster.sim().now(), 1);
  const Timestamp ts2 = make_timestamp(cluster.sim().now(), 2);
  store::CausalRecord v1_record;
  store::CausalRecord v2_record;
  if (c.causal) {
    ASSERT_EQ(c.held[0], 2);  // the coordinator mints both versions
    v1_record = stores[0]->write_causal(key, {}, "v1", ts1, 0, replicas[0])
                    .value();
    v2_record = stores[0]
                    ->write_causal(key, v1_record.clock, "v2", ts2, 0,
                                   replicas[0])
                    .value();
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const bool newest = c.held[i] == 2;
    if (c.causal) {
      ASSERT_TRUE(
          stores[i]->merge_causal(key, newest ? v2_record : v1_record).ok());
    } else {
      ASSERT_TRUE(stores[i]
                      ->write_latest(key, newest ? "v2" : "v1",
                                     newest ? ts2 : ts1)
                      .ok());
    }
  }
  if (c.cut_last) cluster.network().partition(replicas[0], replicas[2]);

  std::string served;
  bool served_stale = false;
  if (c.causal) {
    std::optional<Result<SednaClient::CausalRead>> got;
    client.get_causal(key, [&](const Result<SednaClient::CausalRead>& r) {
      got = r;
    });
    cluster.run_until([&] { return got.has_value(); });
    ASSERT_TRUE(got.has_value() && got->ok());
    ASSERT_EQ((*got)->siblings.size(), 1u);
    served = (*got)->siblings[0].value;
    served_stale = (*got)->stale;
  } else {
    const auto got = cluster.read_latest(client, key);
    ASSERT_TRUE(got.ok());
    served = got->value;
  }
  // Let repairs and late replies land.
  cluster.run_for(sim_ms(100));

  EXPECT_EQ(served, "v2");
  const auto& cm = client.metrics();
  EXPECT_EQ(cm.counter_value("client.stale_reads"), c.stale ? 1u : 0u);
  if (c.causal) {
    EXPECT_EQ(served_stale, c.stale);
  }
  if (c.stale) {
    // Auditing on: the stale answer carries a non-zero staleness bound.
    const auto it = cm.histograms().find("client.staleness_bound_us");
    ASSERT_NE(it, cm.histograms().end());
    EXPECT_EQ(it->second.count(), 1u);
    EXPECT_GT(it->second.min(), 0u);
    EXPECT_EQ(cm.counter_value("client.stale_unbounded"), 0u);
  }
  const auto& nm =
      cluster.node(node_index(cluster, replicas[0])).metrics();
  EXPECT_EQ(nm.counter_value("coordinator.read_repairs"), c.read_repairs);
  EXPECT_EQ(nm.counter_value("coordinator.degraded_reads"),
            c.degraded_reads);

  store::LocalStore& lagging = *stores[c.lagging];
  if (c.causal) {
    const auto rec = lagging.read_causal(key);
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(rec.value() == (c.lagging_after == 2 ? v2_record : v1_record));
  } else {
    const auto got = lagging.read_latest(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, "v" + std::to_string(c.lagging_after));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ReadSettle,
    ::testing::Values(
        // R=2 agree on v2 while replicas[1] lags: served unmarked, the
        // straggler repaired.
        SettleCase{"quorum_agree", false, false, 2, {2, 1, 2}, false, false,
                   1, 0, 1, 2},
        // R=3 with replicas[2] cut off: the degraded settle serves v2
        // stale-tagged and repairs nothing, so replicas[1] keeps v1.
        SettleCase{"degraded_settle", false, true, 3, {2, 1, 2}, true, true,
                   0, 1, 1, 1},
        // The same shape with degraded reads off: every replica answered
        // below quorum, so v2 is served stale and replicas[1] repaired.
        SettleCase{"below_quorum", false, false, 3, {2, 1, 2}, true, true, 1,
                   0, 1, 2},
        // R=1: the coordinator's own copy settles the read, so every
        // replica reply is a late arrival; the lagging one is repaired.
        SettleCase{"late_arrival_lww", false, false, 1, {2, 2, 1}, false,
                   false, 1, 0, 2, 2},
        SettleCase{"late_arrival_causal", true, false, 1, {2, 2, 1}, false,
                   false, 1, 0, 2, 2}),
    [](const ::testing::TestParamInfo<SettleCase>& info) {
      return std::string(info.param.name);
    });

// ---- deadline-bounded fan-out -----------------------------------------------

TEST(DeadlineFanout, DeadlineLapsedInServiceIsNotFailureEvidence) {
  // The host sheds a request whose deadline passed while it queued, but a
  // deadline can still lapse during the request's own service time. Its
  // fan-out then has no budget left: the replica timeouts that follow are
  // abandonment, so they must neither queue a hint nor suspect the dead
  // replica.
  SednaClusterConfig cfg = small_config();
  cfg.network.jitter_frac = 0.0;
  cfg.node_template.host.base_service_us = 200;
  cfg.node_template.host.service_jitter_frac = 0.0;
  // The write reaches the coordinator after ~120 us and is handled 200 us
  // later: a 220 us deadline is live at dequeue, gone in the handler.
  cfg.client_template.op_deadline_us = 220;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "expiring";
  const auto replicas = client.metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);
  SednaNode& coordinator = cluster.node(node_index(cluster, replicas[0]));
  cluster.crash_node(node_index(cluster, replicas[1]));
  const auto& metrics = coordinator.metrics();
  const std::uint64_t writes_before =
      metrics.counter_value("coordinator.writes");

  EXPECT_EQ(cluster.write_latest(client, key, "v").code(),
            StatusCode::kTimeout);
  cluster.run_for(sim_ms(200));  // past every replica RPC timeout

  // The coordinator ran the write: its deadline was live at dequeue.
  EXPECT_EQ(metrics.counter_value("coordinator.writes"), writes_before + 1);
  EXPECT_EQ(coordinator.hints_pending(), 0u);
  EXPECT_EQ(metrics.counter_value("coordinator.hints_queued"), 0u);
  EXPECT_EQ(metrics.counter_value("failure.suspicions"), 0u);
}

// ---- retry-storm metastability (miniature) ----------------------------------

/// Mini version of bench/scenario_suite.cc's ablation: a demand pulse
/// over cluster capacity. With the defenses off, 3-attempt retry
/// amplification keeps post-pulse demand above capacity and goodput never
/// recovers; with them on, the pulse is shed and the cluster returns to
/// its pre-pulse goodput.
double late_over_pre_goodput(bool defenses_on) {
  SednaClusterConfig cfg = small_config();
  cfg.data_nodes = 3;
  cfg.cluster.total_vnodes = 64;
  cfg.node_template.host.base_service_us = 400;  // ~1.2k reads/s capacity
  cfg.client_template.host.base_service_us = 8;
  cfg.client_template.op_timeout_us = 30'000;
  if (defenses_on) {
    cfg.node_template.host.max_ingress_queue = 64;
    cfg.node_template.degraded_reads = true;
    cfg.client_template.op_deadline_us = 90'000;
    cfg.client_template.retry_budget_capacity = 10.0;
    cfg.client_template.retry_budget_refill = 0.1;
  }
  SednaCluster cluster(cfg);
  EXPECT_TRUE(cluster.boot().ok());
  std::vector<SednaClient*> clients;
  for (int c = 0; c < 4; ++c) clients.push_back(&cluster.make_client());

  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("meta-" + std::to_string(i));
    EXPECT_TRUE(cluster.write_latest(*clients[0], keys.back(), "v").ok());
  }

  workload::OpenLoopConfig wl;
  wl.curve = {{0, 800}, {sim_sec(1), 3000}, {sim_ms(1800), 800}};
  wl.duration = sim_sec(5);
  wl.window = sim_ms(100);
  workload::OpenLoopDriver driver(
      cluster.sim(), wl,
      [&](std::uint64_t seq, const std::function<void(bool)>& done) {
        const auto& key = keys[cluster.sim().rng().next_below(keys.size())];
        clients[seq % clients.size()]->read_latest(
            key,
            [done](const Result<store::VersionedValue>& r) { done(r.ok()); });
      });
  driver.start();
  cluster.run_for(sim_sec(5) + sim_ms(300));

  const double pre = driver.mean_goodput(5, 10);    // 0.5 s – 1.0 s
  const double late = driver.mean_goodput(40, 50);  // 4.0 s – 5.0 s
  return pre > 0 ? late / pre : 0.0;
}

TEST(Metastability, DefensesOnRecoversAfterPulse) {
  EXPECT_GE(late_over_pre_goodput(true), 0.8);
}

TEST(Metastability, DefensesOffStaysCollapsed) {
  EXPECT_LE(late_over_pre_goodput(false), 0.5);
}

}  // namespace
}  // namespace sedna::cluster
