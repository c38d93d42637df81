// Repair-subsystem tests: LocalStore Merkle digests, hinted handoff,
// anti-entropy convergence with zero reads (also past truncated digest
// replies), hint eviction (oldest first, across targets) and its
// anti-entropy fallback, client retry backoff, and the per-reason network
// drop counters.
//
// The convergence tests deliberately never read the keys under test:
// read repair must not be the mechanism that heals them.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "cluster/admin.h"
#include "cluster/protocol.h"
#include "cluster/sedna_cluster.h"
#include "common/hash.h"
#include "store/local_store.h"

namespace sedna::cluster {
namespace {

constexpr std::uint32_t kVnodes = 32;

SednaClusterConfig base_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = kVnodes;
  // Fast repair cadence so tests converge in a few simulated seconds.
  cfg.node_template.hint_replay_interval = sim_ms(100);
  cfg.node_template.hint_backoff_initial = sim_ms(50);
  cfg.node_template.hint_backoff_max = sim_ms(500);
  cfg.node_template.anti_entropy_interval = sim_ms(500);
  cfg.node_template.anti_entropy_vnodes_per_round = 4;
  return cfg;
}

std::size_t node_index(SednaCluster& cluster, NodeId id) {
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (cluster.node(i).id() == id) return i;
  }
  ADD_FAILURE() << "no data node with id " << id;
  return SIZE_MAX;
}

/// Replicas currently holding `key` with value `want`, by direct store
/// inspection (no network traffic, cannot trigger read repair).
std::size_t replicas_holding(SednaCluster& cluster, const std::string& key,
                             const std::string& want) {
  std::size_t holders = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    if (!cluster.node(i).alive()) continue;
    auto got = cluster.node(i).local_store().read_latest(key);
    if (got.ok() && got->value == want) ++holders;
  }
  return holders;
}

std::uint64_t sum_counter(SednaCluster& cluster, const char* name) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    total += cluster.node(i).metrics().counter(name).value();
  }
  return total;
}

// ---- LocalStore digest tree --------------------------------------------

TEST(Digests, IdenticalContentMatchesRegardlessOfWriteOrder) {
  store::LocalStore a, b;
  a.enable_digests(kVnodes, 8);
  b.enable_digests(kVnodes, 8);

  // Same items, pinned timestamps, opposite insertion order; plus a
  // value list built in different per-source order.
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(a.write_latest(key, "v" + std::to_string(i),
                               1000 + i).ok());
  }
  for (int i = 49; i >= 0; --i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(b.write_latest(key, "v" + std::to_string(i),
                               1000 + i).ok());
  }
  ASSERT_TRUE(a.write_all("list", 1, "one", 10).ok());
  ASSERT_TRUE(a.write_all("list", 2, "two", 20).ok());
  ASSERT_TRUE(b.write_all("list", 2, "two", 20).ok());
  ASSERT_TRUE(b.write_all("list", 1, "one", 10).ok());

  for (VnodeId v = 0; v < kVnodes; ++v) {
    EXPECT_EQ(a.digest_root(v), b.digest_root(v)) << "vnode " << v;
    EXPECT_EQ(a.digest_buckets(v), b.digest_buckets(v)) << "vnode " << v;
  }
}

TEST(Digests, DivergenceIsIsolatedToTheKeysBucket) {
  store::LocalStore a, b;
  a.enable_digests(kVnodes, 8);
  b.enable_digests(kVnodes, 8);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(a.write_latest(key, "v", 1000 + i).ok());
    ASSERT_TRUE(b.write_latest(key, "v", 1000 + i).ok());
  }

  const std::string extra = "only-in-a";
  ASSERT_TRUE(a.write_latest(extra, "x", 9999).ok());
  const VnodeId hot = static_cast<VnodeId>(ring_hash(extra) % kVnodes);
  const std::uint32_t bucket = store::LocalStore::digest_bucket_of(extra, 8);

  for (VnodeId v = 0; v < kVnodes; ++v) {
    if (v == hot) {
      EXPECT_NE(a.digest_root(v), b.digest_root(v));
      const auto ba = a.digest_buckets(v);
      const auto bb = b.digest_buckets(v);
      for (std::uint32_t c = 0; c < 8; ++c) {
        if (c == bucket) {
          EXPECT_NE(ba[c], bb[c]);
        } else {
          EXPECT_EQ(ba[c], bb[c]);
        }
      }
    } else {
      EXPECT_EQ(a.digest_root(v), b.digest_root(v)) << "vnode " << v;
    }
  }
}

TEST(Digests, MutationsAreReversibleAndConvergent) {
  store::LocalStore a;
  a.enable_digests(kVnodes, 8);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.write_latest("k-" + std::to_string(i), "v", 100 + i).ok());
  }
  const std::uint64_t before = a.digest_root(
      static_cast<VnodeId>(ring_hash("scratch") % kVnodes));

  // Insert + delete restores the cell exactly (XOR is its own inverse).
  ASSERT_TRUE(a.write_latest("scratch", "tmp", 500).ok());
  EXPECT_NE(a.digest_root(static_cast<VnodeId>(ring_hash("scratch") %
                                               kVnodes)),
            before);
  ASSERT_TRUE(a.del("scratch").ok());
  EXPECT_EQ(a.digest_root(static_cast<VnodeId>(ring_hash("scratch") %
                                               kVnodes)),
            before);

  // A replica that replays the same pinned-ts write converges to the
  // same digest even though it saw a different history first.
  store::LocalStore b;
  b.enable_digests(kVnodes, 8);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(b.write_latest("k-" + std::to_string(i), "old", 1).ok());
    ASSERT_TRUE(b.write_latest("k-" + std::to_string(i), "v", 100 + i).ok());
  }
  for (VnodeId v = 0; v < kVnodes; ++v) {
    EXPECT_EQ(a.digest_root(v), b.digest_root(v)) << "vnode " << v;
  }
}

TEST(Digests, EnableOnPopulatedStoreMatchesIncrementalMaintenance) {
  store::LocalStore incremental, late;
  incremental.enable_digests(kVnodes, 8);
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k-" + std::to_string(i);
    ASSERT_TRUE(incremental.write_latest(key, "v", 100 + i).ok());
    ASSERT_TRUE(late.write_latest(key, "v", 100 + i).ok());
  }
  late.enable_digests(kVnodes, 8);  // rebuild over existing content
  for (VnodeId v = 0; v < kVnodes; ++v) {
    EXPECT_EQ(incremental.digest_root(v), late.digest_root(v));
  }
}

// ---- Hinted handoff -----------------------------------------------------

TEST(HintedHandoff, TransientCrashHealsWithZeroReads) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.anti_entropy_interval = 0;  // isolate the hint path
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "hinted-key";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);
  const std::size_t victim = node_index(cluster, replicas[1]);
  const std::size_t coord = node_index(cluster, replicas[0]);

  cluster.crash_node(victim);
  // W=2 still succeeds; the coordinator queues a hint for the dead
  // replica once its RPC times out.
  ASSERT_TRUE(cluster.write_latest(client, key, "v1").ok());
  cluster.run_for(sim_ms(200));
  EXPECT_EQ(cluster.node(coord).hints_pending(), 1u);
  EXPECT_GE(cluster.node(coord)
                .metrics()
                .counter("coordinator.hints_queued")
                .value(),
            1u);
  EXPECT_EQ(replicas_holding(cluster, key, "v1"), 2u);

  // Stay down past session expiry so the restart registers a fresh
  // ephemeral znode — the signal the replay daemon waits for.
  cluster.run_for(sim_sec(3));
  cluster.restart_node(victim);
  ASSERT_TRUE(cluster.node(victim).ready());
  cluster.run_for(sim_sec(2));

  // No reads were issued; the hint alone restored RF 3.
  EXPECT_EQ(replicas_holding(cluster, key, "v1"), 3u);
  EXPECT_EQ(cluster.node(coord).hints_pending(), 0u);
  EXPECT_GE(cluster.node(coord)
                .metrics()
                .counter("coordinator.hints_delivered")
                .value(),
            1u);
  EXPECT_GE(cluster.node(victim)
                .metrics()
                .counter("replica.hints_received")
                .value(),
            1u);
}

TEST(HintedHandoff, CoalescesRewritesOfTheSameKey) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.anti_entropy_interval = 0;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "rewrite-me";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  const std::size_t victim = node_index(cluster, replicas[1]);
  const std::size_t coord = node_index(cluster, replicas[0]);

  cluster.crash_node(victim);
  ASSERT_TRUE(cluster.write_latest(client, key, "v1").ok());
  cluster.run_for(sim_ms(100));
  ASSERT_TRUE(cluster.write_latest(client, key, "v2").ok());
  cluster.run_for(sim_ms(100));
  // One slot, upgraded in place to the newest write.
  EXPECT_EQ(cluster.node(coord).hints_pending(), 1u);

  cluster.run_for(sim_sec(3));
  cluster.restart_node(victim);
  cluster.run_for(sim_sec(2));
  auto got = cluster.node(victim).local_store().read_latest(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v2");
}

TEST(HintedHandoff, WriteCoalescedWhileItsHintIsInFlightIsNotLost) {
  // The interleaving: v1 and v2 both miss the partitioned replica, v1's
  // hint is replayed after the heal, and v2's replica write times out
  // (coalescing v2 into the queued entry) while v1's copy is in flight.
  // The ack for v1 must not retire the entry that now holds v2.
  SednaClusterConfig cfg = base_config();
  cfg.node_template.anti_entropy_interval = 0;  // isolate the hint path
  cfg.node_template.hint_replay_interval = sim_ms(1);
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "coalesced-in-flight";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  const std::size_t coord = node_index(cluster, replicas[0]);
  const std::size_t target = node_index(cluster, replicas[1]);
  SednaNode& c = cluster.node(coord);
  auto hints_received = [&] {
    return cluster.node(target)
        .metrics()
        .counter("replica.hints_received")
        .value();
  };

  cluster.network().partition(c.id(), cluster.node(target).id());
  ASSERT_TRUE(cluster.write_latest(client, key, "v1").ok());
  cluster.run_for(sim_ms(5));
  // v2 misses the replica 5 ms after v1 did, so its replica write times
  // out 5 ms after v1's: by then v1's hint is queued and replaying.
  ASSERT_TRUE(cluster.write_latest(client, key, "v2").ok());
  cluster.network().heal(c.id(), cluster.node(target).id());

  // Step until the replica has applied v1's hint (its ack is on the
  // wire), then queue a burst ahead of the ack in the coordinator's
  // ingress queue: the ack is served after v2's write timed out, but
  // before the hint RPC's own timeout.
  const SimTime give_up = cluster.sim().now() + sim_sec(1);
  while (hints_received() == 0 && cluster.sim().now() < give_up) {
    ASSERT_TRUE(cluster.sim().step());
  }
  ASSERT_EQ(hints_received(), 1u);
  ReadRequest probe;
  probe.key = "burst";
  const std::string payload = probe.encode();
  for (int i = 0; i < 2500; ++i) {  // ~20 ms of service at ~8 us each
    c.call(c.id(), kMsgReplicaRead, payload,
           [](const Status&, const std::string&) {});
  }

  cluster.run_for(sim_sec(1));
  // v2 was coalesced after v1's copy left, so it needs a second replay.
  EXPECT_EQ(hints_received(), 2u);
  EXPECT_EQ(c.hints_pending(), 0u);
  auto got = cluster.node(target).local_store().read_latest(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v2");
}

// ---- Merkle anti-entropy ------------------------------------------------

TEST(AntiEntropy, ColdKeyConvergesWithZeroReads) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 0;  // isolate the Merkle path
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "cold-key";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);

  // Partition the third replica away from the other two (its ZooKeeper
  // session stays alive, so no recovery reassignment fires) and write.
  cluster.network().partition(replicas[2], replicas[0]);
  cluster.network().partition(replicas[2], replicas[1]);
  ASSERT_TRUE(cluster.write_latest(client, key, "cold").ok());
  cluster.run_for(sim_ms(200));
  EXPECT_EQ(replicas_holding(cluster, key, "cold"), 2u);

  cluster.network().heal_all();
  // A handful of anti-entropy rounds: each node sweeps its ~16 replica
  // vnodes at 4 per 500 ms round, so one full sweep takes 2 s.
  cluster.run_for(sim_sec(6));

  EXPECT_EQ(replicas_holding(cluster, key, "cold"), 3u);
  EXPECT_GE(sum_counter(cluster, "antientropy.digest_mismatches"), 1u);
  EXPECT_GE(sum_counter(cluster, "antientropy.keys_pushed") +
                sum_counter(cluster, "antientropy.keys_pulled"),
            1u);
}

TEST(AntiEntropy, RepairedKeySurvivesLosingBothOriginalWriters) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const std::string key = "survivor";
  const auto replicas =
      cluster.node(0).metadata().table().replicas_for_key(key);
  ASSERT_EQ(replicas.size(), 3u);
  const std::size_t victim = node_index(cluster, replicas[2]);

  // Write with the third replica down: only two nodes hold the ack'd
  // value.
  cluster.crash_node(victim);
  ASSERT_TRUE(cluster.write_latest(client, key, "precious").ok());
  cluster.run_for(sim_ms(200));
  EXPECT_EQ(replicas_holding(cluster, key, "precious"), 2u);

  // Heal; hint replay (or anti-entropy) restores the third copy.
  cluster.run_for(sim_sec(3));
  cluster.restart_node(victim);
  ASSERT_TRUE(cluster.run_until([&] {
    return replicas_holding(cluster, key, "precious") == 3;
  }));

  // Now lose the two replicas that took the original write. The value
  // survives on the repaired third copy and stays readable.
  cluster.crash_node(node_index(cluster, replicas[0]));
  cluster.crash_node(node_index(cluster, replicas[1]));
  auto got = cluster.read_latest(client, key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "precious");
}

TEST(AntiEntropy, CoversHintsLostToEviction) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 1;  // force eviction under load
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  cluster.crash_node(3);
  std::vector<std::string> keys;
  for (int i = 0; i < 60; ++i) {
    keys.push_back("evict-" + std::to_string(i));
    ASSERT_TRUE(cluster.write_latest(client, keys.back(), "v").ok());
  }
  cluster.run_for(sim_ms(200));
  // The one-hint cap cannot hold every key routed at the dead node.
  EXPECT_GE(sum_counter(cluster, "coordinator.hints_evicted"), 1u);

  cluster.run_for(sim_sec(3));
  cluster.restart_node(3);
  cluster.run_for(sim_sec(8));

  // Merkle repair backfills what the evicted hints lost: every key is
  // back at full replication without a single read.
  ClusterInspector inspector(cluster);
  EXPECT_EQ(inspector.under_replicated(keys, 3), 0u);
}

TEST(HintedHandoff, EvictsTheOldestHintAcrossTargets) {
  SednaClusterConfig cfg = base_config();
  cfg.node_template.hint_max_queued = 2;
  // A restarted node comes back empty and is filled only by hints and
  // anti-entropy, so the test can tell which path brought each key.
  cfg.node_template.restart_hydration = false;
  // Anti-entropy covers every vnode once a round, and rounds are far
  // enough apart that the hint replay below finishes between two.
  cfg.node_template.anti_entropy_interval = sim_sec(10);
  cfg.node_template.anti_entropy_vnodes_per_round = kVnodes;
  // Node 100's first vnodes replicate to 101 and 102, its last ones to
  // 103 and 104: vnodes 0..17 go round-robin, 18..31 in the order 100,
  // 103, 104, 101, 102, 105.
  constexpr std::array<NodeId, 6> kTail = {100, 103, 104, 101, 102, 105};
  for (std::uint32_t v = 0; v < kVnodes; ++v) {
    cfg.initial_owners.push_back(v < 18 ? 100 + v % 6 : kTail[(v - 18) % 6]);
  }
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  // Three keys coordinated by node 100: the oldest's replicas are 103 and
  // 104, the two newer ones' 101 and 102. One of each set is dead, so each
  // write still meets W=2 and leaves one hint, for `first` or `second`.
  // The oldest hint's target has the higher id, so evicting from the
  // lowest-id target's queue would take a newer hint instead.
  const NodeId coord = 100;
  const NodeId first = 103;
  const NodeId second = 101;
  const ring::VnodeTable table = cluster.node(0).metadata().table();
  std::vector<std::string> keys;
  std::vector<std::string> newer;
  for (int i = 0; newer.size() < 2 && i < 10000; ++i) {
    std::string key = "evict-" + std::to_string(i);
    const auto set = table.replicas_for_key(key);
    if (keys.empty() && set == ring::ReplicaSet{coord, first, 104}) {
      keys.push_back(std::move(key));
    } else if (set == ring::ReplicaSet{coord, second, 102}) {
      newer.push_back(std::move(key));
    }
  }
  ASSERT_EQ(keys.size(), 1u);
  ASSERT_EQ(newer.size(), 2u);
  keys.insert(keys.end(), newer.begin(), newer.end());
  const std::size_t c = node_index(cluster, coord);
  const std::size_t f = node_index(cluster, first);
  const std::size_t s = node_index(cluster, second);

  // Start right after every node's first anti-entropy round.
  auto rounds_everywhere = [&] {
    for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
      if (cluster.node(i).metrics().counter("antientropy.rounds").value() ==
          0) {
        return false;
      }
    }
    return true;
  };
  while (!rounds_everywhere()) cluster.run_for(sim_ms(1));

  cluster.crash_node(f);
  cluster.crash_node(s);
  for (const auto& key : keys) {
    ASSERT_TRUE(cluster.write_latest(client, key, "v").ok()) << key;
  }
  cluster.run_for(sim_ms(200));
  // The third hint evicted the oldest queued one, which was for another
  // target than the third's: the eviction looks across targets.
  EXPECT_EQ(cluster.node(c).metrics().counter("coordinator.hints_evicted")
                .value(),
            1u);
  EXPECT_EQ(cluster.node(c).hints_pending_for(first), 0u);
  EXPECT_EQ(cluster.node(c).hints_pending_for(second), 2u);

  // Past session expiry, as in TransientCrashHealsWithZeroReads.
  cluster.run_for(sim_sec(3));
  cluster.restart_node(f);
  cluster.restart_node(s);
  cluster.run_for(sim_sec(2));
  auto received = [&](std::size_t i) {
    return cluster.node(i).metrics().counter("replica.hints_received")
        .value();
  };
  // The two newest keys came back as hints; the oldest did not.
  EXPECT_EQ(received(s), 2u);
  EXPECT_EQ(received(f), 0u);
  for (const auto& key : newer) {
    EXPECT_TRUE(cluster.node(s).local_store().read_latest(key).ok()) << key;
  }
  EXPECT_FALSE(cluster.node(f).local_store().read_latest(keys[0]).ok());

  // The next anti-entropy round brings the oldest key back.
  cluster.run_for(sim_sec(10));
  EXPECT_TRUE(cluster.node(f).local_store().read_latest(keys[0]).ok());
  EXPECT_EQ(received(f), 0u);
  ClusterInspector inspector(cluster);
  EXPECT_EQ(inspector.under_replicated(keys, 3), 0u);
}

TEST(AntiEntropy, TruncatedDigestReplyStillConverges) {
  SednaClusterConfig cfg = base_config();
  cfg.cluster.total_vnodes = 4;  // hundreds of keys land in one vnode
  cfg.node_template.hint_max_queued = 0;  // isolate the Merkle path
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const ring::VnodeTable table = cluster.node(0).metadata().table();
  const VnodeId vnode = 0;
  const auto replicas = table.replicas_for_vnode(vnode);
  ASSERT_EQ(replicas.size(), 3u);

  // One replica misses 600 writes to the vnode: more divergent keys than
  // one digest reply may summarize (512), so the reply is truncated and
  // the initiator must not read absence from it as "missing at peer".
  cluster.network().partition(replicas[2], replicas[0]);
  cluster.network().partition(replicas[2], replicas[1]);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 600 && i < 100000; ++i) {
    std::string key = "trunc-" + std::to_string(i);
    if (table.vnode_for_key(key) != vnode) continue;
    ASSERT_TRUE(cluster.write_latest(client, key, "v").ok());
    keys.push_back(std::move(key));
  }
  ASSERT_EQ(keys.size(), 600u);
  cluster.run_for(sim_ms(200));
  ClusterInspector inspector(cluster);
  EXPECT_EQ(inspector.under_replicated(keys, 3), keys.size());

  // Ten anti-entropy rounds: the truncated exchange pulls the summarized
  // keys, later rounds cover the remainder.
  cluster.network().heal_all();
  cluster.run_for(sim_sec(5));
  EXPECT_GE(sum_counter(cluster, "antientropy.truncated_replies"), 1u);
  EXPECT_EQ(inspector.under_replicated(keys, 3), 0u);
}

TEST(AntiEntropy, TruncatedRepliesAdvancePastConvergedKeys) {
  SednaClusterConfig cfg = base_config();
  cfg.cluster.total_vnodes = 4;  // hundreds of keys land in one vnode
  cfg.node_template.hint_max_queued = 0;  // isolate the Merkle path
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  const ring::VnodeTable table = cluster.node(0).metadata().table();
  const VnodeId vnode = 0;
  const auto replicas = table.replicas_for_vnode(vnode);
  ASSERT_EQ(replicas.size(), 3u);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 600 && i < 100000; ++i) {
    std::string key = "stall-" + std::to_string(i);
    if (table.vnode_for_key(key) != vnode) continue;
    ASSERT_TRUE(cluster.write_latest(client, key, "v1").ok());
    keys.push_back(std::move(key));
  }
  ASSERT_EQ(keys.size(), 600u);
  cluster.run_for(sim_ms(200));

  // Every key exists everywhere, but one replica misses the overwrite of
  // all 600: every digest bucket diverges and each reply is truncated.
  // Listing the first 512 keys in store order lists the same keys round
  // after round once those converge; listing whole buckets moves on.
  cluster.network().partition(replicas[2], replicas[0]);
  cluster.network().partition(replicas[2], replicas[1]);
  for (const auto& key : keys) {
    ASSERT_TRUE(cluster.write_latest(client, key, "v2").ok());
  }
  cluster.run_for(sim_ms(200));
  auto stale = [&] {
    std::size_t n = 0;
    for (const auto& key : keys) {
      if (replicas_holding(cluster, key, "v2") != 3) ++n;
    }
    return n;
  };
  EXPECT_EQ(stale(), keys.size());

  // Ten anti-entropy rounds (500 ms each).
  cluster.network().heal_all();
  cluster.run_for(sim_sec(5));
  EXPECT_GE(sum_counter(cluster, "antientropy.truncated_replies"), 1u);
  EXPECT_EQ(stale(), 0u);
}

// ---- Client retry backoff ----------------------------------------------

TEST(ClientBackoff, RetryWaitsAreRecordedAndBounded) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "bo", "v").ok());

  const NodeId primary =
      client.metadata().table().replicas_for_key("bo")[0];
  cluster.crash_node(node_index(cluster, primary));

  auto got = cluster.read_latest(client, "bo");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v");

  const auto& hist = client.metrics().histogram("client.retry_backoff_us");
  ASSERT_GE(hist.count(), 1u);
  EXPECT_GE(hist.min(),
            static_cast<std::uint64_t>(
                static_cast<double>(SednaClient::kRetryBackoffInitialUs) *
                (1.0 - SednaClient::kRetryBackoffJitter)));
  EXPECT_LE(hist.max(),
            static_cast<std::uint64_t>(
                static_cast<double>(SednaClient::kRetryBackoffMaxUs) *
                (1.0 + SednaClient::kRetryBackoffJitter)) +
                1);
}

// ---- Network drop accounting -------------------------------------------

TEST(NetworkMetrics, DropsAreBrokenDownByReason) {
  SednaCluster cluster(base_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  auto& net = cluster.network().metrics();

  // A key replicated on node 0, written while node 0 is down, guarantees
  // at least one replica RPC lands on the crashed node.
  std::string crashed_key;
  for (int i = 0; i < 100 && crashed_key.empty(); ++i) {
    const std::string candidate = "r-" + std::to_string(i);
    const auto replicas =
        cluster.node(0).metadata().table().replicas_for_key(candidate);
    for (NodeId r : replicas) {
      if (r == cluster.node(0).id() && r != replicas[0]) {
        crashed_key = candidate;  // replica but not coordinator
        break;
      }
    }
  }
  ASSERT_FALSE(crashed_key.empty());
  cluster.crash_node(0);
  (void)cluster.write_latest(client, crashed_key, "v");
  cluster.run_for(sim_ms(200));
  EXPECT_GE(net.counter("net.drops.crashed").value(), 1u);

  cluster.run_for(sim_sec(3));  // session expiry before the restart
  cluster.restart_node(0);
  const auto ids = cluster.data_ids();
  cluster.network().partition(ids[1], ids[2]);
  for (int i = 0; i < 20; ++i) {
    (void)cluster.write_latest(client, "p-" + std::to_string(i), "v");
  }
  cluster.network().heal_all();
  EXPECT_GE(net.counter("net.drops.partitioned").value(), 1u);

  cluster.network().set_loss_prob(0.2);
  for (int i = 0; i < 20; ++i) {
    (void)cluster.write_latest(client, "l-" + std::to_string(i), "v");
  }
  cluster.network().set_loss_prob(0.0);
  EXPECT_GE(net.counter("net.drops.loss").value(), 1u);

  // All three reasons surface, labeled, in the cluster metrics dump.
  ClusterInspector inspector(cluster);
  const std::string text = inspector.metrics_text();
  EXPECT_NE(text.find("sedna_net_drops_crashed{node=\"network\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_net_drops_partitioned{node=\"network\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_net_drops_loss{node=\"network\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace sedna::cluster
