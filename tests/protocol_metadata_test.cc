// Tests for the Sedna wire protocol codecs and the MetadataCache
// (journal-driven refresh, adaptive-lease integration, bootstrap layout).
#include <gtest/gtest.h>

#include "cluster/metadata.h"
#include "cluster/protocol.h"
#include "cluster/sedna_cluster.h"
#include "wal/wal.h"
#include "zk/protocol.h"

namespace sedna::cluster {
namespace {

// ---- protocol codecs -----------------------------------------------------------

TEST(Protocol, WriteRequestRoundTrip) {
  WriteRequest req;
  req.mode = WriteMode::kAll;
  req.key = "tweets/msgs/42";
  req.value = std::string("binary\0data", 11);
  req.ts = 0xdeadbeefcafeULL;
  req.flags = 9;
  req.source = 106;
  auto back = WriteRequest::decode(req.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->mode, req.mode);
  EXPECT_EQ(back->key, req.key);
  EXPECT_EQ(back->value, req.value);
  EXPECT_EQ(back->ts, req.ts);
  EXPECT_EQ(back->flags, req.flags);
  EXPECT_EQ(back->source, req.source);
}

TEST(Protocol, WriteReplyRoundTrip) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kOutdated,
                          StatusCode::kFailure}) {
    WriteReply rep;
    rep.status = code;
    auto back = WriteReply::decode(rep.encode());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->status, code);
  }
}

TEST(Protocol, ReadRequestReplyRoundTrip) {
  ReadRequest req;
  req.mode = ReadMode::kAll;
  req.key = "k";
  auto req_back = ReadRequest::decode(req.encode());
  ASSERT_TRUE(req_back.ok());
  EXPECT_EQ(req_back->mode, ReadMode::kAll);

  ReadReply rep;
  rep.status = StatusCode::kOk;
  rep.has_latest = true;
  rep.latest = {"value", 77, 1};
  rep.value_list = {{1, "a", 10}, {2, "b", 11}};
  auto rep_back = ReadReply::decode(rep.encode());
  ASSERT_TRUE(rep_back.ok());
  EXPECT_EQ(rep_back->latest, rep.latest);
  ASSERT_EQ(rep_back->value_list.size(), 2u);
  EXPECT_EQ(rep_back->value_list[1], rep.value_list[1]);
}

TEST(Protocol, FetchVnodeReplyRoundTrip) {
  FetchVnodeReply rep;
  TransferItem item;
  item.key = "k";
  item.has_latest = true;
  item.latest = {"v", 5, 0};
  item.value_list = {{3, "lv", 9}};
  rep.items.push_back(item);
  auto back = FetchVnodeReply::decode(rep.encode());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->items.size(), 1u);
  EXPECT_EQ(back->items[0].key, "k");
  EXPECT_EQ(back->items[0].latest.value, "v");
  ASSERT_EQ(back->items[0].value_list.size(), 1u);
  EXPECT_EQ(back->items[0].value_list[0].source, 3u);
}

TEST(Protocol, MigrateAndPurgeRoundTrip) {
  // A leader's move carries no source list and keeps its 8-byte layout.
  MigrateVnodeRequest move{42, 7, {}};
  EXPECT_EQ(move.encode().size(), 8u);
  EXPECT_EQ((MigrateVnodeRequest{42, 7, {7}}).encode(), move.encode());
  auto move_back = MigrateVnodeRequest::decode(move.encode());
  ASSERT_TRUE(move_back.ok());
  EXPECT_EQ(move_back->vnode, 42u);
  EXPECT_EQ(move_back->from, 7u);
  EXPECT_TRUE(move_back->sources.empty());

  // A recovery names the survivors in the trailing section.
  MigrateVnodeRequest recover{42, 7, {8, 9}};
  auto recover_back = MigrateVnodeRequest::decode(recover.encode());
  ASSERT_TRUE(recover_back.ok());
  EXPECT_EQ(recover_back->from, 7u);
  EXPECT_EQ(recover_back->sources, recover.sources);
  const std::string bytes = recover.encode();
  EXPECT_FALSE(
      MigrateVnodeRequest::decode(bytes.substr(0, bytes.size() - 1)).ok());

  PurgeVnodeRequest purge{11, 200};
  auto purge_back = PurgeVnodeRequest::decode(purge.encode());
  ASSERT_TRUE(purge_back.ok());
  EXPECT_EQ(purge_back->vnode, 11u);
  EXPECT_EQ(purge_back->new_owner, 200u);
}

TEST(Protocol, DecodersRejectTruncation) {
  WriteRequest req;
  req.key = "some-key";
  req.value = "some-value";
  const std::string bytes = req.encode();
  EXPECT_FALSE(
      WriteRequest::decode(std::string_view(bytes).substr(0, 4)).ok());
  EXPECT_FALSE(ReadReply::decode("x").ok());
  EXPECT_FALSE(FetchVnodeReply::decode("").ok());
}

TEST(Protocol, DecodersRejectOutOfRangeEnums) {
  // A corrupt mode byte must not reach apply_write, which sends every
  // non-kLatest mode to write_all; statuses and ZK ops are checked alike.
  WriteRequest write;
  write.key = "k1";
  write.value = "val";
  std::string bytes = write.encode();
  ASSERT_TRUE(WriteRequest::decode(bytes).ok());
  bytes[0] = 2;
  EXPECT_FALSE(WriteRequest::decode(bytes).ok());

  bytes = ReadRequest{ReadMode::kAll, "key", false}.encode();
  bytes[0] = 2;
  EXPECT_FALSE(ReadRequest::decode(bytes).ok());

  ReadReply reply;
  reply.has_latest = true;
  reply.latest = {"v", 77, 3};
  bytes = reply.encode();
  ASSERT_TRUE(ReadReply::decode(bytes).ok());
  bytes[0] = static_cast<char>(static_cast<int>(StatusCode::kOverloaded) + 1);
  EXPECT_FALSE(ReadReply::decode(bytes).ok());
  bytes[0] = static_cast<char>(StatusCode::kOverloaded);
  EXPECT_TRUE(ReadReply::decode(bytes).ok());

  bytes = zk::ClientRequest{}.encode();
  bytes[0] = static_cast<char>(
      static_cast<int>(zk::ClientRequest::Op::kCloseSession) + 1);
  EXPECT_FALSE(zk::ClientRequest::decode(bytes).ok());

  bytes = zk::WatchEventMsg{1, "/p", zk::WatchEventType::kDeleted}.encode();
  bytes.back() = 4;
  EXPECT_FALSE(zk::WatchEventMsg::decode(bytes).ok());

  wal::WalRecord rec;
  rec.type = wal::WalRecord::Type::kWriteCausal;
  bytes = rec.encode();
  ASSERT_TRUE(wal::WalRecord::decode(bytes).ok());
  for (const int type : {0, 5}) {
    bytes[0] = static_cast<char>(type);
    EXPECT_FALSE(wal::WalRecord::decode(bytes).ok()) << type;
  }
}

TEST(Protocol, ZnodePayloadRecords) {
  // The vnode znode body and the journal entry keep their raw layouts:
  // a little-endian u32 owner, and u32 vnode then u32 owner.
  EXPECT_EQ(VnodeZnode{0x65}.encode(), std::string("\x65\0\0\0", 4));
  EXPECT_EQ((ChangeJournalEntry{17, 104}).encode(),
            std::string("\x11\0\0\0\x68\0\0\0", 8));
  const auto entry = ChangeJournalEntry::decode(
      ChangeJournalEntry{17, 104}.encode());
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->vnode, 17u);
  EXPECT_EQ(entry->owner, 104u);
  EXPECT_FALSE(VnodeZnode::decode("abc").ok());
  EXPECT_FALSE(ChangeJournalEntry::decode("abcdefg").ok());

  // ZooKeeper heartbeats: one little-endian u64 each.
  EXPECT_EQ(zk::SessionPing{7}.encode(),
            std::string("\x07\0\0\0\0\0\0\0", 8));
  EXPECT_EQ(zk::PeerPing{zk::make_zxid(1, 2)}.encode(),
            std::string("\x02\0\0\0\x01\0\0\0", 8));
  EXPECT_FALSE(zk::PeerPing::decode("1234567").ok());
}

TEST(Protocol, ClusterConfigRoundTripAndValidation) {
  ClusterConfig cfg;
  cfg.total_vnodes = 4096;
  cfg.replicas = 5;
  cfg.read_quorum = 3;
  cfg.write_quorum = 3;
  auto back = ClusterConfig::decode(cfg.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->total_vnodes, 4096u);
  EXPECT_TRUE(back->quorum_valid());
}

TEST(Protocol, ClusterConfigDecodeRejectsReplicasAboveTheReplicaSetCapacity) {
  ClusterConfig cfg;
  cfg.replicas = ring::ReplicaSet::kCapacity;
  EXPECT_TRUE(ClusterConfig::decode(cfg.encode()).ok());
  cfg.replicas = ring::ReplicaSet::kCapacity + 1;
  EXPECT_FALSE(ClusterConfig::decode(cfg.encode()).ok());
}

TEST(Protocol, ZnodePathHelpers) {
  EXPECT_EQ(vnode_znode(7), "/sedna/vnodes/v000007");
  EXPECT_EQ(vnode_znode(123456), "/sedna/vnodes/v123456");
  EXPECT_EQ(real_node_znode(104), "/sedna/real_nodes/node-104");
}

// ---- MetadataCache against a live ensemble ---------------------------------------

SednaClusterConfig small_config() {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 64;
  return cfg;
}

TEST(Metadata, BootLoadsFullTable) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  const auto& meta = cluster.node(0).metadata();
  EXPECT_TRUE(meta.ready());
  EXPECT_EQ(meta.config().total_vnodes, 64u);
  EXPECT_EQ(meta.table().total_vnodes(), 64u);
  for (std::uint32_t v = 0; v < 64; ++v) {
    EXPECT_NE(meta.table().owner(v), kInvalidNode);
  }
}

TEST(Metadata, AllPartiesAgreeAfterBoot) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  const auto& reference = cluster.node(0).metadata().table();
  for (std::size_t i = 1; i < cluster.data_node_count(); ++i) {
    EXPECT_TRUE(cluster.node(i).metadata().table() == reference);
  }
  EXPECT_TRUE(client.metadata().table() == reference);
}

TEST(Metadata, JournalEntryPropagatesWithinLeases) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());

  // Write a reassignment directly: CAS the vnode znode + journal entry,
  // exactly what recovery does.
  auto& node = cluster.node(0);
  const VnodeId vnode = 5;
  const NodeId new_owner = cluster.node(3).id();
  bool done = false;
  node.zk().set(vnode_znode(vnode), VnodeZnode{new_owner}.encode(), -1,
                [&](const Result<zk::ZnodeStat>&) {
                  node.zk().create(std::string(kZkChanges) + "/c",
                                   ChangeJournalEntry{vnode, new_owner}
                                       .encode(),
                                   zk::CreateMode::kPersistentSequential,
                                   [&](const Result<std::string>&) {
                                     done = true;
                                   });
                });
  cluster.run_until([&] { return done; });

  // Everyone converges via their lease-paced journal sync.
  cluster.run_for(sim_sec(20));
  for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
    EXPECT_EQ(cluster.node(i).metadata().table().owner(vnode), new_owner)
        << "node " << i;
  }
}

TEST(Metadata, SyncsSkipAlreadySeenEntries) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& meta = cluster.node(0).metadata();
  const auto before = meta.vnodes_refreshed();
  cluster.run_for(sim_sec(20));  // many sync rounds, no changes
  EXPECT_EQ(meta.vnodes_refreshed(), before);
  EXPECT_GT(meta.syncs_run(), 0u);
}

TEST(Metadata, QuietPeriodsGrowTheLease) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& node = cluster.node(0);
  const SimDuration initial = node.zk().current_lease();
  cluster.run_for(sim_sec(30));  // nothing changes
  EXPECT_GT(node.zk().current_lease(), initial);
}

TEST(Metadata, ApplyLocalTakesEffectImmediately) {
  SednaCluster cluster(small_config());
  ASSERT_TRUE(cluster.boot().ok());
  auto& meta = cluster.node(0).metadata();
  const NodeId target = cluster.node(2).id();
  meta.apply_local(7, target);
  EXPECT_EQ(meta.table().owner(7), target);
  // Out-of-range vnode is ignored, not UB.
  meta.apply_local(1 << 20, target);
}

}  // namespace
}  // namespace sedna::cluster
