// Golden wire corpus: the exact bytes of every wire and on-disk record.
//
// The simulated network charges delivery delay by payload size, so a
// single moved byte shifts every seeded output; the persistence formats
// must stay readable across versions. Each case pins one record's hex —
// the LWW default and every trailing-section variant — and checks that
// it decodes and re-encodes to the same bytes. The prefix property
// generalises truncation rejection: every strict prefix of a golden
// message is either rejected, or decodes to a record whose encoding is
// exactly that prefix (a legacy reader's view of a message whose
// trailing sections were cut off).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "baseline/memcache.h"
#include "cluster/metadata.h"
#include "cluster/protocol.h"
#include "cluster/sedna_cluster.h"
#include "ring/imbalance.h"
#include "store/local_store.h"
#include "wal/snapshot.h"
#include "wal/wal.h"
#include "zk/protocol.h"
#include "zk/znode_tree.h"

namespace sedna {
namespace {

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

/// Pins `msg`'s encoding, its round trip, and the prefix property.
template <typename T>
void expect_golden(const T& msg, std::string_view want) {
  const std::string bytes = msg.encode();
  EXPECT_EQ(hex(bytes), want);
  const auto back = T::decode(bytes);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(hex(back->encode()), want);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::string_view prefix = std::string_view(bytes).substr(0, n);
    const auto cut = T::decode(prefix);
    if (cut.ok()) {
      EXPECT_EQ(hex(cut->encode()), hex(prefix)) << "prefix of " << n;
    }
  }
}

store::VersionVector sample_clock() {
  store::VersionVector vv;
  vv.bump(101);
  vv.bump(101);
  vv.bump(103);
  return vv;  // {101: 2, 103: 1}
}

store::CausalRecord sample_record() {
  store::CausalRecord rec;
  rec.update({}, "a", 5, 1, 101);
  rec.update({}, "bc", 6, 0, 102);  // concurrent: two siblings
  return rec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---- data-path messages (cluster/protocol.h) --------------------------------

using namespace cluster;  // NOLINT(google-build-using-namespace)

WriteRequest sample_write() {
  WriteRequest req;
  req.key = "k1";
  req.value = "val";
  req.ts = 0x0102030405060708ULL;
  req.flags = 9;
  req.source = 104;
  req.ttl = 250;
  return req;
}

TEST(WireGolden, WriteRequest) {
  WriteRequest lww = sample_write();
  expect_golden(lww,
      "00020000006b310300000076616c08070605040302010900000068000000fa00"
      "000000000000");
  WriteRequest all = sample_write();
  all.mode = WriteMode::kAll;
  all.ttl = 0;
  expect_golden(all,
      "01020000006b310300000076616c080706050403020109000000680000000000"
      "000000000000");
  WriteRequest ctx = sample_write();
  ctx.causal_tag = WriteRequest::kCausalCtx;
  ctx.ctx = sample_clock();
  expect_golden(ctx,
      "00020000006b310300000076616c08070605040302010900000068000000fa00"
      "0000000000000102000000650000000200000000000000670000000100000000"
      "000000");
  WriteRequest rec = sample_write();
  rec.causal_tag = WriteRequest::kCausalRecord;
  rec.record = sample_record();
  expect_golden(rec,
      "00020000006b310300000076616c08070605040302010900000068000000fa00"
      "0000000000000202000000650000000100000000000000660000000100000000"
      "0000000200000001000000610500000000000000010000006500000001000000"
      "0000000002000000626306000000000000000000000066000000010000000000"
      "0000");
}

TEST(WireGolden, WriteReply) {
  expect_golden(WriteReply{StatusCode::kOutdated, false, {}}, "01");
  expect_golden(WriteReply{StatusCode::kOk, true, sample_clock()},
      "0002000000650000000200000000000000670000000100000000000000");
}

TEST(WireGolden, ReadRequest) {
  expect_golden(ReadRequest{ReadMode::kAll, "key", false}, "01030000006b6579");
  expect_golden(ReadRequest{ReadMode::kLatest, "key", true},
      "00030000006b657901");
}

ReadReply sample_read_reply() {
  ReadReply rep;
  rep.has_latest = true;
  rep.latest = {"v", 77, 3};
  rep.value_list = {{101, "x", 10}, {102, "yz", 11}};
  return rep;
}

TEST(WireGolden, ReadReply) {
  expect_golden(sample_read_reply(),
      "000101000000764d000000000000000300000002000000650000000100000078"
      "0a000000000000006600000002000000797a0b0000000000000000");
  ReadReply missing;
  missing.status = StatusCode::kNotFound;
  missing.stale = true;
  expect_golden(missing, "0500000000000000000000000000000000000000000001");
  ReadReply causal = sample_read_reply();
  causal.has_causal = true;
  causal.causal = sample_record();
  expect_golden(causal,
      "000101000000764d000000000000000300000002000000650000000100000078"
      "0a000000000000006600000002000000797a0b00000000000000000102000000"
      "6500000001000000000000006600000001000000000000000200000001000000"
      "6105000000000000000100000065000000010000000000000002000000626306"
      "0000000000000000000000660000000100000000000000");
  ReadReply audit = sample_read_reply();
  audit.stale = true;
  audit.staleness_us = 1234;
  expect_golden(audit,
      "000101000000764d000000000000000300000002000000650000000100000078"
      "0a000000000000006600000002000000797a0b000000000000000102d2040000"
      "00000000");
  ReadReply both = causal;
  both.stale = true;
  both.staleness_us = 99;
  expect_golden(both,
      "000101000000764d000000000000000300000002000000650000000100000078"
      "0a000000000000006600000002000000797a0b00000000000000010363000000"
      "0000000002000000650000000100000000000000660000000100000000000000"
      "0200000001000000610500000000000000010000006500000001000000000000"
      "00020000006263060000000000000000000000660000000100000000000000");
}

TEST(WireGolden, FetchVnode) {
  expect_golden(FetchVnodeRequest{17}, "11000000");
  FetchVnodeReply rep;
  TransferItem lww;
  lww.key = "a";
  lww.has_latest = true;
  lww.latest = {"v", 5, 0};
  lww.value_list = {{103, "lv", 9}};
  rep.items.push_back(lww);
  expect_golden(rep,
      "0001000000010000006101010000007605000000000000000000000001000000"
      "67000000020000006c760900000000000000");
  TransferItem causal;
  causal.key = "b";
  causal.causal = sample_record();
  rep.items.push_back(causal);
  rep.items.push_back(lww);
  expect_golden(rep,
      "0003000000010000006101010000007605000000000000000000000001000000"
      "67000000020000006c7609000000000000000100000062000000000000000000"
      "0000000000000000000000000100000061010100000076050000000000000000"
      "0000000100000067000000020000006c76090000000000000001000000010000"
      "0002000000650000000100000000000000660000000100000000000000020000"
      "0001000000610500000000000000010000006500000001000000000000000200"
      "00006263060000000000000000000000660000000100000000000000");
  expect_golden(FetchVnodeReply{StatusCode::kRefused, {}}, "0400000000");
}

TEST(WireGolden, ScanPurgeHint) {
  expect_golden(ScanRequest{"tw/", 50}, "0300000074772f32000000");
  expect_golden(ScanReply{StatusCode::kOk, {"tw/1", "tw/22"}, true},
      "00020000000400000074772f310500000074772f323201");
  expect_golden(PurgeVnodeRequest{11, 200}, "0b000000c8000000");
  WriteRequest inner = sample_write();
  inner.causal_tag = WriteRequest::kCausalRecord;
  inner.record = sample_record();
  expect_golden(HintDeliverRequest{sample_write()},
      "2600000000020000006b310300000076616c0807060504030201090000006800"
      "0000fa00000000000000");
  expect_golden(HintDeliverRequest{inner},
      "8200000000020000006b310300000076616c0807060504030201090000006800"
      "0000fa0000000000000002020000006500000001000000000000006600000001"
      "0000000000000002000000010000006105000000000000000100000065000000"
      "0100000000000000020000006263060000000000000000000000660000000100"
      "000000000000");
  expect_golden(HintAckReply{StatusCode::kOutdated}, "01");
}

TEST(WireGolden, VnodeDigest) {
  expect_golden(VnodeDigestRequest{9, 0xabcdefULL, {1, 2, 0xffffffffffULL}},
                "09000000efcdab0000000000030000000100000000000000020000000000"
                "0000ffffffffff000000");
  VnodeDigestReply rep;
  rep.mismatched = {3, 7};
  rep.keys.push_back({"k1", true, 40, 0x1111, 0});
  rep.keys.push_back({"k2", false, 0, 0x2222, 0});
  rep.truncated = true;
  expect_golden(rep,
      "000002000000030000000700000002000000020000006b310128000000000000"
      "001111000000000000020000006b320000000000000000002222000000000000"
      "01");
  rep.keys[1].causal_digest = 0x5555;
  expect_golden(rep,
      "000002000000030000000700000002000000020000006b310128000000000000"
      "001111000000000000020000006b320000000000000000002222000000000000"
      "0101000000010000005555000000000000");
  expect_golden(VnodeDigestReply{StatusCode::kOk, true, {}, {}, false},
      "0001000000000000000000");
}

TEST(WireGolden, MigrateVnode) {
  expect_golden(MigrateVnodeRequest{42, 7, {}}, "2a00000007000000");
  expect_golden(MigrateVnodeRequest{42, 7, {8, 9}},
      "2a00000007000000020000000800000009000000");
  expect_golden(MigrateVnodeReply{StatusCode::kOk, 12, 3456, 789},
      "000c00000000000000800d0000000000001503000000000000");
}

TEST(WireGolden, ClusterConfig) {
  expect_golden(ClusterConfig{4096, 5, 3, 3},
      "00100000050000000300000003000000");
}

TEST(WireGolden, RealNodeLoad) {
  ring::RealNodeLoad row;
  row.node = 101;
  row.vnode_count = 12;
  row.capacity_bytes = 4096;
  row.reads = 10;
  row.writes = 20;
  row.misses = 3;
  row.vnodes = {{4, 100, 5, 6, 1}, {9, 200, 7, 8, 0}};
  expect_golden(row,
      "650000000c00000000100000000000000a000000000000001400000000000000"
      "0300000000000000020000000400000064000000000000000500000000000000"
      "0600000000000000010000000000000009000000c80000000000000007000000"
      "0000000008000000000000000000000000000000");
  row.lags = {{4, 1500, 2}, {9, 0, 1}};
  expect_golden(row,
      "650000000c00000000100000000000000a000000000000001400000000000000"
      "0300000000000000020000000400000064000000000000000500000000000000"
      "0600000000000000010000000000000009000000c80000000000000007000000"
      "00000000080000000000000000000000000000000200000004000000dc050000"
      "0000000002000000000000000900000000000000000000000100000000000000");
}

// ---- ZooKeeper-lite messages (zk/protocol.h) --------------------------------

TEST(WireGolden, ZkRecords) {
  zk::ClientRequest req;
  req.op = zk::ClientRequest::Op::kCreate;
  req.path = "/sedna/c";
  req.data = "xy";
  req.mode = 3;
  req.expected_version = -1;
  req.session_id = 77;
  req.session_timeout_us = 5000000;
  req.watch = true;
  req.watch_id = 12;
  expect_golden(req,
      "01080000002f7365646e612f6302000000787903ffffffffffffffff4d000000"
      "00000000404b4c0000000000010c00000000000000");

  zk::ClientReply rep;
  rep.status = StatusCode::kNotFound;
  rep.payload = "data";
  rep.stat = {0x100000001ULL, 0x100000002ULL, 3, 77, 2};
  rep.children = {"a", "bb"};
  rep.session_id = 77;
  expect_golden(rep,
      "0504000000646174610100000001000000020000000100000003000000000000"
      "004d00000000000000020000000200000001000000610200000062624d000000"
      "00000000");

  expect_golden(
      zk::WatchEventMsg{5, "/sedna/vnodes",
                        zk::WatchEventType::kChildrenChanged},
      "05000000000000000d0000002f7365646e612f766e6f64657303");
  expect_golden(zk::Proposal{zk::make_zxid(2, 9), req},
      "09000000020000003500000001080000002f7365646e612f6302000000787903"
      "ffffffffffffffff4d00000000000000404b4c0000000000010c000000000000"
      "00");

  zk::TreeSyncMsg sync;
  sync.epoch = 2;
  sync.last_zxid = zk::make_zxid(2, 9);
  sync.next_session_id = 80;
  sync.tree_image = std::string("\x01\x00\x02", 3);
  sync.sessions = {{77, 5000000}, {79, 6000000}};
  expect_golden(sync,
      "0200000000000000090000000200000050000000000000000300000001000202"
      "0000004d00000000000000404b4c00000000004f00000000000000808d5b0000"
      "000000");
}

// ---- on-disk records (wal/) -------------------------------------------------

TEST(WireGolden, WalRecords) {
  wal::WalRecord rec;
  rec.key = "k";
  rec.value = "v1";
  rec.ts = 42;
  rec.flags = 2;
  rec.source = 105;
  rec.type = wal::WalRecord::Type::kWriteLatest;
  expect_golden(rec,
      "01010000006b0200000076312a000000000000000200000069000000");
  rec.type = wal::WalRecord::Type::kWriteAll;
  expect_golden(rec,
      "02010000006b0200000076312a000000000000000200000069000000");
  rec.type = wal::WalRecord::Type::kDelete;
  rec.value.clear();
  expect_golden(rec, "03010000006b000000002a000000000000000200000069000000");
  rec.type = wal::WalRecord::Type::kWriteCausal;
  rec.value = sample_record().encode_string();
  expect_golden(rec,
      "04010000006b5b00000002000000650000000100000000000000660000000100"
      "0000000000000200000001000000610500000000000000010000006500000001"
      "0000000000000002000000626306000000000000000000000066000000010000"
      "00000000002a000000000000000200000069000000");
}

class SnapshotFile {
 public:
  SnapshotFile()
      : path_((std::filesystem::temp_directory_path() /
               ("sedna_golden_" + std::to_string(::getpid()) + ".snap"))
                  .string()) {}
  ~SnapshotFile() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(WireGolden, SnapshotFrames) {
  std::uint64_t now = 1000;
  SnapshotFile file;
  {
    store::LocalStore lww({}, [&now] { return now; });
    ASSERT_TRUE(lww.write_latest("k", "v", 7, 1, 500).ok());
    ASSERT_TRUE(lww.write_all("k", 103, "lv", 8).ok());
    ASSERT_TRUE(wal::Snapshot::write(file.path(), lww).ok());
    EXPECT_EQ(hex(read_file(file.path())),
        "5345444e41534e500100000035000000d3fb0da8010000006b01010000007607"
        "00000000000000010000000100000067000000020000006c7608000000000000"
        "00dc05000000000000");
  }
  {
    store::LocalStore causal({}, [&now] { return now; });
    ASSERT_TRUE(
        causal.merge_causal("c", sample_record()).ok());
    ASSERT_TRUE(wal::Snapshot::write(file.path(), causal).ok());
    EXPECT_EQ(hex(read_file(file.path())),
        "5345444e41534e50010000007f00000027f9daf9010000006301020000006263"
        "0600000000000000000000000000000000000000000000000200000065000000"
        "0100000000000000660000000100000000000000020000000100000061050000"
        "0000000000010000006500000001000000000000000200000062630600000000"
        "00000000000000660000000100000000000000");
  }
}

// ---- ZooKeeper payloads of the vnode table ----------------------------------

TEST(WireGolden, VnodeZnodeAndChangeJournal) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 64;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  const zk::ZnodeTree& tree = cluster.zk_member(0).tree();
  auto body = tree.get(vnode_znode(5));
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(hex(body->first), "65000000");

  ASSERT_TRUE(cluster.join_new_node().ok());
  const zk::ZnodeTree& after = cluster.zk_member(0).tree();
  auto journal = after.children(kZkChanges);
  ASSERT_TRUE(journal.ok());
  ASSERT_FALSE(journal->empty());
  auto entry = after.get(std::string(kZkChanges) + "/" + journal->front());
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(hex(entry->first), "1100000068000000");
}

// ---- memcache baseline messages (baseline/memcache.h) -----------------------

TEST(WireGolden, MemcacheMessages) {
  expect_golden(baseline::McSetRequest{"k1", "val"},
                "020000006b310300000076616c");
  expect_golden(baseline::McKeyRequest{"k1"}, "020000006b31");
  expect_golden(baseline::McStatusReply{StatusCode::kNotFound}, "05");
  expect_golden(baseline::McGetReply{StatusCode::kOk, "val"},
                "000300000076616c");
  expect_golden(baseline::McGetReply{StatusCode::kNotFound, {}},
                "0500000000");
}

// ---- ZooKeeper tree image (zk/znode_tree.h) ---------------------------------

std::string unhex(std::string_view digits) {
  std::string out;
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(digits.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(WireGolden, ZnodeTreeImage) {
  // A nested path with a data update, an ephemeral znode and a parent
  // whose sequence counter has advanced: every part of the image a new
  // leader sends at boot.
  zk::ZnodeTree tree;
  ASSERT_TRUE(tree.create("/a", "", zk::CreateMode::kPersistent, 0, 1).ok());
  ASSERT_TRUE(
      tree.create("/a/b", "x", zk::CreateMode::kPersistent, 0, 2).ok());
  ASSERT_TRUE(tree.set("/a/b", "yz", -1, 3).ok());
  ASSERT_TRUE(tree.create("/e", "", zk::CreateMode::kEphemeral, 7, 4).ok());
  ASSERT_TRUE(
      tree.create("/a/q-", "", zk::CreateMode::kPersistentSequential, 0, 5)
          .ok());
  const std::string image = tree.serialize();
  EXPECT_EQ(hex(image),
      "04000000020000002f6500000000040000000000000004000000000000000000"
      "0000000000000700000000000000020000002f61000000000100000000000000"
      "0100000000000000000000000000000000000000000000000f0000002f612f71"
      "2d30303030303030303030000000000500000000000000050000000000000000"
      "000000000000000000000000000000040000002f612f6202000000797a020000"
      "0000000000030000000000000001000000000000000000000000000000010000"
      "00020000002f610100000000000000");
  const auto copy = zk::ZnodeTree::deserialize(image);
  ASSERT_TRUE(copy.ok()) << copy.status().to_string();
  EXPECT_EQ(hex(copy->serialize()), hex(image));
  for (std::size_t n = 0; n < image.size(); ++n) {
    EXPECT_FALSE(
        zk::ZnodeTree::deserialize(std::string_view(image).substr(0, n)).ok())
        << "prefix of " << n;
  }

  // One znode, "/x/y", whose parent the image never creates.
  EXPECT_FALSE(zk::ZnodeTree::deserialize(
                   unhex("01000000"                   // one znode
                         "040000002f782f79"           // "/x/y"
                         "00000000"                   // no data
                         "0100000000000000"           // czxid
                         "0100000000000000"           // mzxid
                         "0000000000000000"           // version
                         "0000000000000000"           // persistent
                         "00000000"))                 // no counters
                   .ok());
}

}  // namespace
}  // namespace sedna
