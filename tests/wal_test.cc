// Tests for the persistence layer: WAL framing and replay, torn-tail and
// corruption tolerance, snapshots, and the PersistenceManager strategies.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "wal/persistence.h"
#include "wal/snapshot.h"
#include "wal/wal.h"

namespace sedna::wal {
namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("sedna_wal_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() { std::filesystem::remove_all(dir_); }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  [[nodiscard]] std::string dir() const { return dir_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

WalRecord make_record(WalRecord::Type type, const std::string& key,
                      const std::string& value, Timestamp ts) {
  WalRecord rec;
  rec.type = type;
  rec.key = key;
  rec.value = value;
  rec.ts = ts;
  return rec;
}

// ---- record codec ------------------------------------------------------------

TEST(WalRecord, EncodeDecodeRoundTrip) {
  WalRecord rec = make_record(WalRecord::Type::kWriteAll, "key", "value", 42);
  rec.source = 7;
  rec.flags = 3;
  auto back = WalRecord::decode(rec.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), rec);
}

TEST(WalRecord, DecodeRejectsTruncation) {
  const std::string bytes = make_record(WalRecord::Type::kDelete, "k", "", 1)
                                .encode();
  auto bad = WalRecord::decode(std::string_view(bytes).substr(0, 5));
  EXPECT_FALSE(bad.ok());
}

TEST(WalRecord, DecodeRejectsTrailingBytes) {
  std::string bytes =
      make_record(WalRecord::Type::kDelete, "k", "", 1).encode();
  bytes += "extra";
  EXPECT_FALSE(WalRecord::decode(bytes).ok());
}

TEST(WalRecord, DecodeRejectsUnknownType) {
  std::string bytes =
      make_record(WalRecord::Type::kDelete, "k", "", 1).encode();
  bytes[0] = 99;
  EXPECT_FALSE(WalRecord::decode(bytes).ok());
}

// ---- append / replay -----------------------------------------------------------

TEST(Wal, AppendAndReplay) {
  TempDir tmp;
  WriteAheadLog log(tmp.path("wal.log"));
  ASSERT_TRUE(log.open().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(log.append(make_record(WalRecord::Type::kWriteLatest,
                                       "k" + std::to_string(i),
                                       "v" + std::to_string(i),
                                       static_cast<Timestamp>(i + 1)))
                    .ok());
  }
  ASSERT_TRUE(log.sync().ok());
  EXPECT_EQ(log.records_appended(), 100u);

  std::vector<WalRecord> replayed;
  auto n = WriteAheadLog::replay(tmp.path("wal.log"),
                                 [&](const WalRecord& rec) {
                                   replayed.push_back(rec);
                                 });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 100u);
  EXPECT_EQ(replayed[0].key, "k0");
  EXPECT_EQ(replayed[99].value, "v99");
}

TEST(Wal, ReplayOfMissingFileIsEmptyNotError) {
  auto n = WriteAheadLog::replay("/nonexistent/wal.log",
                                 [](const WalRecord&) { FAIL(); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST(Wal, TornTailStopsReplayCleanly) {
  TempDir tmp;
  {
    WriteAheadLog log(tmp.path("wal.log"));
    ASSERT_TRUE(log.open().ok());
    for (int i = 0; i < 10; ++i) {
      log.append(make_record(WalRecord::Type::kWriteLatest,
                             "k" + std::to_string(i), "v", 1));
    }
    log.sync();
  }
  // Tear the last record: drop the final 3 bytes.
  const auto size = std::filesystem::file_size(tmp.path("wal.log"));
  std::filesystem::resize_file(tmp.path("wal.log"), size - 3);

  std::size_t replayed = 0;
  auto n = WriteAheadLog::replay(tmp.path("wal.log"),
                                 [&](const WalRecord&) { ++replayed; });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 9u);
  EXPECT_EQ(replayed, 9u);
}

TEST(Wal, CorruptPayloadStopsReplay) {
  TempDir tmp;
  {
    WriteAheadLog log(tmp.path("wal.log"));
    ASSERT_TRUE(log.open().ok());
    for (int i = 0; i < 5; ++i) {
      log.append(make_record(WalRecord::Type::kWriteLatest, "key", "val", 1));
    }
    log.sync();
  }
  // Flip a byte in the middle of the third record's payload.
  std::fstream f(tmp.path("wal.log"),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(2 * 34 + 20);  // inside record #3 (each frame is 8 + 26 bytes)
  f.put('X');
  f.close();

  std::size_t replayed = 0;
  auto n = WriteAheadLog::replay(tmp.path("wal.log"),
                                 [&](const WalRecord&) { ++replayed; });
  ASSERT_TRUE(n.ok());
  EXPECT_LT(replayed, 5u);  // replay stopped at the corruption
}

TEST(Wal, ResetTruncates) {
  TempDir tmp;
  WriteAheadLog log(tmp.path("wal.log"));
  ASSERT_TRUE(log.open().ok());
  log.append(make_record(WalRecord::Type::kWriteLatest, "k", "v", 1));
  log.sync();
  ASSERT_TRUE(log.reset().ok());
  std::size_t replayed = 0;
  (void)WriteAheadLog::replay(tmp.path("wal.log"),
                              [&](const WalRecord&) { ++replayed; });
  EXPECT_EQ(replayed, 0u);
  // And the log is usable afterwards.
  EXPECT_TRUE(
      log.append(make_record(WalRecord::Type::kWriteLatest, "k", "v", 2))
          .ok());
}

TEST(Wal, AppendAfterReopenExtends) {
  TempDir tmp;
  {
    WriteAheadLog log(tmp.path("wal.log"));
    ASSERT_TRUE(log.open().ok());
    log.append(make_record(WalRecord::Type::kWriteLatest, "k1", "v", 1));
  }
  {
    WriteAheadLog log(tmp.path("wal.log"));
    ASSERT_TRUE(log.open().ok());
    log.append(make_record(WalRecord::Type::kWriteLatest, "k2", "v", 2));
  }
  std::vector<std::string> keys;
  (void)WriteAheadLog::replay(tmp.path("wal.log"), [&](const WalRecord& r) {
    keys.push_back(r.key);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"k1", "k2"}));
}

// ---- snapshot -------------------------------------------------------------------

TEST(Snapshot, RoundTripAllItemKinds) {
  TempDir tmp;
  store::LocalStore source;
  source.write_latest("latest-key", "latest-value", 42, 7);
  source.write_all("list-key", 1, "from-1", 10);
  source.write_all("list-key", 2, "from-2", 11);
  ASSERT_TRUE(Snapshot::write(tmp.path("snap.bin"), source).ok());

  store::LocalStore restored;
  auto n = Snapshot::load(tmp.path("snap.bin"), restored);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2u);

  auto latest = restored.read_latest("latest-key");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, "latest-value");
  EXPECT_EQ(latest->ts, 42u);
  EXPECT_EQ(latest->flags, 7u);

  auto list = restored.read_all("list-key");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
}

TEST(Snapshot, RestoreKeepsAbsoluteExpiry) {
  TempDir tmp;
  std::uint64_t now = 1000;
  const auto clock = [&now] { return now; };
  store::LocalStore source({}, clock);
  ASSERT_TRUE(source.write_latest("ttl-key", "v", 5, 0, 500).ok());
  ASSERT_TRUE(source.write_latest("forever", "w", 6).ok());
  ASSERT_TRUE(Snapshot::write(tmp.path("snap.bin"), source).ok());

  now = 1200;  // restored before the saved expiry (1500)
  {
    store::LocalStore restored({}, clock);
    auto n = Snapshot::load(tmp.path("snap.bin"), restored);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 2u);
    now = 1499;
    EXPECT_TRUE(restored.read_latest("ttl-key").ok());
    now = 1500;
    EXPECT_FALSE(restored.read_latest("ttl-key").ok());
    EXPECT_TRUE(restored.read_latest("forever").ok());
  }

  now = 1500;  // restored at or after the saved expiry: not restored
  {
    store::LocalStore restored({}, clock);
    auto n = Snapshot::load(tmp.path("snap.bin"), restored);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value(), 1u);
    EXPECT_EQ(restored.size(), 1u);
    now = 1000;  // even a clock that moves back does not resurrect it
    EXPECT_FALSE(restored.read_latest("ttl-key").ok());
    EXPECT_TRUE(restored.read_latest("forever").ok());
  }
}

TEST(Snapshot, MissingFileLoadsNothing) {
  store::LocalStore store;
  auto n = Snapshot::load("/nonexistent/snap.bin", store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST(Snapshot, BadMagicRejected) {
  TempDir tmp;
  std::ofstream(tmp.path("snap.bin")) << "NOTASNAPSHOT....garbage";
  store::LocalStore store;
  EXPECT_FALSE(Snapshot::load(tmp.path("snap.bin"), store).ok());
}

TEST(Snapshot, OverwriteIsAtomic) {
  TempDir tmp;
  store::LocalStore v1;
  v1.set("gen", "1");
  ASSERT_TRUE(Snapshot::write(tmp.path("snap.bin"), v1).ok());
  store::LocalStore v2;
  v2.set("gen", "2");
  ASSERT_TRUE(Snapshot::write(tmp.path("snap.bin"), v2).ok());
  // No .tmp litter left behind.
  EXPECT_FALSE(std::filesystem::exists(tmp.path("snap.bin.tmp")));
  store::LocalStore restored;
  ASSERT_TRUE(Snapshot::load(tmp.path("snap.bin"), restored).ok());
  EXPECT_EQ(restored.read_latest("gen")->value, "2");
}

// ---- persistence manager ---------------------------------------------------------

TEST(Persistence, NoneModeIsNoop) {
  store::LocalStore store;
  PersistenceConfig cfg;  // kNone
  PersistenceManager pm(cfg, store);
  ASSERT_TRUE(pm.start().ok());
  EXPECT_TRUE(pm.on_write_latest("k", "v", 1, 0).ok());
  auto n = pm.recover();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST(Persistence, WalModeRecoversEverything) {
  TempDir tmp;
  {
    store::LocalStore store;
    PersistenceConfig cfg;
    cfg.mode = PersistMode::kWal;
    cfg.dir = tmp.dir();
    PersistenceManager pm(cfg, store);
    ASSERT_TRUE(pm.start().ok());
    for (int i = 0; i < 200; ++i) {
      const std::string key = "k" + std::to_string(i);
      store.write_latest(key, "v", static_cast<Timestamp>(i + 1));
      pm.on_write_latest(key, "v", static_cast<Timestamp>(i + 1), 0);
    }
    // no clean shutdown: simulated crash
  }
  store::LocalStore restored;
  PersistenceConfig cfg;
  cfg.mode = PersistMode::kWal;
  cfg.dir = tmp.dir();
  PersistenceManager pm(cfg, restored);
  ASSERT_TRUE(pm.start().ok());
  auto n = pm.recover();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(restored.size(), 200u);
}

TEST(Persistence, WalModeRecoversDeletes) {
  TempDir tmp;
  {
    store::LocalStore store;
    PersistenceConfig cfg;
    cfg.mode = PersistMode::kWal;
    cfg.dir = tmp.dir();
    PersistenceManager pm(cfg, store);
    ASSERT_TRUE(pm.start().ok());
    store.write_latest("k", "v", 1);
    pm.on_write_latest("k", "v", 1, 0);
    store.del("k");
    pm.on_delete("k");
  }
  store::LocalStore restored;
  PersistenceConfig cfg;
  cfg.mode = PersistMode::kWal;
  cfg.dir = tmp.dir();
  PersistenceManager pm(cfg, restored);
  ASSERT_TRUE(pm.start().ok());
  ASSERT_TRUE(pm.recover().ok());
  EXPECT_FALSE(restored.read_latest("k").ok());
}

TEST(Persistence, SnapshotBoundsWalReplay) {
  TempDir tmp;
  {
    store::LocalStore store;
    PersistenceConfig cfg;
    cfg.mode = PersistMode::kWal;
    cfg.dir = tmp.dir();
    cfg.snapshot_every_records = 50;
    PersistenceManager pm(cfg, store);
    ASSERT_TRUE(pm.start().ok());
    for (int i = 0; i < 120; ++i) {
      const std::string key = "k" + std::to_string(i);
      store.write_latest(key, "v", static_cast<Timestamp>(i + 1));
      pm.on_write_latest(key, "v", static_cast<Timestamp>(i + 1), 0);
    }
    EXPECT_GE(pm.snapshots_taken(), 2u);
    // The live log holds only the tail after the last snapshot.
    EXPECT_LT(pm.wal_records(), 50u);
  }
  store::LocalStore restored;
  PersistenceConfig cfg;
  cfg.mode = PersistMode::kWal;
  cfg.dir = tmp.dir();
  PersistenceManager pm(cfg, restored);
  ASSERT_TRUE(pm.start().ok());
  ASSERT_TRUE(pm.recover().ok());
  EXPECT_EQ(restored.size(), 120u);
}

TEST(Persistence, PeriodicFlushRecoversUpToLastSnapshot) {
  TempDir tmp;
  {
    store::LocalStore store;
    PersistenceConfig cfg;
    cfg.mode = PersistMode::kPeriodicFlush;
    cfg.dir = tmp.dir();
    PersistenceManager pm(cfg, store);
    ASSERT_TRUE(pm.start().ok());
    for (int i = 0; i < 60; ++i) {
      store.write_latest("k" + std::to_string(i), "v",
                         static_cast<Timestamp>(i + 1));
    }
    ASSERT_TRUE(pm.flush_snapshot().ok());
    for (int i = 60; i < 100; ++i) {  // written after the flush: lost
      store.write_latest("k" + std::to_string(i), "v",
                         static_cast<Timestamp>(i + 1));
    }
  }
  store::LocalStore restored;
  PersistenceConfig cfg;
  cfg.mode = PersistMode::kPeriodicFlush;
  cfg.dir = tmp.dir();
  PersistenceManager pm(cfg, restored);
  ASSERT_TRUE(pm.start().ok());
  ASSERT_TRUE(pm.recover().ok());
  EXPECT_EQ(restored.size(), 60u);
}

TEST(Persistence, RecoveredStateEqualsOriginal) {
  TempDir tmp;
  store::LocalStore original;
  {
    PersistenceConfig cfg;
    cfg.mode = PersistMode::kWal;
    cfg.dir = tmp.dir();
    PersistenceManager pm(cfg, original);
    ASSERT_TRUE(pm.start().ok());
    // Mixed workload: latest writes, value lists, overwrites, deletes.
    for (int i = 0; i < 50; ++i) {
      const std::string key = "mixed-" + std::to_string(i % 20);
      const auto ts = static_cast<Timestamp>(i + 1);
      if (i % 3 == 0) {
        original.write_all(key, i % 5, "list", ts);
        pm.on_write_all(key, i % 5, "list", ts);
      } else {
        original.write_latest(key, "v" + std::to_string(i), ts);
        pm.on_write_latest(key, "v" + std::to_string(i), ts, 0);
      }
      if (i % 11 == 10) {
        original.del(key);
        pm.on_delete(key);
      }
    }
  }
  store::LocalStore restored;
  PersistenceConfig cfg;
  cfg.mode = PersistMode::kWal;
  cfg.dir = tmp.dir();
  PersistenceManager pm(cfg, restored);
  ASSERT_TRUE(pm.start().ok());
  ASSERT_TRUE(pm.recover().ok());

  EXPECT_EQ(restored.size(), original.size());
  original.for_each([&](const store::Item& item) {
    if (item.has_latest) {
      auto got = restored.read_latest(item.key);
      ASSERT_TRUE(got.ok()) << item.key;
      EXPECT_EQ(got->value, item.latest.value);
      EXPECT_EQ(got->ts, item.latest.ts);
    }
    if (!item.value_list.empty()) {
      auto got = restored.read_all(item.key);
      ASSERT_TRUE(got.ok()) << item.key;
      EXPECT_EQ(got->size(), item.value_list.size());
    }
  });
}

}  // namespace
}  // namespace sedna::wal
