// Model-based property testing: LocalStore against a trivially-correct
// in-memory oracle under long random operation sequences, parameterized
// by seed. Catches interaction bugs no example-based test enumerates.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "common/hash.h"
#include "common/rng.h"
#include "store/local_store.h"

namespace sedna::store {
namespace {

/// The oracle: straightforward maps with the documented semantics, on the
/// same clock as the store under test.
class OracleStore {
 public:
  struct Entry {
    std::optional<VersionedValue> latest;
    std::map<NodeId, SourceValue> list;
    std::uint64_t expires_at = 0;  // 0 = never
  };

  explicit OracleStore(const std::uint64_t& now) : now_(now) {}

  /// The store's deterministic equal-timestamp tie-break: higher value
  /// hash wins, then the lexicographically larger value — never arrival
  /// order (see value_wins_tie in store/local_store.cc).
  static bool value_wins_tie(const std::string& incoming,
                             const std::string& stored) {
    const std::uint64_t ih = fnv1a64(incoming);
    const std::uint64_t sh = fnv1a64(stored);
    if (ih != sh) return ih > sh;
    return incoming > stored;
  }

  /// Keeps its old expiry unless `ttl` sets a new one.
  StatusCode write_latest(const std::string& key, const std::string& value,
                          Timestamp ts, std::uint64_t ttl) {
    auto& e = live(key);
    if (e.latest.has_value() && e.latest->ts >= ts) {
      if (e.latest->ts == ts && e.latest->value == value) {
        return StatusCode::kOk;  // idempotent replay
      }
      if (e.latest->ts > ts || !value_wins_tie(value, e.latest->value)) {
        return StatusCode::kOutdated;
      }
    }
    e.latest = VersionedValue{value, ts, 0};
    if (ttl != 0) e.expires_at = now_ + ttl;
    return StatusCode::kOk;
  }

  /// Unconditional, stamped from the clock (strictly monotone), and resets
  /// the expiry.
  StatusCode set(const std::string& key, const std::string& value,
                 std::uint64_t ttl) {
    auto& e = live(key);
    last_ts_ = std::max(make_timestamp(now_, seq_++), last_ts_ + 1);
    e.latest = VersionedValue{value, last_ts_, 0};
    e.expires_at = ttl == 0 ? 0 : now_ + ttl;
    return StatusCode::kOk;
  }

  StatusCode write_all(const std::string& key, NodeId source,
                       const std::string& value, Timestamp ts) {
    auto& e = live(key);
    auto it = e.list.find(source);
    if (it != e.list.end() && it->second.ts >= ts) {
      if (it->second.ts == ts && it->second.value == value) {
        return StatusCode::kOk;
      }
      if (it->second.ts > ts || !value_wins_tie(value, it->second.value)) {
        return StatusCode::kOutdated;
      }
    }
    e.list[source] = SourceValue{source, value, ts};
    return StatusCode::kOk;
  }

  StatusCode touch(const std::string& key, std::uint64_t ttl) {
    if (!expire(key)) return StatusCode::kNotFound;
    entries_[key].expires_at = ttl == 0 ? 0 : now_ + ttl;
    return StatusCode::kOk;
  }

  [[nodiscard]] std::optional<VersionedValue> read_latest(
      const std::string& key) {
    if (!expire(key)) return std::nullopt;
    return entries_[key].latest;
  }

  StatusCode del(const std::string& key) {
    return expire(key) && entries_.erase(key) > 0 ? StatusCode::kOk
                                                  : StatusCode::kNotFound;
  }

  /// Drops every entry whose expiry has passed; returns what is left.
  [[nodiscard]] const std::map<std::string, Entry>& live_entries() {
    std::erase_if(entries_, [this](const auto& kv) { return due(kv.second); });
    return entries_;
  }

 private:
  [[nodiscard]] bool due(const Entry& e) const {
    return e.expires_at != 0 && now_ >= e.expires_at;
  }
  /// Lazy expiry: false when the key is absent or has just expired.
  bool expire(const std::string& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    if (!due(it->second)) return true;
    entries_.erase(it);
    return false;
  }
  /// The key's entry, a fresh one when it was absent or expired.
  Entry& live(const std::string& key) {
    expire(key);
    return entries_[key];
  }

  const std::uint64_t& now_;
  std::uint16_t seq_ = 0;
  Timestamp last_ts_ = 0;
  std::map<std::string, Entry> entries_;
};

class ModelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelSweep, RandomOpsAgreeWithOracle) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  std::uint64_t now = 1000;
  LocalStoreConfig cfg;
  cfg.shards = 1 + rng.next_below(8);
  LocalStore store(cfg, [&now] { return now; });
  OracleStore oracle(now);

  constexpr int kOps = 5000;
  constexpr int kKeySpace = 60;  // small: forces heavy interaction
  for (int i = 0; i < kOps; ++i) {
    now += rng.next_below(3);
    const std::string key = "k" + std::to_string(rng.next_below(kKeySpace));
    // Explicit timestamps straddle the clock-stamped ones of set(), so
    // LWW writes land both before and after them, and tie among
    // themselves.
    const auto ts = make_timestamp(now - rng.next_below(40),
                                   static_cast<std::uint16_t>(
                                       rng.next_below(3)));
    const std::string value = "v" + std::to_string(rng.next_below(1000));
    // Mostly no TTL; otherwise one short enough to expire mid-run.
    const std::uint64_t ttl =
        rng.next_below(4) == 0 ? 1 + rng.next_below(60) : 0;
    switch (rng.next_below(7)) {
      case 0:
      case 1: {  // write_latest
        const Status got = store.write_latest(key, value, ts, 0, ttl);
        const StatusCode want = oracle.write_latest(key, value, ts, ttl);
        ASSERT_EQ(got.code(), want)
            << "op " << i << " write_latest " << key << " ts " << ts;
        break;
      }
      case 2: {  // write_all
        const auto source = static_cast<NodeId>(rng.next_below(4));
        const Status got = store.write_all(key, source, value, ts);
        const StatusCode want = oracle.write_all(key, source, value, ts);
        ASSERT_EQ(got.code(), want)
            << "op " << i << " write_all " << key << " src " << source;
        break;
      }
      case 3: {  // read_latest
        const auto got = store.read_latest(key);
        const auto want = oracle.read_latest(key);
        if (want.has_value()) {
          ASSERT_TRUE(got.ok()) << "op " << i << " read " << key;
          EXPECT_EQ(got->value, want->value);
          EXPECT_EQ(got->ts, want->ts);
        } else {
          EXPECT_FALSE(got.ok()) << "op " << i << " read " << key;
        }
        break;
      }
      case 4: {  // delete (occasionally)
        if (rng.next_below(4) == 0) {
          const Status got = store.del(key);
          const StatusCode want = oracle.del(key);
          ASSERT_EQ(got.code(), want) << "op " << i << " del " << key;
        }
        break;
      }
      case 5: {  // set
        ASSERT_EQ(store.set(key, value, 0, ttl).code(),
                  oracle.set(key, value, ttl))
            << "op " << i << " set " << key;
        break;
      }
      case 6: {  // touch
        ASSERT_EQ(store.touch(key, ttl).code(), oracle.touch(key, ttl))
            << "op " << i << " touch " << key;
        break;
      }
    }
  }

  // Full final-state audit.
  for (const auto& [key, entry] : oracle.live_entries()) {
    if (entry.latest.has_value()) {
      auto got = store.read_latest(key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(got->value, entry.latest->value) << key;
      EXPECT_EQ(got->ts, entry.latest->ts) << key;
    }
    auto list = store.read_all(key);
    if (entry.list.empty()) {
      EXPECT_FALSE(list.ok()) << key;
    } else {
      ASSERT_TRUE(list.ok()) << key;
      ASSERT_EQ(list->size(), entry.list.size()) << key;
      for (const auto& sv : list.value()) {
        const auto it = entry.list.find(sv.source);
        ASSERT_NE(it, entry.list.end()) << key;
        EXPECT_EQ(sv.value, it->second.value) << key;
        EXPECT_EQ(sv.ts, it->second.ts) << key;
      }
    }
  }
}

TEST_P(ModelSweep, AccountingNeverGoesNegativeAndTracksContent) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xacc);
  LocalStore store;
  std::map<std::string, std::size_t> live_value_sizes;

  for (int i = 0; i < 3000; ++i) {
    const std::string key = "a" + std::to_string(rng.next_below(40));
    if (rng.next_below(4) == 0) {
      if (store.del(key).ok()) live_value_sizes.erase(key);
    } else {
      const std::size_t len = rng.next_below(300);
      store.set(key, std::string(len, 'x'));
      live_value_sizes[key] = len;
    }
    // bytes >= sum of live payload bytes, and slab charge >= bytes.
    std::size_t payload = 0;
    for (const auto& [k, n] : live_value_sizes) payload += n;
    EXPECT_GE(store.stats().bytes, payload);
    EXPECT_GE(store.slab_charged_bytes(), store.stats().bytes);
  }
  EXPECT_EQ(store.size(), live_value_sizes.size());
  store.clear();
  EXPECT_EQ(store.stats().bytes, 0u);
  EXPECT_EQ(store.slab_charged_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelSweep,
                         ::testing::Values(1, 7, 42, 1337, 99991, 2012),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace sedna::store
