// Unit and property tests for the LocalStore engine: memcached surface,
// Sedna LWW / value-list semantics, expiry, LRU eviction, slab accounting,
// dirty-table change capture, and thread safety.
#include <gtest/gtest.h>

#include <thread>

#include "store/local_store.h"

namespace sedna::store {
namespace {

// ---- write_latest / read_latest (Section III.F) ----------------------------

TEST(WriteLatest, StoresAndReads) {
  LocalStore store;
  EXPECT_TRUE(store.write_latest("k", "v", 10).ok());
  auto got = store.read_latest("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v");
  EXPECT_EQ(got->ts, 10u);
}

TEST(WriteLatest, NewerTimestampWins) {
  LocalStore store;
  ASSERT_TRUE(store.write_latest("k", "old", 10).ok());
  ASSERT_TRUE(store.write_latest("k", "new", 20).ok());
  EXPECT_EQ(store.read_latest("k")->value, "new");
}

TEST(WriteLatest, OlderTimestampRejectedAsOutdated) {
  LocalStore store;
  ASSERT_TRUE(store.write_latest("k", "new", 20).ok());
  const Status st = store.write_latest("k", "old", 10);
  EXPECT_TRUE(st.is(StatusCode::kOutdated));
  EXPECT_EQ(store.read_latest("k")->value, "new");
  EXPECT_EQ(store.stats().set_outdated, 1u);
}

TEST(WriteLatest, EqualTimestampResolvesByValueTieBreakNotArrivalOrder) {
  // Equal timestamps from different writers resolve by the deterministic
  // value tie-break (hash, then value) — never by arrival order, or
  // replicas seeing the two writes in different orders would diverge
  // (tests/dvv_test.cc sweeps every delivery permutation).
  LocalStore a, b;
  ASSERT_TRUE(a.write_latest("k", "a", 10).ok());
  const bool b_wins = a.write_latest("k", "b", 10).ok();
  ASSERT_TRUE(b.write_latest("k", "b", 10).ok());
  const bool a_wins = b.write_latest("k", "a", 10).ok();
  EXPECT_NE(b_wins, a_wins);  // exactly one value wins the tie
  EXPECT_EQ(a.read_latest("k")->value, b.read_latest("k")->value);
  // The losing side of the tie is still a rejected conflict.
  EXPECT_EQ(a.stats().set_outdated + b.stats().set_outdated, 1u);
}

TEST(ReadLatest, MissingKeyIsNotFound) {
  LocalStore store;
  EXPECT_TRUE(store.read_latest("nope").status().is(StatusCode::kNotFound));
  EXPECT_EQ(store.stats().get_misses, 1u);
}

// ---- write_all / read_all ---------------------------------------------------

TEST(WriteAll, OneElementPerSource) {
  LocalStore store;
  ASSERT_TRUE(store.write_all("k", 1, "from-1", 10).ok());
  ASSERT_TRUE(store.write_all("k", 2, "from-2", 11).ok());
  auto list = store.read_all("k");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), 2u);
}

TEST(WriteAll, SameSourceUpdatesInPlaceWhenNewer) {
  LocalStore store;
  ASSERT_TRUE(store.write_all("k", 1, "v1", 10).ok());
  ASSERT_TRUE(store.write_all("k", 1, "v2", 20).ok());
  auto list = store.read_all("k");
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].value, "v2");
  EXPECT_EQ((*list)[0].ts, 20u);
}

TEST(WriteAll, SameSourceOlderTimestampIsOutdated) {
  LocalStore store;
  ASSERT_TRUE(store.write_all("k", 1, "v2", 20).ok());
  EXPECT_TRUE(store.write_all("k", 1, "v1", 10).is(StatusCode::kOutdated));
  EXPECT_EQ(store.read_all("k")->at(0).value, "v2");
}

TEST(WriteAll, OtherSourcesUnaffectedByOutdatedWrite) {
  LocalStore store;
  ASSERT_TRUE(store.write_all("k", 1, "a", 100).ok());
  ASSERT_TRUE(store.write_all("k", 2, "b", 5).ok());  // older ts, new source
  EXPECT_EQ(store.read_all("k")->size(), 2u);
}

TEST(WriteAll, LatestAndListCoexistOnOneKey) {
  LocalStore store;
  ASSERT_TRUE(store.write_latest("k", "single", 5).ok());
  ASSERT_TRUE(store.write_all("k", 1, "listed", 6).ok());
  EXPECT_EQ(store.read_latest("k")->value, "single");
  EXPECT_EQ(store.read_all("k")->size(), 1u);
}

// ---- memcached surface ------------------------------------------------------

TEST(McSet, UnconditionalOverwrite) {
  LocalStore store;
  EXPECT_TRUE(store.set("k", "a").ok());
  EXPECT_TRUE(store.set("k", "b").ok());
  EXPECT_EQ(store.get("k")->value, "b");
}

TEST(McSet, AutoTimestampsIncrease) {
  LocalStore store;
  store.set("k", "a");
  const Timestamp t1 = store.get("k")->ts;
  store.set("k", "b");
  EXPECT_GT(store.get("k")->ts, t1);
}

TEST(McAdd, FailsIfPresent) {
  LocalStore store;
  EXPECT_TRUE(store.add("k", "a").ok());
  EXPECT_TRUE(store.add("k", "b").is(StatusCode::kAlreadyExists));
  EXPECT_EQ(store.get("k")->value, "a");
}

TEST(McReplace, FailsIfAbsent) {
  LocalStore store;
  EXPECT_TRUE(store.replace("k", "a").is(StatusCode::kNotFound));
  store.set("k", "a");
  EXPECT_TRUE(store.replace("k", "b").ok());
  EXPECT_EQ(store.get("k")->value, "b");
}

TEST(McCas, SucceedsWithFreshToken) {
  LocalStore store;
  store.set("k", "a");
  auto got = store.gets("k");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(store.cas("k", "b", got->second).ok());
  EXPECT_EQ(store.get("k")->value, "b");
  EXPECT_EQ(store.stats().cas_hits, 1u);
}

TEST(McCas, FailsWithStaleToken) {
  LocalStore store;
  store.set("k", "a");
  auto got = store.gets("k");
  store.set("k", "b");  // bumps the cas token
  EXPECT_FALSE(store.cas("k", "c", got->second).ok());
  EXPECT_EQ(store.get("k")->value, "b");
  EXPECT_EQ(store.stats().cas_misses, 1u);
}

TEST(McCas, MissingKeyIsNotFound) {
  LocalStore store;
  EXPECT_TRUE(store.cas("k", "v", 1).is(StatusCode::kNotFound));
}

TEST(McIncrDecr, NumericStrings) {
  LocalStore store;
  store.set("n", "10");
  EXPECT_EQ(store.incr("n", 5).value(), 15u);
  EXPECT_EQ(store.decr("n", 3).value(), 12u);
  EXPECT_EQ(store.get("n")->value, "12");
}

TEST(McDecr, SaturatesAtZeroLikeMemcached) {
  LocalStore store;
  store.set("n", "3");
  EXPECT_EQ(store.decr("n", 100).value(), 0u);
}

TEST(McIncr, NonNumericRejected) {
  LocalStore store;
  store.set("n", "abc");
  EXPECT_TRUE(store.incr("n", 1).status().is(StatusCode::kInvalidArgument));
}

TEST(McIncr, TrailingGarbageRejected) {
  LocalStore store;
  store.set("n", "12x");
  EXPECT_FALSE(store.incr("n", 1).ok());
}

TEST(McDelete, RemovesKey) {
  LocalStore store;
  store.set("k", "v");
  EXPECT_TRUE(store.del("k").ok());
  EXPECT_FALSE(store.get("k").ok());
  EXPECT_TRUE(store.del("k").is(StatusCode::kNotFound));
  EXPECT_EQ(store.stats().deletes, 1u);
}

// ---- expiry -----------------------------------------------------------------

struct FakeClock {
  std::uint64_t now = 0;
};

TEST(Expiry, ItemExpiresLazily) {
  FakeClock clock;
  LocalStore store({}, [&clock] { return clock.now; });
  store.set("k", "v", 0, /*ttl=*/100);
  clock.now = 50;
  EXPECT_TRUE(store.get("k").ok());
  clock.now = 100;
  EXPECT_FALSE(store.get("k").ok());
  EXPECT_EQ(store.stats().expired, 1u);
}

TEST(Expiry, TouchExtendsLife) {
  FakeClock clock;
  LocalStore store({}, [&clock] { return clock.now; });
  store.set("k", "v", 0, 100);
  clock.now = 90;
  EXPECT_TRUE(store.touch("k", 100).ok());
  clock.now = 150;
  EXPECT_TRUE(store.get("k").ok());  // now expires at 190
  clock.now = 190;
  EXPECT_FALSE(store.get("k").ok());
}

TEST(Expiry, ZeroTtlNeverExpires) {
  FakeClock clock;
  LocalStore store({}, [&clock] { return clock.now; });
  store.set("k", "v");
  clock.now = UINT32_MAX;
  EXPECT_TRUE(store.get("k").ok());
}

TEST(Expiry, SweepReclaimsProactively) {
  FakeClock clock;
  LocalStore store({}, [&clock] { return clock.now; });
  for (int i = 0; i < 100; ++i) {
    store.set("k" + std::to_string(i), "v", 0, 10);
  }
  clock.now = 11;
  EXPECT_EQ(store.expire_sweep(), 100u);
  EXPECT_EQ(store.size(), 0u);
}

TEST(Expiry, SweepHonoursLimit) {
  FakeClock clock;
  LocalStore store({}, [&clock] { return clock.now; });
  for (int i = 0; i < 100; ++i) {
    store.set("k" + std::to_string(i), "v", 0, 10);
  }
  clock.now = 11;
  EXPECT_EQ(store.expire_sweep(30), 30u);
  EXPECT_EQ(store.size(), 70u);
}

TEST(Expiry, ExpiredSlotReusableForWriteLatest) {
  FakeClock clock;
  LocalStore store({}, [&clock] { return clock.now; });
  store.set("k", "old", 0, 10);
  clock.now = 20;
  // Lazy expiry removes the item, so even an older LWW timestamp lands.
  EXPECT_TRUE(store.write_latest("k", "new", 1).ok());
  EXPECT_EQ(store.read_latest("k")->value, "new");
}

// ---- LRU eviction / memory accounting ---------------------------------------

TEST(Eviction, StaysUnderBudget) {
  LocalStoreConfig cfg;
  cfg.shards = 1;
  cfg.memory_budget_bytes = 16 * 1024;
  LocalStore store(cfg);
  for (int i = 0; i < 2000; ++i) {
    store.set("key-" + std::to_string(i), std::string(32, 'v'));
  }
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_LE(store.stats().bytes, 16u * 1024u);
  EXPECT_LT(store.size(), 2000u);
}

TEST(Eviction, RecentlyUsedSurvive) {
  LocalStoreConfig cfg;
  cfg.shards = 1;
  cfg.memory_budget_bytes = 64 * 1024;
  LocalStore store(cfg);
  store.set("hot", "v");
  for (int i = 0; i < 4000; ++i) {
    store.set("cold-" + std::to_string(i), std::string(64, 'v'));
    (void)store.get("hot");  // keep it at the LRU head
  }
  EXPECT_TRUE(store.get("hot").ok());
}

TEST(Eviction, UnlimitedBudgetNeverEvicts) {
  LocalStore store;
  for (int i = 0; i < 5000; ++i) {
    store.set("k" + std::to_string(i), std::string(100, 'v'));
  }
  EXPECT_EQ(store.stats().evictions, 0u);
  EXPECT_EQ(store.size(), 5000u);
}

TEST(Accounting, BytesTrackValueGrowth) {
  LocalStore store;
  store.set("k", "small");
  const auto small = store.stats().bytes;
  store.set("k", std::string(1000, 'x'));
  const auto big = store.stats().bytes;
  EXPECT_GT(big, small + 900);
  store.set("k", "small");
  EXPECT_LT(store.stats().bytes, big);
}

TEST(Accounting, SlabChargesAtLeastPayload) {
  LocalStore store;
  for (int i = 0; i < 100; ++i) {
    store.set("k" + std::to_string(i), std::string(200, 'v'));
  }
  EXPECT_GE(store.slab_charged_bytes(), store.stats().bytes);
}

TEST(Accounting, DeleteReleasesBytes) {
  LocalStore store;
  store.set("k", std::string(1000, 'v'));
  const auto before = store.stats().bytes;
  store.del("k");
  EXPECT_LT(store.stats().bytes, before);
  EXPECT_EQ(store.stats().bytes, 0u);
}

// ---- change capture (dirty table, Section IV.C) ------------------------------

TEST(Changes, DisabledByDefault) {
  LocalStore store;
  store.set("k", "v");
  EXPECT_EQ(store.pending_changes(), 0u);
}

TEST(Changes, CapturesOldAndNew) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  store.write_latest("k", "v1", 1);
  store.write_latest("k", "v2", 2);
  auto changes = store.drain_changes();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].key, "k");
  EXPECT_FALSE(changes[0].had_old);  // first write created the key
  EXPECT_EQ(changes[0].new_value.value, "v2");  // coalesced to freshest
}

TEST(Changes, CoalesceSpansFirstOldToLastNew) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  store.write_latest("k", "base", 1);
  (void)store.drain_changes();
  store.write_latest("k", "mid", 2);
  store.write_latest("k", "final", 3);
  auto changes = store.drain_changes();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_TRUE(changes[0].had_old);
  EXPECT_EQ(changes[0].old_value.value, "base");
  EXPECT_EQ(changes[0].new_value.value, "final");
}

TEST(Changes, DrainClearsTable) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  store.set("k", "v");
  EXPECT_EQ(store.drain_changes().size(), 1u);
  EXPECT_EQ(store.drain_changes().size(), 0u);
}

TEST(Changes, DeleteRecorded) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  store.set("k", "v");
  (void)store.drain_changes();
  store.del("k");
  auto changes = store.drain_changes();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_TRUE(changes[0].deleted);
}

TEST(Changes, MonitoredPredicateFilters) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  store.set_monitored_predicate([](std::string_view key) {
    return key.starts_with("watched/");
  });
  store.set("watched/k", "v");
  store.set("ignored/k", "v");
  auto changes = store.drain_changes();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].key, "watched/k");
}

TEST(Changes, PredicateReevaluatedOnExistingItems) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  store.set_monitored_predicate([](std::string_view) { return false; });
  store.set("k", "v1");
  EXPECT_EQ(store.drain_changes().size(), 0u);
  store.set_monitored_predicate([](std::string_view) { return true; });
  store.set("k", "v2");
  EXPECT_EQ(store.drain_changes().size(), 1u);
}

TEST(Changes, OutdatedWritesProduceNoChange) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  store.write_latest("k", "v", 100);
  (void)store.drain_changes();
  store.write_latest("k", "stale", 50);
  EXPECT_EQ(store.pending_changes(), 0u);
}

// ---- iteration / misc ---------------------------------------------------------

TEST(Iteration, ForEachVisitsEverything) {
  LocalStore store;
  for (int i = 0; i < 50; ++i) store.set("k" + std::to_string(i), "v");
  std::size_t visited = 0;
  store.for_each([&](const Item&) { ++visited; });
  EXPECT_EQ(visited, 50u);
}

TEST(Iteration, ForEachMatchingFilters) {
  LocalStore store;
  store.set("a/1", "v");
  store.set("a/2", "v");
  store.set("b/1", "v");
  std::size_t visited = 0;
  store.for_each_matching(
      [](std::string_view key) { return key.starts_with("a/"); },
      [&](const Item&) { ++visited; });
  EXPECT_EQ(visited, 2u);
}

TEST(Misc, ClearEmptiesEverything) {
  LocalStoreConfig cfg;
  cfg.track_changes = true;
  LocalStore store(cfg);
  store.set("k", "v");
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.pending_changes(), 0u);
  EXPECT_FALSE(store.get("k").ok());
  EXPECT_TRUE(store.set("k", "again").ok());
}

TEST(Misc, NextTimestampMonotone) {
  LocalStore store;
  Timestamp prev = 0;
  for (int i = 0; i < 100; ++i) {
    const Timestamp t = store.next_timestamp();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Misc, ManyKeysTriggerBucketGrowth) {
  LocalStoreConfig cfg;
  cfg.shards = 1;
  cfg.initial_buckets_per_shard = 8;
  LocalStore store(cfg);
  for (int i = 0; i < 10000; ++i) {
    store.set("grow-" + std::to_string(i), "v");
  }
  EXPECT_EQ(store.size(), 10000u);
  for (int i = 0; i < 10000; i += 997) {
    EXPECT_TRUE(store.get("grow-" + std::to_string(i)).ok());
  }
}

// ---- shard-count parameterized sweep -----------------------------------------

class ShardSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardSweep, RoundTripAcrossShardCounts) {
  LocalStoreConfig cfg;
  cfg.shards = GetParam();
  LocalStore store(cfg);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store.write_latest("key-" + std::to_string(i),
                                   "value-" + std::to_string(i),
                                   static_cast<Timestamp>(i + 1)).ok());
  }
  for (int i = 0; i < 1000; ++i) {
    auto got = store.read_latest("key-" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->value, "value-" + std::to_string(i));
  }
  EXPECT_EQ(store.size(), 1000u);
}

TEST_P(ShardSweep, StatsAggregateAcrossShards) {
  LocalStoreConfig cfg;
  cfg.shards = GetParam();
  LocalStore store(cfg);
  for (int i = 0; i < 100; ++i) store.set("k" + std::to_string(i), "v");
  for (int i = 0; i < 100; ++i) (void)store.get("k" + std::to_string(i));
  EXPECT_EQ(store.stats().sets, 100u);
  EXPECT_EQ(store.stats().get_hits, 100u);
  EXPECT_EQ(store.stats().curr_items, 100u);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 64));

// ---- concurrency --------------------------------------------------------------

TEST(Concurrency, ParallelSetsAllLand) {
  LocalStoreConfig cfg;
  cfg.shards = 16;
  LocalStore store(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kPerThread; ++i) {
        store.set("t" + std::to_string(t) + "-" + std::to_string(i), "v");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(Concurrency, LwwIsRaceFreePerKey) {
  LocalStore store;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < 1000; ++i) {
        const auto ts = static_cast<Timestamp>(i * kThreads + t + 1);
        store.write_latest("contended", "w" + std::to_string(ts), ts);
      }
    });
  }
  for (auto& th : threads) th.join();
  // The winner must be the globally maximal timestamp.
  auto got = store.read_latest("contended");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ts, static_cast<Timestamp>(1000 * kThreads));
  EXPECT_EQ(got->value, "w" + std::to_string(1000 * kThreads));
}

TEST(Concurrency, CasLosesExactlyNMinus1PerRound) {
  LocalStore store;
  store.set("counter", "0");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {  // classic CAS loop
          auto got = store.gets("counter");
          const auto current = std::stoull(got->first.value);
          if (store.cas("counter", std::to_string(current + 1),
                        got->second).ok()) {
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.get("counter")->value,
            std::to_string(kThreads * kIncrements));
}

}  // namespace
}  // namespace sedna::store
