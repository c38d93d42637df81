// DVV algebra property tests (store/dvv.h): the semilattice join laws
// the repair subsystem relies on (commutative, associative, idempotent),
// dot compaction under contextual writes, coordinator update semantics,
// exact wire round-trips — plus the deterministic equal-timestamp
// tie-break that keeps write_latest/write_all replicas convergent under
// reversed delivery order.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "store/dvv.h"
#include "store/local_store.h"

namespace sedna::store {
namespace {

CausalRecord joined(CausalRecord a, const CausalRecord& b) {
  a.merge(b);
  return a;
}

/// Deterministic pseudo-random causal histories: four replica copies of
/// one key evolve by coordinator updates (half contextual, half blind —
/// blind puts are what mint true concurrency) and pairwise syncs, all
/// driven by one seeded engine. Every record this produces is reachable
/// in a real cluster, so the join laws are tested on states that matter.
std::vector<CausalRecord> random_history(std::uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  std::vector<CausalRecord> reps(4);
  for (int s = 0; s < steps; ++s) {
    const std::size_t i = rng() % reps.size();
    if (rng() % 3 == 0) {
      reps[i].merge(reps[rng() % reps.size()]);
    } else {
      VersionVector ctx;
      if (rng() % 2 == 0) ctx = reps[i].clock;  // read-modify-write
      reps[i].update(ctx, "v" + std::to_string(s),
                     1000 + static_cast<Timestamp>(rng() % 50), 0,
                     static_cast<NodeId>(100 + i));
    }
  }
  return reps;
}

TEST(DvvAlgebra, MergeIsCommutative) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto reps = random_history(seed, 50);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t j = 0; j < reps.size(); ++j) {
        EXPECT_EQ(joined(reps[i], reps[j]), joined(reps[j], reps[i]))
            << "seed " << seed << " pair " << i << "," << j;
      }
    }
  }
}

TEST(DvvAlgebra, MergeIsAssociative) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto reps = random_history(seed, 50);
    const CausalRecord& a = reps[0];
    const CausalRecord& b = reps[1];
    const CausalRecord& c = reps[2];
    EXPECT_EQ(joined(joined(a, b), c), joined(a, joined(b, c)))
        << "seed " << seed;
  }
}

TEST(DvvAlgebra, MergeIsIdempotent) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto reps = random_history(seed, 50);
    for (const CausalRecord& r : reps) {
      CausalRecord twice = r;
      EXPECT_FALSE(twice.merge(r)) << "self-join reported a change";
      EXPECT_EQ(twice, r);
    }
    // Re-delivery after a join is also a no-op (hint replay, AE pushes).
    CausalRecord ab = joined(reps[0], reps[1]);
    EXPECT_FALSE(ab.merge(reps[1]));
    EXPECT_FALSE(ab.merge(reps[0]));
  }
}

TEST(DvvAlgebra, ContextualWritesCompactDots) {
  CausalRecord rec;
  for (int i = 0; i < 99; ++i) {
    // Every write carries the clock it read — causally supersedes all.
    rec.update(rec.clock, "v" + std::to_string(i),
               1000 + static_cast<Timestamp>(i), 0,
               static_cast<NodeId>(100 + i % 3));
  }
  EXPECT_EQ(rec.siblings.size(), 1u);
  EXPECT_EQ(rec.siblings[0].value, "v98");
  // The clock stays O(writers), not O(writes), and loses no events.
  EXPECT_EQ(rec.clock.entries().size(), 3u);
  EXPECT_EQ(rec.clock.get(100) + rec.clock.get(101) + rec.clock.get(102),
            99u);
}

TEST(DvvAlgebra, ConcurrentWritesSurviveAsSiblings) {
  CausalRecord a, b;
  a.update({}, "left", 5, 0, 1);
  b.update({}, "right", 5, 0, 2);
  const CausalRecord j = joined(a, b);
  ASSERT_EQ(j.siblings.size(), 2u);

  // A writer that read the joined state supersedes both siblings...
  CausalRecord c = j;
  c.update(j.clock, "merged", 6, 0, 3);
  ASSERT_EQ(c.siblings.size(), 1u);
  EXPECT_EQ(c.siblings[0].value, "merged");
  // ...and re-delivering the stale halves cannot resurrect them: their
  // dots are covered by the clock without being retained.
  EXPECT_FALSE(c.merge(a));
  EXPECT_FALSE(c.merge(b));
  EXPECT_EQ(c.siblings.size(), 1u);
}

TEST(DvvAlgebra, WinnerIsDeterministicAcrossSiblingOrder) {
  CausalRecord a, b;
  a.update({}, "alpha", 7, 0, 1);
  b.update({}, "omega", 7, 0, 2);
  const CausalRecord ab = joined(a, b);
  const CausalRecord ba = joined(b, a);
  ASSERT_NE(ab.winner(), nullptr);
  EXPECT_EQ(ab.winner()->value, ba.winner()->value);
  EXPECT_EQ(ab.digest(), ba.digest());
}

TEST(DvvAlgebra, WireRoundTripIsExact) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const CausalRecord& r : random_history(seed, 60)) {
      EXPECT_EQ(CausalRecord::decode_string(r.encode_string()), r);
    }
  }
}

TEST(DvvAlgebra, DecodeRejectsUnsortedClock) {
  // Two clock entries, deliberately out of order, and no siblings.
  using Clock = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  const std::string payload =
      codec::encode(std::pair{Clock{{5, 1}, {3, 1}}, std::uint32_t{0}});
  EXPECT_EQ(payload.size(), 4u + 2 * 12 + 4);
  EXPECT_TRUE(CausalRecord::decode_string(payload).empty());
}

// ---- store-level causal path ---------------------------------------------------

TEST(DvvStore, BlindPutsRetainSiblingsAndContextualPutCollapses) {
  LocalStore store;
  auto r1 = store.write_causal("k", {}, "one", 10, 0, 1);
  ASSERT_TRUE(r1.ok());
  auto r2 = store.write_causal("k", {}, "two", 11, 0, 2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->siblings.size(), 2u);
  EXPECT_EQ(store.stats().siblings, 1u);  // one beyond the first

  // Legacy mirror: read_latest sees the deterministic winner.
  auto latest = store.read_latest("k");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->value, "two");

  auto r3 = store.write_causal("k", r2->clock, "resolved", 12, 0, 1);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->siblings.size(), 1u);
  EXPECT_EQ(store.stats().siblings, 0u);
}

TEST(DvvStore, MergeCausalIsIdempotentAndCounted) {
  LocalStore a, b;
  auto ra = a.write_causal("k", {}, "from-a", 5, 0, 1);
  ASSERT_TRUE(ra.ok());
  bool changed = false;
  ASSERT_TRUE(b.merge_causal("k", ra.value(), &changed).ok());
  EXPECT_TRUE(changed);
  EXPECT_EQ(b.stats().dvv_merges, 1u);
  ASSERT_TRUE(b.merge_causal("k", ra.value(), &changed).ok());
  EXPECT_FALSE(changed);
  EXPECT_EQ(b.stats().dvv_merges, 1u);
  EXPECT_EQ(b.read_causal("k").value(), a.read_causal("k").value());
}

// ---- deterministic equal-timestamp tie-break -----------------------------------
//
// Arrival order must never decide an equal-timestamp race, or replicas
// that saw the same two writes in different orders would permanently
// diverge (the bug DVVs exist to make structurally impossible — but the
// legacy LWW path must converge too).

TEST(LwwTieBreak, WriteLatestConvergesUnderReversedDelivery) {
  const Timestamp ts = 777;
  LocalStore a, b;
  (void)a.write_latest("k", "alpha", ts);
  (void)a.write_latest("k", "omega", ts);
  (void)b.write_latest("k", "omega", ts);
  (void)b.write_latest("k", "alpha", ts);
  ASSERT_TRUE(a.read_latest("k").ok());
  EXPECT_EQ(a.read_latest("k")->value, b.read_latest("k")->value);
}

TEST(LwwTieBreak, AllDeliveryPermutationsAgree) {
  const Timestamp ts = 42;
  std::vector<std::string> vals = {"aa", "bb", "cc"};
  std::sort(vals.begin(), vals.end());
  std::string converged;
  do {
    LocalStore s;
    for (const auto& v : vals) (void)s.write_latest("k", v, ts);
    const auto got = s.read_latest("k");
    ASSERT_TRUE(got.ok());
    if (converged.empty()) {
      converged = got->value;
    } else {
      EXPECT_EQ(got->value, converged);
    }
  } while (std::next_permutation(vals.begin(), vals.end()));
}

TEST(LwwTieBreak, WriteAllConvergesUnderReversedDelivery) {
  const Timestamp ts = 9;
  LocalStore a, b;
  (void)a.write_all("k", 7, "x", ts);
  (void)a.write_all("k", 7, "y", ts);
  (void)b.write_all("k", 7, "y", ts);
  (void)b.write_all("k", 7, "x", ts);
  const auto la = a.read_all("k");
  const auto lb = b.read_all("k");
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());
  ASSERT_EQ(la->size(), 1u);
  ASSERT_EQ(lb->size(), 1u);
  EXPECT_EQ(la->front().value, lb->front().value);
}

}  // namespace
}  // namespace sedna::store
