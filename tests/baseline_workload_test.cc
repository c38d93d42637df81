// Tests for the memcached baseline (ketama ring, client modes) and the
// workload generators used by the figure benches.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "baseline/memcache.h"
#include "workload/closed_loop.h"
#include "workload/kv_workload.h"
#include "workload/tweets.h"

namespace sedna {
namespace {

// ---- Ketama ring ------------------------------------------------------------

TEST(Ketama, DeterministicMapping) {
  baseline::KetamaRing ring({1, 2, 3});
  EXPECT_EQ(ring.server_for("key"), ring.server_for("key"));
}

TEST(Ketama, ReplicaIndicesAreDistinctServers) {
  baseline::KetamaRing ring({1, 2, 3, 4});
  std::set<NodeId> picked;
  for (std::uint32_t r = 0; r < 3; ++r) {
    picked.insert(ring.server_for("some-key", r));
  }
  EXPECT_EQ(picked.size(), 3u);
}

TEST(Ketama, SpreadsKeysAcrossServers) {
  baseline::KetamaRing ring({1, 2, 3, 4, 5});
  std::map<NodeId, int> counts;
  for (int i = 0; i < 5000; ++i) {
    ++counts[ring.server_for("key-" + std::to_string(i))];
  }
  EXPECT_EQ(counts.size(), 5u);
  for (const auto& [server, count] : counts) {
    EXPECT_GT(count, 500);
    EXPECT_LT(count, 2000);
  }
}

TEST(Ketama, RemovalMovesOnlyVictimKeys) {
  baseline::KetamaRing full({1, 2, 3, 4});
  baseline::KetamaRing reduced({1, 2, 3});
  int moved = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const NodeId before = full.server_for(key);
    const NodeId after = reduced.server_for(key);
    if (before != after) {
      ++moved;
      EXPECT_EQ(before, 4u);  // only keys of the removed server move
    }
  }
  EXPECT_GT(moved, n / 8);
  EXPECT_LT(moved, n / 2);
}

TEST(Ketama, EmptyRingReturnsInvalid) {
  baseline::KetamaRing ring({});
  EXPECT_EQ(ring.server_for("k"), kInvalidNode);
}

// ---- Memcache cluster end-to-end ---------------------------------------------

struct McFixture {
  McFixture() : net(simulation) {
    for (NodeId id = 10; id < 14; ++id) {
      servers.push_back(std::make_unique<baseline::MemcacheNode>(net, id));
      ids.push_back(id);
    }
    baseline::MemcacheClientConfig cfg;
    cfg.servers = ids;
    client = std::make_unique<baseline::MemcacheClient>(net, 100, cfg);
  }

  void run_until(const std::function<bool()>& pred) {
    while (!pred() && simulation.step()) {
    }
  }

  sim::Simulation simulation{5};
  sim::Network net;
  std::vector<std::unique_ptr<baseline::MemcacheNode>> servers;
  std::vector<NodeId> ids;
  std::unique_ptr<baseline::MemcacheClient> client;
};

TEST(Memcache, SetThenGet) {
  McFixture fx;
  std::optional<Status> set_st;
  fx.client->set("k", "v", [&](const Status& st) { set_st = st; });
  fx.run_until([&] { return set_st.has_value(); });
  ASSERT_TRUE(set_st->ok());

  std::optional<Result<std::string>> got;
  fx.client->get("k", [&](const Result<std::string>& r) { got = r; });
  fx.run_until([&] { return got.has_value(); });
  ASSERT_TRUE(got->ok());
  EXPECT_EQ(got->value(), "v");
}

TEST(Memcache, GetMissingIsNotFound) {
  McFixture fx;
  std::optional<Result<std::string>> got;
  fx.client->get("missing", [&](const Result<std::string>& r) { got = r; });
  fx.run_until([&] { return got.has_value(); });
  EXPECT_FALSE(got->ok());
  EXPECT_EQ(got->status().code(), StatusCode::kNotFound);
}

TEST(Memcache, SetNWritesNDistinctServers) {
  McFixture fx;
  std::optional<Status> st;
  fx.client->set_n("multi", "v", 3, [&](const Status& s) { st = s; });
  fx.run_until([&] { return st.has_value(); });
  ASSERT_TRUE(st->ok());

  int copies = 0;
  for (auto& server : fx.servers) {
    if (server->local_store().read_latest("multi").ok()) ++copies;
  }
  EXPECT_EQ(copies, 3);
}

TEST(Memcache, SetNIsSequentialNotParallel) {
  // The x3 writes must take ~3x the single-write latency — that is the
  // defining property of the Fig. 7(a) baseline.
  McFixture fx;
  std::optional<Status> st1;
  const SimTime t0 = fx.simulation.now();
  fx.client->set("k1", "v", [&](const Status& s) { st1 = s; });
  fx.run_until([&] { return st1.has_value(); });
  const SimTime single = fx.simulation.now() - t0;

  std::optional<Status> st3;
  const SimTime t1 = fx.simulation.now();
  fx.client->set_n("k3", "v", 3, [&](const Status& s) { st3 = s; });
  fx.run_until([&] { return st3.has_value(); });
  const SimTime triple = fx.simulation.now() - t1;

  EXPECT_GT(triple, 2 * single);
  EXPECT_LT(triple, 5 * single);
}

TEST(Memcache, NoReplicationMeansCrashLosesData) {
  // The contrast with Sedna: memcached's single copy dies with its server.
  McFixture fx;
  std::optional<Status> st;
  fx.client->set("fragile", "v", [&](const Status& s) { st = s; });
  fx.run_until([&] { return st.has_value(); });
  ASSERT_TRUE(st->ok());

  const NodeId holder = fx.client->ring().server_for("fragile");
  for (auto& server : fx.servers) {
    if (server->id() == holder) server->crash();
  }
  std::optional<Result<std::string>> got;
  fx.client->get("fragile", [&](const Result<std::string>& r) { got = r; });
  fx.run_until([&] { return got.has_value(); });
  EXPECT_FALSE(got->ok());
}

// ---- Memcache wire bytes -------------------------------------------------------

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string unhex(std::string_view digits) {
  std::string out;
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(digits.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// The far end of a memcache wire: keeps the bytes of every request it
/// gets and answers each with `answer`; `ask` sends raw request bytes.
class WireProbe : public sim::Host {
 public:
  WireProbe(sim::Network& net, NodeId id) : sim::Host(net, id) {}

  std::string answer;
  std::vector<std::string> requests;

  void ask(NodeId to, sim::MessageType type, std::string payload,
           std::optional<std::string>& reply_hex) {
    call(to, type, std::move(payload),
         [&reply_hex](const Status& st, const std::string& body) {
           reply_hex = st.ok() ? hex(body) : st.to_string();
         });
  }

 protected:
  void on_message(const sim::Message& msg) override {
    requests.push_back(msg.payload);
    reply(msg, answer);
  }
};

/// A memcache server and a client whose only server is the probe.
struct McWire {
  McWire() : net(simulation), node(net, 10), probe(net, 20) {
    baseline::MemcacheClientConfig cfg;
    cfg.servers = {20};
    client = std::make_unique<baseline::MemcacheClient>(net, 100, cfg);
  }

  /// The server's reply to raw request bytes, as hex.
  std::string ask(sim::MessageType type, std::string_view request_hex) {
    std::optional<std::string> reply_hex;
    probe.ask(10, type, unhex(request_hex), reply_hex);
    while (!reply_hex.has_value() && simulation.step()) {
    }
    return reply_hex.value_or("no reply");
  }

  Status set(const std::string& key, const std::string& value) {
    std::optional<Status> st;
    client->set(key, value, [&](const Status& s) { st = s; });
    while (!st.has_value() && simulation.step()) {
    }
    return st.value_or(Status::Timeout());
  }

  Result<std::string> get(const std::string& key) {
    std::optional<Result<std::string>> got;
    client->get(key, [&](const Result<std::string>& r) { got = r; });
    while (!got.has_value() && simulation.step()) {
    }
    return got.value_or(Status::Timeout());
  }

  sim::Simulation simulation{5};
  sim::Network net;
  baseline::MemcacheNode node;
  WireProbe probe;
  std::unique_ptr<baseline::MemcacheClient> client;
};

TEST(MemcacheWire, ClientRequestBytes) {
  McWire w;
  w.probe.answer = unhex("00");
  ASSERT_TRUE(w.set("k1", "val").ok());
  ASSERT_EQ(w.probe.requests.size(), 1u);
  EXPECT_EQ(hex(w.probe.requests[0]), "020000006b310300000076616c");

  w.probe.answer = unhex("000300000076616c");
  const auto got = w.get("k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "val");
  ASSERT_EQ(w.probe.requests.size(), 2u);
  EXPECT_EQ(hex(w.probe.requests[1]), "020000006b31");

  w.probe.answer = unhex("0500000000");
  EXPECT_EQ(w.get("k1").status().code(), StatusCode::kNotFound);
}

TEST(MemcacheWire, ServerReplyBytes) {
  McWire w;
  const std::string set_k1 = "020000006b310300000076616c";
  const std::string key_k1 = "020000006b31";
  EXPECT_EQ(w.ask(baseline::kMsgMcSet, set_k1), "00");
  EXPECT_EQ(w.ask(baseline::kMsgMcGet, key_k1), "000300000076616c");
  EXPECT_EQ(w.ask(baseline::kMsgMcDelete, key_k1), "00");
  // A get miss still carries an empty value.
  EXPECT_EQ(w.ask(baseline::kMsgMcGet, key_k1), "0500000000");
  EXPECT_EQ(w.ask(baseline::kMsgMcDelete, key_k1), "05");
  // A set without its value is refused.
  EXPECT_EQ(w.ask(baseline::kMsgMcSet, key_k1), "07");
  EXPECT_FALSE(w.node.local_store().read_latest("k1").ok());
}

TEST(MemcacheWire, ReplyThatDoesNotDecodeIsCorruption) {
  McWire w;
  w.probe.answer = unhex("ff");  // no such status
  EXPECT_EQ(w.set("k", "v").code(), StatusCode::kCorruption);
  w.probe.answer = unhex("ff00000000");
  EXPECT_EQ(w.get("k").status().code(), StatusCode::kCorruption);
  w.probe.answer = "";  // no status at all
  EXPECT_EQ(w.set("k", "v").code(), StatusCode::kCorruption);
  EXPECT_EQ(w.get("k").status().code(), StatusCode::kCorruption);
}

TEST(MemcacheWire, KeyRequestThatDoesNotDecodeIsRefusedUntouched) {
  McWire w;
  auto& store = w.node.local_store();
  ASSERT_TRUE(store.set("", "kept").ok());
  // A key length that claims more bytes than follow.
  EXPECT_EQ(w.ask(baseline::kMsgMcGet, "0500000061"), "0700000000");
  EXPECT_EQ(w.ask(baseline::kMsgMcDelete, "0500000061"), "07");
  EXPECT_EQ(store.stats().get_hits + store.stats().get_misses, 0u);
  EXPECT_EQ(store.stats().deletes, 0u);
  const auto kept = store.read_latest("");
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->value, "kept");
}

// ---- Workloads -----------------------------------------------------------------

TEST(KvWorkload, KeysMatchPaperShape) {
  workload::KvWorkload wl;
  const std::string key = wl.key(0);
  EXPECT_EQ(key.substr(0, 5), "test-");
  EXPECT_EQ(key.size(), 19u);  // "test-" + 14 digits ≈ the paper's 20 B
  for (char c : key.substr(5)) EXPECT_TRUE(isdigit(c));
  EXPECT_EQ(wl.value().size(), 20u);
}

TEST(KvWorkload, KeysDeterministicAndDistinct) {
  workload::KvWorkload a, b;
  std::set<std::string> keys;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(a.key(i), b.key(i));
    keys.insert(a.key(i));
  }
  EXPECT_GT(keys.size(), 9990u);  // collisions vanishingly rare
}

TEST(KvWorkload, SeedsChangeKeys) {
  workload::KvWorkload a({20, 1});
  workload::KvWorkload b({20, 2});
  EXPECT_NE(a.key(0), b.key(0));
}

TEST(ClosedLoop, RunsExactlyTotalOps) {
  sim::Simulation simulation;
  int issued = 0;
  bool completed = false;
  workload::ClosedLoopDriver driver(
      25, [&](std::uint64_t i, const std::function<void()>& done) {
        EXPECT_EQ(i, static_cast<std::uint64_t>(issued));
        ++issued;
        simulation.schedule(10, done);  // async completion
      });
  driver.start([&] { completed = true; });
  simulation.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(issued, 25);
  EXPECT_EQ(driver.completed(), 25u);
}

TEST(ClosedLoop, OneOutstandingOpAtATime) {
  sim::Simulation simulation;
  int in_flight = 0, max_in_flight = 0;
  workload::ClosedLoopDriver driver(
      10, [&](std::uint64_t, const std::function<void()>& done) {
        ++in_flight;
        max_in_flight = std::max(max_in_flight, in_flight);
        simulation.schedule(10, [&, done] {
          --in_flight;
          done();
        });
      });
  driver.start({});
  simulation.run();
  EXPECT_EQ(max_in_flight, 1);
}

TEST(Tweets, DeterministicAndZipfy) {
  workload::TweetGenerator a, b;
  std::map<std::uint32_t, int> author_counts;
  for (int i = 0; i < 500; ++i) {
    const auto ta = a.next();
    const auto tb = b.next();
    EXPECT_EQ(ta.text, tb.text);
    EXPECT_EQ(ta.author, tb.author);
    ++author_counts[ta.author];
  }
  // Zipf: the most prolific author dominates.
  int max_count = 0;
  for (const auto& [author, count] : author_counts) {
    max_count = std::max(max_count, count);
  }
  EXPECT_GT(max_count, 50);
}

TEST(Tweets, FolloweesExcludeSelfAndAreStable) {
  workload::TweetGenerator gen;
  const auto f1 = gen.followees(7);
  const auto f2 = gen.followees(7);
  EXPECT_EQ(f1, f2);
  for (auto followee : f1) EXPECT_NE(followee, 7u);
  EXPECT_FALSE(f1.empty());
}

}  // namespace
}  // namespace sedna
