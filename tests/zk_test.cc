// Tests for the ZooKeeper-lite coordination service: the znode tree,
// ensemble consensus, sessions/ephemerals, watches, leader failover and
// the adaptive-lease client cache.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "sim/network.h"
#include "sim/simulation.h"
#include "zk/zk_client.h"
#include "zk/zk_server.h"
#include "zk/znode_tree.h"

namespace sedna::zk {
namespace {

// ---- ZnodeTree unit tests ----------------------------------------------------

TEST(ZnodeTree, CreateAndGet) {
  ZnodeTree tree;
  auto created = tree.create("/a", "data", CreateMode::kPersistent, 0, 1);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value(), "/a");
  auto got = tree.get("/a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->first, "data");
  EXPECT_EQ(got->second.czxid, 1u);
  EXPECT_EQ(got->second.version, 0);
}

TEST(ZnodeTree, NestedCreateRequiresParent) {
  ZnodeTree tree;
  EXPECT_TRUE(tree.create("/a/b", "", CreateMode::kPersistent, 0, 1)
                  .status()
                  .is(StatusCode::kNotFound));
  ASSERT_TRUE(tree.create("/a", "", CreateMode::kPersistent, 0, 1).ok());
  EXPECT_TRUE(tree.create("/a/b", "", CreateMode::kPersistent, 0, 2).ok());
}

TEST(ZnodeTree, DuplicateCreateRejected) {
  ZnodeTree tree;
  ASSERT_TRUE(tree.create("/a", "", CreateMode::kPersistent, 0, 1).ok());
  EXPECT_TRUE(tree.create("/a", "", CreateMode::kPersistent, 0, 2)
                  .status()
                  .is(StatusCode::kAlreadyExists));
}

TEST(ZnodeTree, MalformedPathsRejected) {
  ZnodeTree tree;
  for (const char* bad : {"", "/", "a", "/a/", "//"}) {
    EXPECT_FALSE(tree.create(bad, "", CreateMode::kPersistent, 0, 1).ok())
        << bad;
  }
}

TEST(ZnodeTree, SetBumpsVersionAndChecksExpected) {
  ZnodeTree tree;
  ASSERT_TRUE(tree.create("/a", "v0", CreateMode::kPersistent, 0, 1).ok());
  auto s1 = tree.set("/a", "v1", 0, 2);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->version, 1);
  EXPECT_EQ(s1->mzxid, 2u);
  // Stale expected version fails.
  EXPECT_FALSE(tree.set("/a", "v2", 0, 3).ok());
  // -1 skips the check.
  EXPECT_TRUE(tree.set("/a", "v2", -1, 3).ok());
  EXPECT_EQ(tree.get("/a")->first, "v2");
}

TEST(ZnodeTree, DeleteChecksVersionAndChildren) {
  ZnodeTree tree;
  ASSERT_TRUE(tree.create("/a", "", CreateMode::kPersistent, 0, 1).ok());
  ASSERT_TRUE(tree.create("/a/b", "", CreateMode::kPersistent, 0, 2).ok());
  EXPECT_TRUE(tree.remove("/a", -1).is(StatusCode::kInvalidArgument));
  EXPECT_TRUE(tree.remove("/a/b", 5).is(StatusCode::kFailure));
  EXPECT_TRUE(tree.remove("/a/b", 0).ok());
  EXPECT_TRUE(tree.remove("/a", -1).ok());
  EXPECT_FALSE(tree.exists("/a").ok());
}

TEST(ZnodeTree, ChildrenSortedAndCounted) {
  ZnodeTree tree;
  ASSERT_TRUE(tree.create("/p", "", CreateMode::kPersistent, 0, 1).ok());
  for (const char* name : {"/p/c", "/p/a", "/p/b"}) {
    ASSERT_TRUE(tree.create(name, "", CreateMode::kPersistent, 0, 2).ok());
  }
  auto kids = tree.children("/p");
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(kids.value(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(tree.exists("/p")->num_children, 3u);
}

TEST(ZnodeTree, SequentialNamesMonotone) {
  ZnodeTree tree;
  ASSERT_TRUE(tree.create("/q", "", CreateMode::kPersistent, 0, 1).ok());
  auto first =
      tree.create("/q/item-", "", CreateMode::kPersistentSequential, 0, 2);
  auto second =
      tree.create("/q/item-", "", CreateMode::kPersistentSequential, 0, 3);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), "/q/item-0000000000");
  EXPECT_EQ(second.value(), "/q/item-0000000001");
  EXPECT_LT(first.value(), second.value());
}

TEST(ZnodeTree, EphemeralsTrackSessionAndCannotHaveChildren) {
  ZnodeTree tree;
  ASSERT_TRUE(tree.create("/e", "", CreateMode::kEphemeral, 77, 1).ok());
  EXPECT_EQ(tree.exists("/e")->ephemeral_owner, 77u);
  EXPECT_TRUE(tree.create("/e/child", "", CreateMode::kPersistent, 0, 2)
                  .status()
                  .is(StatusCode::kInvalidArgument));
}

TEST(ZnodeTree, RemoveSessionEphemerals) {
  ZnodeTree tree;
  ASSERT_TRUE(tree.create("/p", "", CreateMode::kPersistent, 0, 1).ok());
  ASSERT_TRUE(tree.create("/p/e1", "", CreateMode::kEphemeral, 5, 2).ok());
  ASSERT_TRUE(tree.create("/p/e2", "", CreateMode::kEphemeral, 5, 3).ok());
  ASSERT_TRUE(tree.create("/p/e3", "", CreateMode::kEphemeral, 6, 4).ok());
  const auto removed = tree.remove_session_ephemerals(5);
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_FALSE(tree.exists("/p/e1").ok());
  EXPECT_TRUE(tree.exists("/p/e3").ok());
}

TEST(ZnodeTree, SerializeDeserializeRoundTrip) {
  ZnodeTree tree;
  ASSERT_TRUE(tree.create("/a", "1", CreateMode::kPersistent, 0, 1).ok());
  ASSERT_TRUE(tree.create("/a/b", "2", CreateMode::kPersistent, 0, 2).ok());
  ASSERT_TRUE(tree.create("/a/e", "3", CreateMode::kEphemeral, 9, 3).ok());
  ASSERT_TRUE(
      tree.create("/a/s-", "", CreateMode::kPersistentSequential, 0, 4).ok());
  ASSERT_TRUE(tree.set("/a/b", "2b", -1, 5).ok());

  auto copy = ZnodeTree::deserialize(tree.serialize());
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->node_count(), tree.node_count());
  EXPECT_EQ(copy->get("/a/b")->first, "2b");
  EXPECT_EQ(copy->get("/a/b")->second.version, 1);
  EXPECT_EQ(copy->get("/a/e")->second.ephemeral_owner, 9u);
  // Sequence counters must survive: the next sequential name continues.
  auto next =
      copy->create("/a/s-", "", CreateMode::kPersistentSequential, 0, 6);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), "/a/s-0000000001");
}

TEST(ZnodeTree, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ZnodeTree::deserialize("garbage").ok());
}

// ---- Ensemble fixture -----------------------------------------------------------

class ClientHost : public sim::Host {
 public:
  ClientHost(sim::Network& net, NodeId id, std::vector<NodeId> ensemble,
             ZkClientConfig cfg = {})
      : sim::Host(net, id), zk_(*this, [&] {
          cfg.ensemble = std::move(ensemble);
          return cfg;
        }()) {}
  ZkClient& zk() { return zk_; }

 protected:
  void on_message(const sim::Message& msg) override {
    if (msg.type == kMsgWatchEvent) zk_.on_watch_event(msg.payload);
  }

 private:
  ZkClient zk_;
};

class EnsembleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulation>(17);
    net_ = std::make_unique<sim::Network>(*sim_);
    ZkServerConfig cfg;
    cfg.ensemble = {0, 1, 2};
    for (NodeId id : cfg.ensemble) {
      servers_.push_back(std::make_unique<ZkServer>(*net_, id, cfg));
      servers_.back()->start();
    }
    sim_->run_for(sim_ms(5));
    client_ = std::make_unique<ClientHost>(*net_, 100,
                                           std::vector<NodeId>{0, 1, 2});
    connect(*client_);
  }

  void connect(ClientHost& host) {
    std::optional<Status> st;
    host.zk().connect([&](const Status& s) { st = s; });
    run_until([&] { return st.has_value(); });
    ASSERT_TRUE(st.has_value() && st->ok());
  }

  void run_until(const std::function<bool()>& pred) {
    const SimTime deadline = sim_->now() + sim_sec(120);
    while (!pred() && sim_->now() < deadline && sim_->step()) {
    }
  }

  Status create_sync(ZkClient& zk, const std::string& path,
                     const std::string& data,
                     CreateMode mode = CreateMode::kPersistent,
                     std::string* actual = nullptr) {
    std::optional<Status> st;
    zk.create(path, data, mode, [&](const Result<std::string>& r) {
      if (r.ok() && actual != nullptr) *actual = r.value();
      st = r.status();
    });
    run_until([&] { return st.has_value(); });
    return st.value_or(Status::Timeout());
  }

  Result<std::pair<std::string, ZnodeStat>> get_sync(
      ZkClient& zk, const std::string& path) {
    std::optional<Result<std::pair<std::string, ZnodeStat>>> out;
    zk.get(path, [&](const auto& r) { out = r; });
    run_until([&] { return out.has_value(); });
    if (!out.has_value()) return Status::Timeout();
    return *out;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<ZkServer>> servers_;
  std::unique_ptr<ClientHost> client_;
};

TEST_F(EnsembleTest, SingleLeaderElected) {
  int leaders = 0;
  for (const auto& s : servers_) {
    if (s->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_TRUE(servers_[0]->is_leader());  // lowest live id leads
}

TEST_F(EnsembleTest, WriteReplicatesToAllMembers) {
  ASSERT_TRUE(create_sync(client_->zk(), "/x", "payload").ok());
  sim_->run_for(sim_ms(50));  // let commits propagate to followers
  for (const auto& s : servers_) {
    auto got = s->tree().get("/x");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->first, "payload");
  }
}

TEST_F(EnsembleTest, CommitsApplyInOrderOnFollowers) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(create_sync(client_->zk(), "/n" + std::to_string(i),
                            std::to_string(i)).ok());
  }
  sim_->run_for(sim_ms(100));
  for (const auto& s : servers_) {
    EXPECT_EQ(s->last_applied_zxid(), servers_[0]->last_applied_zxid());
    EXPECT_EQ(s->tree().node_count(), servers_[0]->tree().node_count());
  }
}

TEST_F(EnsembleTest, SessionExpiryRemovesEphemerals) {
  ZkClientConfig cfg;
  cfg.session_timeout = sim_ms(800);
  cfg.ping_interval = sim_ms(200);
  auto ephemeral_owner = std::make_unique<ClientHost>(
      *net_, 101, std::vector<NodeId>{0, 1, 2}, cfg);
  connect(*ephemeral_owner);
  ASSERT_TRUE(create_sync(ephemeral_owner->zk(), "/live", "",
                          CreateMode::kEphemeral).ok());

  // While the owner pings, the node persists.
  sim_->run_for(sim_sec(3));
  EXPECT_TRUE(get_sync(client_->zk(), "/live").ok());

  // Crash the owner: pings stop, the session expires, the znode goes.
  ephemeral_owner->crash();
  sim_->run_for(sim_sec(4));
  EXPECT_TRUE(get_sync(client_->zk(), "/live")
                  .status()
                  .is(StatusCode::kNotFound));
}

TEST_F(EnsembleTest, DataWatchFiresOnceOnChange) {
  ASSERT_TRUE(create_sync(client_->zk(), "/w", "v0").ok());
  int events = 0;
  std::optional<Result<std::pair<std::string, ZnodeStat>>> got;
  client_->zk().get_and_watch(
      "/w", [&](const auto& r) { got = r; },
      [&](const WatchEventMsg& ev) {
        ++events;
        EXPECT_EQ(ev.path, "/w");
        EXPECT_EQ(ev.type, WatchEventType::kDataChanged);
      });
  run_until([&] { return got.has_value(); });

  std::optional<Result<ZnodeStat>> set1;
  client_->zk().set("/w", "v1", -1, [&](const auto& r) { set1 = r; });
  run_until([&] { return set1.has_value(); });
  std::optional<Result<ZnodeStat>> set2;
  client_->zk().set("/w", "v2", -1, [&](const auto& r) { set2 = r; });
  run_until([&] { return set2.has_value(); });
  sim_->run_for(sim_ms(50));

  EXPECT_EQ(events, 1);  // one-shot, like ZooKeeper
}

TEST_F(EnsembleTest, ChildWatchFiresOnNewChild) {
  ASSERT_TRUE(create_sync(client_->zk(), "/dir", "").ok());
  int events = 0;
  std::optional<Result<std::vector<std::string>>> kids;
  client_->zk().children_and_watch(
      "/dir", [&](const auto& r) { kids = r; },
      [&](const WatchEventMsg& ev) {
        ++events;
        EXPECT_EQ(ev.type, WatchEventType::kChildrenChanged);
      });
  run_until([&] { return kids.has_value(); });
  ASSERT_TRUE(create_sync(client_->zk(), "/dir/kid", "").ok());
  sim_->run_for(sim_ms(50));
  EXPECT_EQ(events, 1);
}

TEST_F(EnsembleTest, ReadsServedByFollowersToo) {
  ASSERT_TRUE(create_sync(client_->zk(), "/r", "v").ok());
  sim_->run_for(sim_ms(50));
  // Force the client to a specific follower by making it the only member
  // it knows.
  auto follower_client = std::make_unique<ClientHost>(
      *net_, 102, std::vector<NodeId>{2});
  connect(*follower_client);
  auto got = get_sync(follower_client->zk(), "/r");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->first, "v");
}

TEST_F(EnsembleTest, LeaderFailoverElectsNextAndServesWrites) {
  ASSERT_TRUE(create_sync(client_->zk(), "/before", "x").ok());
  servers_[0]->crash();
  sim_->run_for(sim_sec(2));  // peer timeout + new leader sync

  EXPECT_TRUE(servers_[1]->is_leader());
  EXPECT_FALSE(servers_[2]->is_leader());

  // Writes continue against the new leader.
  ASSERT_TRUE(create_sync(client_->zk(), "/after", "y").ok());
  sim_->run_for(sim_ms(100));
  EXPECT_TRUE(servers_[1]->tree().get("/before").ok());
  EXPECT_TRUE(servers_[1]->tree().get("/after").ok());
  EXPECT_TRUE(servers_[2]->tree().get("/after").ok());
}

TEST_F(EnsembleTest, SessionsSurviveLeaderFailover) {
  ZkClientConfig cfg;
  cfg.session_timeout = sim_sec(2);
  cfg.ping_interval = sim_ms(300);
  auto owner = std::make_unique<ClientHost>(
      *net_, 103, std::vector<NodeId>{0, 1, 2}, cfg);
  connect(*owner);
  ASSERT_TRUE(create_sync(owner->zk(), "/surviving", "",
                          CreateMode::kEphemeral).ok());

  servers_[0]->crash();
  sim_->run_for(sim_sec(4));  // leader failover + several ping cycles

  // The session table was replicated; pings now reach the new leader and
  // the ephemeral is still there.
  EXPECT_TRUE(get_sync(client_->zk(), "/surviving").ok());
}

TEST_F(EnsembleTest, RestartedFollowerResyncsFullTree) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(create_sync(client_->zk(), "/k" + std::to_string(i), "v")
                    .ok());
  }
  servers_[2]->crash();
  for (int i = 10; i < 20; ++i) {
    ASSERT_TRUE(create_sync(client_->zk(), "/k" + std::to_string(i), "v")
                    .ok());
  }
  servers_[2]->restart();
  sim_->run_for(sim_sec(2));  // tree-sync request + transfer

  EXPECT_EQ(servers_[2]->tree().node_count(),
            servers_[0]->tree().node_count());
  EXPECT_TRUE(servers_[2]->tree().get("/k15").ok());
}

TEST_F(EnsembleTest, ClientFailsOverBetweenMembers) {
  // A client talking to a crashed member retries the next one.
  servers_[0]->crash();
  sim_->run_for(sim_sec(2));
  auto fresh = std::make_unique<ClientHost>(
      *net_, 104, std::vector<NodeId>{0, 1, 2});  // first target is dead
  connect(*fresh);
  EXPECT_TRUE(create_sync(fresh->zk(), "/via-failover", "v").ok());
}

TEST_F(EnsembleTest, VersionedSetConflictDetected) {
  ASSERT_TRUE(create_sync(client_->zk(), "/cas", "v0").ok());
  auto got = get_sync(client_->zk(), "/cas");
  ASSERT_TRUE(got.ok());
  // First CAS with the observed version wins...
  std::optional<Result<ZnodeStat>> s1;
  client_->zk().set("/cas", "v1", got->second.version,
                    [&](const auto& r) { s1 = r; });
  run_until([&] { return s1.has_value(); });
  ASSERT_TRUE(s1->ok());
  // ...the second with the same stale version loses.
  std::optional<Result<ZnodeStat>> s2;
  client_->zk().set("/cas", "v2", got->second.version,
                    [&](const auto& r) { s2 = r; });
  run_until([&] { return s2.has_value(); });
  EXPECT_FALSE(s2->ok());
}

TEST_F(EnsembleTest, ErrorRepliesReachTheCallbackAsTheirStatus) {
  // Every op goes through one request/reply step; drive each into its
  // error reply and check the code that reaches the op's callback.
  ASSERT_TRUE(create_sync(client_->zk(), "/dup", "v0").ok());
  auto& zk = client_->zk();
  using Done = std::function<void(const Status&)>;
  struct Case {
    const char* name;
    std::function<void(Done)> run;
    StatusCode want;
  };
  const std::vector<Case> cases = {
      {"duplicate create",
       [&](Done done) {
         zk.create("/dup", "", CreateMode::kPersistent,
                   [done](const auto& r) { done(r.status()); });
       },
       StatusCode::kAlreadyExists},
      {"get of a missing path",
       [&](Done done) {
         zk.get("/missing", [done](const auto& r) { done(r.status()); });
       },
       StatusCode::kNotFound},
      {"exists of a missing path",
       [&](Done done) {
         zk.exists("/missing", [done](const auto& r) { done(r.status()); });
       },
       StatusCode::kNotFound},
      {"children of a missing path",
       [&](Done done) {
         zk.children("/missing",
                     [done](const auto& r) { done(r.status()); });
       },
       StatusCode::kNotFound},
      {"set at a stale version",
       [&](Done done) {
         zk.set("/dup", "v1", 7, [done](const auto& r) { done(r.status()); });
       },
       StatusCode::kFailure},
      {"remove at a stale version",
       [&](Done done) { zk.remove("/dup", 7, done); }, StatusCode::kFailure},
  };
  for (const Case& c : cases) {
    std::optional<Status> got;
    c.run([&](const Status& st) { got = st; });
    run_until([&] { return got.has_value(); });
    ASSERT_TRUE(got.has_value()) << c.name;
    EXPECT_EQ(got->code(), c.want) << c.name << ": " << got->to_string();
  }
  // The failed set and remove left the znode as it was.
  auto left = get_sync(zk, "/dup");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->first, "v0");
  EXPECT_EQ(left->second.version, 0);
}

// ---- lease cache ------------------------------------------------------------------

TEST_F(EnsembleTest, CachedGetServesFromCacheWithinLease) {
  ASSERT_TRUE(create_sync(client_->zk(), "/cached", "v").ok());
  auto& zk = client_->zk();
  std::optional<bool> first_done;
  zk.cached_get("/cached", [&](const auto&) { first_done = true; });
  run_until([&] { return first_done.has_value(); });

  const auto requests_before = zk.requests_sent();
  std::optional<bool> second_done;
  zk.cached_get("/cached", [&](const auto&) { second_done = true; });
  EXPECT_TRUE(second_done.has_value());  // synchronous cache hit
  EXPECT_EQ(zk.requests_sent(), requests_before);
  EXPECT_GE(zk.cache_hits(), 1u);
}

TEST_F(EnsembleTest, CacheExpiresAfterLease) {
  ASSERT_TRUE(create_sync(client_->zk(), "/lease", "v1").ok());
  auto& zk = client_->zk();
  std::optional<bool> warm;
  zk.cached_get("/lease", [&](const auto&) { warm = true; });
  run_until([&] { return warm.has_value(); });

  // Change the data and advance beyond the lease.
  std::optional<Result<ZnodeStat>> set_done;
  zk.set("/lease", "v2", -1, [&](const auto& r) { set_done = r; });
  run_until([&] { return set_done.has_value(); });
  sim_->run_for(zk.current_lease() + sim_ms(1));

  std::optional<std::string> value;
  zk.cached_get("/lease", [&](const auto& r) {
    if (r.ok()) value = r.value().first;
  });
  run_until([&] { return value.has_value(); });
  EXPECT_EQ(*value, "v2");
}

TEST_F(EnsembleTest, PlainGetDoesNotFillTheLeaseCache) {
  // Only cached_get fills the cache: a plain get leaves nothing behind,
  // so the next cached_get still goes to the ensemble.
  ASSERT_TRUE(create_sync(client_->zk(), "/plain", "v").ok());
  auto& zk = client_->zk();
  ASSERT_TRUE(get_sync(zk, "/plain").ok());

  const auto requests_before = zk.requests_sent();
  std::optional<std::string> value;
  zk.cached_get("/plain", [&](const auto& r) {
    if (r.ok()) value = r.value().first;
  });
  run_until([&] { return value.has_value(); });
  EXPECT_EQ(value, "v");
  EXPECT_GT(zk.requests_sent(), requests_before);
  EXPECT_EQ(zk.cache_hits(), 0u);
}

TEST_F(EnsembleTest, OwnSetInvalidatesTheCachedCopy) {
  ASSERT_TRUE(create_sync(client_->zk(), "/mine", "v1").ok());
  auto& zk = client_->zk();
  std::optional<bool> warm;
  zk.cached_get("/mine", [&](const auto&) { warm = true; });
  run_until([&] { return warm.has_value(); });

  std::optional<Result<ZnodeStat>> set_done;
  zk.set("/mine", "v2", -1, [&](const auto& r) { set_done = r; });
  run_until([&] { return set_done.has_value(); });
  ASSERT_TRUE(set_done->ok());

  // Still inside the lease, yet the read goes out and sees our write.
  std::optional<std::string> value;
  zk.cached_get("/mine", [&](const auto& r) {
    if (r.ok()) value = r.value().first;
  });
  run_until([&] { return value.has_value(); });
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(zk.cache_hits(), 0u);
}

TEST(AdaptiveLease, HalvesWhenBusyDoublesWhenQuiet) {
  sim::Simulation sim;
  sim::Network net(sim);
  ClientHost host(net, 1, {0});
  auto& zk = host.zk();
  const SimDuration initial = zk.current_lease();

  zk.note_sync_changes(10);  // busy
  EXPECT_EQ(zk.current_lease(), initial / 2);
  zk.note_sync_changes(0);  // quiet
  EXPECT_EQ(zk.current_lease(), initial);
  zk.note_sync_changes(0);
  EXPECT_EQ(zk.current_lease(), initial * 2);
}

TEST(AdaptiveLease, ClampsToConfiguredBounds) {
  sim::Simulation sim;
  sim::Network net(sim);
  ZkClientConfig cfg;
  cfg.lease_initial = sim_ms(500);
  cfg.lease_min = sim_ms(250);
  cfg.lease_max = sim_ms(1000);
  ClientHost host(net, 1, {0}, cfg);
  auto& zk = host.zk();
  for (int i = 0; i < 10; ++i) zk.note_sync_changes(100);
  EXPECT_EQ(zk.current_lease(), sim_ms(250));
  for (int i = 0; i < 10; ++i) zk.note_sync_changes(0);
  EXPECT_EQ(zk.current_lease(), sim_ms(1000));
}

}  // namespace
}  // namespace sedna::zk
