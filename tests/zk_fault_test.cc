// Fault-injection tests for the ZooKeeper-lite ensemble: lossy links,
// dropped commits (gap fill via tree sync), concurrent sequential
// creators, and partition behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "sim/network.h"
#include "sim/simulation.h"
#include "zk/zk_client.h"
#include "zk/zk_server.h"

namespace sedna::zk {
namespace {

class ClientHost : public sim::Host {
 public:
  ClientHost(sim::Network& net, NodeId id, std::vector<NodeId> ensemble)
      : sim::Host(net, id), zk_(*this, [&] {
          ZkClientConfig cfg;
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

class ZkFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = std::make_unique<sim::Simulation>(23);
    net_ = std::make_unique<sim::Network>(*sim_);
    ZkServerConfig cfg;
    cfg.ensemble = {0, 1, 2};
    for (NodeId id : cfg.ensemble) {
      servers_.push_back(std::make_unique<ZkServer>(*net_, id, cfg));
      servers_.back()->start();
    }
    sim_->run_for(sim_ms(5));
  }

  std::unique_ptr<ClientHost> make_client(NodeId id) {
    auto host = std::make_unique<ClientHost>(*net_, id,
                                             std::vector<NodeId>{0, 1, 2});
    std::optional<Status> st;
    host->zk().connect([&](const Status& s) { st = s; });
    run_until([&] { return st.has_value(); });
    EXPECT_TRUE(st.has_value() && st->ok());
    return host;
  }

  void run_until(const std::function<bool()>& pred) {
    const SimTime deadline = sim_->now() + sim_sec(300);
    while (!pred() && sim_->now() < deadline && sim_->step()) {
    }
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<ZkServer>> servers_;
};

TEST_F(ZkFaultTest, WritesSucceedOnLossyNetwork) {
  auto client = make_client(100);
  net_->set_loss_prob(0.05);
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    std::optional<Status> st;
    client->zk().create("/lossy" + std::to_string(i), "v",
                        CreateMode::kPersistent,
                        [&](const Result<std::string>& r) {
                          st = r.status();
                        });
    run_until([&] { return st.has_value(); });
    // AlreadyExists counts: the create committed but the ack was lost and
    // the client retried — at-least-once with idempotence detection.
    if (st.has_value() &&
        (st->ok() || st->is(StatusCode::kAlreadyExists))) {
      ++ok;
    }
  }
  EXPECT_GE(ok, 48);
  net_->set_loss_prob(0.0);
  sim_->run_for(sim_sec(2));
  // Ensemble converged despite the lost messages.
  EXPECT_EQ(servers_[1]->tree().node_count(),
            servers_[0]->tree().node_count());
}

TEST_F(ZkFaultTest, FollowerGapFilledByTreeSync) {
  auto client = make_client(100);
  // Cut follower 2 off from the leader: commits can't reach it.
  net_->partition(0, 2);
  for (int i = 0; i < 20; ++i) {
    std::optional<Status> st;
    client->zk().create("/gap" + std::to_string(i), "v",
                        CreateMode::kPersistent,
                        [&](const Result<std::string>& r) {
                          st = r.status();
                        });
    run_until([&] { return st.has_value(); });
    ASSERT_TRUE(st->ok());
  }
  EXPECT_LT(servers_[2]->tree().node_count(),
            servers_[0]->tree().node_count());

  net_->heal(0, 2);
  // The next commit (or buffered backlog) makes the follower notice its
  // gap and request a full tree sync.
  std::optional<Status> st;
  client->zk().create("/after-heal", "v", CreateMode::kPersistent,
                      [&](const Result<std::string>& r) { st = r.status(); });
  run_until([&] { return st.has_value(); });
  sim_->run_for(sim_sec(2));
  EXPECT_EQ(servers_[2]->tree().node_count(),
            servers_[0]->tree().node_count());
  EXPECT_TRUE(servers_[2]->tree().get("/gap5").ok());
}

TEST_F(ZkFaultTest, ConcurrentSequentialNamesAreUnique) {
  auto c1 = make_client(100);
  auto c2 = make_client(101);
  auto c3 = make_client(102);
  {
    std::optional<Status> st;
    c1->zk().create("/q", "", CreateMode::kPersistent,
                    [&](const Result<std::string>& r) { st = r.status(); });
    run_until([&] { return st.has_value(); });
    ASSERT_TRUE(st->ok());
  }

  auto names = std::make_shared<std::vector<std::string>>();
  int issued = 0;
  for (int round = 0; round < 20; ++round) {
    for (ClientHost* c : {c1.get(), c2.get(), c3.get()}) {
      ++issued;
      c->zk().create("/q/item-", "", CreateMode::kPersistentSequential,
                     [names](const Result<std::string>& r) {
                       if (r.ok()) names->push_back(r.value());
                     });
    }
  }
  run_until([&] { return static_cast<int>(names->size()) == issued; });
  ASSERT_EQ(static_cast<int>(names->size()), issued);
  const std::set<std::string> unique(names->begin(), names->end());
  EXPECT_EQ(unique.size(), names->size());  // no duplicates, ever
}

TEST_F(ZkFaultTest, MinorityPartitionStillServesQuorumWrites) {
  auto client = make_client(100);
  // Isolate member 2 from both peers (it can still hear the client).
  net_->partition(2, 0);
  net_->partition(2, 1);
  std::optional<Status> st;
  client->zk().create("/minority", "v", CreateMode::kPersistent,
                      [&](const Result<std::string>& r) { st = r.status(); });
  run_until([&] { return st.has_value(); });
  EXPECT_TRUE(st->ok());  // 2-of-3 quorum suffices
}

TEST_F(ZkFaultTest, TwoMemberCrashBlocksWrites) {
  auto client = make_client(100);
  servers_[1]->crash();
  servers_[2]->crash();
  sim_->run_for(sim_sec(2));
  std::optional<Status> st;
  client->zk().create("/no-quorum", "v", CreateMode::kPersistent,
                      [&](const Result<std::string>& r) { st = r.status(); });
  run_until([&] { return st.has_value(); });
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->ok());  // majority lost: linearizable writes must fail
}

TEST_F(ZkFaultTest, ReadsStillServedWithoutQuorum) {
  auto client = make_client(100);
  std::optional<Status> created;
  client->zk().create("/still-readable", "v", CreateMode::kPersistent,
                      [&](const Result<std::string>& r) {
                        created = r.status();
                      });
  run_until([&] { return created.has_value(); });
  ASSERT_TRUE(created->ok());
  sim_->run_for(sim_ms(100));

  servers_[1]->crash();
  servers_[2]->crash();
  // ZooKeeper semantics: member-local reads keep working (possibly
  // stale) even when the write quorum is gone.
  std::optional<bool> read_ok;
  client->zk().get("/still-readable",
                   [&](const Result<std::pair<std::string, ZnodeStat>>& r) {
                     read_ok = r.ok();
                   });
  run_until([&] { return read_ok.has_value(); });
  EXPECT_TRUE(read_ok.value_or(false));
}

}  // namespace
}  // namespace sedna::zk
