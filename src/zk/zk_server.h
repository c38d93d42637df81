// ZkServer: one member of the ZooKeeper-lite ensemble (the paper's
// "upper layer sub-cluster", Section III.A/III.E).
//
// Consensus model (ZAB-lite): the member with the lowest live id is leader.
// Writes are forwarded to the leader, which sequences them with a zxid,
// broadcasts a Proposal, waits for a majority of ACKs, then commits — in
// zxid order, applying to its own tree and broadcasting Commit to
// followers, which also apply strictly in order. A member that detects a
// gap or an unknown epoch requests a full TreeSync.
//
// Sessions are replicated (kConnect / kExpireSession ride the same commit
// path); heartbeat freshness is leader-local, and a new leader grants all
// sessions a fresh grace period on failover.
//
// Reads (get / exists / children) are served from the local tree without
// consensus — the slightly-stale-reads behaviour ZooKeeper has and that
// Sedna's lease cache is built around.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/host.h"
#include "zk/protocol.h"
#include "zk/znode_tree.h"

namespace sedna::zk {

struct ZkServerConfig {
  std::vector<NodeId> ensemble;  // all member ids, any order
  sim::HostConfig host;
};

class ZkServer : public sim::Host {
 public:
  ZkServer(sim::Network& net, NodeId id, ZkServerConfig config);

  /// Schedules peer pings and the session-expiry checker.
  void start();

  [[nodiscard]] bool is_leader() const { return current_leader() == id(); }
  [[nodiscard]] NodeId current_leader() const;
  [[nodiscard]] const ZnodeTree& tree() const { return tree_; }
  [[nodiscard]] std::uint64_t last_applied_zxid() const { return last_zxid_; }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] std::uint64_t commits_applied() const { return applied_; }

 protected:
  void on_message(const sim::Message& msg) override;
  void on_restart() override;

 private:
  struct InFlight {
    ClientRequest op;
    std::set<NodeId> acks;
    /// Where to send the client reply once committed (the member that
    /// forwarded, or a client directly if we are that member); empty for
    /// the leader's own session expiries.
    std::optional<sim::Message> origin;
  };

  void handle_client_request(const sim::Message& msg);
  void handle_forward(const sim::Message& msg);
  void handle_propose(const sim::Message& msg);
  void handle_ack(std::uint64_t zxid, NodeId from);
  void handle_commit(const sim::Message& msg);
  void handle_peer_ping(const sim::Message& msg);
  void handle_tree_sync(const sim::Message& msg);
  void handle_session_ping(const sim::Message& msg);

  /// Serves a read from the local tree (registering watches if asked).
  ClientReply serve_read(const ClientRequest& req, NodeId client);

  /// Leader: sequence, propose and track a write.
  void lead_write(ClientRequest op, std::optional<sim::Message> origin);

  /// Sends a proposal with bounded retransmission on timeout.
  void send_proposal(NodeId member, std::uint64_t zxid,
                     const std::string& encoded, int attempts_left);

  /// Commits every in-flight proposal at the head of the zxid order that
  /// has a quorum (ZAB commits strictly in order).
  void try_commit_heads();

  /// Applies a committed op to the tree; fires watches; returns the reply.
  ClientReply apply(const ClientRequest& op, std::uint64_t zxid);

  /// Follower: applies buffered commits while they are consecutive.
  void drain_pending_commits();

  /// Watches registered by clients on this member: path → (client,
  /// watch_id).
  using WatchTable =
      std::map<std::string, std::vector<std::pair<NodeId, std::uint64_t>>>;

  /// Fires the data watches on `path` and, when the znode was created or
  /// deleted, the child watches on its parent.
  void fire_watches(const std::string& path, WatchEventType type);

  void peer_tick();
  void session_tick();
  void become_leader();
  void broadcast_tree_sync(NodeId target_or_all);
  void request_tree_sync();

  [[nodiscard]] std::size_t quorum() const {
    return config_.ensemble.size() / 2 + 1;
  }
  [[nodiscard]] static std::string parent_of(const std::string& path);

  ZkServerConfig config_;
  ZnodeTree tree_;

  // zxid bookkeeping.
  std::uint64_t epoch_ = 1;
  std::uint64_t next_counter_ = 1;   // leader: next zxid counter
  std::uint64_t last_zxid_ = 0;      // last applied
  std::uint64_t applied_ = 0;
  bool was_leader_ = false;

  // Leader: proposals awaiting quorum, ordered by zxid.
  std::map<std::uint64_t, InFlight> in_flight_;
  // Follower: commits that arrived out of order.
  std::map<std::uint64_t, ClientRequest> pending_commits_;

  // Replicated session table: id → timeout_us.
  std::map<std::uint64_t, std::uint64_t> sessions_;
  std::uint64_t next_session_id_ = 1;
  // Leader-local heartbeat freshness.
  std::map<std::uint64_t, SimTime> session_last_heard_;

  // Peer liveness.
  std::map<NodeId, SimTime> peer_last_heard_;
  /// Rate limit for anti-entropy tree-sync requests.
  SimTime last_sync_request_ = 0;

  WatchTable data_watches_;
  WatchTable child_watches_;
};

}  // namespace sedna::zk
