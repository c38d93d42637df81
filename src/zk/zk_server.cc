#include "zk/zk_server.h"

#include <algorithm>

namespace sedna::zk {

namespace {

/// Member-to-member heartbeat cadence, and how long a silent peer still
/// counts as live in the lowest-live-id leader choice.
constexpr SimDuration kPeerPingInterval = sim_ms(200);
constexpr SimDuration kPeerTimeout = sim_ms(900);
/// Cadence of the leader's session-expiry check.
constexpr SimDuration kSessionCheckInterval = sim_ms(500);

/// An encoded reply that carries only `code`.
std::string status_reply(StatusCode code) {
  ClientReply rep;
  rep.status = code;
  return rep.encode();
}

}  // namespace

ZkServer::ZkServer(sim::Network& net, NodeId id, ZkServerConfig config)
    : sim::Host(net, id, config.host), config_(std::move(config)) {
  std::sort(config_.ensemble.begin(), config_.ensemble.end());
  // Seed peer liveness so the initial leader computation is unanimous:
  // everyone is presumed alive at t=0.
  for (NodeId peer : config_.ensemble) {
    if (peer != this->id()) peer_last_heard_[peer] = 0;
  }
}

void ZkServer::start() {
  // Ensemble ticks are background work; never run them under a stale
  // trace context left by the last dispatched client request.
  sim().schedule_periodic(kPeerPingInterval, [this] {
    set_trace_context({});
    peer_tick();
  });
  sim().schedule_periodic(kSessionCheckInterval, [this] {
    set_trace_context({});
    session_tick();
  });
  was_leader_ = is_leader();
}

NodeId ZkServer::current_leader() const {
  const SimTime now = this->now();
  for (NodeId member : config_.ensemble) {
    if (member == id()) return alive() ? member : kInvalidNode;
    const auto it = peer_last_heard_.find(member);
    if (it != peer_last_heard_.end() &&
        now - it->second <= kPeerTimeout) {
      return member;
    }
  }
  return id();
}

std::string ZkServer::parent_of(const std::string& path) {
  const auto pos = path.rfind('/');
  if (pos == std::string::npos || pos == 0) return "/";
  return path.substr(0, pos);
}

void ZkServer::on_message(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgClientRequest:
      handle_client_request(msg);
      break;
    case kMsgForward:
      handle_forward(msg);
      break;
    case kMsgPropose:
      handle_propose(msg);
      break;
    case kMsgCommit:
      handle_commit(msg);
      break;
    case kMsgPeerPing:
      handle_peer_ping(msg);
      break;
    case kMsgTreeSync:
      handle_tree_sync(msg);
      break;
    case kMsgTreeSyncReq:
      // Answer when leading, but also when merely holding history: a
      // restarted low-id member may claim leadership with an empty tree
      // before it has heard anyone, and the member that actually carries
      // the data may have already yielded to it — if only "the leader"
      // answered sync requests, that history would be stranded.
      if (is_leader() || last_zxid_ > 0) broadcast_tree_sync(msg.from);
      break;
    case kMsgSessionPing:
      handle_session_ping(msg);
      break;
    default:
      break;
  }
}

void ZkServer::handle_client_request(const sim::Message& msg) {
  auto req = ClientRequest::decode(msg.payload);
  if (!req.ok()) {
    reply(msg, status_reply(StatusCode::kInvalidArgument));
    return;
  }
  if (!req->is_write()) {
    reply(msg, serve_read(*req, msg.from).encode());
    return;
  }
  if (is_leader()) {
    lead_write(std::move(*req), msg);
    return;
  }
  // Forward to the leader; relay its answer back to the client.
  const NodeId leader = current_leader();
  sim::Message origin = msg;
  call(leader, kMsgForward, msg.payload,
       [this, origin](const Status& st, const std::string& payload) {
         reply(origin,
               st.ok() ? payload : status_reply(StatusCode::kUnavailable));
       });
}

void ZkServer::handle_forward(const sim::Message& msg) {
  auto req = ClientRequest::decode(msg.payload);
  if (!req.ok()) return;
  if (!is_leader()) {
    // Stale forward; the sender will time out and retry at the new leader.
    reply(msg, status_reply(StatusCode::kRefused));
    return;
  }
  lead_write(std::move(*req), msg);
}

void ZkServer::lead_write(ClientRequest op,
                          std::optional<sim::Message> origin) {
  const std::uint64_t zxid = make_zxid(epoch_, next_counter_++);
  InFlight& inflight = in_flight_[zxid];
  inflight.op = op;
  inflight.acks.insert(id());
  inflight.origin = std::move(origin);

  const Proposal proposal{zxid, std::move(op)};
  const std::string encoded = proposal.encode();
  for (NodeId member : config_.ensemble) {
    if (member == id()) continue;
    send_proposal(member, zxid, encoded, /*attempts_left=*/3);
  }
  try_commit_heads();  // single-member ensembles commit immediately
}

void ZkServer::send_proposal(NodeId member, std::uint64_t zxid,
                             const std::string& encoded, int attempts_left) {
  // Proposals must be retransmitted on loss: commits are issued strictly
  // in zxid order, so one proposal that never reaches a quorum would wedge
  // every write behind it.
  call(member, kMsgPropose, encoded,
       [this, member, zxid, encoded, attempts_left](
           const Status& st, const std::string&) {
         if (st.ok()) {
           handle_ack(zxid, member);
           return;
         }
         if (attempts_left > 1 && in_flight_.contains(zxid)) {
           send_proposal(member, zxid, encoded, attempts_left - 1);
         }
       });
}

void ZkServer::handle_propose(const sim::Message& msg) {
  auto proposal = Proposal::decode(msg.payload);
  if (!proposal.ok()) return;
  // ACK unconditionally: followers accept the leader's ordering. The op
  // itself arrives again with the commit.
  reply(msg, {});
}

void ZkServer::handle_ack(std::uint64_t zxid, NodeId from) {
  const auto it = in_flight_.find(zxid);
  if (it == in_flight_.end()) return;
  it->second.acks.insert(from);
  try_commit_heads();
}

void ZkServer::try_commit_heads() {
  while (!in_flight_.empty()) {
    auto head = in_flight_.begin();
    if (head->second.acks.size() < quorum()) break;
    const std::uint64_t zxid = head->first;
    InFlight inflight = std::move(head->second);
    in_flight_.erase(head);

    const ClientReply rep = apply(inflight.op, zxid);

    const Proposal commit{zxid, inflight.op};
    const std::string encoded = commit.encode();
    for (NodeId member : config_.ensemble) {
      if (member == id()) continue;
      send_oneway(member, kMsgCommit, encoded);
    }
    if (inflight.origin) reply(*inflight.origin, rep.encode());
  }
}

void ZkServer::handle_commit(const sim::Message& msg) {
  auto proposal = Proposal::decode(msg.payload);
  if (!proposal.ok()) return;
  const std::uint64_t zxid = proposal->zxid;
  if (zxid <= last_zxid_) return;  // duplicate

  if (zxid_epoch(zxid) != epoch_) {
    // We missed a leadership change (its TreeSync is in flight or lost).
    pending_commits_.emplace(zxid, std::move(proposal->op));
    request_tree_sync();
    return;
  }
  pending_commits_.emplace(zxid, std::move(proposal->op));
  drain_pending_commits();
  if (pending_commits_.size() > 16) request_tree_sync();  // stuck on a gap
}

void ZkServer::drain_pending_commits() {
  for (;;) {
    const std::uint64_t expected =
        zxid_epoch(last_zxid_) == epoch_
            ? make_zxid(epoch_, zxid_counter(last_zxid_) + 1)
            : make_zxid(epoch_, 1);
    const auto it = pending_commits_.find(expected);
    if (it == pending_commits_.end()) break;
    apply(it->second, expected);
    pending_commits_.erase(it);
  }
}

ClientReply ZkServer::apply(const ClientRequest& op, std::uint64_t zxid) {
  last_zxid_ = zxid;
  ++applied_;
  ClientReply rep;
  switch (op.op) {
    case ClientRequest::Op::kConnect: {
      const std::uint64_t sid = next_session_id_++;
      sessions_[sid] = op.session_timeout_us;
      session_last_heard_[sid] = sim().now();
      rep.session_id = sid;
      break;
    }
    case ClientRequest::Op::kCreate: {
      auto created = tree_.create(op.path, op.data,
                                  static_cast<CreateMode>(op.mode),
                                  op.session_id, zxid);
      if (!created.ok()) {
        rep.status = created.status().code();
        break;
      }
      rep.payload = created.value();
      fire_watches(rep.payload, WatchEventType::kCreated);
      break;
    }
    case ClientRequest::Op::kSet: {
      auto stat = tree_.set(op.path, op.data, op.expected_version, zxid);
      if (!stat.ok()) {
        rep.status = stat.status().code();
        break;
      }
      rep.stat = stat.value();
      fire_watches(op.path, WatchEventType::kDataChanged);
      break;
    }
    case ClientRequest::Op::kDelete: {
      const Status st = tree_.remove(op.path, op.expected_version);
      rep.status = st.code();
      if (st.ok()) fire_watches(op.path, WatchEventType::kDeleted);
      break;
    }
    case ClientRequest::Op::kExpireSession:
    case ClientRequest::Op::kCloseSession: {
      sessions_.erase(op.session_id);
      session_last_heard_.erase(op.session_id);
      const auto removed = tree_.remove_session_ephemerals(op.session_id);
      for (const auto& path : removed) {
        fire_watches(path, WatchEventType::kDeleted);
      }
      break;
    }
    default:
      rep.status = StatusCode::kInvalidArgument;
      break;
  }
  return rep;
}

ClientReply ZkServer::serve_read(const ClientRequest& req, NodeId client) {
  ClientReply rep;
  switch (req.op) {
    case ClientRequest::Op::kGet: {
      auto got = tree_.get(req.path);
      if (!got.ok()) {
        rep.status = got.status().code();
        break;
      }
      rep.payload = got->first;
      rep.stat = got->second;
      if (req.watch) data_watches_[req.path].emplace_back(client, req.watch_id);
      break;
    }
    case ClientRequest::Op::kExists: {
      auto stat = tree_.exists(req.path);
      // Exists watches register even on absent nodes (fires on create).
      if (req.watch) data_watches_[req.path].emplace_back(client, req.watch_id);
      if (!stat.ok()) {
        rep.status = stat.status().code();
        break;
      }
      rep.stat = stat.value();
      break;
    }
    case ClientRequest::Op::kChildren: {
      auto kids = tree_.children(req.path);
      if (!kids.ok()) {
        rep.status = kids.status().code();
        break;
      }
      rep.children = std::move(kids).value();
      if (req.watch) {
        child_watches_[req.path].emplace_back(client, req.watch_id);
      }
      break;
    }
    default:
      rep.status = StatusCode::kInvalidArgument;
      break;
  }
  return rep;
}

void ZkServer::fire_watches(const std::string& path, WatchEventType type) {
  auto fire = [this](WatchTable& watches, const std::string& at,
                     WatchEventType event) {
    const auto it = watches.find(at);
    if (it == watches.end()) return;
    auto targets = std::move(it->second);
    watches.erase(it);  // ZooKeeper watches are one-shot
    for (const auto& [client, watch_id] : targets) {
      send_oneway(client, kMsgWatchEvent,
                  WatchEventMsg{watch_id, at, event}.encode());
    }
  };
  fire(data_watches_, path, type);
  if (type != WatchEventType::kDataChanged) {
    fire(child_watches_, parent_of(path), WatchEventType::kChildrenChanged);
  }
}

void ZkServer::handle_peer_ping(const sim::Message& msg) {
  peer_last_heard_[msg.from] = sim().now();
  // Anti-entropy: peer pings carry the sender's last applied zxid. A
  // follower that sees the leader ahead of it (a partition may have cost
  // it every commit, so gap detection via handle_commit never fires)
  // requests a full tree sync, rate-limited.
  const auto ping = PeerPing::decode(msg.payload);
  if (!ping.ok()) return;
  const std::uint64_t peer_zxid = ping->last_zxid;
  // Any peer ahead of us holds history we lack — ask *that peer* for the
  // image, not our current_leader(): after a restart the lowest-id member
  // believes it leads, so routing the request through current_leader()
  // would make it ask itself and never catch up.
  if (peer_zxid > last_zxid_ &&
      sim().now() - last_sync_request_ > sim_ms(500)) {
    last_sync_request_ = sim().now();
    send_oneway(msg.from, kMsgTreeSyncReq, {});
  }
}

void ZkServer::handle_session_ping(const sim::Message& msg) {
  const auto ping = SessionPing::decode(msg.payload);
  if (!ping.ok()) return;
  const std::uint64_t sid = ping->session_id;
  if (is_leader()) {
    if (sessions_.contains(sid)) session_last_heard_[sid] = sim().now();
  } else {
    send_oneway(current_leader(), kMsgSessionPing, msg.payload);
  }
  // Acknowledge so clients can detect a dead member (rpc_id == 0 means a
  // forwarded one-way copy — no ack needed for those).
  if (msg.rpc_id != 0) reply(msg, {});
}

void ZkServer::peer_tick() {
  if (!alive()) return;
  const std::string payload = PeerPing{last_zxid_}.encode();
  for (NodeId member : config_.ensemble) {
    if (member != id()) send_oneway(member, kMsgPeerPing, payload);
  }
  const bool leading = is_leader();
  if (leading && !was_leader_) become_leader();
  was_leader_ = leading;
}

void ZkServer::session_tick() {
  if (!alive() || !is_leader()) return;
  const SimTime now = sim().now();
  std::vector<std::uint64_t> expired;
  for (const auto& [sid, timeout] : sessions_) {
    auto it = session_last_heard_.find(sid);
    if (it == session_last_heard_.end()) {
      // Unknown freshness (e.g. we just took over): grant a grace period.
      session_last_heard_[sid] = now;
      continue;
    }
    if (now - it->second > timeout) expired.push_back(sid);
  }
  for (std::uint64_t sid : expired) {
    ClientRequest op;
    op.op = ClientRequest::Op::kExpireSession;
    op.session_id = sid;
    lead_write(std::move(op), std::nullopt);
  }
}

void ZkServer::become_leader() {
  epoch_ = std::max(epoch_, zxid_epoch(last_zxid_)) + 1;
  next_counter_ = 1;
  // Any proposals the previous leader left unacknowledged are lost; their
  // clients time out and retry against us.
  in_flight_.clear();
  pending_commits_.clear();
  const SimTime now = sim().now();
  for (const auto& [sid, timeout] : sessions_) session_last_heard_[sid] = now;
  broadcast_tree_sync(kInvalidNode);
}

void ZkServer::broadcast_tree_sync(NodeId target_or_all) {
  TreeSyncMsg m;
  m.epoch = epoch_;
  // Advertise the zxid actually applied, never a fabricated one for the
  // current epoch: an empty restarted member that claims leadership would
  // otherwise ship an image whose zxid out-ranks real history, and peers
  // adopting it would treat the genuine tree as stale — wiping it.
  m.last_zxid = last_zxid_;
  m.next_session_id = next_session_id_;
  m.tree_image = tree_.serialize();
  for (const auto& [sid, timeout] : sessions_) {
    m.sessions.emplace_back(sid, timeout);
  }
  const std::string encoded = m.encode();
  if (target_or_all != kInvalidNode) {
    send_oneway(target_or_all, kMsgTreeSync, encoded);
    return;
  }
  for (NodeId member : config_.ensemble) {
    if (member != id()) send_oneway(member, kMsgTreeSync, encoded);
  }
}

void ZkServer::request_tree_sync() {
  const NodeId leader = current_leader();
  if (leader != id()) send_oneway(leader, kMsgTreeSyncReq, {});
}

void ZkServer::handle_tree_sync(const sim::Message& msg) {
  auto m = TreeSyncMsg::decode(msg.payload);
  if (!m.ok()) return;
  // Adopt only images holding at least as much history as we do,
  // comparing (zxid, epoch) lexicographically. Epoch alone is not
  // authority: two freshly restarted empty members can talk each other
  // into arbitrarily high epochs, and an empty image with an inflated
  // epoch must never displace a populated tree.
  if (m->last_zxid < last_zxid_ ||
      (m->last_zxid == last_zxid_ && m->epoch < epoch_)) {
    return;  // stale
  }
  auto tree = ZnodeTree::deserialize(m->tree_image);
  if (!tree.ok()) return;
  tree_ = std::move(tree).value();
  epoch_ = m->epoch;
  last_zxid_ = m->last_zxid;
  next_session_id_ = m->next_session_id;
  sessions_.clear();
  for (const auto& [sid, timeout] : m->sessions) sessions_[sid] = timeout;
  // Drop commits the image already covers — by zxid, and by epoch: a
  // quorum-committed write from an older epoch is always contained in a
  // newer leader's image, so anything left from a superseded epoch can
  // only wedge the in-order drain.
  std::erase_if(pending_commits_, [this](const auto& kv) {
    return kv.first <= last_zxid_ || zxid_epoch(kv.first) < epoch_;
  });
  drain_pending_commits();
  // If we currently lead, re-establish leadership *on top of* the adopted
  // image: bump the epoch past it (so fresh zxids never collide with the
  // history we just absorbed) and rebroadcast, pulling still-empty
  // restarted members up to the recovered state.
  if (is_leader()) become_leader();
}

void ZkServer::on_restart() {
  // A restarting member rejoins empty and catches up from the leader
  // (our ensemble keeps no local disk state; the paper's ZooKeeper would
  // recover from its own log, which is equivalent for Sedna's purposes).
  tree_ = ZnodeTree{};
  last_zxid_ = 0;
  epoch_ = 0;
  applied_ = 0;
  next_counter_ = 1;
  in_flight_.clear();
  pending_commits_.clear();
  sessions_.clear();
  session_last_heard_.clear();
  data_watches_.clear();
  child_watches_.clear();
  was_leader_ = false;
  request_tree_sync();
}

}  // namespace sedna::zk
