// Wire protocol of the ZooKeeper-lite service (message-type range 100–199).
//
// Clients talk to any ensemble member. Reads are answered from the
// member's local tree (possibly slightly stale — ZooKeeper semantics);
// writes and session operations are forwarded to the leader, sequenced
// with a zxid, quorum-acknowledged and committed to every member.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "sim/message.h"
#include "zk/znode_tree.h"

namespace sedna::zk {

// Client-facing.
constexpr sim::MessageType kMsgClientRequest = 100;
constexpr sim::MessageType kMsgWatchEvent = 101;   // server → client, one-way
constexpr sim::MessageType kMsgSessionPing = 102;  // client → member, one-way

// Ensemble-internal.
constexpr sim::MessageType kMsgForward = 120;      // member → leader
constexpr sim::MessageType kMsgPropose = 121;      // leader → members
constexpr sim::MessageType kMsgCommit = 122;       // leader → members, one-way
constexpr sim::MessageType kMsgPeerPing = 123;     // member ↔ member, one-way
constexpr sim::MessageType kMsgTreeSync = 124;     // leader → member, one-way
constexpr sim::MessageType kMsgTreeSyncReq = 125;  // member → leader, one-way

struct ClientRequest {
  enum class Op : std::uint8_t {
    kConnect = 0,
    kCreate,
    kGet,
    kSet,
    kDelete,
    kExists,
    kChildren,
    /// Internal: leader-originated session expiry (never sent by clients).
    kExpireSession,
    /// Internal: client-requested session close.
    kCloseSession,
  };
  friend constexpr Op wire_last(Op) { return Op::kCloseSession; }

  Op op = Op::kGet;
  std::string path;
  std::string data;
  std::uint8_t mode = 0;  // CreateMode, for kCreate
  std::int64_t expected_version = -1;
  std::uint64_t session_id = 0;
  std::uint64_t session_timeout_us = 0;  // kConnect
  bool watch = false;                    // kGet / kExists / kChildren
  std::uint64_t watch_id = 0;

  [[nodiscard]] bool is_write() const {
    switch (op) {
      case Op::kConnect:
      case Op::kCreate:
      case Op::kSet:
      case Op::kDelete:
      case Op::kExpireSession:
      case Op::kCloseSession:
        return true;
      default:
        return false;
    }
  }

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.op, m.path, m.data, m.mode, m.expected_version, m.session_id,
       m.session_timeout_us, m.watch, m.watch_id);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<ClientRequest> decode(std::string_view bytes) {
    return codec::decode<ClientRequest>(bytes, "bad zk request");
  }
};

struct ClientReply {
  StatusCode status = StatusCode::kOk;
  /// kCreate: actual path (with sequence suffix). kGet: data.
  std::string payload;
  ZnodeStat stat;
  std::vector<std::string> children;
  std::uint64_t session_id = 0;  // kConnect

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.status, m.payload, m.stat, m.children, m.session_id);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<ClientReply> decode(std::string_view bytes) {
    return codec::decode<ClientReply>(bytes, "bad zk reply");
  }
};

enum class WatchEventType : std::uint8_t {
  kDataChanged = 0,
  kCreated = 1,
  kDeleted = 2,
  kChildrenChanged = 3,
};
constexpr WatchEventType wire_last(WatchEventType) {
  return WatchEventType::kChildrenChanged;
}

struct WatchEventMsg {
  std::uint64_t watch_id = 0;
  std::string path;
  WatchEventType type = WatchEventType::kDataChanged;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.watch_id, m.path, m.type);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<WatchEventMsg> decode(std::string_view bytes) {
    return codec::decode<WatchEventMsg>(bytes, "bad watch event");
  }
};

/// Leader → members: a sequenced write awaiting quorum.
struct Proposal {
  std::uint64_t zxid = 0;
  ClientRequest op;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.zxid);
    io.framed(m.op);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<Proposal> decode(std::string_view bytes) {
    return codec::decode<Proposal>(bytes, "bad proposal");
  }
};

/// Full-state transfer image: tree + replicated session table.
struct TreeSyncMsg {
  std::uint64_t epoch = 0;
  std::uint64_t last_zxid = 0;
  std::uint64_t next_session_id = 1;
  std::string tree_image;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sessions;  // id, timeout

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.epoch, m.last_zxid, m.next_session_id, m.tree_image, m.sessions);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<TreeSyncMsg> decode(std::string_view bytes) {
    return codec::decode<TreeSyncMsg>(bytes, "bad tree sync");
  }
};

/// Client → member session heartbeat (forwarded on to the leader).
struct SessionPing {
  std::uint64_t session_id = 0;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.session_id);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<SessionPing> decode(std::string_view bytes) {
    return codec::decode<SessionPing>(bytes, "bad session ping");
  }
};

/// Member ↔ member liveness ping, carrying the sender's last applied zxid.
struct PeerPing {
  std::uint64_t last_zxid = 0;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.last_zxid);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<PeerPing> decode(std::string_view bytes) {
    return codec::decode<PeerPing>(bytes, "bad peer ping");
  }
};

[[nodiscard]] constexpr std::uint64_t make_zxid(std::uint64_t epoch,
                                                std::uint64_t counter) {
  return (epoch << 32) | counter;
}
[[nodiscard]] constexpr std::uint64_t zxid_epoch(std::uint64_t zxid) {
  return zxid >> 32;
}
[[nodiscard]] constexpr std::uint64_t zxid_counter(std::uint64_t zxid) {
  return zxid & 0xffffffffULL;
}

}  // namespace sedna::zk
