// Sedna data-path wire protocol (message-type range 200–299).
//
// Clients route requests directly to the primary replica of a key's vnode
// (zero-hop DHT, Section VII); that node coordinates the N-replica quorum
// (Section III.C). Vnode transfers (join, recovery and traffic migration:
// dispatch, item pull, catch-up and purge) use the same link layer.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "sim/message.h"
#include "store/dvv.h"
#include "store/item.h"
#include "zk/protocol.h"

namespace sedna::cluster {

constexpr sim::MessageType kMsgClientWrite = 200;
constexpr sim::MessageType kMsgClientRead = 201;
constexpr sim::MessageType kMsgReplicaWrite = 210;
constexpr sim::MessageType kMsgReplicaRead = 211;
constexpr sim::MessageType kMsgFetchVnode = 220;   // new owner → source
constexpr sim::MessageType kMsgPurgeVnode = 222;   // new owner → old owner
constexpr sim::MessageType kMsgScan = 230;         // client → every node
constexpr sim::MessageType kMsgHintDeliver = 240;  // coordinator → healed replica
constexpr sim::MessageType kMsgVnodeDigest = 241;  // anti-entropy digest exchange
constexpr sim::MessageType kMsgMigrateVnode = 250;  // leader or recovering coordinator → new owner

/// How nodes and clients treat each message type they send or serve:
/// span name and stage of the outgoing RPC, ingress priority of the
/// request. The client-to-coordinator hop is the one true network stage
/// of a request; replica fan-out waits are service time (what the
/// coordinator experiences is "time until enough replicas answered"; the
/// wire share of an intra-cluster hop rides along, see DESIGN.md §5g).
/// Priority: reads, then writes, then repair / anti-entropy, then
/// migration bulk, which loses its queue slots first; ZooKeeper watch
/// deliveries and control traffic stay first class.
inline sim::MessageTraits message_traits(sim::MessageType type) {
  using S = TraceStage;
  static constexpr struct {
    sim::MessageType type;
    sim::MessageTraits traits;
  } kTable[] = {
      {kMsgClientWrite, {"rpc.client_write", S::kNet, 1}},
      {kMsgClientRead, {"rpc.client_read", S::kNet, 0}},
      {kMsgReplicaWrite, {"rpc.replica_write", S::kService, 1}},
      {kMsgReplicaRead, {"rpc.replica_read", S::kService, 0}},
      {kMsgFetchVnode, {"rpc.fetch_vnode", S::kMigration, 3}},
      {kMsgPurgeVnode, {nullptr, S::kNet, 3}},
      {kMsgScan, {"rpc.scan", S::kNet, 2}},
      {kMsgHintDeliver, {"rpc.hint_deliver", S::kHintReplay, 2}},
      {kMsgVnodeDigest, {"rpc.vnode_digest", S::kRepair, 2}},
      {kMsgMigrateVnode, {"rpc.migrate_vnode", S::kMigration, 3}},
      {zk::kMsgClientRequest, {"rpc.zk_request", S::kZk, 0}},
      {zk::kMsgSessionPing, {"rpc.zk_ping", S::kZk, 0}},
  };
  for (const auto& row : kTable) {
    if (row.type == type) return row.traits;
  }
  return {};
}

enum class WriteMode : std::uint8_t { kLatest = 0, kAll = 1 };
enum class ReadMode : std::uint8_t { kLatest = 0, kAll = 1 };
constexpr WriteMode wire_last(WriteMode) { return WriteMode::kAll; }
constexpr ReadMode wire_last(ReadMode) { return ReadMode::kAll; }

// Every record below states its layout once, in `wire` (common/codec.h);
// causal, audit and recovery state rides in trailing sections.

struct WriteRequest {
  WriteMode mode = WriteMode::kLatest;
  std::string key;
  std::string value;
  Timestamp ts = 0;
  std::uint32_t flags = 0;
  /// Source server tag for write_all value lists (Section III.F).
  NodeId source = kInvalidNode;
  /// Relative expiry in simulated microseconds; 0 = never. Applied by
  /// each replica against its own clock at apply time.
  std::uint64_t ttl = 0;

  /// Trailing causal section selector.
  enum : std::uint8_t {
    kCausalNone = 0,
    /// Client put: `ctx` carries the version vector of the client's last
    /// read of the key (its write context). The coordinator prunes the
    /// siblings the client had seen and mints a fresh dot.
    kCausalCtx = 1,
    /// Replica push (fan-out, hint replay, read repair, anti-entropy):
    /// `record` is the coordinator's full post-update record; receivers
    /// join it into their own.
    kCausalRecord = 2,
  };
  std::uint8_t causal_tag = kCausalNone;
  store::VersionVector ctx;
  store::CausalRecord record;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.mode, m.key, m.value, m.ts, m.flags, m.source, m.ttl);
    io.trailing(m.causal_tag != kCausalNone, [&] {
      io(m.causal_tag);
      if (m.causal_tag == kCausalCtx) {
        io(m.ctx);
      } else if (m.causal_tag == kCausalRecord) {
        io(m.record);
      } else {
        io.fail();
      }
    });
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<WriteRequest> decode(std::string_view bytes) {
    return codec::decode<WriteRequest>(bytes, "bad write request");
  }
};

struct WriteReply {
  /// kOk | kOutdated | kFailure (the three client-visible outcomes of
  /// Section III.F) — plus kQuorumFailed for diagnostics.
  StatusCode status = StatusCode::kOk;
  /// Trailing causal section: the post-write clock, returned for a
  /// kCausalCtx put so the client can thread it into its next context.
  bool has_ctx = false;
  store::VersionVector ctx;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.status);
    io.trailing(m.has_ctx, [&] {
      io(m.ctx);
      if constexpr (IO::kReading) m.has_ctx = true;
    });
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<WriteReply> decode(std::string_view bytes) {
    return codec::decode<WriteReply>(bytes, "bad write reply");
  }
};

struct ReadRequest {
  ReadMode mode = ReadMode::kLatest;
  std::string key;
  /// Trailing causal flag: ask for the full causal record (clock +
  /// siblings) instead of the LWW projection.
  bool causal = false;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.mode, m.key);
    io.trailing(m.causal, [&] { io(m.causal); });
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<ReadRequest> decode(std::string_view bytes) {
    return codec::decode<ReadRequest>(bytes, "bad read request");
  }
};

struct ReadReply {
  StatusCode status = StatusCode::kOk;
  bool has_latest = false;
  store::VersionedValue latest;
  std::vector<store::SourceValue> value_list;
  /// Degraded-mode marker: the coordinator could not assemble a full read
  /// quorum (overload shedding or partition) and served this value from
  /// fewer than R agreeing replicas. The value is the freshest available
  /// but may miss a concurrent acked write (see PAPERS.md 2008.11900 on
  /// the availability/staleness trade).
  bool stale = false;
  /// Trailing causal section: the replica's full causal record, present
  /// only on replies to causal reads.
  bool has_causal = false;
  store::CausalRecord causal;
  /// Trailing audit section (consistency auditor): on stale-tagged
  /// serves, the measured staleness bound in µs — "stale by at most
  /// this much", not just "stale". 0 = not measured (auditing off).
  std::uint64_t staleness_us = 0;

  /// The trailing sections share one tag byte so they compose: bit 0 =
  /// causal record follows, bit 1 = staleness bound precedes it.
  static constexpr std::uint8_t kTrailCausal = 1;
  static constexpr std::uint8_t kTrailAudit = 2;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.status, m.has_latest, m.latest, m.value_list, m.stale);
    auto trail =
        static_cast<std::uint8_t>((m.has_causal ? kTrailCausal : 0) |
                                  (m.staleness_us != 0 ? kTrailAudit : 0));
    io.trailing(trail != 0, [&] {
      io(trail);
      if (trail == 0 || (trail & ~(kTrailCausal | kTrailAudit)) != 0) {
        return io.fail();
      }
      if ((trail & kTrailAudit) != 0) io(m.staleness_us);
      if ((trail & kTrailCausal) != 0) io(m.causal);
      if constexpr (IO::kReading) m.has_causal = (trail & kTrailCausal) != 0;
    });
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<ReadReply> decode(std::string_view bytes) {
    return codec::decode<ReadReply>(bytes, "bad read reply");
  }
};

/// One transferable item (vnode recovery / join data movement).
struct TransferItem {
  std::string key;
  bool has_latest = false;
  store::VersionedValue latest;
  std::vector<store::SourceValue> value_list;
  /// Causal record; empty for LWW items. Carried in FetchVnodeReply's
  /// sparse trailing section: the per-item layout is not individually
  /// framed, so it cannot grow in place without breaking old readers.
  store::CausalRecord causal;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.key, m.has_latest, m.latest, m.value_list);
  }
};

struct FetchVnodeRequest {
  VnodeId vnode = kInvalidVnode;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.vnode);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<FetchVnodeRequest> decode(std::string_view bytes) {
    return codec::decode<FetchVnodeRequest>(bytes, "bad fetch request");
  }
};

struct FetchVnodeReply {
  StatusCode status = StatusCode::kOk;
  std::vector<TransferItem> items;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.status, m.items);
    io.sparse(m.items, &TransferItem::causal);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<FetchVnodeReply> decode(std::string_view bytes) {
    return codec::decode<FetchVnodeReply>(bytes, "bad fetch reply");
  }
};

/// Prefix scan of one node's *primary* keys (keys whose vnode the node
/// owns), capped at `limit`. Clients scatter this to every node and merge
/// (an extension beyond the paper, which has no enumeration API).
struct ScanRequest {
  std::string prefix;
  std::uint32_t limit = 1000;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.prefix, m.limit);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<ScanRequest> decode(std::string_view bytes) {
    return codec::decode<ScanRequest>(bytes, "bad scan request");
  }
};

struct ScanReply {
  StatusCode status = StatusCode::kOk;
  std::vector<std::string> keys;
  bool truncated = false;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.status, m.keys, m.truncated);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<ScanReply> decode(std::string_view bytes) {
    return codec::decode<ScanReply>(bytes, "bad scan reply");
  }
};

/// Asks a previous owner to drop its now-redundant copy of a vnode's
/// data. The receiver re-reads the vnode's znode before deciding whether
/// it still belongs to the replica set: `new_owner` is the sender's claim
/// at send time, and a purge that arrives after a later move must not
/// roll the routing table back to it.
struct PurgeVnodeRequest {
  VnodeId vnode = kInvalidVnode;
  NodeId new_owner = kInvalidNode;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.vnode, m.new_owner);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<PurgeVnodeRequest> decode(std::string_view bytes) {
    return codec::decode<PurgeVnodeRequest>(bytes, "bad purge request");
  }
};

/// Hinted handoff: a coordinator replays a write that a replica missed
/// while it was down (Section III.C's quorum leaves W..N-1 replicas
/// eligible for hints). The payload is the original replica write — same
/// pinned timestamp, so replay is idempotent under LWW.
struct HintDeliverRequest {
  WriteRequest write;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io.framed(m.write);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<HintDeliverRequest> decode(std::string_view bytes) {
    return codec::decode<HintDeliverRequest>(bytes, "bad hint request");
  }
};

struct HintAckReply {
  /// kOk: applied. kOutdated: replica already has newer data (hint can be
  /// dropped). Anything else: keep the hint and retry later.
  StatusCode status = StatusCode::kOk;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.status);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<HintAckReply> decode(std::string_view bytes) {
    return codec::decode<HintAckReply>(bytes, "bad hint ack");
  }
};

/// Merkle anti-entropy: the initiator sends its per-bucket digests for one
/// vnode; the peer answers with the mismatched bucket ids and a key-level
/// summary of its own content in those buckets so the initiator can
/// compute the exact divergent set.
struct VnodeDigestRequest {
  VnodeId vnode = kInvalidVnode;
  std::uint64_t root = 0;
  std::vector<std::uint64_t> buckets;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.vnode, m.root, m.buckets);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<VnodeDigestRequest> decode(std::string_view bytes) {
    return codec::decode<VnodeDigestRequest>(bytes, "bad digest request");
  }
};

/// Key-level summary of one item in a mismatched bucket: enough for the
/// initiator to decide push (local newer), pull (peer newer), or
/// value-list reconcile (list digests differ).
struct KeySummary {
  std::string key;
  bool has_latest = false;
  Timestamp latest_ts = 0;
  std::uint64_t list_digest = 0;
  /// Digest of the peer's causal record (0 = no causal state). Ordering
  /// on timestamps cannot reconcile causal keys — equal digests mean
  /// converged, different digests mean "exchange records and join".
  /// Carried in VnodeDigestReply's sparse trailing section.
  std::uint64_t causal_digest = 0;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.key, m.has_latest, m.latest_ts, m.list_digest);
  }
};

struct VnodeDigestReply {
  StatusCode status = StatusCode::kOk;
  /// True when the peer's root digest matches the request's (no walk).
  bool match = false;
  /// Bucket indices whose digests differ and whose keys are listed; on a
  /// truncated reply, only the whole buckets that fit under the key cap.
  std::vector<std::uint32_t> mismatched;
  /// Peer's key summaries for the `mismatched` buckets (capped; see
  /// `truncated`).
  std::vector<KeySummary> keys;
  /// Some divergent bucket or key was left out of this reply.
  bool truncated = false;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.status, m.match, m.mismatched, m.keys, m.truncated);
    io.sparse(m.keys, &KeySummary::causal_digest);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<VnodeDigestReply> decode(std::string_view bytes) {
    return codec::decode<VnodeDigestReply>(bytes, "bad digest reply");
  }
};

/// Vnode transfer dispatch: asks the destination to pull one vnode, catch
/// up and CAS itself in as the owner (snapshot → Merkle delta catch-up →
/// versioned ZK cutover → drain → old-owner purge). Two senders use it:
/// the rebalance leader for a traffic move, and a recovering coordinator
/// that re-homes a dead owner's vnode. The destination drives every phase,
/// so a sender crash mid-transfer at worst orphans an in-flight pull.
struct MigrateVnodeRequest {
  VnodeId vnode = kInvalidVnode;
  /// Owner the cutover expects (the leader's plan, or the dead node); the
  /// destination re-verifies against ZooKeeper at cutover time.
  NodeId from = kInvalidNode;
  /// Nodes to pull from, in preference order; empty means `{from}`. A
  /// recovering coordinator names the surviving replicas here, in a
  /// trailing section sent only when it says more than `{from}`.
  std::vector<NodeId> sources;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.vnode, m.from);
    const bool just_from = m.sources.size() == 1 && m.sources[0] == m.from;
    io.trailing(!m.sources.empty() && !just_from, [&] { io(m.sources); });
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<MigrateVnodeRequest> decode(std::string_view bytes) {
    return codec::decode<MigrateVnodeRequest>(bytes, "bad migrate request");
  }
};

struct MigrateVnodeReply {
  /// kOk: cutover committed. kRefused: plan went stale (owner changed
  /// under us) — safe no-op. Anything else: the migration failed before
  /// cutover; ownership is unchanged.
  StatusCode status = StatusCode::kOk;
  std::uint64_t items = 0;
  std::uint64_t bytes = 0;
  /// Cutover (CAS + journal) latency in simulated microseconds.
  std::uint64_t cutover_us = 0;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.status, m.items, m.bytes, m.cutover_us);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<MigrateVnodeReply> decode(std::string_view bytes) {
    return codec::decode<MigrateVnodeReply>(bytes, "bad migrate reply");
  }
};

/// Data of a vnode's znode (/sedna/vnodes/v%06u): its owning real node.
struct VnodeZnode {
  NodeId owner = kInvalidNode;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.owner);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<VnodeZnode> decode(std::string_view bytes) {
    return codec::decode<VnodeZnode>(bytes, "bad vnode znode");
  }
};

/// Data of a change-journal entry (/sedna/changes/c%010u): the vnode whose
/// owner changed, and the owner it changed to.
struct ChangeJournalEntry {
  VnodeId vnode = kInvalidVnode;
  NodeId owner = kInvalidNode;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.vnode, m.owner);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<ChangeJournalEntry> decode(std::string_view bytes) {
    return codec::decode<ChangeJournalEntry>(bytes, "bad journal entry");
  }
};

// ZooKeeper path layout shared by nodes and clients.
inline constexpr const char* kZkRoot = "/sedna";
inline constexpr const char* kZkConfig = "/sedna/config";
inline constexpr const char* kZkRealNodes = "/sedna/real_nodes";
inline constexpr const char* kZkVnodes = "/sedna/vnodes";
inline constexpr const char* kZkChanges = "/sedna/changes";

[[nodiscard]] inline std::string vnode_znode(VnodeId v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s/v%06u", kZkVnodes, v);
  return buf;
}
[[nodiscard]] inline std::string real_node_znode(NodeId n) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s/node-%u", kZkRealNodes, n);
  return buf;
}

}  // namespace sedna::cluster
