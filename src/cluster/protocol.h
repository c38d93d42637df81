// Sedna data-path wire protocol (message-type range 200–299).
//
// Clients route requests directly to the primary replica of a key's vnode
// (zero-hop DHT, Section VII); that node coordinates the N-replica quorum
// (Section III.C). Recovery traffic (vnode takeover + item transfer) uses
// the same link layer.
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

// Causal (DVV) wire extensions ride in *trailing optional sections*: they
// are encoded only when actually carrying causal state, and decoders read
// them only when bytes remain after the legacy layout. Messages on the
// default LWW path therefore keep their exact pre-causal byte size, which
// matters because the simulated network charges delivery delay by payload
// size — an unconditional field would shift every seeded benchmark.

namespace sedna::cluster {

constexpr sim::MessageType kMsgClientWrite = 200;
constexpr sim::MessageType kMsgClientRead = 201;
constexpr sim::MessageType kMsgReplicaWrite = 210;
constexpr sim::MessageType kMsgReplicaRead = 211;
constexpr sim::MessageType kMsgFetchVnode = 220;   // new owner → survivor
constexpr sim::MessageType kMsgTakeoverVnode = 221;  // coordinator → new owner
constexpr sim::MessageType kMsgPurgeVnode = 222;   // new owner → old owner
constexpr sim::MessageType kMsgScan = 230;         // client → every node
constexpr sim::MessageType kMsgHintDeliver = 240;  // coordinator → healed replica
constexpr sim::MessageType kMsgVnodeDigest = 241;  // anti-entropy digest exchange
constexpr sim::MessageType kMsgMigrateVnode = 250;  // rebalance leader → destination

enum class WriteMode : std::uint8_t { kLatest = 0, kAll = 1 };
enum class ReadMode : std::uint8_t { kLatest = 0, kAll = 1 };

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

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(key.size() + value.size() + 40);
    w.put_u8(static_cast<std::uint8_t>(mode));
    w.put_string(key);
    w.put_string(value);
    w.put_u64(ts);
    w.put_u32(flags);
    w.put_u32(source);
    w.put_u64(ttl);
    if (causal_tag != kCausalNone) {
      w.put_u8(causal_tag);
      if (causal_tag == kCausalCtx) ctx.encode(w);
      if (causal_tag == kCausalRecord) record.encode(w);
    }
    return std::move(w).take();
  }

  static Result<WriteRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    WriteRequest req;
    req.mode = static_cast<WriteMode>(r.get_u8());
    req.key = r.get_string();
    req.value = r.get_string();
    req.ts = r.get_u64();
    req.flags = r.get_u32();
    req.source = r.get_u32();
    req.ttl = r.get_u64();
    if (!r.failed() && !r.exhausted()) {
      req.causal_tag = r.get_u8();
      if (req.causal_tag == kCausalCtx) {
        req.ctx = store::VersionVector::decode(r);
      } else if (req.causal_tag == kCausalRecord) {
        req.record = store::CausalRecord::decode(r);
      } else {
        r.mark_failed();
      }
    }
    if (r.failed()) return Status::Corruption("bad write request");
    return req;
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

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(1);
    w.put_u8(static_cast<std::uint8_t>(status));
    if (has_ctx) ctx.encode(w);
    return std::move(w).take();
  }

  static Result<WriteReply> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    WriteReply rep;
    rep.status = static_cast<StatusCode>(r.get_u8());
    if (!r.failed() && !r.exhausted()) {
      rep.ctx = store::VersionVector::decode(r);
      rep.has_ctx = !r.failed();
    }
    if (r.failed()) return Status::Corruption("bad write reply");
    return rep;
  }
};

struct ReadRequest {
  ReadMode mode = ReadMode::kLatest;
  std::string key;
  /// Trailing causal flag: ask for the full causal record (clock +
  /// siblings) instead of the LWW projection.
  bool causal = false;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(key.size() + 8);
    w.put_u8(static_cast<std::uint8_t>(mode));
    w.put_string(key);
    if (causal) w.put_bool(true);
    return std::move(w).take();
  }

  static Result<ReadRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    ReadRequest req;
    req.mode = static_cast<ReadMode>(r.get_u8());
    req.key = r.get_string();
    if (!r.failed() && !r.exhausted()) req.causal = r.get_bool();
    if (r.failed()) return Status::Corruption("bad read request");
    return req;
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

  // Trailing sections share one tag byte so they compose: bit 0 =
  // causal record follows, bit 1 = staleness bound precedes it. The tag
  // (and everything after) is emitted only when a section carries
  // state, so plain LWW replies — and *every* reply with auditing off —
  // stay byte-identical with the legacy layout (the PR 7 rule: payload
  // size feeds the network delay model, so an unconditional byte would
  // shift every seeded run).
  static constexpr std::uint8_t kTrailCausal = 1;
  static constexpr std::uint8_t kTrailAudit = 2;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(latest.value.size() + 32);
    w.put_u8(static_cast<std::uint8_t>(status));
    w.put_bool(has_latest);
    w.put_string(latest.value);
    w.put_u64(latest.ts);
    w.put_u32(latest.flags);
    w.put_vector(value_list,
                 [](BinaryWriter& out, const store::SourceValue& sv) {
                   out.put_u32(sv.source);
                   out.put_string(sv.value);
                   out.put_u64(sv.ts);
                 });
    w.put_bool(stale);
    const std::uint8_t trail =
        static_cast<std::uint8_t>((has_causal ? kTrailCausal : 0) |
                                  (staleness_us != 0 ? kTrailAudit : 0));
    if (trail != 0) {
      w.put_u8(trail);
      if ((trail & kTrailAudit) != 0) w.put_u64(staleness_us);
      if ((trail & kTrailCausal) != 0) causal.encode(w);
    }
    return std::move(w).take();
  }

  static Result<ReadReply> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    ReadReply rep;
    rep.status = static_cast<StatusCode>(r.get_u8());
    rep.has_latest = r.get_bool();
    rep.latest.value = r.get_string();
    rep.latest.ts = r.get_u64();
    rep.latest.flags = r.get_u32();
    rep.value_list = r.get_vector<store::SourceValue>(
        [](BinaryReader& in) {
          store::SourceValue sv;
          sv.source = in.get_u32();
          sv.value = in.get_string();
          sv.ts = in.get_u64();
          return sv;
        });
    rep.stale = r.get_bool();
    if (!r.failed() && !r.exhausted()) {
      const std::uint8_t trail = r.get_u8();
      if (trail == 0 ||
          (trail & ~(kTrailCausal | kTrailAudit)) != 0) {
        return Status::Corruption("bad read reply trailer");
      }
      if ((trail & kTrailAudit) != 0) rep.staleness_us = r.get_u64();
      if ((trail & kTrailCausal) != 0) {
        rep.causal = store::CausalRecord::decode(r);
        rep.has_causal = !r.failed();
      }
    }
    if (r.failed()) return Status::Corruption("bad read reply");
    return rep;
  }
};

/// One transferable item (vnode recovery / join data movement).
struct TransferItem {
  std::string key;
  bool has_latest = false;
  store::VersionedValue latest;
  std::vector<store::SourceValue> value_list;
  /// Causal record; empty for LWW items. Carried in FetchVnodeReply's
  /// trailing parallel section (the per-item layout is not individually
  /// framed, so it cannot grow in place without breaking old readers).
  store::CausalRecord causal;
};

struct FetchVnodeRequest {
  VnodeId vnode = kInvalidVnode;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(4);
    w.put_u32(vnode);
    return std::move(w).take();
  }
  static Result<FetchVnodeRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    FetchVnodeRequest req;
    req.vnode = r.get_u32();
    if (r.failed()) return Status::Corruption("bad fetch request");
    return req;
  }
};

struct FetchVnodeReply {
  StatusCode status = StatusCode::kOk;
  std::vector<TransferItem> items;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w;
    w.put_u8(static_cast<std::uint8_t>(status));
    w.put_vector(items, [](BinaryWriter& out, const TransferItem& item) {
      out.put_string(item.key);
      out.put_bool(item.has_latest);
      out.put_string(item.latest.value);
      out.put_u64(item.latest.ts);
      out.put_u32(item.latest.flags);
      out.put_vector(item.value_list,
                     [](BinaryWriter& o2, const store::SourceValue& sv) {
                       o2.put_u32(sv.source);
                       o2.put_string(sv.value);
                       o2.put_u64(sv.ts);
                     });
    });
    // Trailing parallel causal section: (item index, record) pairs for
    // the items that have causal state; omitted entirely when none do.
    std::uint32_t causal_count = 0;
    for (const auto& item : items) {
      if (!item.causal.empty()) ++causal_count;
    }
    if (causal_count > 0) {
      w.put_u32(causal_count);
      for (std::uint32_t i = 0; i < items.size(); ++i) {
        if (items[i].causal.empty()) continue;
        w.put_u32(i);
        items[i].causal.encode(w);
      }
    }
    return std::move(w).take();
  }

  static Result<FetchVnodeReply> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    FetchVnodeReply rep;
    rep.status = static_cast<StatusCode>(r.get_u8());
    rep.items = r.get_vector<TransferItem>([](BinaryReader& in) {
      TransferItem item;
      item.key = in.get_string();
      item.has_latest = in.get_bool();
      item.latest.value = in.get_string();
      item.latest.ts = in.get_u64();
      item.latest.flags = in.get_u32();
      item.value_list = in.get_vector<store::SourceValue>(
          [](BinaryReader& in2) {
            store::SourceValue sv;
            sv.source = in2.get_u32();
            sv.value = in2.get_string();
            sv.ts = in2.get_u64();
            return sv;
          });
      return item;
    });
    if (!r.failed() && !r.exhausted()) {
      const std::uint32_t n = r.get_u32();
      for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
        const std::uint32_t idx = r.get_u32();
        store::CausalRecord rec = store::CausalRecord::decode(r);
        if (idx < rep.items.size()) {
          rep.items[idx].causal = std::move(rec);
        } else {
          r.mark_failed();
        }
      }
    }
    if (r.failed()) return Status::Corruption("bad fetch reply");
    return rep;
  }
};

/// Prefix scan of one node's *primary* keys (keys whose vnode the node
/// owns), capped at `limit`. Clients scatter this to every node and merge
/// (an extension beyond the paper, which has no enumeration API).
struct ScanRequest {
  std::string prefix;
  std::uint32_t limit = 1000;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(prefix.size() + 8);
    w.put_string(prefix);
    w.put_u32(limit);
    return std::move(w).take();
  }

  static Result<ScanRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    ScanRequest req;
    req.prefix = r.get_string();
    req.limit = r.get_u32();
    if (r.failed()) return Status::Corruption("bad scan request");
    return req;
  }
};

struct ScanReply {
  StatusCode status = StatusCode::kOk;
  std::vector<std::string> keys;
  bool truncated = false;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w;
    w.put_u8(static_cast<std::uint8_t>(status));
    w.put_vector(keys, [](BinaryWriter& out, const std::string& k) {
      out.put_string(k);
    });
    w.put_bool(truncated);
    return std::move(w).take();
  }

  static Result<ScanReply> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    ScanReply rep;
    rep.status = static_cast<StatusCode>(r.get_u8());
    rep.keys = r.get_vector<std::string>(
        [](BinaryReader& in) { return in.get_string(); });
    rep.truncated = r.get_bool();
    if (r.failed()) return Status::Corruption("bad scan reply");
    return rep;
  }
};

/// Asks a previous owner to drop its now-redundant copy of a vnode's
/// data. Carries the new owner so the receiver can update its cached
/// table before deciding whether it still belongs to the replica set.
struct PurgeVnodeRequest {
  VnodeId vnode = kInvalidVnode;
  NodeId new_owner = kInvalidNode;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(8);
    w.put_u32(vnode);
    w.put_u32(new_owner);
    return std::move(w).take();
  }

  static Result<PurgeVnodeRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    PurgeVnodeRequest req;
    req.vnode = r.get_u32();
    req.new_owner = r.get_u32();
    if (r.failed()) return Status::Corruption("bad purge request");
    return req;
  }
};

struct TakeoverRequest {
  VnodeId vnode = kInvalidVnode;
  /// Healthy replicas to pull the data from, in preference order.
  std::vector<NodeId> sources;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(16);
    w.put_u32(vnode);
    w.put_u32(static_cast<std::uint32_t>(sources.size()));
    for (NodeId n : sources) w.put_u32(n);
    return std::move(w).take();
  }

  static Result<TakeoverRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    TakeoverRequest req;
    req.vnode = r.get_u32();
    const std::uint32_t n = r.get_u32();
    for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
      req.sources.push_back(r.get_u32());
    }
    if (r.failed()) return Status::Corruption("bad takeover request");
    return req;
  }
};

/// Hinted handoff: a coordinator replays a write that a replica missed
/// while it was down (Section III.C's quorum leaves W..N-1 replicas
/// eligible for hints). The payload is the original replica write — same
/// pinned timestamp, so replay is idempotent under LWW.
struct HintDeliverRequest {
  WriteRequest write;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w;
    w.put_string(write.encode());
    return std::move(w).take();
  }

  static Result<HintDeliverRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    const std::string inner = r.get_string();
    if (r.failed()) return Status::Corruption("bad hint request");
    auto w = WriteRequest::decode(inner);
    if (!w.ok()) return w.status();
    HintDeliverRequest req;
    req.write = std::move(w.value());
    return req;
  }
};

struct HintAckReply {
  /// kOk: applied. kOutdated: replica already has newer data (hint can be
  /// dropped). Anything else: keep the hint and retry later.
  StatusCode status = StatusCode::kOk;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(1);
    w.put_u8(static_cast<std::uint8_t>(status));
    return std::move(w).take();
  }

  static Result<HintAckReply> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    HintAckReply rep;
    rep.status = static_cast<StatusCode>(r.get_u8());
    if (r.failed()) return Status::Corruption("bad hint ack");
    return rep;
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

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(16 + buckets.size() * 8);
    w.put_u32(vnode);
    w.put_u64(root);
    w.put_u32(static_cast<std::uint32_t>(buckets.size()));
    for (std::uint64_t b : buckets) w.put_u64(b);
    return std::move(w).take();
  }

  static Result<VnodeDigestRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    VnodeDigestRequest req;
    req.vnode = r.get_u32();
    req.root = r.get_u64();
    const std::uint32_t n = r.get_u32();
    for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
      req.buckets.push_back(r.get_u64());
    }
    if (r.failed()) return Status::Corruption("bad digest request");
    return req;
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
  /// Carried in VnodeDigestReply's trailing parallel section.
  std::uint64_t causal_digest = 0;
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

  [[nodiscard]] std::string encode() const {
    BinaryWriter w;
    w.put_u8(static_cast<std::uint8_t>(status));
    w.put_bool(match);
    w.put_u32(static_cast<std::uint32_t>(mismatched.size()));
    for (std::uint32_t b : mismatched) w.put_u32(b);
    w.put_vector(keys, [](BinaryWriter& out, const KeySummary& k) {
      out.put_string(k.key);
      out.put_bool(k.has_latest);
      out.put_u64(k.latest_ts);
      out.put_u64(k.list_digest);
    });
    w.put_bool(truncated);
    // Trailing parallel causal-digest section (same pattern as
    // FetchVnodeReply): only keys with causal state appear.
    std::uint32_t causal_count = 0;
    for (const auto& k : keys) {
      if (k.causal_digest != 0) ++causal_count;
    }
    if (causal_count > 0) {
      w.put_u32(causal_count);
      for (std::uint32_t i = 0; i < keys.size(); ++i) {
        if (keys[i].causal_digest == 0) continue;
        w.put_u32(i);
        w.put_u64(keys[i].causal_digest);
      }
    }
    return std::move(w).take();
  }

  static Result<VnodeDigestReply> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    VnodeDigestReply rep;
    rep.status = static_cast<StatusCode>(r.get_u8());
    rep.match = r.get_bool();
    const std::uint32_t n = r.get_u32();
    for (std::uint32_t i = 0; i < n && !r.failed(); ++i) {
      rep.mismatched.push_back(r.get_u32());
    }
    rep.keys = r.get_vector<KeySummary>([](BinaryReader& in) {
      KeySummary k;
      k.key = in.get_string();
      k.has_latest = in.get_bool();
      k.latest_ts = in.get_u64();
      k.list_digest = in.get_u64();
      return k;
    });
    rep.truncated = r.get_bool();
    if (!r.failed() && !r.exhausted()) {
      const std::uint32_t cn = r.get_u32();
      for (std::uint32_t i = 0; i < cn && !r.failed(); ++i) {
        const std::uint32_t idx = r.get_u32();
        const std::uint64_t digest = r.get_u64();
        if (idx < rep.keys.size()) {
          rep.keys[idx].causal_digest = digest;
        } else {
          r.mark_failed();
        }
      }
    }
    if (r.failed()) return Status::Corruption("bad digest reply");
    return rep;
  }
};

/// Traffic-aware rebalancing: the rebalance leader asks a destination
/// node to *pull* one vnode through the multi-phase migration protocol
/// (snapshot transfer → Merkle delta catch-up → versioned ZK cutover →
/// old-owner drain). The destination drives every phase, so a leader
/// crash mid-migration at worst orphans an in-flight pull.
struct MigrateVnodeRequest {
  VnodeId vnode = kInvalidVnode;
  /// Current owner, per the leader's plan; the destination re-verifies
  /// against ZooKeeper at cutover time (versioned CAS).
  NodeId from = kInvalidNode;

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(8);
    w.put_u32(vnode);
    w.put_u32(from);
    return std::move(w).take();
  }

  static Result<MigrateVnodeRequest> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    MigrateVnodeRequest req;
    req.vnode = r.get_u32();
    req.from = r.get_u32();
    if (r.failed()) return Status::Corruption("bad migrate request");
    return req;
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

  [[nodiscard]] std::string encode() const {
    BinaryWriter w(25);
    w.put_u8(static_cast<std::uint8_t>(status));
    w.put_u64(items);
    w.put_u64(bytes);
    w.put_u64(cutover_us);
    return std::move(w).take();
  }

  static Result<MigrateVnodeReply> decode(std::string_view bytes) {
    BinaryReader r(bytes);
    MigrateVnodeReply rep;
    rep.status = static_cast<StatusCode>(r.get_u8());
    rep.items = r.get_u64();
    rep.bytes = r.get_u64();
    rep.cutover_us = r.get_u64();
    if (r.failed()) return Status::Corruption("bad migrate reply");
    return rep;
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
