// LocalStore: Sedna's per-server memory storage engine.
//
// Stands in for the "modified Memcached" the paper uses on every server
// (Section VI): a sharded, mutex-per-shard hash table with intrusive
// bucket chains, per-shard LRU eviction under a byte budget, slab-class
// accounting, expiry — plus the Sedna extensions:
//
//   * timestamped last-writer-wins writes  (write_latest, Section III.F)
//   * per-source value lists               (write_all,    Section III.F)
//   * Dirty/Monitors columns with a coalescing dirty table that the
//     trigger runtime sweeps                (Section IV.C, Fig. 5)
//
// The store is thread-safe and is used both single-threaded inside
// simulated nodes and multi-threaded in the google-benchmark microbench.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "store/item.h"
#include "store/slab.h"
#include "store/stats.h"

namespace sedna::store {

struct LocalStoreConfig {
  /// Number of independently locked shards; rounded up to a power of two.
  std::size_t shards = 8;
  std::size_t initial_buckets_per_shard = 1024;
  /// Total resident-byte budget across shards; 0 disables eviction.
  std::size_t memory_budget_bytes = 0;
};

/// One coalesced change, as swept by the trigger runtime's DirtyScanner.
/// If several writes hit a key between sweeps, `old_value` is from before
/// the first and `new_value` from after the last — "the most fresh data
/// matters most" (Section IV.B).
struct ChangeRecord {
  std::string key;
  bool had_old = false;
  VersionedValue old_value;
  VersionedValue new_value;
  bool deleted = false;
};

class LocalStore {
 public:
  /// Clock used for expiry and default timestamps. Simulated nodes pass
  /// the virtual clock; standalone users may leave the default (a process
  /// monotonic counter).
  using ClockFn = std::function<std::uint64_t()>;
  /// Consulted (when set) to decide if a key's changes are captured.
  using MonitoredPredicate = std::function<bool(std::string_view)>;

  explicit LocalStore(LocalStoreConfig config = {}, ClockFn clock = {});
  ~LocalStore();

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  // ---- Sedna data path -------------------------------------------------

  /// Stores `value` if `ts` is newer than the current latest timestamp;
  /// returns kOutdated otherwise (paper III.F). A nonzero `ttl` sets a
  /// relative expiry from the store's clock.
  Status write_latest(std::string_view key, std::string_view value,
                      Timestamp ts, std::uint32_t flags = 0,
                      std::uint64_t ttl = 0);

  /// Updates only the value-list element from `source` if `ts` is newer
  /// than that element; inserts the element if absent (paper III.F).
  Status write_all(std::string_view key, NodeId source,
                   std::string_view value, Timestamp ts);

  [[nodiscard]] Result<VersionedValue> read_latest(std::string_view key);
  [[nodiscard]] Result<std::vector<SourceValue>> read_all(
      std::string_view key);

  // ---- causal versioning (DVV) ------------------------------------------
  //
  // The causal alternative to write_latest's timestamp LWW: per-key dotted
  // version vectors with sibling retention (store/dvv.h). A causal item
  // keeps its LWW `latest` mirror pointing at the record's deterministic
  // winner, so legacy reads, scans, snapshots and Merkle digests keep
  // working on causally-written keys.

  /// Coordinator-side causal put: discards the siblings covered by the
  /// client's read context `ctx`, mints a fresh dot under `coordinator`,
  /// and appends the value (concurrent siblings survive). Returns the
  /// resulting full record for replication to peers.
  Result<CausalRecord> write_causal(std::string_view key,
                                    const VersionVector& ctx,
                                    std::string_view value, Timestamp ts,
                                    std::uint32_t flags, NodeId coordinator);

  /// Replica-side semilattice join with an incoming record. Idempotent:
  /// re-delivery is a no-op. `changed_out` (optional) reports whether the
  /// local record moved.
  Status merge_causal(std::string_view key, const CausalRecord& incoming,
                      bool* changed_out = nullptr);

  /// Full causal record (clock + siblings) of a key; kNotFound when the
  /// key is absent or was never causally written.
  [[nodiscard]] Result<CausalRecord> read_causal(std::string_view key);

  // ---- memcached-style surface -------------------------------------------

  /// Unconditional store; timestamp auto-assigned from the clock. Unlike
  /// write_latest, a zero `ttl` clears any earlier expiry.
  Status set(std::string_view key, std::string_view value,
             std::uint32_t flags = 0, std::uint64_t ttl = 0);
  Status del(std::string_view key);
  Status touch(std::string_view key, std::uint64_t ttl);

  // ---- maintenance / integration ----------------------------------------

  /// Capture old/new values into the dirty table on every change (off by
  /// default; the trigger runtime turns it on; costs one value copy per
  /// write).
  void set_track_changes(bool on);
  void set_monitored_predicate(MonitoredPredicate pred);

  /// Swaps out and returns the coalesced dirty table (all shards).
  [[nodiscard]] std::vector<ChangeRecord> drain_changes();
  [[nodiscard]] std::size_t pending_changes() const;

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t slab_charged_bytes() const;
  void clear();

  /// Snapshot iteration (persistence, recovery, vnode transfer). The
  /// callback must not reenter the store. Items are visited shard by
  /// shard under that shard's lock.
  void for_each(const std::function<void(const Item&)>& fn) const;

  /// Visits items whose key satisfies `pred`: a whole-store scan calling
  /// `pred` once per item (prefix scans). Per-vnode visits go through
  /// for_each_in_vnode instead.
  void for_each_matching(const std::function<bool(std::string_view)>& pred,
                         const std::function<void(const Item&)>& fn) const;

  /// Visits the items of one vnode through the per-vnode index kept with
  /// the digest tree, in the order for_each_matching would visit them
  /// (shard, bucket slot, chain position): truncated digest listings and
  /// anti-entropy push order depend on it. Costs O(items in the vnode).
  /// Visits nothing while digests are off.
  void for_each_in_vnode(VnodeId vnode,
                         const std::function<void(const Item&)>& fn) const;

  /// Monotonically increasing timestamp for local-origin writes.
  Timestamp next_timestamp();
  /// The store's clock (expiry times are on it); 0 without a clock.
  [[nodiscard]] std::uint64_t clock_now() const;

  // ---- Merkle anti-entropy digests --------------------------------------
  //
  // A per-vnode, per-bucket XOR-of-item-digests tree maintained
  // incrementally on every mutation. Two replicas whose digest cells agree
  // hold identical replicated content (key, latest value+ts+flags, value
  // list) for that slice of the keyspace; a mismatched cell narrows the
  // divergence to ~items/(vnodes*buckets) keys. Cheap enough to keep on
  // for every simulated node: one 64-bit hash + one atomic XOR per write.

  /// Enables (or rebuilds) the digest tree and the per-vnode item index:
  /// `vnodes` must match the cluster's total_vnodes so key→vnode mapping
  /// agrees across replicas.
  void enable_digests(std::uint32_t vnodes,
                      std::uint32_t buckets_per_vnode = 16);
  [[nodiscard]] bool digests_enabled() const;
  [[nodiscard]] std::uint32_t digest_buckets_per_vnode() const;
  /// Root digest for one vnode (combines all its bucket cells).
  [[nodiscard]] std::uint64_t digest_root(VnodeId vnode) const;
  /// All bucket cells for one vnode.
  [[nodiscard]] std::vector<std::uint64_t> digest_buckets(
      VnodeId vnode) const;
  /// Resident bytes currently attributed to one vnode's keyspace slice
  /// (tracked alongside the digest cells; 0 while digests are off).
  [[nodiscard]] std::uint64_t vnode_bytes(VnodeId vnode) const;
  /// Per-vnode resident bytes for every vnode; empty while digests are off.
  [[nodiscard]] std::vector<std::uint64_t> vnode_bytes_all() const;

  /// Bucket index of `key` within its vnode's digest row. Decorrelated
  /// from both ring placement and shard selection.
  [[nodiscard]] static std::uint32_t digest_bucket_of(std::string_view key,
                                                      std::uint32_t buckets);
  /// Digest of one item's replicated content (excludes LRU/expiry
  /// bookkeeping, which legitimately differs between replicas).
  [[nodiscard]] static std::uint64_t item_digest(const Item& it);
  /// Order-independent digest of a write_all value list.
  [[nodiscard]] static std::uint64_t value_list_digest(
      const std::vector<SourceValue>& list);

 private:
  struct Shard;
  struct DigestTree;

  /// Shard owning a key with bucket hash `hash`.
  [[nodiscard]] std::size_t shard_index(std::uint64_t hash) const;
  [[nodiscard]] Shard& shard_for(std::string_view key);
  [[nodiscard]] const Shard& shard_for(std::string_view key) const;

  LocalStoreConfig config_;
  ClockFn clock_;
  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::shared_ptr<DigestTree> digests_;
  std::atomic<std::uint64_t> ts_seq_{0};
  std::atomic<Timestamp> last_ts_{0};
};

}  // namespace sedna::store
