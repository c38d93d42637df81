// Stored item: the paper's extended key-value row.
//
// Section IV.C / Fig. 5: every row carries two extra columns, Dirty and
// Monitors, besides the value. Section III.F: values are timestamped and
// write_all() keeps one element per *source server* in a value list,
// while write_latest() keeps a single last-writer-wins value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "store/dvv.h"

namespace sedna::store {

/// A single timestamped value, as returned by read_latest().
struct VersionedValue {
  std::string value;
  Timestamp ts = 0;
  std::uint32_t flags = 0;

  friend bool operator==(const VersionedValue& a, const VersionedValue& b) {
    return a.ts == b.ts && a.value == b.value && a.flags == b.flags;
  }
};

/// One element of a write_all() value list: tagged by source server.
struct SourceValue {
  NodeId source = kInvalidNode;
  std::string value;
  Timestamp ts = 0;

  friend bool operator==(const SourceValue& a, const SourceValue& b) {
    return a.source == b.source && a.ts == b.ts && a.value == b.value;
  }
};

/// In-memory item. Lives in a shard's bucket chain and on its LRU list
/// (intrusive pointers). An item may carry a latest-value, a value list,
/// or both — Sedna applications conventionally use one mode per key, but
/// the store does not forbid mixing.
struct Item {
  std::string key;

  VersionedValue latest;
  bool has_latest = false;
  /// Merkle digest cell (`vnode * buckets + bucket`) while the store keeps
  /// digests; cached so a mutation never re-hashes the key to find it.
  /// Sits in the padding after `has_latest`.
  std::uint32_t digest_cell = 0;

  std::vector<SourceValue> value_list;

  /// Causal versioning state (dotted version vector + sibling values),
  /// populated only for keys written through the causal API. `latest`
  /// mirrors the record's LWW-winning sibling so legacy reads, scans and
  /// digest walks keep working on causal keys.
  CausalRecord causal;

  /// Absolute expiry time (same clock as the store's ClockFn); 0 = never.
  std::uint64_t expires_at = 0;

  /// CAS token, bumped on every mutation (memcached-compatible surface).
  std::uint64_t cas = 0;

  /// Extended columns (paper Fig. 5). `dirty` is cleared when the dirty
  /// table drains; `monitored` caches "some monitor watches this key or an
  /// enclosing table/dataset" so the write path can skip old-value capture
  /// for unwatched keys.
  bool dirty = false;
  bool monitored = false;
  /// Position in the per-vnode item index (guarded by the index lock, not
  /// the shard lock). Sits in the padding after `monitored`.
  std::uint32_t index_slot = 0;

  // Intrusive chaining: hash bucket list and LRU list.
  Item* hash_next = nullptr;
  Item* lru_prev = nullptr;
  Item* lru_next = nullptr;

  [[nodiscard]] std::size_t value_bytes() const {
    std::size_t n = has_latest ? latest.value.size() : 0;
    for (const auto& sv : value_list) n += sv.value.size() + sizeof(SourceValue);
    n += causal.bytes();
    return n;
  }

  /// Approximate resident size for memory accounting, mirroring
  /// memcached's ITEM_ntotal: struct + key + values.
  [[nodiscard]] std::size_t total_bytes() const {
    return sizeof(Item) + key.size() + value_bytes();
  }
};

// total_bytes() feeds slab accounting, the per-vnode byte rows and the
// rebalancer's capacity column, so a bigger Item would move every seeded
// output that reports them. New per-item fields go into padding holes.
#if defined(__GLIBCXX__) && UINTPTR_MAX == UINT64_MAX
static_assert(sizeof(Item) == 208, "Item layout changed: see total_bytes()");
#endif

}  // namespace sedna::store
