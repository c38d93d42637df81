#include "store/local_store.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <optional>
#include <utility>

#include "common/hash.h"

namespace sedna::store {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Deterministic equal-timestamp tie-break: higher value hash wins, then
/// the lexicographically larger value. Writer identity is not carried on
/// every replication path (read repair, pulls, transfers), so the value
/// itself is the only tie-break input all replicas are guaranteed to
/// share — what matters is that *arrival order never decides*, or
/// replicas that saw two equal-ts writes in different orders would
/// permanently diverge.
bool value_wins_tie(std::string_view incoming, std::string_view stored) {
  const std::uint64_t ih = fnv1a64(incoming);
  const std::uint64_t sh = fnv1a64(stored);
  if (ih != sh) return ih > sh;
  return incoming > stored;
}

/// Siblings beyond the first on a causal item: the store-wide sum is the
/// `store.siblings` conflict gauge (0 while no true conflicts are
/// retained).
std::uint64_t sibling_excess(const Item& it) {
  const std::size_t n = it.causal.siblings.size();
  return n > 1 ? n - 1 : 0;
}

/// Points the item's LWW mirror at the causal record's deterministic
/// winner so legacy reads/scans/digests see causal keys.
void refresh_causal_mirror(Item& it) {
  const Sibling* w = it.causal.winner();
  if (w != nullptr) {
    it.latest = VersionedValue{w->value, w->ts, w->flags};
    it.has_latest = true;
  }
}

}  // namespace

/// Store-wide Merkle leaf cells: vnodes × buckets 64-bit accumulators.
/// Every insert/remove/mutation XOR-toggles the owning cell with the
/// item's content digest under the owning shard's lock, so a cell is the
/// XOR of the digests of the items currently in that (vnode, bucket)
/// slice — identical cells ⇒ identical replicated content.
///
/// Beside the cells sits a per-vnode item index (one row of item pointers
/// per vnode), so a per-vnode visit costs O(items in vnode). Rows are
/// shared by every shard; they change under the owning shard's lock plus
/// `index_mu`, always taken in that order.
struct LocalStore::DigestTree {
  DigestTree(std::uint32_t v, std::uint32_t b)
      : vnodes(v),
        buckets(b),
        cells(std::make_unique<std::atomic<std::uint64_t>[]>(
            static_cast<std::size_t>(v) * b)),
        vbytes(std::make_unique<std::atomic<std::uint64_t>[]>(v)),
        rows(v) {
    const std::size_t n = static_cast<std::size_t>(v) * b;
    for (std::size_t i = 0; i < n; ++i) {
      cells[i].store(0, std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < v; ++i) {
      vbytes[i].store(0, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint32_t cell_of(std::string_view key) const {
    const auto vnode = static_cast<std::uint32_t>(ring_hash(key) % vnodes);
    return vnode * buckets + digest_bucket_of(key, buckets);
  }

  // An item's content digest toggles into and out of its cell; its `n`
  // resident bytes go to its vnode's tally alongside, so the tally tracks
  // the replicated content exactly (it feeds the imbalance row's
  // per-vnode capacity column).
  void charge(const Item& it, std::uint64_t n) {
    cells[it.digest_cell].fetch_xor(item_digest(it), std::memory_order_relaxed);
    vbytes[it.digest_cell / buckets].fetch_add(n, std::memory_order_relaxed);
  }
  void release(const Item& it, std::uint64_t n) {
    cells[it.digest_cell].fetch_xor(item_digest(it), std::memory_order_relaxed);
    vbytes[it.digest_cell / buckets].fetch_sub(n, std::memory_order_relaxed);
  }

  /// Files a new item (its `digest_cell` already set) under its vnode.
  void index_add(Item* it) {
    std::lock_guard lock(index_mu);
    auto& row = rows[it->digest_cell / buckets];
    // Start at 16 slots rather than doubling up from one: fewer
    // reallocations on the insert path.
    if (row.capacity() == 0) row.reserve(kMinRowCapacity);
    it->index_slot = static_cast<std::uint32_t>(row.size());
    row.push_back(it);
  }
  /// Swap-removes an item from its vnode's row.
  void index_remove(Item* it) {
    std::lock_guard lock(index_mu);
    auto& row = rows[it->digest_cell / buckets];
    Item* last = row.back();
    row[it->index_slot] = last;
    last->index_slot = it->index_slot;
    row.pop_back();
  }

  static constexpr std::size_t kMinRowCapacity = 16;

  std::uint32_t vnodes;
  std::uint32_t buckets;
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
  std::unique_ptr<std::atomic<std::uint64_t>[]> vbytes;
  std::mutex index_mu;
  std::vector<std::vector<Item*>> rows;
};

struct LocalStore::Shard {
  mutable std::mutex mu;
  std::vector<Item*> buckets;
  std::size_t item_count = 0;
  std::size_t bytes = 0;
  std::size_t budget = 0;  // 0 = unlimited
  Item* lru_head = nullptr;  // most recently used
  Item* lru_tail = nullptr;  // least recently used
  SlabAccounting slabs;
  StoreStats stats;
  std::unordered_map<std::string, ChangeRecord> dirty;
  bool track_changes = false;
  MonitoredPredicate monitored_pred;
  /// Borrowed from the owning store's digests_; null while digests are off.
  DigestTree* digests = nullptr;

  ~Shard() {
    for (Item* head : buckets) {
      while (head != nullptr) {
        Item* next = head->hash_next;
        delete head;
        head = next;
      }
    }
  }

  [[nodiscard]] std::size_t bucket_index(std::uint64_t hash) const {
    return hash & (buckets.size() - 1);
  }

  Item* find(std::string_view key, std::uint64_t hash) {
    for (Item* it = buckets[bucket_index(hash)]; it != nullptr;
         it = it->hash_next) {
      if (it->key == key) return it;
    }
    return nullptr;
  }

  void lru_unlink(Item* it) {
    if (it->lru_prev != nullptr) {
      it->lru_prev->lru_next = it->lru_next;
    } else {
      lru_head = it->lru_next;
    }
    if (it->lru_next != nullptr) {
      it->lru_next->lru_prev = it->lru_prev;
    } else {
      lru_tail = it->lru_prev;
    }
    it->lru_prev = it->lru_next = nullptr;
  }

  void lru_push_front(Item* it) {
    it->lru_prev = nullptr;
    it->lru_next = lru_head;
    if (lru_head != nullptr) lru_head->lru_prev = it;
    lru_head = it;
    if (lru_tail == nullptr) lru_tail = it;
  }

  void lru_touch(Item* it) {
    if (lru_head == it) return;
    lru_unlink(it);
    lru_push_front(it);
  }

  /// Puts the item as it stands into the shard's books: bytes, slabs,
  /// digest cell, vnode bytes and the sibling gauge.
  void account_insert(Item* it) {
    const std::size_t n = it->total_bytes();
    bytes += n;
    slabs.charge(n);
    stats.siblings += sibling_excess(*it);
    if (digests != nullptr) digests->charge(*it, n);
  }

  /// Takes the item as it stands out of the books account_insert keeps.
  void account_remove(Item* it) {
    const std::size_t n = it->total_bytes();
    bytes -= std::min(bytes, n);
    slabs.release(n);
    stats.siblings -= sibling_excess(*it);
    if (digests != nullptr) digests->release(*it, n);
  }

  void unlink_from_bucket(Item* it, std::uint64_t hash) {
    Item** slot = &buckets[bucket_index(hash)];
    while (*slot != nullptr && *slot != it) slot = &(*slot)->hash_next;
    if (*slot == it) *slot = it->hash_next;
    it->hash_next = nullptr;
  }

  /// Fully removes and frees the item.
  void erase(Item* it) {
    unlink_from_bucket(it, bucket_hash(it->key));
    lru_unlink(it);
    account_remove(it);
    if (digests != nullptr) digests->index_remove(it);
    --item_count;
    delete it;
  }

  void maybe_grow() {
    if (item_count <= buckets.size() + buckets.size() / 4) return;
    std::vector<Item*> grown(buckets.size() * 2, nullptr);
    for (Item* head : buckets) {
      while (head != nullptr) {
        Item* next = head->hash_next;
        const std::size_t idx =
            bucket_hash(head->key) & (grown.size() - 1);
        head->hash_next = grown[idx];
        grown[idx] = head;
        head = next;
      }
    }
    buckets.swap(grown);
  }

  Item* insert_new(std::string_view key, std::uint64_t hash) {
    auto* it = new Item();
    it->key.assign(key);
    if (monitored_pred) it->monitored = monitored_pred(key);
    const std::size_t idx = bucket_index(hash);
    it->hash_next = buckets[idx];
    buckets[idx] = it;
    lru_push_front(it);
    ++item_count;
    ++stats.total_items;
    if (digests != nullptr) {
      it->digest_cell = digests->cell_of(key);
      digests->index_add(it);
    }
    account_insert(it);
    maybe_grow();
    return it;
  }

  [[nodiscard]] bool should_capture(const Item& it) const {
    if (!track_changes) return false;
    if (!monitored_pred) return true;
    return it.monitored;
  }

  /// Records (coalescing) a change for the dirty table. `old_val` is the
  /// value before this shard-level mutation; records merge so a burst of
  /// writes yields one record spanning first-old to last-new.
  void record_change(Item& it, bool had_old, VersionedValue old_val,
                     bool deleted) {
    it.dirty = true;
    ++stats.dirty_events;
    auto [pos, inserted] = dirty.try_emplace(it.key);
    ChangeRecord& rec = pos->second;
    if (inserted) {
      rec.key = it.key;
      rec.had_old = had_old;
      rec.old_value = std::move(old_val);
    }
    rec.deleted = deleted;
    if (!deleted && it.has_latest) rec.new_value = it.latest;
  }

  void evict_to_budget() {
    if (budget == 0) return;
    while (bytes > budget && lru_tail != nullptr) {
      Item* victim = lru_tail;
      ++stats.evictions;
      erase(victim);
    }
  }

  [[nodiscard]] static bool is_expired(const Item& it, std::uint64_t now) {
    return it.expires_at != 0 && now >= it.expires_at;
  }

  /// find() plus lazy expiry.
  Item* find_live(std::string_view key, std::uint64_t hash,
                  std::uint64_t now) {
    Item* it = find(key, hash);
    if (it == nullptr) return nullptr;
    if (is_expired(*it, now)) {
      ++stats.expired;
      erase(it);
      return nullptr;
    }
    return it;
  }

  Item* find_or_insert(std::string_view key, std::uint64_t now) {
    const std::uint64_t h = bucket_hash(key);
    Item* it = find_live(key, h, now);
    return it != nullptr ? it : insert_new(key, h);
  }

  /// The read lookup: a live item for which `has` holds is a hit and
  /// moves to the LRU head; anything else is a miss (null).
  template <typename Has>
  const Item* read(std::string_view key, std::uint64_t now, Has has) {
    Item* it = find_live(key, bucket_hash(key), now);
    if (it == nullptr || !has(*it)) {
      ++stats.get_misses;
      return nullptr;
    }
    lru_touch(it);
    ++stats.get_hits;
    return it;
  }

  /// The last-writer-wins rule of write_latest and write_all, for a write
  /// of (`value`, `ts`) over the stored element `cur` (null when there is
  /// none). nullopt: the write applies. Otherwise the op answers with the
  /// returned status and leaves the item as it is.
  template <typename Stored>
  std::optional<Status> lww_refusal(const Stored* cur, std::string_view value,
                                    Timestamp ts) {
    if (cur == nullptr || cur->ts < ts) return std::nullopt;
    // Idempotent replay: the identical write (same ts, same value) is a
    // success, not a conflict — coordinators and clients retry writes
    // with a pinned timestamp after partial failures.
    if (cur->ts == ts && cur->value == value) return Status::Ok();
    // Equal timestamps from different writers resolve by the
    // deterministic value tie-break, never by arrival order.
    if (cur->ts > ts || !value_wins_tie(value, cur->value)) {
      ++stats.set_outdated;
      return Status::Outdated();
    }
    return std::nullopt;
  }

  /// The mutation step: every change to a live item goes through one.
  /// Open it just before editing the item: it keeps the old value for the
  /// dirty table and takes the item out of the books (account_remove).
  /// commit() puts the edited item back and settles everything else a
  /// change owes the shard: LRU recency, `stats.sets`, change capture and
  /// eviction. Eviction may free the item, so nothing may touch it after
  /// commit(). A step dropped uncommitted puts the item back into the
  /// books as it stands.
  class Mutation {
   public:
    Mutation(Shard& s, Item* it)
        : s_(s),
          it_(it),
          capture_(s.should_capture(*it)),
          had_old_(it->has_latest),
          old_(capture_ && had_old_ ? it->latest : VersionedValue{}) {
      s_.account_remove(it_);
    }
    Mutation(const Mutation&) = delete;
    Mutation& operator=(const Mutation&) = delete;
    ~Mutation() {
      if (it_ != nullptr) s_.account_insert(it_);
    }

    void commit() {
      Item* it = std::exchange(it_, nullptr);
      s_.account_insert(it);
      s_.lru_touch(it);
      ++s_.stats.sets;
      if (capture_) s_.record_change(*it, had_old_, std::move(old_), false);
      s_.evict_to_budget();
    }

   private:
    Shard& s_;
    Item* it_;
    bool capture_;
    bool had_old_;
    VersionedValue old_;
  };
};

LocalStore::LocalStore(LocalStoreConfig config, ClockFn clock)
    : config_(config), clock_(std::move(clock)) {
  const std::size_t n = round_up_pow2(std::max<std::size_t>(1, config_.shards));
  shard_mask_ = n - 1;
  shards_.reserve(n);
  const std::size_t per_shard_budget =
      config_.memory_budget_bytes == 0 ? 0 : config_.memory_budget_bytes / n;
  for (std::size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->buckets.assign(kInitialBucketsPerShard, nullptr);
    shard->budget = per_shard_budget;
    shards_.push_back(std::move(shard));
  }
}

LocalStore::~LocalStore() = default;

std::size_t LocalStore::shard_index(std::uint64_t hash) const {
  return mix64(hash) & shard_mask_;
}
LocalStore::Shard& LocalStore::shard_for(std::string_view key) {
  return *shards_[shard_index(bucket_hash(key))];
}
const LocalStore::Shard& LocalStore::shard_for(std::string_view key) const {
  return *shards_[shard_index(bucket_hash(key))];
}

std::uint64_t LocalStore::clock_now() const {
  return clock_ ? clock_() : 0;
}

Timestamp LocalStore::next_timestamp() {
  const auto seq = static_cast<std::uint16_t>(
      ts_seq_.fetch_add(1, std::memory_order_relaxed));
  Timestamp candidate = make_timestamp(clock_now(), seq);
  // Strictly monotone even without a clock (or across a clock stall):
  // never hand out a timestamp at or below the previous one.
  Timestamp last = last_ts_.load(std::memory_order_relaxed);
  for (;;) {
    if (candidate <= last) candidate = last + 1;
    if (last_ts_.compare_exchange_weak(last, candidate,
                                       std::memory_order_relaxed)) {
      return candidate;
    }
  }
}

Status LocalStore::write_latest(std::string_view key, std::string_view value,
                                Timestamp ts, std::uint32_t flags,
                                std::uint64_t ttl) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const std::uint64_t now = clock_now();
  Item* it = s.find_or_insert(key, now);
  if (auto refused = s.lww_refusal(it->has_latest ? &it->latest : nullptr,
                                   value, ts)) {
    return *refused;
  }
  Shard::Mutation step(s, it);
  it->latest = VersionedValue{std::string(value), ts, flags};
  it->has_latest = true;
  if (ttl != 0) it->expires_at = now + ttl;
  step.commit();
  return Status::Ok();
}

Status LocalStore::write_all(std::string_view key, NodeId source,
                             std::string_view value, Timestamp ts) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_or_insert(key, clock_now());
  auto elem = std::find_if(
      it->value_list.begin(), it->value_list.end(),
      [source](const SourceValue& sv) { return sv.source == source; });
  const bool found = elem != it->value_list.end();
  if (auto refused = s.lww_refusal(found ? &*elem : nullptr, value, ts)) {
    return *refused;
  }
  Shard::Mutation step(s, it);
  if (found) {
    elem->value.assign(value);
    elem->ts = ts;
  } else {
    it->value_list.push_back(SourceValue{source, std::string(value), ts});
  }
  step.commit();
  return Status::Ok();
}

Result<VersionedValue> LocalStore::read_latest(std::string_view key) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const Item* it =
      s.read(key, clock_now(), [](const Item& i) { return i.has_latest; });
  if (it == nullptr) return Status::NotFound();
  return it->latest;
}

Result<std::vector<SourceValue>> LocalStore::read_all(std::string_view key) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const Item* it = s.read(key, clock_now(), [](const Item& i) {
    return !i.value_list.empty();
  });
  if (it == nullptr) return Status::NotFound();
  return it->value_list;
}

Result<CausalRecord> LocalStore::write_causal(std::string_view key,
                                              const VersionVector& ctx,
                                              std::string_view value,
                                              Timestamp ts,
                                              std::uint32_t flags,
                                              NodeId coordinator) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_or_insert(key, clock_now());
  Shard::Mutation step(s, it);
  it->causal.update(ctx, std::string(value), ts, flags, coordinator);
  refresh_causal_mirror(*it);
  CausalRecord minted = it->causal;  // commit() may evict the item
  step.commit();
  return minted;
}

Status LocalStore::merge_causal(std::string_view key,
                                const CausalRecord& incoming,
                                bool* changed_out) {
  if (changed_out != nullptr) *changed_out = false;
  if (incoming.empty()) return Status::Ok();
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_or_insert(key, clock_now());
  Shard::Mutation step(s, it);
  // Idempotent re-delivery (retries, hint replay, anti-entropy pushes)
  // moves nothing: the dropped step charges nothing.
  if (!it->causal.merge(incoming)) return Status::Ok();
  ++s.stats.dvv_merges;
  refresh_causal_mirror(*it);
  step.commit();
  if (changed_out != nullptr) *changed_out = true;
  return Status::Ok();
}

Result<CausalRecord> LocalStore::read_causal(std::string_view key) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const Item* it = s.read(key, clock_now(), [](const Item& i) {
    return !i.causal.empty();
  });
  if (it == nullptr) return Status::NotFound();
  return it->causal;
}

Status LocalStore::set(std::string_view key, std::string_view value,
                       std::uint32_t flags, std::uint64_t ttl) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const std::uint64_t now = clock_now();
  Item* it = s.find_or_insert(key, now);
  Shard::Mutation step(s, it);
  it->latest = VersionedValue{std::string(value), next_timestamp(), flags};
  it->has_latest = true;
  it->expires_at = ttl == 0 ? 0 : now + ttl;
  step.commit();
  return Status::Ok();
}

Status LocalStore::del(std::string_view key) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  Item* it = s.find_live(key, bucket_hash(key), clock_now());
  if (it == nullptr) return Status::NotFound();
  if (s.should_capture(*it)) {
    s.record_change(*it, it->has_latest, it->latest, /*deleted=*/true);
  }
  ++s.stats.deletes;
  s.erase(it);
  return Status::Ok();
}

Status LocalStore::touch(std::string_view key, std::uint64_t ttl) {
  Shard& s = shard_for(key);
  std::lock_guard lock(s.mu);
  const std::uint64_t now = clock_now();
  Item* it = s.find_live(key, bucket_hash(key), now);
  if (it == nullptr) return Status::NotFound();
  it->expires_at = ttl == 0 ? 0 : now + ttl;
  s.lru_touch(it);
  return Status::Ok();
}

void LocalStore::set_track_changes(bool on) {
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    s->track_changes = on;
  }
}

void LocalStore::set_monitored_predicate(MonitoredPredicate pred) {
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    s->monitored_pred = pred;
    // Re-evaluate existing items against the new predicate.
    for (Item* head : s->buckets) {
      for (Item* it = head; it != nullptr; it = it->hash_next) {
        it->monitored = pred ? pred(it->key) : false;
      }
    }
  }
}

std::vector<ChangeRecord> LocalStore::drain_changes() {
  std::vector<ChangeRecord> out;
  for (auto& s : shards_) {
    std::unordered_map<std::string, ChangeRecord> taken;
    {
      std::lock_guard lock(s->mu);
      taken.swap(s->dirty);
      // Clear the Dirty column for swept items.
      for (auto& [key, rec] : taken) {
        Item* it = s->find(key, bucket_hash(key));
        if (it != nullptr) it->dirty = false;
      }
    }
    out.reserve(out.size() + taken.size());
    for (auto& [key, rec] : taken) out.push_back(std::move(rec));
  }
  return out;
}

std::size_t LocalStore::pending_changes() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    n += s->dirty.size();
  }
  return n;
}

StoreStats LocalStore::stats() const {
  StoreStats total;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    StoreStats shard_stats = s->stats;
    shard_stats.curr_items = s->item_count;
    shard_stats.bytes = s->bytes;
    total += shard_stats;
  }
  return total;
}

std::size_t LocalStore::size() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    n += s->item_count;
  }
  return n;
}

std::uint64_t LocalStore::slab_charged_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    n += s->slabs.charged_bytes();
  }
  return n;
}

void LocalStore::clear() {
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    for (Item* head : s->buckets) {
      while (head != nullptr) {
        Item* next = head->hash_next;
        s->erase(head);
        head = next;
      }
    }
    s->dirty.clear();
  }
}

void LocalStore::for_each(const std::function<void(const Item&)>& fn) const {
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    for (Item* head : s->buckets) {
      for (Item* it = head; it != nullptr; it = it->hash_next) fn(*it);
    }
  }
}

void LocalStore::enable_digests(std::uint32_t vnodes,
                                std::uint32_t buckets_per_vnode) {
  auto tree = std::make_shared<DigestTree>(
      std::max<std::uint32_t>(1, vnodes),
      std::max<std::uint32_t>(1, buckets_per_vnode));
  // Rebuild from current content (idempotent across node restarts: a
  // fresh tree starts at zero and existing items toggle in exactly once).
  for (auto& s : shards_) {
    std::lock_guard lock(s->mu);
    s->digests = tree.get();
    for (Item* head : s->buckets) {
      for (Item* it = head; it != nullptr; it = it->hash_next) {
        it->digest_cell = tree->cell_of(it->key);
        tree->index_add(it);
        tree->charge(*it, it->total_bytes());
      }
    }
  }
  digests_ = std::move(tree);
}

std::uint64_t LocalStore::vnode_bytes(VnodeId vnode) const {
  if (!digests_ || vnode >= digests_->vnodes) return 0;
  return digests_->vbytes[vnode].load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> LocalStore::vnode_bytes_all() const {
  std::vector<std::uint64_t> out;
  if (!digests_) return out;
  out.reserve(digests_->vnodes);
  for (std::uint32_t v = 0; v < digests_->vnodes; ++v) {
    out.push_back(digests_->vbytes[v].load(std::memory_order_relaxed));
  }
  return out;
}

bool LocalStore::digests_enabled() const { return digests_ != nullptr; }

std::uint32_t LocalStore::digest_buckets_per_vnode() const {
  return digests_ ? digests_->buckets : 0;
}

std::uint64_t LocalStore::digest_root(VnodeId vnode) const {
  if (!digests_ || vnode >= digests_->vnodes) return 0;
  // hash_combine chain (not a plain XOR) so bucket position matters and
  // coincidentally-cancelling buckets cannot fake a match.
  std::uint64_t root = mix64(static_cast<std::uint64_t>(vnode) + 1);
  const std::size_t base =
      static_cast<std::size_t>(vnode) * digests_->buckets;
  for (std::uint32_t b = 0; b < digests_->buckets; ++b) {
    root = hash_combine(
        root, digests_->cells[base + b].load(std::memory_order_relaxed));
  }
  return root;
}

std::vector<std::uint64_t> LocalStore::digest_buckets(VnodeId vnode) const {
  std::vector<std::uint64_t> out;
  if (!digests_ || vnode >= digests_->vnodes) return out;
  const std::size_t base =
      static_cast<std::size_t>(vnode) * digests_->buckets;
  out.reserve(digests_->buckets);
  for (std::uint32_t b = 0; b < digests_->buckets; ++b) {
    out.push_back(digests_->cells[base + b].load(std::memory_order_relaxed));
  }
  return out;
}

std::uint32_t LocalStore::digest_bucket_of(std::string_view key,
                                           std::uint32_t buckets) {
  // Salted + remixed so the digest-bucket split is decorrelated from both
  // ring placement (ring_hash) and shard/bucket selection (bucket_hash).
  return static_cast<std::uint32_t>(
      mix64(bucket_hash(key) ^ 0xa24baed4963ee407ULL) % buckets);
}

std::uint64_t LocalStore::item_digest(const Item& it) {
  // Covers only replicated content: key, latest (value, ts, flags) and
  // the per-source value list. LRU/expiry bookkeeping legitimately
  // differs between healthy replicas and must not perturb the digest.
  std::uint64_t d = mix64(fnv1a64(it.key) ^ 0x2545f4914f6cdd1dULL);
  if (it.has_latest) {
    d = hash_combine(d, fnv1a64(it.latest.value));
    d = hash_combine(d, it.latest.ts);
    d = hash_combine(d, it.latest.flags);
  }
  d = hash_combine(d, value_list_digest(it.value_list));
  // Causal record folded only when present, so purely-LWW content keeps
  // its pre-causal digests (anti-entropy stays byte-compatible).
  if (!it.causal.empty()) d = hash_combine(d, it.causal.digest());
  return d;
}

std::uint64_t LocalStore::value_list_digest(
    const std::vector<SourceValue>& list) {
  // XOR of per-source entry digests: order-independent, because replicas
  // may have applied write_all updates from different sources in any
  // interleaving. Sources are unique within a list, so entries cannot
  // cancel each other.
  std::uint64_t acc = 0;
  for (const SourceValue& sv : list) {
    std::uint64_t e =
        mix64(static_cast<std::uint64_t>(sv.source) + 0x9e3779b97f4a7c15ULL);
    e = hash_combine(e, fnv1a64(sv.value));
    e = hash_combine(e, sv.ts);
    acc ^= e;
  }
  return acc;
}

void LocalStore::for_each_in_vnode(
    VnodeId vnode, const std::function<void(const Item&)>& fn) const {
  DigestTree* tree = digests_.get();
  if (tree == nullptr || vnode >= tree->vnodes) return;
  // Snapshot the row as (shard, bucket hash) pairs; the keys stay valid
  // while index_mu pins the row. Each shard then walks only the chains
  // those hashes land in, in bucket order, and keeps the items whose
  // cached cell lies in this vnode: exactly the items, in exactly the
  // order, of a whole-store for_each_matching on "key is in vnode".
  std::vector<std::pair<std::size_t, std::uint64_t>> hashes;
  {
    std::lock_guard lock(tree->index_mu);
    const auto& row = tree->rows[vnode];
    hashes.reserve(row.size());
    for (const Item* it : row) {
      const std::uint64_t h = bucket_hash(it->key);
      hashes.emplace_back(shard_index(h), h);
    }
  }
  std::sort(hashes.begin(), hashes.end());
  const std::uint32_t base = vnode * tree->buckets;
  std::vector<std::size_t> chains;
  for (std::size_t i = 0; i < hashes.size();) {
    const std::size_t shard = hashes[i].first;
    const Shard& s = *shards_[shard];
    std::lock_guard lock(s.mu);
    chains.clear();
    for (; i < hashes.size() && hashes[i].first == shard; ++i) {
      chains.push_back(s.bucket_index(hashes[i].second));
    }
    std::sort(chains.begin(), chains.end());
    chains.erase(std::unique(chains.begin(), chains.end()), chains.end());
    for (const std::size_t b : chains) {
      for (Item* it = s.buckets[b]; it != nullptr; it = it->hash_next) {
        if (it->digest_cell - base < tree->buckets) fn(*it);
      }
    }
  }
}

void LocalStore::for_each_matching(
    const std::function<bool(std::string_view)>& pred,
    const std::function<void(const Item&)>& fn) const {
  for (const auto& s : shards_) {
    std::lock_guard lock(s->mu);
    for (Item* head : s->buckets) {
      for (Item* it = head; it != nullptr; it = it->hash_next) {
        if (pred(it->key)) fn(*it);
      }
    }
  }
}

}  // namespace sedna::store
