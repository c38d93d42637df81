// SpaceSaving top-k heavy-hitter sketch (Metwally, Agrawal, El Abbadi:
// "Efficient Computation of Frequent and Top-k Elements in Data Streams").
//
// Fixed-capacity frequency summary: tracked keys count exactly; when a new
// key arrives at capacity, the minimum-count entry is replaced and the new
// key inherits its count as an overestimation bound (`error`). Guarantees
// for any tracked key: count - error <= true frequency <= count, and every
// key with true frequency > N/capacity is tracked. Each node keeps one for
// hot-key detection (paper III.B records per-vnode frequency; this narrows
// a hot vnode down to the actual keys responsible).
//
// Deterministic by construction: entries live in a flat array sorted by
// key and the eviction victim is the (count, key)-lexicographic minimum,
// so identically-seeded runs produce identical sketches. Once full, the
// array never allocates for a new key of the same length or shorter: the
// victim's key is overwritten in place and rotated to its sorted position.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sedna {

class SpaceSavingSketch {
 public:
  struct Entry {
    std::string key;
    /// Estimated frequency (upper bound on the true frequency).
    std::uint64_t count = 0;
    /// Overestimation bound: count - error <= true frequency.
    std::uint64_t error = 0;
  };

  explicit SpaceSavingSketch(std::size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void record(std::string_view key, std::uint64_t weight = 1) {
    total_ += weight;
    const auto pos = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& e, std::string_view k) { return e.key < k; });
    if (pos != entries_.end() && pos->key == key) {
      pos->count += weight;
      return;
    }
    if (entries_.size() < capacity_) {
      entries_.insert(pos, Entry{std::string(key), weight, 0});
      return;
    }
    // Replace the minimum-count entry; ties broken by key order (the array
    // is sorted, so the first minimum seen is the smallest key).
    auto victim = entries_.begin();
    for (auto e = entries_.begin(); e != entries_.end(); ++e) {
      if (e->count < victim->count) victim = e;
    }
    const std::uint64_t floor = victim->count;
    victim->key.assign(key);
    victim->count = floor + weight;
    victim->error = floor;
    // Move the rewritten entry to its sorted place: `pos` is where the key
    // belongs among the others.
    if (pos > victim) {
      std::rotate(victim, victim + 1, pos);
    } else {
      std::rotate(pos, victim, victim + 1);
    }
  }

  /// Top `k` entries by (count desc, key asc) — the deterministic "hottest
  /// keys" answer.
  [[nodiscard]] std::vector<Entry> top(std::size_t k) const {
    std::vector<Entry> out = entries();
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.key < b.key;
    });
    if (out.size() > k) out.resize(k);
    return out;
  }

  /// Every tracked entry, in key order.
  [[nodiscard]] std::vector<Entry> entries() const { return entries_; }

  [[nodiscard]] std::size_t tracked() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Total weight recorded (tracked or not).
  [[nodiscard]] std::uint64_t total() const { return total_; }

  void clear() {
    entries_.clear();
    total_ = 0;
  }

 private:
  std::size_t capacity_;
  std::uint64_t total_ = 0;
  /// Sorted by key; at most capacity_ entries.
  std::vector<Entry> entries_;
};

}  // namespace sedna
