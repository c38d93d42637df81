// Dotted version vectors (Preguiça et al.): per-key causal clocks that
// detect true concurrency instead of guessing an order from wall-clock
// timestamps.
//
// A CausalRecord is the full causal state of one key:
//   * a VersionVector `clock` summarising every write this replica has
//     ever seen for the key (one (writer, max counter) entry per writer);
//   * a list of `siblings` — the values whose dots are *not* dominated by
//     any other retained write, i.e. the concurrent frontier. A causally
//     newer write replaces its ancestors; truly concurrent writes coexist
//     as siblings until a reader resolves them.
//
// Each sibling carries the unique `Dot` (writer, counter) minted by the
// coordinator that accepted it, plus the original LWW timestamp so the
// default resolver can keep byte-identical last-writer-wins behavior.
//
// merge() is a semilattice join: idempotent, commutative, associative —
// so replicas that exchange records in any order, any number of times,
// converge to the same state. That is the property the repair subsystem
// (read repair, hinted handoff, Merkle anti-entropy) relies on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/hash.h"
#include "common/types.h"

namespace sedna::store {

/// A dot: the globally unique identity of one write event, minted by the
/// coordinator as (its node id, its per-key counter + 1).
struct Dot {
  NodeId writer = kInvalidNode;
  std::uint64_t counter = 0;

  friend bool operator==(const Dot& a, const Dot& b) {
    return a.writer == b.writer && a.counter == b.counter;
  }
  friend bool operator<(const Dot& a, const Dot& b) {
    if (a.writer != b.writer) return a.writer < b.writer;
    return a.counter < b.counter;
  }

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.writer, m.counter);
  }
};

/// Per-key version vector: sorted (writer → max contiguous counter)
/// entries. Counters are per key, so vectors stay O(replicas) — only
/// nodes that coordinated a write to the key ever appear.
class VersionVector {
 public:
  [[nodiscard]] std::uint64_t get(NodeId node) const {
    const auto it = find(node);
    return it != entries_.end() && it->first == node ? it->second : 0;
  }

  /// Bumps `node`'s counter and returns the new value (the dot counter).
  std::uint64_t bump(NodeId node) {
    const auto it = find(node);
    if (it != entries_.end() && it->first == node) return ++it->second;
    entries_.insert(it, {node, 1});
    return 1;
  }

  /// True when this clock has seen `dot` (dominates or equals it).
  [[nodiscard]] bool includes(const Dot& dot) const {
    return get(dot.writer) >= dot.counter;
  }

  /// Pointwise max — the semilattice join. Returns true if *this grew.
  bool merge(const VersionVector& other) {
    bool changed = false;
    for (const auto& [node, counter] : other.entries_) {
      const auto it = find(node);
      if (it != entries_.end() && it->first == node) {
        if (counter > it->second) {
          it->second = counter;
          changed = true;
        }
      } else {
        entries_.insert(it, {node, counter});
        changed = true;
      }
    }
    return changed;
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<std::pair<NodeId, std::uint64_t>>&
  entries() const {
    return entries_;
  }

  template <typename M, typename IO>
  static void wire(M& vv, IO& io) {
    io(vv.entries_);
    if constexpr (IO::kReading) {
      // Reject unsorted/duplicate wire data rather than silently
      // corrupting the semilattice invariants.
      for (std::size_t i = 1; i < vv.entries_.size(); ++i) {
        if (vv.entries_[i].first <= vv.entries_[i - 1].first) {
          return io.fail();
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t d = 0x9ae16a3b2f90404fULL;
    for (const auto& [node, counter] : entries_) {
      d = hash_combine(d, node);
      d = hash_combine(d, counter);
    }
    return d;
  }

  friend bool operator==(const VersionVector& a, const VersionVector& b) {
    return a.entries_ == b.entries_;
  }

 private:
  [[nodiscard]] std::vector<std::pair<NodeId, std::uint64_t>>::iterator
  find(NodeId node) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), node,
        [](const auto& e, NodeId n) { return e.first < n; });
  }
  [[nodiscard]] std::vector<std::pair<NodeId, std::uint64_t>>::const_iterator
  find(NodeId node) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), node,
        [](const auto& e, NodeId n) { return e.first < n; });
  }

  std::vector<std::pair<NodeId, std::uint64_t>> entries_;
};

/// One retained concurrent value. `ts` is the write's LWW timestamp —
/// causally meaningless, but what the default resolver sorts on.
struct Sibling {
  std::string value;
  Timestamp ts = 0;
  std::uint32_t flags = 0;
  Dot dot;

  friend bool operator==(const Sibling& a, const Sibling& b) {
    return a.dot == b.dot && a.ts == b.ts && a.flags == b.flags &&
           a.value == b.value;
  }

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.value, m.ts, m.flags, m.dot);
  }
};

/// Full causal state of one key. Empty record (no clock entries, no
/// siblings) means "never causally written" and costs nothing.
struct CausalRecord {
  VersionVector clock;
  /// Sorted by dot — a canonical order so two converged replicas hold
  /// byte-identical records.
  std::vector<Sibling> siblings;

  [[nodiscard]] bool empty() const {
    return siblings.empty() && clock.empty();
  }

  [[nodiscard]] bool has_dot(const Dot& dot) const {
    for (const auto& s : siblings) {
      if (s.dot == dot) return true;
    }
    return false;
  }

  /// Semilattice join with `other` (Preguiça et al. sync): keep each
  /// sibling unless the *other* record's clock has seen its dot without
  /// retaining it (meaning the other side knew it and superseded it).
  /// Returns true if *this* changed.
  bool merge(const CausalRecord& other) {
    std::vector<Sibling> out;
    out.reserve(siblings.size() + other.siblings.size());
    for (const auto& s : siblings) {
      if (!other.clock.includes(s.dot) || other.has_dot(s.dot)) {
        out.push_back(s);
      }
    }
    for (const auto& s : other.siblings) {
      if (!clock.includes(s.dot)) out.push_back(s);
    }
    std::sort(out.begin(), out.end(),
              [](const Sibling& a, const Sibling& b) { return a.dot < b.dot; });
    const bool clock_changed = clock.merge(other.clock);
    const bool siblings_changed = out != siblings;
    if (siblings_changed) siblings = std::move(out);
    return clock_changed || siblings_changed;
  }

  /// Coordinator-side update for a client put carrying context `ctx`:
  /// discard the siblings the client had read (covered by ctx), mint a
  /// fresh dot under `coordinator`, and append the new value. Siblings
  /// *not* covered by ctx are concurrent with this write and survive.
  Dot update(const VersionVector& ctx, std::string value, Timestamp ts,
             std::uint32_t flags, NodeId coordinator) {
    std::erase_if(siblings,
                  [&ctx](const Sibling& s) { return ctx.includes(s.dot); });
    clock.merge(ctx);
    const Dot dot{coordinator, clock.bump(coordinator)};
    Sibling s;
    s.value = std::move(value);
    s.ts = ts;
    s.flags = flags;
    s.dot = dot;
    const auto pos = std::lower_bound(
        siblings.begin(), siblings.end(), s.dot,
        [](const Sibling& a, const Dot& d) { return a.dot < d; });
    siblings.insert(pos, std::move(s));
    return dot;
  }

  /// The sibling the default LWW resolver would pick: max by
  /// (ts, value hash, value, dot) — the same deterministic order the
  /// store's equal-timestamp tie-break uses, so a causal key read through
  /// the legacy read_latest path behaves like an LWW key.
  [[nodiscard]] const Sibling* winner() const {
    const Sibling* best = nullptr;
    for (const auto& s : siblings) {
      if (best == nullptr) {
        best = &s;
        continue;
      }
      if (s.ts != best->ts) {
        if (s.ts > best->ts) best = &s;
        continue;
      }
      const std::uint64_t sh = fnv1a64(s.value);
      const std::uint64_t bh = fnv1a64(best->value);
      if (sh != bh) {
        if (sh > bh) best = &s;
        continue;
      }
      if (s.value != best->value) {
        if (s.value > best->value) best = &s;
        continue;
      }
      if (best->dot < s.dot) best = &s;
    }
    return best;
  }

  /// Approximate resident bytes (0 for an empty record).
  [[nodiscard]] std::size_t bytes() const {
    std::size_t n = clock.entries().size() * 12;
    for (const auto& s : siblings) n += s.value.size() + sizeof(Sibling);
    return n;
  }

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.clock, m.siblings);
  }

  [[nodiscard]] std::string encode_string() const {
    return codec::encode(*this);
  }

  static CausalRecord decode_string(std::string_view payload) {
    auto rec = codec::decode<CausalRecord>(payload, "bad causal record");
    return rec.ok() ? std::move(rec).value() : CausalRecord{};
  }

  /// Content digest folded into the store's Merkle cells: covers clock
  /// and every sibling, so two replicas disagree on a causal key iff
  /// their digests differ.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t d = clock.digest();
    for (const auto& s : siblings) {
      d = hash_combine(d, fnv1a64(s.value));
      d = hash_combine(d, s.ts);
      d = hash_combine(d, s.flags);
      d = hash_combine(d, s.dot.writer);
      d = hash_combine(d, s.dot.counter);
    }
    return d;
  }

  friend bool operator==(const CausalRecord& a, const CausalRecord& b) {
    return a.clock == b.clock && a.siblings == b.siblings;
  }
};

}  // namespace sedna::store
