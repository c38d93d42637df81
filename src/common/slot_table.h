// Slot table with generation-checked references.
//
// A flat vector of T plus a free list of released slots. acquire() hands
// out a (slot, gen) reference; release() bumps the slot's generation, so
// every reference handed out before it goes stale and live() rejects it
// even after the slot is reused. A slot's generation is odd while it is
// held and even while it is free (both acquire and release bump it), so
// no reference to a free slot is ever live and no live one has gen 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sedna {

template <typename T>
class SlotTable {
 public:
  struct Ref {
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Claims a slot, reusing a released one first. Its value is T{}.
  Ref acquire() {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    ++entries_[slot].gen;
    ++in_use_;
    return Ref{slot, entries_[slot].gen};
  }

  /// True while the slot `ref` names is held by the acquire that made it.
  [[nodiscard]] bool live(Ref ref) const {
    return ref.slot < entries_.size() && entries_[ref.slot].gen == ref.gen &&
           (ref.gen & 1) != 0;
  }

  /// Frees a held slot and returns its value; the slot is reset to T{}.
  /// The table is consistent before the caller destroys the value, so its
  /// destructor may re-enter the table.
  T release(std::uint32_t slot) {
    Entry& e = entries_[slot];
    T out = std::move(e.value);
    e.value = T{};
    ++e.gen;
    free_.push_back(slot);
    --in_use_;
    return out;
  }

  [[nodiscard]] T& operator[](std::uint32_t slot) {
    return entries_[slot].value;
  }
  /// Whether the slot is held (slots run 0 .. slot_count()-1).
  [[nodiscard]] bool in_use(std::uint32_t slot) const {
    return (entries_[slot].gen & 1) != 0;
  }
  [[nodiscard]] std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  /// Slots currently held.
  [[nodiscard]] std::size_t in_use_count() const { return in_use_; }

 private:
  struct Entry {
    T value{};
    std::uint32_t gen = 0;
  };

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_;
  std::size_t in_use_ = 0;
};

}  // namespace sedna
