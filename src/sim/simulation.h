// Deterministic discrete-event simulation core.
//
// Substitutes for the paper's 9-server physical testbed (DESIGN.md §2):
// a single virtual clock in microseconds, a seeded RNG, and an event queue
// with stable FIFO ordering among same-time events so runs replay
// bit-identically.
//
// Event representation (DESIGN.md §2): the heap holds plain
// (at, seq, slot, gen) entries; the callables live in a SlotTable, so a
// heap entry or TimerHandle whose generation no longer matches is stale.
// Cancelling releases the slot at once and leaves the heap entry in place
// as a dead entry; once dead entries are more than half the heap, the heap
// is compacted. The latest `at` ever queued is kept as the clock horizon,
// so a step() that drains the queue lands the clock where popping every
// dead entry would have. pending_events() counts live events only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/slot_table.h"
#include "common/trace.h"
#include "common/types.h"

namespace sedna::sim {

class Simulation;

/// Handle for a scheduled event; cancel() prevents execution. A handle is
/// a (slot, generation) reference into its Simulation, so copies refer to
/// the same event, and a handle whose event has fired or been cancelled
/// is inert even after the slot is reused. A handle must not be used once
/// its Simulation is destroyed.
class TimerHandle {
 public:
  TimerHandle() = default;

  inline void cancel();
  [[nodiscard]] inline bool active() const;

 private:
  friend class Simulation;
  TimerHandle(Simulation* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 2012) : rng_(seed) {}
  ~Simulation() {
    // Destroy the callables outside slots_, so a captured object whose
    // destructor cancels a timer sees an empty table.
    auto slots = std::move(slots_);
    slots_ = {};
  }

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// Per-simulation span collector (disabled by default; see trace.h).
  [[nodiscard]] Tracer& tracer() { return tracer_; }

  /// Schedules fn to run `delay` microseconds from now. Returns a handle
  /// that can cancel the event before it fires.
  TimerHandle schedule(SimDuration delay, std::function<void()> fn) {
    return arm(delay, std::move(fn), /*periodic=*/false);
  }

  /// Schedules fn to run every `interval`, first firing after `interval`.
  /// Cancel via the returned handle (cancels all future firings).
  TimerHandle schedule_periodic(SimDuration interval,
                                std::function<void()> fn) {
    return arm(interval, std::move(fn), /*periodic=*/true);
  }

  /// Runs a single event. Returns false when the queue is empty; the
  /// clock then stands at the latest entry it held, dead ones included.
  bool step() {
    while (!heap_.empty()) {
      if (fire(pop())) return true;
    }
    if (now_ < horizon_) now_ = horizon_;
    return false;
  }

  /// Runs until the queue drains or `max_events` fire (runaway guard).
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t n = 0;
    while (n < max_events && step()) ++n;
    return n;
  }

  /// Runs events with timestamps <= deadline; clock lands on `deadline`
  /// afterwards (even if the queue drained earlier).
  void run_until(SimTime deadline) {
    while (!heap_.empty() && heap_.front().at <= deadline) fire(pop());
    if (now_ < deadline) now_ = deadline;
  }

  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Events still due to fire (a periodic timer counts once); cancelled
  /// entries awaiting compaction are not counted.
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() - dead_;
  }

 private:
  friend class TimerHandle;

  struct Event {
    SimTime at;
    std::uint64_t seq;  // FIFO tiebreak for same-time events
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;
    SimDuration interval = 0;
    bool periodic = false;
    /// The slot has an entry in the heap (false while a periodic event's
    /// callback runs: its entry is popped and not yet re-armed).
    bool queued = false;
  };

  /// The heap is compacted once dead entries are more than 1/kDeadShare
  /// of it, which keeps compaction amortized O(1) per cancel.
  static constexpr std::size_t kDeadShare = 2;

  TimerHandle arm(SimDuration delay, std::function<void()> fn,
                  bool periodic) {
    const auto ref = slots_.acquire();
    Slot& s = slots_[ref.slot];
    s.fn = std::move(fn);
    s.interval = delay;
    s.periodic = periodic;
    push(Event{now_ + delay, next_seq_++, ref.slot, ref.gen});
    return TimerHandle{this, ref.slot, ref.gen};
  }

  void push(const Event& ev) {
    slots_[ev.slot].queued = true;
    horizon_ = std::max(horizon_, ev.at);
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Removes the earliest entry and moves the clock to it.
  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event ev = heap_.back();
    heap_.pop_back();
    now_ = ev.at;
    return ev;
  }

  [[nodiscard]] bool live(std::uint32_t slot, std::uint32_t gen) const {
    return slots_.live({slot, gen});
  }

  void cancel(std::uint32_t slot, std::uint32_t gen) {
    if (!live(slot, gen)) return;
    if (slots_[slot].queued) ++dead_;
    // The released callable dies after the table is consistent again: its
    // destructor may re-enter schedule().
    slots_.release(slot);
    if (dead_ * kDeadShare > heap_.size()) compact();
  }

  /// Drops every dead entry and re-heapifies. Live entries keep their
  /// (at, seq) keys, so they pop in the same order as before.
  void compact() {
    heap_.erase(std::partition(heap_.begin(), heap_.end(),
                               [this](const Event& ev) {
                                 return live(ev.slot, ev.gen);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    dead_ = 0;
  }

  /// Runs a popped entry unless it is dead. A one-shot event's slot is
  /// released before its callback runs. A periodic event re-arms after its
  /// callback, taking the next seq then; if the callback cancelled it, the
  /// re-arm time only raises the clock horizon.
  bool fire(const Event& ev) {
    if (!live(ev.slot, ev.gen)) {
      --dead_;
      return false;
    }
    Slot& s = slots_[ev.slot];
    std::function<void()> fn = std::move(s.fn);
    if (!s.periodic) {
      slots_.release(ev.slot);
      fn();
      return true;
    }
    s.queued = false;
    const SimDuration interval = s.interval;
    fn();
    if (live(ev.slot, ev.gen)) {
      slots_[ev.slot].fn = std::move(fn);
      push(Event{now_ + interval, next_seq_++, ev.slot, ev.gen});
    } else {
      horizon_ = std::max(horizon_, now_ + interval);
    }
    return true;
  }

  SimTime now_ = 0;
  /// Latest `at` ever queued: where the clock stands once every entry has
  /// been popped or dropped.
  SimTime horizon_ = 0;
  std::uint64_t next_seq_ = 0;
  Rng rng_;
  Tracer tracer_;
  /// Min-heap on (at, seq) under Later.
  std::vector<Event> heap_;
  /// Entries in heap_ whose slot was released.
  std::size_t dead_ = 0;
  SlotTable<Slot> slots_;
};

inline void TimerHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel(slot_, gen_);
}

inline bool TimerHandle::active() const {
  return sim_ != nullptr && sim_->live(slot_, gen_);
}

}  // namespace sedna::sim
