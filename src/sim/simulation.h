// Deterministic discrete-event simulation core.
//
// Substitutes for the paper's 9-server physical testbed (DESIGN.md §2):
// a single virtual clock in microseconds, a seeded RNG, and an event queue
// with stable FIFO ordering among same-time events so runs replay
// bit-identically.
//
// Event representation (DESIGN.md §2): the heap holds plain
// (at, seq, slot, gen) entries; the callables live in a slot table with a
// free list. A slot's generation is bumped whenever it is released, so a
// heap entry or TimerHandle whose generation no longer matches is stale.
// Cancelling releases the slot at once but leaves the heap entry in place
// (lazy deletion): popping it still advances the clock, and
// pending_events() still counts it.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
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
    slots_.clear();
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

  /// Runs a single event. Returns false when the queue is empty.
  bool step() {
    while (!queue_.empty()) {
      const Event ev = queue_.top();
      queue_.pop();
      now_ = ev.at;
      if (fire(ev)) return true;
    }
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
    while (!queue_.empty() && queue_.top().at <= deadline) {
      const Event ev = queue_.top();
      queue_.pop();
      now_ = ev.at;
      fire(ev);
    }
    if (now_ < deadline) now_ = deadline;
  }

  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Runs until `pred()` turns true or the queue drains. Returns pred().
  bool run_while_pending(const std::function<bool()>& pred) {
    while (!pred()) {
      if (!step()) break;
    }
    return pred();
  }

  /// Heap entries, cancelled ones included until they are popped.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

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
    std::uint32_t gen = 0;
    SimDuration interval = 0;
    bool periodic = false;
  };

  TimerHandle arm(SimDuration delay, std::function<void()> fn,
                  bool periodic) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.interval = delay;
    s.periodic = periodic;
    queue_.push(Event{now_ + delay, next_seq_++, slot, s.gen});
    return TimerHandle{this, slot, s.gen};
  }

  [[nodiscard]] bool live(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }

  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    // Bookkeeping first: destroying the callable may re-enter schedule().
    std::function<void()> dead = std::move(s.fn);
    s.fn = nullptr;
    ++s.gen;
    free_.push_back(slot);
  }

  void cancel(std::uint32_t slot, std::uint32_t gen) {
    if (live(slot, gen)) release(slot);
  }

  /// Runs a popped entry unless it is stale. A one-shot event's slot is
  /// released before its callback runs. A periodic event re-arms after its
  /// callback, taking the next seq then; if the callback cancelled it, the
  /// re-arm entry is still pushed, as a stale entry, so the heap holds the
  /// same entries as a kernel that only marks events cancelled.
  bool fire(const Event& ev) {
    if (!live(ev.slot, ev.gen)) return false;
    Slot& s = slots_[ev.slot];
    std::function<void()> fn = std::move(s.fn);
    if (!s.periodic) {
      release(ev.slot);
      fn();
      return true;
    }
    const SimDuration interval = s.interval;
    fn();
    if (live(ev.slot, ev.gen)) slots_[ev.slot].fn = std::move(fn);
    queue_.push(Event{now_ + interval, next_seq_++, ev.slot, ev.gen});
    return true;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  Rng rng_;
  Tracer tracer_;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

inline void TimerHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel(slot_, gen_);
}

inline bool TimerHandle::active() const {
  return sim_ != nullptr && sim_->live(slot_, gen_);
}

}  // namespace sedna::sim
