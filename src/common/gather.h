// Bounded fan-out, the one gather step of the cluster: run_bounded(count,
// limit, task, all_done) calls task(i, done) for each i in [0, count), in
// index order, with at most `limit` tasks in flight (from the call until
// its `done` runs), then all_done() exactly once. A task may call `done`
// before it returns; all_done still waits for the call that issued the
// last tasks to return (issuing holds one more reference, the "+1 guard").
// At kNoLimit every task is issued before run_bounded returns, so tasks may
// capture the caller's locals by reference. `done` is one pointer, and
// the counts are plain integers: single-threaded, like the simulation.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <utility>

namespace sedna {

/// Limit of a fan-out that issues every task at once.
inline constexpr std::size_t kNoLimit = std::numeric_limits<std::size_t>::max();

/// Reports one task finished. Copies share the task's slot: call one, once.
class GatherDone {
 public:
  struct State {
    std::size_t count, limit, next = 0, in_flight = 0, refs = 0;
    bool issuing = false;
    std::function<void(std::size_t, GatherDone)> task;
    std::function<void()> all_done;
  };

  explicit GatherDone(State* s) noexcept : s_(s) { ++s_->refs; }
  GatherDone(const GatherDone& other) noexcept : GatherDone(other.s_) {}
  GatherDone& operator=(const GatherDone&) = delete;
  // Not inlined: GCC 12 flags inlined pairs of it as -Wuse-after-free.
  [[gnu::noinline]] ~GatherDone() {
    if (--s_->refs == 0) delete s_;
  }

  void operator()() const {
    --s_->in_flight;
    pump(s_);
  }

  /// Issues tasks into the free slots; finishes once none is left.
  static void pump(State* s) {
    if (s->issuing) return;  // a task finished inside its own call
    s->issuing = true;
    while (s->next < s->count && s->in_flight < s->limit) {
      ++s->in_flight;
      s->task(s->next++, GatherDone(s));
    }
    s->issuing = false;
    if (s->next == s->count && s->in_flight == 0 && s->all_done) {
      std::exchange(s->all_done, {})();
    }
  }

 private:
  State* s_;
};

inline void run_bounded(std::size_t count, std::size_t limit,
                        std::function<void(std::size_t, GatherDone)> task,
                        std::function<void()> all_done) {
  auto* s = new GatherDone::State{count, limit, 0, 0, 0, false,
                                  std::move(task), std::move(all_done)};
  const GatherDone guard(s);  // the +1 guard: holds `s` while issuing
  GatherDone::pump(s);
}

}  // namespace sedna
