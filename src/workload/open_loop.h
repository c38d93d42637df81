// OpenLoopDriver: arrival-rate-driven load generation.
//
// The closed-loop drivers of Figs. 7/8 can never push the cluster past
// saturation: when the cluster slows down, a closed loop slows down with
// it. Real cloud traffic does not — arrivals keep coming at the offered
// rate whether or not earlier requests finished (the "open loop" of load
// testing folklore, and the regime where overload defenses matter).
//
// This driver schedules operation start times from a piecewise-constant
// rate curve (flash crowds, diurnal waves, pulses) with Poisson
// inter-arrival times, draws randomness from the shared
// simulation RNG (fully deterministic per seed), tracks outstanding /
// succeeded / failed counts, and aggregates completions into fixed
// windows so a scenario can gate on the goodput *shape* over time — the
// signature difference between a cluster that sheds and recovers and one
// that collapses metastably.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "sim/simulation.h"

namespace sedna::workload {

/// One step of a piecewise-constant offered-load curve: from `at`
/// (relative to start()) the generator issues `ops_per_sec`.
struct RatePoint {
  SimDuration at = 0;
  double ops_per_sec = 0.0;
};

struct OpenLoopConfig {
  /// Offered-load curve, sorted by `at`; the first point should be at 0.
  /// A rate of 0 pauses generation until the next point.
  std::vector<RatePoint> curve;
  /// Generation horizon (relative to start()); arrivals stop after this.
  SimDuration duration = 0;
  /// Completion-aggregation window for the goodput/throughput series.
  SimDuration window = sim_ms(100);
};

class OpenLoopDriver {
 public:
  /// issue(seq, done): start operation `seq`; call done(ok) exactly once
  /// when it settles, with ok = the op counts toward goodput.
  using IssueFn = std::function<void(
      std::uint64_t, const std::function<void(bool)>&)>;

  /// Per-window completion aggregates (window w covers
  /// [start + w·window, start + (w+1)·window)).
  struct Window {
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
  };

  OpenLoopDriver(sim::Simulation& sim, OpenLoopConfig config, IssueFn issue)
      : sim_(sim), config_(std::move(config)), issue_(std::move(issue)) {}

  void start() {
    started_at_ = sim_.now();
    schedule_next();
  }

  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t succeeded() const { return succeeded_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t outstanding() const {
    return issued_ - succeeded_ - failed_;
  }
  [[nodiscard]] bool drained() const { return outstanding() == 0; }

  [[nodiscard]] const std::vector<Window>& windows() const {
    return windows_;
  }
  /// Successful completions per second over window w (0 if out of range).
  [[nodiscard]] double goodput_at(std::size_t w) const {
    if (w >= windows_.size() || config_.window == 0) return 0.0;
    return static_cast<double>(windows_[w].ok) * 1e6 /
           static_cast<double>(config_.window);
  }
  /// Mean goodput (ops/s) over windows [from, to).
  [[nodiscard]] double mean_goodput(std::size_t from, std::size_t to) const {
    if (to <= from) return 0.0;
    double sum = 0;
    for (std::size_t w = from; w < to; ++w) sum += goodput_at(w);
    return sum / static_cast<double>(to - from);
  }
  [[nodiscard]] std::size_t window_index(SimTime at) const {
    if (config_.window == 0 || at < started_at_) return 0;
    return static_cast<std::size_t>((at - started_at_) / config_.window);
  }

 private:
  [[nodiscard]] double rate_at(SimDuration rel) const {
    double rate = 0.0;
    for (const RatePoint& p : config_.curve) {
      if (p.at > rel) break;
      rate = p.ops_per_sec;
    }
    return rate;
  }

  /// Next curve point strictly after `rel`, or duration if none.
  [[nodiscard]] SimDuration next_step_after(SimDuration rel) const {
    for (const RatePoint& p : config_.curve) {
      if (p.at > rel) return p.at;
    }
    return config_.duration;
  }

  void schedule_next() {
    const SimDuration rel = sim_.now() - started_at_;
    if (rel >= config_.duration) return;
    const double rate = rate_at(rel);
    if (rate <= 0.0) {
      // Paused: jump to the next curve step (or end).
      const SimDuration resume = next_step_after(rel);
      if (resume >= config_.duration) return;
      sim_.schedule(resume - rel, [this] { schedule_next(); });
      return;
    }
    const double mean_gap_us = 1e6 / rate;
    // Poisson arrivals: exponential inter-arrival gaps.
    double gap = sim_.rng().next_exponential(mean_gap_us);
    if (gap < 1.0) gap = 1.0;
    sim_.schedule(static_cast<SimDuration>(gap), [this] {
      fire();
      schedule_next();
    });
  }

  void fire() {
    const SimDuration rel = sim_.now() - started_at_;
    if (rel >= config_.duration) return;
    const std::uint64_t seq = issued_++;
    window_for(sim_.now()).issued += 1;
    issue_(seq, [this](bool ok) {
      if (ok) {
        ++succeeded_;
        window_for(sim_.now()).ok += 1;
      } else {
        ++failed_;
        window_for(sim_.now()).failed += 1;
      }
    });
  }

  Window& window_for(SimTime at) {
    const std::size_t w = window_index(at);
    if (windows_.size() <= w) windows_.resize(w + 1);
    return windows_[w];
  }

  sim::Simulation& sim_;
  OpenLoopConfig config_;
  IssueFn issue_;
  SimTime started_at_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t succeeded_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Window> windows_;
};

}  // namespace sedna::workload
