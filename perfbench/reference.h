// A fixed reference loop interleaved with the program under test, so that
// wall times taken on a shared host can be rescaled to a steady speed.
//
// The host this benchmark runs on lends its cache and memory bandwidth to
// other tenants: the same trial's wall time swings by up to 1.8x within
// seconds, and for minutes at a time. A probe run after each trial misses
// those swings. So the trial loop runs one short slice of this loop every
// 1024 simulation steps (about every millisecond), in the same thread,
// and a phase's wall time is rescaled by how fast the slices ran in that
// same phase. The loop is the shape of the program's own hot path: a
// timer heap feeding hash-map lookups of ~100 B strings over a working
// set larger than L2. Its time is excluded from every phase it runs in,
// and it allocates nothing once built.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

class Reference {
 public:
  /// Nanoseconds one iteration takes, interleaved with a trial, on the
  /// 4-vCPU Xeon VM the benchmark was tuned on: the speed every phase is
  /// scaled to. (The program evicts the loop's data between slices, so
  /// this is slower than the loop runs on its own.)
  static constexpr double kNominalNsPerIter = 600.0;

  /// Wall time spent in slices and iterations run, since construction.
  struct Tally {
    double seconds = 0;
    std::uint64_t iters = 0;
  };

  /// Builds the working set and runs warm-up slices.
  Reference();

  /// Runs one slice of the loop and adds its wall time to the tally.
  void slice();

  [[nodiscard]] Tally tally() const { return tally_; }

  /// Host speed over the slices run between two tallies: nominal over
  /// measured ns per iteration, below 1 while the host is slow. 1 when no
  /// slice ran in between.
  static double speed(const Tally& from, const Tally& to);

 private:
  using Timer = std::pair<std::uint64_t, std::uint64_t>;  // (due, state)

  void run(int iters);

  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::unordered_map<std::uint64_t, std::string> table_;
  std::uint64_t checksum_ = 0;
  Tally tally_;
};

}  // namespace perfbench
