#include "reference.h"

#include <chrono>

namespace perfbench {

namespace {

constexpr std::size_t kTableKeys = 50'000;  // ~8 MB with nodes: 4x L2
constexpr std::size_t kTimers = 4096;
constexpr std::size_t kMaxValue = 100;
constexpr int kSliceIters = 100;  // ~60 us per slice on the tuning VM
constexpr int kWarmSlices = 2'000;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Reference::Reference() {
  // Every key and full string capacity exist up front, and the heap stays
  // at kTimers entries, so slices never allocate.
  table_.reserve(kTableKeys);
  for (std::uint64_t k = 0; k < kTableKeys; ++k) {
    table_[k].reserve(kMaxValue);
  }
  std::vector<Timer> timers;
  timers.reserve(kTimers + 1);
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < kTimers; ++i) {
    x = mix(x);
    timers.emplace_back(x % 100'000, x);
  }
  timers_ = decltype(timers_)(std::greater<>(), std::move(timers));
  run(kWarmSlices * kSliceIters);
}

void Reference::run(int iters) {
  for (int i = 0; i < iters; ++i) {
    const auto [due, state] = timers_.top();
    timers_.pop();
    const std::uint64_t x = mix(state);
    std::string& value = table_[x % kTableKeys];
    value.assign(20 + x % (kMaxValue - 20), static_cast<char>('a' + x % 26));
    checksum_ += value.size();
    timers_.emplace(due + 1 + x % 1000, x);
  }
}

void Reference::slice() {
  const auto t0 = std::chrono::steady_clock::now();
  run(kSliceIters);
  tally_.seconds += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  tally_.iters += kSliceIters;
}

double Reference::speed(const Tally& from, const Tally& to) {
  const double seconds = to.seconds - from.seconds;
  const auto iters = static_cast<double>(to.iters - from.iters);
  if (iters == 0 || seconds <= 0) return 1.0;
  return kNominalNsPerIter / (seconds * 1e9 / iters);
}

}  // namespace perfbench
