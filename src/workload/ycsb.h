// YCSB-style workload mixes — the de-facto standard KV-store evaluation
// suite (Cooper et al., SoCC'10), contemporary with the paper and the
// natural extension of its single-mix evaluation:
//
//   A  update-heavy   50% read / 50% update, zipfian keys
//   B  read-mostly    95% read /  5% update, zipfian keys
//   C  read-only     100% read,              zipfian keys
//   D  read-latest    95% read /  5% insert; reads skew to recent inserts
//
// Deterministic per seed, like every other generator in this repository.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "workload/kv_workload.h"

namespace sedna::workload {

enum class YcsbMix : std::uint8_t { kA, kB, kC, kD };

[[nodiscard]] constexpr const char* to_string(YcsbMix mix) {
  switch (mix) {
    case YcsbMix::kA: return "A(50r/50u)";
    case YcsbMix::kB: return "B(95r/5u)";
    case YcsbMix::kC: return "C(100r)";
    case YcsbMix::kD: return "D(95r/5i,latest)";
  }
  return "?";
}

struct YcsbConfig {
  YcsbMix mix = YcsbMix::kA;
  /// Records preloaded before the measured phase.
  std::uint64_t records = 2000;
  std::uint64_t seed = 2012;
};

struct YcsbOp {
  enum class Kind : std::uint8_t { kRead, kUpdate, kInsert };
  Kind kind = Kind::kRead;
  std::string key;
};

class YcsbWorkload {
 public:
  explicit YcsbWorkload(YcsbConfig config)
      : config_(config),
        kv_({100, config.seed}),  // YCSB default-ish 100 B values
        rng_(config.seed ^ kSeedMarker),
        zipf_(static_cast<std::size_t>(config.records),
              kZipfExponent, config.seed ^ 0x51),
        inserted_(config.records) {}

  /// Key/value for preload record i.
  [[nodiscard]] std::string load_key(std::uint64_t i) const {
    return kv_.key(i);
  }
  [[nodiscard]] const std::string& value() const { return kv_.value(); }

  /// The next operation of the measured phase.
  [[nodiscard]] YcsbOp next() {
    YcsbOp op;
    const double roll = rng_.next_double();
    switch (config_.mix) {
      case YcsbMix::kA:
        op.kind = roll < 0.5 ? YcsbOp::Kind::kRead : YcsbOp::Kind::kUpdate;
        op.key = kv_.key(zipf_.next());
        break;
      case YcsbMix::kB:
        op.kind = roll < 0.95 ? YcsbOp::Kind::kRead : YcsbOp::Kind::kUpdate;
        op.key = kv_.key(zipf_.next());
        break;
      case YcsbMix::kC:
        op.kind = YcsbOp::Kind::kRead;
        op.key = kv_.key(zipf_.next());
        break;
      case YcsbMix::kD:
        if (roll < 0.95) {
          op.kind = YcsbOp::Kind::kRead;
          // "Read latest": zipf rank r maps to the r-th most recent
          // insert.
          const std::uint64_t rank = zipf_.next();
          const std::uint64_t idx =
              inserted_ > rank ? inserted_ - 1 - rank : 0;
          op.key = kv_.key(idx);
        } else {
          op.kind = YcsbOp::Kind::kInsert;
          op.key = kv_.key(inserted_++);
        }
        break;
    }
    return op;
  }

  [[nodiscard]] const YcsbConfig& config() const { return config_; }

 private:
  /// Keeps this generator's seed space disjoint from the others'.
  static constexpr std::uint64_t kSeedMarker = 0x9c5bULL;
  /// Request-key skew (the YCSB default zipf constant).
  static constexpr double kZipfExponent = 0.99;

  YcsbConfig config_;
  KvWorkload kv_;
  Rng rng_;
  ZipfGenerator zipf_;
  std::uint64_t inserted_;
};

}  // namespace sedna::workload
