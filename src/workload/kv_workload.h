// KV workload matching the paper's test setup (Section VI.A): 20-byte
// randomly generated keys shaped like "test-00000000000000" and a 20-byte
// constant value. Deterministic per seed so every bench run replays the
// same key sequence.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/hash.h"
#include "common/rng.h"

namespace sedna::workload {

struct KvWorkloadConfig {
  std::size_t value_bytes = 20;
  std::uint64_t seed = 2012;
};

class KvWorkload {
 public:
  explicit KvWorkload(KvWorkloadConfig config = {})
      : config_(config), value_(config.value_bytes, 'v') {}

  /// Key for logical index i: pseudo-random digits derived from the seed,
  /// stable across runs ("20 bytes key which was generated randomly like
  /// 'test-00000000000000'").
  [[nodiscard]] std::string key(std::uint64_t i) const {
    const std::uint64_t h = mix64(i ^ config_.seed);
    char buf[40];
    const int n = std::snprintf(buf, sizeof buf, "test-%0*llu",
                                static_cast<int>(kKeyDigits),
                                static_cast<unsigned long long>(
                                    h % pow10(kKeyDigits)));
    return std::string(buf, static_cast<std::size_t>(n));
  }

  /// The constant 20-byte value.
  [[nodiscard]] const std::string& value() const { return value_; }

  [[nodiscard]] const KvWorkloadConfig& config() const { return config_; }

 private:
  /// "test-" + 14 digits = 19 chars ≈ 20 B.
  static constexpr std::size_t kKeyDigits = 14;

  static constexpr std::uint64_t pow10(std::size_t digits) {
    std::uint64_t p = 1;
    for (std::size_t i = 0; i < digits && i < 19; ++i) p *= 10;
    return p;
  }

  KvWorkloadConfig config_;
  std::string value_;
};

}  // namespace sedna::workload
