// Synthetic micro-blogging workload (DESIGN.md §2 substitution for the
// paper's Sina Weibo / Twitter crawl): zipf-distributed authors, a zipf
// vocabulary for message text, and a preferential-attachment-flavoured
// follower graph. Drives the Section V realtime search-engine use case.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace sedna::workload {

struct Tweet {
  std::uint64_t id = 0;
  std::uint32_t author = 0;
  std::string text;
  /// Re-tweet count (a paper ranking factor, Section V).
  std::uint32_t retweets = 0;
};

class TweetGenerator {
 public:
  TweetGenerator()
      : rng_(kSeed),
        authors_(kNumUsers, kAuthorZipf, kSeed ^ 0xa),
        words_(kVocabulary, kWordZipf, kSeed ^ 0xb) {}

  [[nodiscard]] Tweet next() {
    Tweet t;
    t.id = next_id_++;
    t.author = static_cast<std::uint32_t>(authors_.next());
    for (std::uint32_t w = 0; w < kWordsPerTweet; ++w) {
      if (w > 0) t.text += ' ';
      t.text += word(static_cast<std::uint32_t>(words_.next()));
    }
    t.retweets = static_cast<std::uint32_t>(rng_.next_below(50));
    return t;
  }

  /// Deterministic word spelling for vocabulary index i ("w17").
  [[nodiscard]] static std::string word(std::uint32_t i) {
    return "w" + std::to_string(i);
  }

  /// Follower edges for a user: heavier users follow more accounts.
  [[nodiscard]] std::vector<std::uint32_t> followees(std::uint32_t user) {
    Rng local(kSeed ^ (0x517ULL * (user + 1)));
    const std::uint32_t count =
        2 + static_cast<std::uint32_t>(local.next_below(8));
    std::vector<std::uint32_t> out;
    ZipfGenerator popular(kNumUsers, 1.2, kSeed ^ (user * 31 + 7));
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto target = static_cast<std::uint32_t>(popular.next());
      if (target != user) out.push_back(target);
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kNumUsers = 200;
  static constexpr std::uint32_t kVocabulary = 500;
  static constexpr std::uint32_t kWordsPerTweet = 6;
  static constexpr double kAuthorZipf = 1.1;
  static constexpr double kWordZipf = 1.05;
  static constexpr std::uint64_t kSeed = 42;

  Rng rng_;
  ZipfGenerator authors_;
  ZipfGenerator words_;
  std::uint64_t next_id_ = 1;
};

}  // namespace sedna::workload
