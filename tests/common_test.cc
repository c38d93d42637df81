// Unit tests for src/common: status/result, hashing, codec, crc32, rng,
// keypath hierarchy, metrics, and the bounded fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/gather.h"
#include "common/hash.h"
#include "common/inline_function.h"
#include "common/keypath.h"
#include "common/metrics.h"
#include "common/ring_queue.h"
#include "common/rng.h"
#include "common/slot_table.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"

namespace sedna {
namespace {

// ---- Status / Result ------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status st = Status::Outdated("stale write");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.is(StatusCode::kOutdated));
  EXPECT_EQ(st.message(), "stale write");
  EXPECT_EQ(st.to_string(), "outdated: stale write");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::Timeout("a"), Status::Timeout("b"));
  EXPECT_FALSE(Status::Timeout() == Status::Refused());
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    EXPECT_NE(to_string(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(ResultT, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultT, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultT, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

// ---- Hashing ---------------------------------------------------------------

TEST(Hash, Fnv1aKnownVector) {
  // FNV-1a 64 of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  // And is stable for a known input.
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, DeterministicAcrossCalls) {
  EXPECT_EQ(ring_hash("test-000001"), ring_hash("test-000001"));
  EXPECT_EQ(bucket_hash("k"), bucket_hash("k"));
}

TEST(Hash, RingAndBucketAreDecorrelated) {
  // The two hash layers must not agree, or shard choice correlates with
  // vnode choice.
  int same_low_bits = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    if ((ring_hash(key) & 0xff) == (bucket_hash(key) & 0xff)) {
      ++same_low_bits;
    }
  }
  EXPECT_LT(same_low_bits, 30);  // ~1000/256 expected by chance
}

TEST(Hash, RingHashSpreadsUniformly) {
  // Chi-square-ish sanity over 64 buckets.
  std::vector<int> buckets(64, 0);
  const int n = 64000;
  for (int i = 0; i < n; ++i) {
    ++buckets[ring_hash("test-" + std::to_string(i)) % 64];
  }
  for (int count : buckets) {
    EXPECT_GT(count, n / 64 / 2);
    EXPECT_LT(count, n / 64 * 2);
  }
}

TEST(Hash, Mix64Avalanche) {
  // Flipping one input bit flips roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = mix64(0x123456789abcdefULL);
    const std::uint64_t b = mix64(0x123456789abcdefULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double mean_flips = total_flips / 64.0;
  EXPECT_GT(mean_flips, 24.0);
  EXPECT_LT(mean_flips, 40.0);
}

// ---- Timestamps -------------------------------------------------------------

TEST(Timestamp, ClockDominatesSequence) {
  EXPECT_LT(make_timestamp(100, 0xffff), make_timestamp(101, 0));
  EXPECT_LT(make_timestamp(100, 1), make_timestamp(100, 2));
}

TEST(Timestamp, ClockRecoverable) {
  EXPECT_EQ(timestamp_clock(make_timestamp(123456, 42)), 123456u);
}

// ---- Codec ------------------------------------------------------------------

/// One field of each fixed-width kind, then a string.
struct CodecSample {
  std::uint8_t u8 = 0;
  bool flag = false;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  std::string text;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.u8, m.flag, m.u16, m.u32, m.u64, m.i64, m.text);
  }
  friend bool operator==(const CodecSample&, const CodecSample&) = default;
};

CodecSample codec_sample() {
  return {0xab, true, 0x1234, 0xdeadbeef, 0x0123456789abcdefULL, -42, "hi"};
}

TEST(Codec, ScalarRoundTrip) {
  const CodecSample sample = codec_sample();
  const std::string bytes = codec::encode(sample);
  // Little-endian, fixed width, no padding.
  EXPECT_EQ(bytes, std::string("\xab\x01\x34\x12\xef\xbe\xad\xde"
                               "\xef\xcd\xab\x89\x67\x45\x23\x01"
                               "\xd6\xff\xff\xff\xff\xff\xff\xff"
                               "\x02\x00\x00\x00hi",
                               30));
  const auto back = codec::decode<CodecSample>(bytes, "sample");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), sample);
}

TEST(Codec, StringRoundTripIncludingEmbeddedNul) {
  using Strings = std::pair<std::string, std::string>;
  const Strings strings{std::string("a\0b\0c", 5), ""};
  const std::string bytes = codec::encode(strings);
  EXPECT_EQ(bytes.size(), 4u + 5 + 4);
  const auto back = codec::decode<Strings>(bytes, "strings");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), strings);
}

TEST(Codec, VectorRoundTrip) {
  const std::vector<std::string> items = {"x", "yy", "zzz"};
  const std::string bytes = codec::encode(items);
  EXPECT_EQ(bytes.size(), 4u + 3 * 4 + 6);
  const auto back = codec::decode<std::vector<std::string>>(bytes, "list");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), items);
}

TEST(Codec, TruncatedBufferFailsGracefully) {
  const std::string bytes = codec::encode(codec_sample());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const auto cut = codec::decode<CodecSample>(
        std::string_view(bytes).substr(0, n), "sample");
    ASSERT_FALSE(cut.ok()) << "prefix of " << n;
    EXPECT_TRUE(cut.status().is(StatusCode::kCorruption));
  }
}

TEST(Codec, CorruptStringLengthFails) {
  // Claims a megabyte that is not there.
  const std::string bytes = codec::encode(std::uint32_t{1000000}) + "ab";
  EXPECT_FALSE(codec::decode<std::string>(bytes, "string").ok());
}

TEST(Codec, CorruptVectorCountFails) {
  // Claims 4G elements that are not there.
  const std::string bytes = codec::encode(std::uint32_t{0xffffffff});
  EXPECT_FALSE(codec::decode<std::vector<std::string>>(bytes, "list").ok());
}

TEST(Codec, ReaderStopsAtFirstFailure) {
  // Two bytes hold neither the u64 nor, after that failure, the u16 that
  // would otherwise fit.
  codec::Reader in("ab");
  std::uint64_t wide = 7;
  in.get(wide);
  EXPECT_TRUE(in.failed());
  EXPECT_EQ(wide, 0u);
  std::uint16_t narrow = 7;
  in.get(narrow);
  EXPECT_TRUE(in.failed());  // still failed, still safe
  EXPECT_EQ(narrow, 0u);
  std::string text = "x";
  in.get(text);
  EXPECT_EQ(text, "");
}

// ---- CRC32 ------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);  // standard check value
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "the quick brown fox";
  const std::uint32_t before = crc32(data);
  data[3] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

// ---- RNG --------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(4);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, StringHasRequestedLengthAndAlphabet) {
  Rng rng(5);
  const std::string s = rng.next_string(32);
  EXPECT_EQ(s.size(), 32u);
  for (char c : s) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'));
  }
}

TEST(Zipf, FirstRankDominates) {
  ZipfGenerator zipf(1000, 1.2, 9);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.next()];
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[0], 1000);
}

TEST(Zipf, CoversUniverse) {
  ZipfGenerator zipf(4, 0.5, 10);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(zipf.next());
  EXPECT_EQ(seen.size(), 4u);
}

// ---- KeyPath ----------------------------------------------------------------

TEST(KeyPath, ParsesThreeLevels) {
  const KeyPath p = KeyPath::parse("ds/table/key");
  EXPECT_EQ(p.dataset(), "ds");
  EXPECT_EQ(p.table(), "table");
  EXPECT_EQ(p.key(), "key");
  EXPECT_TRUE(p.is_pair());
  EXPECT_FALSE(p.is_table());
}

TEST(KeyPath, ParsesPartialLevels) {
  EXPECT_TRUE(KeyPath::parse("ds").is_dataset());
  EXPECT_TRUE(KeyPath::parse("ds/t").is_table());
}

TEST(KeyPath, KeyMayContainSlashes) {
  const KeyPath p = KeyPath::parse("ds/t/a/b/c");
  EXPECT_EQ(p.key(), "a/b/c");
}

TEST(KeyPath, FlatRoundTrip) {
  for (const char* s : {"ds", "ds/t", "ds/t/k", "ds/t/k/with/slashes"}) {
    EXPECT_EQ(KeyPath::parse(s).flat(), s);
  }
}

TEST(KeyPath, ContainmentHierarchy) {
  const KeyPath dataset = KeyPath::parse("ds");
  const KeyPath table = KeyPath::parse("ds/t");
  const KeyPath pair = KeyPath::parse("ds/t/k");
  EXPECT_TRUE(dataset.contains(pair));
  EXPECT_TRUE(dataset.contains(table));
  EXPECT_TRUE(table.contains(pair));
  EXPECT_TRUE(pair.contains(pair));
  EXPECT_FALSE(pair.contains(table));
  EXPECT_FALSE(table.contains(KeyPath::parse("ds/other/k")));
  EXPECT_FALSE(dataset.contains(KeyPath::parse("other/t/k")));
}

TEST(KeyPath, MakeKeyComposes) {
  EXPECT_EQ(make_key("a", "b", "c"), "a/b/c");
}

// ---- Metrics ----------------------------------------------------------------

TEST(Metrics, CounterAccumulates) {
  Counter c;
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HistogramBasicStats) {
  Histogram h;
  for (std::uint64_t v : {1, 2, 3, 4, 100}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0);
}

TEST(Metrics, HistogramQuantilesAreMonotone) {
  Histogram h;
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) h.record(rng.next_below(100000));
  double prev = 0;
  for (double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  // Uniform distribution: the median falls within its log2 bucket.
  const double median = h.quantile(0.5);
  EXPECT_GT(median, 25000.0);
  EXPECT_LT(median, 100000.0);
}

TEST(Metrics, HistogramMerge) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Metrics, RegistryIsNameKeyed) {
  MetricRegistry reg;
  reg.counter("x").add(3);
  reg.counter("x").add(2);
  reg.histogram("lat").record(5);
  EXPECT_EQ(reg.counter("x").value(), 5u);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(Metrics, CounterValueReadsWithoutCreating) {
  MetricRegistry reg;
  reg.counter("x").add(3);
  EXPECT_EQ(reg.counter_value("x"), 3u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

// Exact pinned quantile values. Bucket i covers [2^i, 2^(i+1)); the
// estimate interpolates target rank within the bucket and clamps to the
// observed [min, max]. In particular bucket 0's lower bound is 1.0, not
// 0.0 — a histogram of all-equal small values must not report a quantile
// below the smallest recorded value.
TEST(Metrics, HistogramQuantilePinnedValues) {
  Histogram ones;
  for (int i = 0; i < 4; ++i) ones.record(1);
  EXPECT_DOUBLE_EQ(ones.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ones.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(ones.quantile(1.0), 1.0);

  Histogram tens;  // 16..25: all land in bucket [16, 32)
  for (std::uint64_t v = 16; v <= 25; ++v) tens.record(v);
  EXPECT_DOUBLE_EQ(tens.quantile(0.0), 16.0);
  // target rank 4 of 10 in-bucket → 16 + 0.4 * 16.
  EXPECT_DOUBLE_EQ(tens.quantile(0.5), 22.4);
  // Interpolation would reach 30.4; clamped to the observed max.
  EXPECT_DOUBLE_EQ(tens.quantile(1.0), 25.0);

  Histogram skewed;  // {1, 1, 100}: median interpolates inside bucket 0
  skewed.record(1);
  skewed.record(1);
  skewed.record(100);
  EXPECT_DOUBLE_EQ(skewed.quantile(0.5), 1.5);

  Histogram spread;  // {2, 2, 4, 8}: rank 1 of 2 in bucket [2, 4)
  for (std::uint64_t v : {2, 2, 4, 8}) spread.record(v);
  EXPECT_DOUBLE_EQ(spread.quantile(0.5), 3.0);

  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(Metrics, LatencyWindowQuantileMatchesHistogramBeforeItRotates) {
  LatencyWindow window(/*span=*/1000, /*floor=*/4);
  Histogram h;
  Rng rng(7);
  for (std::uint64_t t = 0; t < 500; ++t) {
    const std::uint64_t v = 1 + rng.next_below(5000);
    window.record(v, t);
    h.record(v);
  }
  EXPECT_EQ(window.count(), h.count());
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(window.quantile(q), h.quantile(q)) << q;
  }
  EXPECT_DOUBLE_EQ(LatencyWindow(1000, 4).quantile(0.99), 0.0);
}

TEST(Metrics, LatencyWindowRotatesOnlyOnceSpanAndCountBothHold) {
  LatencyWindow window(/*span=*/1000, /*floor=*/4);
  // Spans 2,000 but holds one sample: the half stays current.
  window.record(100, 0);
  window.record(100, 2000);
  EXPECT_EQ(window.count(), 2u);
  window.record(100, 2001);
  window.record(100, 2002);
  // Holds the floor and spans the window: the next sample starts a new
  // half, and the retired one still counts.
  window.record(5000, 2003);
  EXPECT_EQ(window.count(), 5u);
  EXPECT_DOUBLE_EQ(window.quantile(0.0), 100.0);
  // The new half holds the floor but does not span the window yet.
  for (std::uint64_t t = 2004; t < 2010; ++t) window.record(5000, t);
  EXPECT_EQ(window.count(), 11u);
  // Now it does: it retires, and the 100 µs half is dropped.
  window.record(5000, 3003);
  EXPECT_EQ(window.count(), 8u);
  EXPECT_DOUBLE_EQ(window.quantile(0.0), 5000.0);
}

TEST(Metrics, LatencyWindowKeepsItsSamplesWhileIdle) {
  LatencyWindow window(/*span=*/1000, /*floor=*/4);
  for (std::uint64_t t = 0; t < 4; ++t) window.record(100, t);
  // No samples for a long time: nothing ages out ...
  EXPECT_EQ(window.count(), 4u);
  EXPECT_DOUBLE_EQ(window.quantile(0.99), 100.0);
  // ... and the first sample after the gap retires the old half but still
  // reads it, so the window is never emptied by time alone.
  window.record(256, 1'000'000);
  EXPECT_EQ(window.count(), 5u);
  EXPECT_DOUBLE_EQ(window.quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(window.quantile(1.0), 256.0);
}

TEST(Metrics, MetricsRegistryMergesAndRendersPrometheusText) {
  MetricRegistry a, b;
  a.counter("ops").add(3);
  b.counter("ops").add(4);
  b.counter("client.write_retries").add(1);
  for (std::uint64_t v = 16; v <= 25; ++v) a.histogram("lat").record(v);

  MetricsRegistry registry;
  registry.attach("node-1", a);
  registry.attach("node-2", b);

  const MetricRegistry merged = registry.merged();
  EXPECT_EQ(merged.counters().at("ops").value(), 7u);
  EXPECT_EQ(merged.counters().at("client.write_retries").value(), 1u);
  EXPECT_EQ(merged.histograms().at("lat").count(), 10u);

  const std::string text = registry.prometheus_text();
  // Counters: one TYPE header, one labeled sample per member, and metric
  // names sanitized to the Prometheus charset.
  EXPECT_NE(text.find("# TYPE sedna_ops counter\n"
                      "sedna_ops{node=\"node-1\"} 3\n"
                      "sedna_ops{node=\"node-2\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_client_write_retries{node=\"node-2\"} 1\n"),
            std::string::npos);
  // Histograms render as summaries: pinned quantiles plus sum/count.
  EXPECT_NE(text.find("# TYPE sedna_lat summary\n"), std::string::npos);
  EXPECT_NE(text.find("sedna_lat{node=\"node-1\",quantile=\"0.5\"} 22.4\n"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_lat{node=\"node-1\",quantile=\"0.99\"} 25\n"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_lat_sum{node=\"node-1\"} 205\n"),
            std::string::npos);
  EXPECT_NE(text.find("sedna_lat_count{node=\"node-1\"} 10\n"),
            std::string::npos);
}

// ---- Tracing ----------------------------------------------------------------

TEST(Trace, DisabledTracerIsFreeAndRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  const TraceContext root = t.start_trace("op", 1, 10);
  EXPECT_FALSE(root.active());
  EXPECT_EQ(t.begin(root, "child", 1, 11), 0u);
  t.end(0, 12);  // safe no-op
  EXPECT_TRUE(t.spans().empty());
}

TEST(Trace, SpanTreeRecordsParentageAndOutcomes) {
  Tracer t;
  t.set_enabled(true);
  const TraceContext root = t.start_trace("client.op", 1000, 100);
  ASSERT_TRUE(root.active());
  const SpanId rpc = t.begin(root, "rpc.call", 1000, 105);
  const SpanId remote =
      t.begin(TraceContext{root.trace_id, rpc}, "server.work", 100, 120);
  t.end(remote, 140);
  t.end(rpc, 150, "ok");
  t.instant(root, "note", 1000, 155, "dropped");
  t.end(root.span_id, 160);

  ASSERT_EQ(t.spans().size(), 4u);
  const auto& spans = t.spans();
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root.span_id);
  EXPECT_EQ(spans[2].parent, rpc);
  EXPECT_EQ(spans[2].node, 100u);
  EXPECT_EQ(spans[3].status, "dropped");
  EXPECT_EQ(spans[3].start_us, spans[3].end_us);

  // First close wins: a raced second close must not overwrite.
  t.end(rpc, 999, "timeout");
  EXPECT_EQ(spans[1].status, "ok");
  EXPECT_EQ(spans[1].end_us, 150u);

  const std::string tree = t.render_tree(root.trace_id);
  EXPECT_NE(tree.find("client.op @1000 [+0 us, 60 us] ok"),
            std::string::npos);
  EXPECT_NE(tree.find("  rpc.call @1000 [+5 us, 45 us] ok"),
            std::string::npos);
  EXPECT_NE(tree.find("    server.work @100 [+20 us, 20 us] ok"),
            std::string::npos);

  const std::string json = t.dump_json();
  EXPECT_NE(json.find("\"name\":\"rpc.call\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"dropped\""), std::string::npos);
}

TEST(Trace, OpenSpansRenderAsOpen) {
  Tracer t;
  t.set_enabled(true);
  const TraceContext root = t.start_trace("op", 1, 10);
  (void)t.begin(root, "stuck", 1, 12);
  EXPECT_NE(t.render_tree(root.trace_id).find("stuck @1 [+2 us] open"),
            std::string::npos);
  EXPECT_NE(t.dump_json().find("\"status\":\"open\""), std::string::npos);
}

// ---- InlineFunction ----------------------------------------------------------

using IntFn = InlineFunction<int(int)>;

TEST(InlineFunction, HoldsMoveOnlyCaptures) {
  auto base = std::make_unique<int>(40);
  IntFn fn = [base = std::move(base)](int x) { return *base + x; };
  ASSERT_TRUE(fn);
  EXPECT_EQ(fn(2), 42);
  IntFn moved = std::move(fn);
  EXPECT_FALSE(fn);  // a moved-from function is empty
  EXPECT_EQ(moved(1), 41);
}

TEST(InlineFunction, KeepsStateAcrossCallsOfAMutableLambda) {
  IntFn counter = [n = 0](int step) mutable { return n += step; };
  EXPECT_EQ(counter(1), 1);
  EXPECT_EQ(counter(2), 3);
}

TEST(InlineFunction, FallsBackToTheHeapAboveItsInlineSize) {
  std::array<int, 8> small{};
  std::array<int, 32> large{};
  small[7] = 3;
  large[31] = 5;
  auto small_fn = [small](int x) { return small[7] * x; };
  auto large_fn = [large](int x) { return large[31] * x; };
  static_assert(IntFn::stores_inline<decltype(small_fn)>());
  static_assert(!IntFn::stores_inline<decltype(large_fn)>());
  IntFn a = small_fn;
  IntFn b = large_fn;
  EXPECT_EQ(a(2), 6);
  EXPECT_EQ(b(2), 10);
  std::swap(a, b);
  EXPECT_EQ(a(1), 5);
  EXPECT_EQ(b(1), 3);
}

/// Counts live instances and how many times the one original (never
/// moved-from) instance is destroyed.
struct Probe {
  static inline int live = 0;
  static inline int original_deaths = 0;
  bool original = true;
  Probe() { ++live; }
  Probe(Probe&& other) noexcept : original(other.original) {
    other.original = false;
    ++live;
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  ~Probe() {
    --live;
    if (original) ++original_deaths;
  }
};

template <std::size_t kPad>
void expect_each_capture_destroyed_once(bool inline_storage) {
  Probe::live = 0;
  Probe::original_deaths = 0;
  {
    std::array<char, kPad> pad{};
    auto lambda = [probe = Probe(), pad](int x) {
      return static_cast<int>(pad.size()) + x;
    };
    EXPECT_EQ(IntFn::stores_inline<decltype(lambda)>(), inline_storage);
    IntFn fn = std::move(lambda);
    IntFn moved = std::move(fn);
    IntFn assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned(0), static_cast<int>(kPad));
    EXPECT_EQ(Probe::original_deaths, 0);
    // Assigning over a live target destroys the old capture exactly once.
    assigned = [](int x) { return x; };
    EXPECT_EQ(Probe::original_deaths, 1);
    assigned = nullptr;
    EXPECT_FALSE(assigned);
  }
  EXPECT_EQ(Probe::original_deaths, 1);
  EXPECT_EQ(Probe::live, 0);
}

TEST(InlineFunction, DestroysEachCaptureExactlyOnce) {
  expect_each_capture_destroyed_once<8>(/*inline_storage=*/true);
  expect_each_capture_destroyed_once<128>(/*inline_storage=*/false);
}

// ---- RingQueue ---------------------------------------------------------------

TEST(RingQueue, FifoAcrossWrapAndGrowth) {
  RingQueue<std::string> q;
  int pushed = 0;
  int popped = 0;
  // Interleave so the head wraps before and after the buffer grows.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 3 + 2 * round; ++i) q.push_back(std::to_string(pushed++));
    for (int i = 0; i < 2 + round; ++i) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.front(), std::to_string(popped++));
      q.pop_front();
    }
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(pushed - popped));
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back("again");
  EXPECT_EQ(q.front(), "again");
}

// ---- SlotTable ---------------------------------------------------------------

TEST(SlotTable, ReleaseMakesEveryEarlierReferenceStale) {
  SlotTable<std::string> table;
  const auto a = table.acquire();
  EXPECT_NE(a.gen, 0u);
  table[a.slot] = "first";
  EXPECT_TRUE(table.live(a));
  EXPECT_TRUE(table.in_use(a.slot));
  EXPECT_EQ(table.in_use_count(), 1u);

  EXPECT_EQ(table.release(a.slot), "first");
  EXPECT_FALSE(table.live(a));
  EXPECT_FALSE(table.in_use(a.slot));
  EXPECT_EQ(table.in_use_count(), 0u);

  // The freed slot is reused under a new generation, reset to T{}.
  const auto b = table.acquire();
  EXPECT_EQ(b.slot, a.slot);
  EXPECT_NE(b.gen, a.gen);
  EXPECT_TRUE(table.live(b));
  EXPECT_EQ(table[b.slot], "");
  EXPECT_FALSE(table.live(a));
  // A free slot's current generation names nothing until it is acquired.
  table.release(b.slot);
  EXPECT_FALSE(table.live({b.slot, b.gen + 1}));
  EXPECT_FALSE(table.live({b.slot + 1, 1}));
}

// ---- run_bounded ---------------------------------------------------------------

TEST(RunBounded, ZeroTasksFinishAtOnce) {
  int finished = 0;
  run_bounded(
      0, 4, [](std::size_t, GatherDone) { ADD_FAILURE() << "no task"; },
      [&finished] { ++finished; });
  EXPECT_EQ(finished, 1);
}

TEST(RunBounded, InFlightNeverExceedsTheLimit) {
  constexpr std::size_t kTasks = 10;
  constexpr std::size_t kLimit = 3;
  std::deque<GatherDone> open;  // handles of the tasks in flight
  std::vector<std::size_t> issued;
  std::size_t max_in_flight = 0;
  int finished = 0;
  run_bounded(
      kTasks, kLimit,
      [&](std::size_t i, GatherDone done) {
        issued.push_back(i);
        open.push_back(std::move(done));
        max_in_flight = std::max(max_in_flight, open.size());
      },
      [&finished] { ++finished; });
  EXPECT_EQ(issued.size(), kLimit);
  // Finish the oldest task in flight, one at a time.
  while (!open.empty()) {
    EXPECT_EQ(finished, 0);
    const GatherDone oldest = open.front();
    open.pop_front();
    oldest();
  }
  EXPECT_EQ(max_in_flight, kLimit);
  EXPECT_EQ(issued.size(), kTasks);
  EXPECT_EQ(finished, 1);
}

TEST(RunBounded, IssuesInIndexOrder) {
  // Odd tasks finish inside their own call, even ones later; either way
  // the next index goes out next.
  std::vector<std::size_t> issued;
  std::vector<GatherDone> open;
  int finished = 0;
  run_bounded(
      9, 2,
      [&](std::size_t i, GatherDone done) {
        issued.push_back(i);
        if (i % 2 == 1) {
          done();
        } else {
          open.push_back(std::move(done));
        }
      },
      [&finished] { ++finished; });
  while (!open.empty()) {
    const GatherDone last = open.back();
    open.pop_back();
    last();
  }
  const std::vector<std::size_t> want{0, 1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(issued, want);
  EXPECT_EQ(finished, 1);
}

TEST(RunBounded, AllDoneRunsExactlyOnce) {
  // Every copy of a task's handle shares its one slot; the gather state
  // is freed with the last handle.
  auto token = std::make_shared<int>(0);
  std::vector<GatherDone> open;
  int finished = 0;
  run_bounded(
      5, kNoLimit,
      [&open, token](std::size_t, GatherDone done) {
        const GatherDone copy = done;
        open.push_back(copy);
      },
      [&finished, token] { ++finished; });
  EXPECT_EQ(open.size(), 5u);
  for (GatherDone& done : open) done();
  EXPECT_EQ(finished, 1);
  open.clear();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(RunBounded, AllDoneWaitsForTheIssuingCallToReturn) {
  // Every task finishes inside its own call: all_done still runs only
  // after the last task call has returned, at any limit.
  for (const std::size_t limit : {std::size_t{1}, std::size_t{2}, kNoLimit}) {
    std::vector<std::string> log;
    run_bounded(
        3, limit,
        [&log](std::size_t i, GatherDone done) {
          done();
          log.push_back("returned " + std::to_string(i));
        },
        [&log] { log.push_back("all_done"); });
    const std::vector<std::string> want{"returned 0", "returned 1",
                                        "returned 2", "all_done"};
    EXPECT_EQ(log, want) << "limit " << limit;
  }
}

TEST(RunBounded, DoneIsOnePointerAndFitsAnInlineCallback) {
  static_assert(sizeof(GatherDone) == sizeof(void*));
  using Callback = InlineFunction<void(const Status&, const std::string&)>;
  int* owner = nullptr;
  run_bounded(
      1, 1,
      [owner](std::size_t, GatherDone done) {
        auto cb = [owner, done](const Status&, const std::string&) {
          (void)owner;
          done();
        };
        EXPECT_TRUE(Callback::stores_inline<decltype(cb)>());
        Callback inline_cb = std::move(cb);
        inline_cb(Status::Ok(), "");
      },
      [] {});
}

}  // namespace
}  // namespace sedna
