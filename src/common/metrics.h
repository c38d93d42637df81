// Counters and latency histograms used by benches and node instrumentation.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace sedna {

/// Monotone counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Bucket of `v` in a log2-bucketed distribution: [2^i, 2^(i+1)), with
/// bucket 0 also holding value 0.
inline std::size_t log2_bucket(std::uint64_t v) {
  if (v < 2) return 0;
  return static_cast<std::size_t>(63 - __builtin_clzll(v));
}

/// Quantile q in [0, 1] of `count` samples spread over 64 log2 buckets
/// (`bucket(i)` is bucket i's count), interpolated inside its bucket and
/// clamped to the observed [min, max].
template <typename BucketCount>
double log2_quantile(double q, std::uint64_t count, std::uint64_t min,
                     std::uint64_t max, BucketCount bucket) {
  if (count == 0) return 0.0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t n = bucket(i);
    if (seen + n > target) {
      // Bucket i covers [2^i, 2^(i+1)); bucket 0 additionally absorbs
      // value 0, so its lower bound is 2^0 like every other bucket
      // rather than 0.0 (which dragged estimates below the smallest
      // recordable latency — simulated durations are clamped >= 1).
      const double lo = static_cast<double>(1ULL << i);
      const double hi = static_cast<double>(2ULL << i);
      const double frac =
          static_cast<double>(target - seen) / static_cast<double>(n);
      // Interpolation never needs to leave the observed range.
      return std::clamp(lo + frac * (hi - lo), static_cast<double>(min),
                        static_cast<double>(max));
    }
    seen += n;
  }
  return static_cast<double>(max);
}

/// Log-bucketed histogram for latency-like quantities (microseconds).
/// Buckets are [2^i, 2^(i+1)); quantile estimates interpolate inside a
/// bucket. Cheap enough to record every simulated request.
///
/// Each bucket optionally keeps one *exemplar* — the trace id of a
/// representative request that landed there (largest value wins; ties
/// keep the earliest trace). Tail buckets thereby link straight from a
/// p99 number to a retained trace that explains it.
class Histogram {
 public:
  struct Exemplar {
    std::uint64_t value = 0;
    std::uint64_t trace = 0;
  };

  void record(std::uint64_t v) { record(v, 0); }

  /// Records a sample with the trace that produced it (0 = untraced).
  void record(std::uint64_t v, std::uint64_t trace) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    ++buckets_[log2_bucket(v)];
    if (trace != 0) offer_exemplar(log2_bucket(v), Exemplar{v, trace});
  }

  /// Bucket index → exemplar, for populated buckets with a traced sample.
  [[nodiscard]] const std::map<std::size_t, Exemplar>& exemplars() const {
    return exemplars_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// q in [0, 1].
  [[nodiscard]] double quantile(double q) const {
    return log2_quantile(q, count_, min(), max_,
                         [&](std::size_t i) { return buckets_[i]; });
  }

  void reset() { *this = Histogram{}; }

  void merge(const Histogram& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    for (const auto& [bucket, e] : other.exemplars_) {
      offer_exemplar(bucket, e);
    }
  }

 private:
  void offer_exemplar(std::size_t bucket, Exemplar e) {
    Exemplar& cur = exemplars_[bucket];
    if (cur.trace == 0 || e.value > cur.value ||
        (e.value == cur.value && e.trace < cur.trace)) {
      cur = e;
    }
  }

  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = static_cast<std::uint64_t>(-1);
  std::uint64_t max_ = 0;
  std::array<std::uint64_t, 64> buckets_{};
  std::map<std::size_t, Exemplar> exemplars_;
};

/// Recent latency, for delays that must track the current regime: two
/// log2-bucketed halves of samples. Samples go into the current half. It
/// retires (becomes the previous half, and the old previous half is
/// dropped) once it spans at least `span` since its first sample and holds
/// at least `floor` samples. Quantiles read both halves, so a busy window
/// forgets an old regime within one to two spans, while one that gets no
/// samples keeps what it has.
class LatencyWindow {
 public:
  LatencyWindow(std::uint64_t span, std::uint64_t floor)
      : span_(span), floor_(floor) {}

  /// Records `v`, observed at time `now` (the same clock as `span`).
  void record(std::uint64_t v, std::uint64_t now) {
    Half* cur = &halves_[cur_];
    if (cur->count >= floor_ && now - cur->start >= span_) {
      cur_ ^= 1;
      cur = &halves_[cur_];
      *cur = Half{};
    }
    if (cur->count == 0) cur->start = now;
    ++cur->count;
    cur->min = std::min(cur->min, v);
    cur->max = std::max(cur->max, v);
    ++cur->buckets[log2_bucket(v)];
  }

  /// Samples in both halves.
  [[nodiscard]] std::uint64_t count() const {
    return halves_[0].count + halves_[1].count;
  }

  /// q in [0, 1], over both halves.
  [[nodiscard]] double quantile(double q) const {
    const Half& a = halves_[0];
    const Half& b = halves_[1];
    return log2_quantile(
        q, count(), std::min(a.min, b.min), std::max(a.max, b.max),
        [&](std::size_t i) { return a.buckets[i] + b.buckets[i]; });
  }

 private:
  struct Half {
    std::array<std::uint64_t, 64> buckets{};
    std::uint64_t count = 0;
    std::uint64_t min = static_cast<std::uint64_t>(-1);
    std::uint64_t max = 0;
    std::uint64_t start = 0;  // time of the half's first sample
  };

  std::uint64_t span_;
  std::uint64_t floor_;
  std::array<Half, 2> halves_{};
  std::size_t cur_ = 0;
};

/// Named metric registry; one per node / per bench run. (For the
/// cluster-wide registry-of-registries see MetricsRegistry below.)
class MetricRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// A counter's value, 0 when it was never created. Unlike counter(), a
  /// read that adds no row to the registry (and so to its dumps).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
  }

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  void reset() {
    counters_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// A registry metric looked up by name on first use and cached after, for
/// hot paths. std::map never relocates its nodes, so the cached reference
/// stays valid until the registry's reset(). Resolving lazily, not at
/// construction, leaves the registry's key set exactly what by-name
/// lookups would have created.
template <typename Metric>
class MetricHandle {
 public:
  MetricHandle(MetricRegistry& registry, const char* name)
      : registry_(&registry), name_(name) {}

  Metric* operator->() { return &get(); }

 private:
  Metric& get() {
    if (metric_ == nullptr) {
      if constexpr (std::is_same_v<Metric, Counter>) {
        metric_ = &registry_->counter(name_);
      } else {
        metric_ = &registry_->histogram(name_);
      }
    }
    return *metric_;
  }

  MetricRegistry* registry_;
  const char* name_;
  Metric* metric_ = nullptr;
};

/// Cluster-wide metrics registry: names each per-node MetricRegistry with
/// a stable label ("node-100", "client-1000", ...) and renders
/// deterministic aggregate views. Output ordering is (metric name, label),
/// both lexicographic, so dumps from identically-seeded runs are
/// byte-identical.
class MetricsRegistry {
 public:
  /// The registry must outlive this aggregator.
  void attach(std::string label, const MetricRegistry& reg) {
    members_.emplace_back(std::move(label), &reg);
  }

  /// Label-free sum of every attached registry.
  [[nodiscard]] MetricRegistry merged() const {
    MetricRegistry out;
    for (const auto& [label, reg] : members_) {
      for (const auto& [name, c] : reg->counters()) {
        out.counter(name).add(c.value());
      }
      for (const auto& [name, h] : reg->histograms()) {
        out.histogram(name).merge(h);
      }
    }
    return out;
  }

  /// Prometheus-style text exposition. Counters emit one sample per
  /// label; histograms emit p50/p95/p99 quantiles plus _sum and _count
  /// (summary convention).
  [[nodiscard]] std::string prometheus_text() const {
    std::map<std::string, std::map<std::string, const Counter*>> counters;
    std::map<std::string, std::map<std::string, const Histogram*>> histos;
    for (const auto& [label, reg] : members_) {
      for (const auto& [name, c] : reg->counters()) {
        counters[name][label] = &c;
      }
      for (const auto& [name, h] : reg->histograms()) {
        histos[name][label] = &h;
      }
    }
    std::string out;
    char buf[128];
    for (const auto& [name, by_label] : counters) {
      const std::string metric = prometheus_name(name);
      out += "# TYPE " + metric + " counter\n";
      for (const auto& [label, c] : by_label) {
        std::snprintf(buf, sizeof buf, " %llu\n",
                      static_cast<unsigned long long>(c->value()));
        out += metric + "{node=\"" + escape_label_value(label) + "\"}" + buf;
      }
    }
    for (const auto& [name, by_label] : histos) {
      const std::string metric = prometheus_name(name);
      out += "# TYPE " + metric + " summary\n";
      for (const auto& [label, h] : by_label) {
        const std::string esc = escape_label_value(label);
        for (const double q : {0.5, 0.95, 0.99}) {
          std::snprintf(buf, sizeof buf, ",quantile=\"%g\"} %.6g\n", q,
                        h->quantile(q));
          out += metric + "{node=\"" + esc + "\"" + buf;
        }
        std::snprintf(buf, sizeof buf, " %llu\n",
                      static_cast<unsigned long long>(h->sum()));
        out += metric + "_sum{node=\"" + esc + "\"}" + buf;
        std::snprintf(buf, sizeof buf, " %llu\n",
                      static_cast<unsigned long long>(h->count()));
        out += metric + "_count{node=\"" + esc + "\"}" + buf;
        // Exemplar comments: the two highest populated buckets link the
        // tail of this series to retained traces. The exposition format
        // has no native exemplars for summaries, so these ride as
        // structured comments a scraper (and our promlint) can parse.
        const auto& exemplars = h->exemplars();
        int emitted = 0;
        for (auto it = exemplars.rbegin();
             it != exemplars.rend() && emitted < 2; ++it, ++emitted) {
          std::snprintf(
              buf, sizeof buf,
              " bucket_lo=%llu value=%llu trace_id=%llu\n",
              static_cast<unsigned long long>(1ULL << it->first),
              static_cast<unsigned long long>(it->second.value),
              static_cast<unsigned long long>(it->second.trace));
          out += "# exemplar " + metric + "{node=\"" + esc + "\"}" + buf;
        }
      }
    }
    return out;
  }

  /// Prometheus label-value escaping: backslash, double-quote and newline
  /// must be escaped or a hostile label breaks the exposition line format.
  static std::string escape_label_value(const std::string& value) {
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
      switch (c) {
        case '\\': out += "\\\\"; break;
        case '"': out += "\\\""; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    return out;
  }

 private:
  /// "coordinator.read_latency_us" → "sedna_coordinator_read_latency_us".
  static std::string prometheus_name(const std::string& name) {
    std::string out = "sedna_" + name;
    for (char& c : out) {
      if (c == '.' || c == '-') c = '_';
    }
    return out;
  }

  std::vector<std::pair<std::string, const MetricRegistry*>> members_;
};

}  // namespace sedna
