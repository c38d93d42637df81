#include "layers.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "cluster/protocol.h"
#include "ring/rebalancer.h"
#include "ring/vnode_table.h"
#include "store/local_store.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kVnodes = 1024;
constexpr std::uint32_t kDigestBuckets = 16;  // SednaNodeConfig default
constexpr int kReps = 5;
constexpr std::size_t kRingLookups = 200'000;
constexpr std::size_t kCodecRoundTrips = 100'000;
constexpr int kScans = 21;

/// Keeps results observable so the timed work cannot be optimized away.
volatile std::uint64_t g_sink = 0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Median over kReps of fn()'s wall nanoseconds divided by `per`.
template <typename Fn>
double median_ns_per(std::size_t per, Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    runs.push_back(ns / static_cast<double>(std::max<std::size_t>(per, 1)));
  }
  return median(runs);
}

/// A store configured as every data node's is: default shards, digests on.
std::unique_ptr<store::LocalStore> node_store() {
  auto clock = std::make_shared<std::uint64_t>(0);
  auto s = std::make_unique<store::LocalStore>(
      store::LocalStoreConfig{}, [clock] { return ++*clock; });
  s->enable_digests(kVnodes, kDigestBuckets);
  return s;
}

/// The workload's write and read streams as (key index, write id) pairs.
struct Streams {
  std::vector<std::pair<std::size_t, std::uint64_t>> writes;
  std::vector<std::size_t> reads;
};

Streams op_streams(const Inputs& in) {
  Streams s;
  if (!in.open_loop()) {
    for (std::size_t k = 0; k < in.keys.size(); ++k) {
      s.writes.emplace_back(k, k);
      s.reads.push_back(k);
    }
    return s;
  }
  for (std::size_t k = 0; k < in.preload; ++k) s.writes.emplace_back(k, k);
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    if (in.ops[i].write) {
      s.writes.emplace_back(in.ops[i].key, in.preload + i);
    } else {
      s.reads.push_back(in.ops[i].key);
    }
  }
  return s;
}

void time_store(const Inputs& in, LayerTimes& out) {
  const Streams streams = op_streams(in);
  std::vector<std::string> values;
  values.reserve(streams.writes.size());
  for (const auto& [k, wid] : streams.writes) values.push_back(in.value(wid));

  std::vector<double> write_ns, read_ns;
  for (int r = 0; r < kReps; ++r) {
    auto store = node_store();
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < streams.writes.size(); ++i) {
      (void)store->write_latest(in.keys[streams.writes[i].first], values[i],
                                /*ts=*/i + 1);
    }
    auto ns = std::chrono::duration<double, std::nano>(Clock::now() - t0);
    write_ns.push_back(ns.count() /
                       static_cast<double>(streams.writes.size()));

    std::uint64_t bytes = 0;
    t0 = Clock::now();
    for (const std::size_t k : streams.reads) {
      const auto got = store->read_latest(in.keys[k]);
      if (got.ok()) bytes += got.value().value.size();
    }
    ns = std::chrono::duration<double, std::nano>(Clock::now() - t0);
    read_ns.push_back(ns.count() / static_cast<double>(streams.reads.size()));
    g_sink = g_sink + bytes;
  }
  out.store_write_latest_ns = median(write_ns);
  out.store_read_latest_ns = median(read_ns);
}

void time_vnode_scan(const Inputs& in, std::uint64_t items, LayerTimes& out) {
  auto store = node_store();
  const std::size_t n = std::min<std::size_t>(items, in.keys.size());
  for (std::size_t k = 0; k < n; ++k) {
    (void)store->write_latest(in.keys[k], in.value(k), k + 1);
  }
  const ring::VnodeTable table(kVnodes, 3);
  std::vector<double> ms;
  for (int s = 0; s < kScans; ++s) {
    const auto vnode = static_cast<VnodeId>(s * 47 % kVnodes);
    std::uint64_t matched = 0;
    const auto t0 = Clock::now();
    store->for_each_matching(
        [&table, vnode](std::string_view key) {
          return table.vnode_for_key(key) == vnode;
        },
        [&matched](const store::Item&) { ++matched; });
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    g_sink = g_sink + matched;
  }
  out.store_vnode_scan_ms = median(ms);
}

void time_ring(const Inputs& in, LayerTimes& out) {
  const ring::VnodeTable table = ring::Rebalancer::initial_assignment(
      kVnodes, 3, {100, 101, 102, 103, 104, 105});
  out.ring_lookup_ns = median_ns_per(kRingLookups, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kRingLookups; ++i) {
      sum += table.replicas_for_key(in.keys[i % in.keys.size()]).front();
    }
    g_sink = g_sink + sum;
  });
}

void time_codec(const Inputs& in, LayerTimes& out) {
  const std::string value = in.value(0);
  out.codec_write_request_ns = median_ns_per(kCodecRoundTrips, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kCodecRoundTrips; ++i) {
      cluster::WriteRequest req;
      req.key = in.keys[i % in.keys.size()];
      req.value = value;
      req.ts = i + 1;
      req.source = 1000;
      const auto back = cluster::WriteRequest::decode(req.encode());
      if (back.ok()) sum += back.value().ts;
    }
    g_sink = g_sink + sum;
  });
  out.codec_read_reply_ns = median_ns_per(kCodecRoundTrips, [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kCodecRoundTrips; ++i) {
      cluster::ReadReply rep;
      rep.has_latest = true;
      rep.latest.value = value;
      rep.latest.ts = i + 1;
      const auto back = cluster::ReadReply::decode(rep.encode());
      if (back.ok()) sum += back.value().latest.ts;
    }
    g_sink = g_sink + sum;
  });
}

}  // namespace

LayerTimes replay_layers(const Inputs& in, std::uint64_t items_per_node) {
  LayerTimes out;
  time_store(in, out);
  time_vnode_scan(in, items_per_node, out);
  time_ring(in, out);
  time_codec(in, out);
  return out;
}

}  // namespace perfbench
