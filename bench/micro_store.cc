// Microbenchmarks (google-benchmark, real threads, wall-clock): the
// LocalStore engine, ring lookups, codec and checksum primitives. These
// are the per-operation costs underneath every simulated service time.
#include <benchmark/benchmark.h>

#include <thread>

#include "cluster/protocol.h"
#include "common/crc32.h"
#include "ring/rebalancer.h"
#include "ring/vnode_table.h"
#include "store/local_store.h"
#include "workload/kv_workload.h"

namespace {

using sedna::store::LocalStore;
using sedna::store::LocalStoreConfig;
using sedna::workload::KvWorkload;

void BM_StoreSet(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set(wl.key(i % 100000), wl.value());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_StoreSet);

void BM_StoreGetHit(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    store.set(wl.key(i), wl.value());
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.read_latest(wl.key(i % 100000)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_StoreGetHit);

void BM_StoreGetMiss(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.read_latest(wl.key(i % 100000)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_StoreGetMiss);

void BM_StoreWriteLatestLww(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  std::uint64_t ts = 1;
  for (auto _ : state) {
    store.write_latest(wl.key(ts % 4096), wl.value(), ts);
    ++ts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ts));
}
BENCHMARK(BM_StoreWriteLatestLww);

void BM_StoreWriteAll(benchmark::State& state) {
  LocalStore store;
  KvWorkload wl;
  std::uint64_t ts = 1;
  for (auto _ : state) {
    store.write_all(wl.key(ts % 4096), ts % 9, wl.value(), ts);
    ++ts;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ts));
}
BENCHMARK(BM_StoreWriteAll);

void BM_StoreSetWithChangeCapture(benchmark::State& state) {
  LocalStore store;
  store.set_track_changes(true);
  KvWorkload wl;
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set(wl.key(i % 4096), wl.value());
    if ((++i & 0x3ff) == 0) {
      benchmark::DoNotOptimize(store.drain_changes());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_StoreSetWithChangeCapture);

void BM_StoreEvictionUnderBudget(benchmark::State& state) {
  LocalStoreConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;  // 1 MiB forces steady-state eviction
  LocalStore store(cfg);
  KvWorkload wl;
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set(wl.key(i), wl.value());
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
  state.counters["evictions"] =
      static_cast<double>(store.stats().evictions);
}
BENCHMARK(BM_StoreEvictionUnderBudget);

void BM_StoreConcurrentSet(benchmark::State& state) {
  static LocalStore* store = nullptr;
  if (state.thread_index() == 0) {
    LocalStoreConfig cfg;
    cfg.shards = 16;
    store = new LocalStore(cfg);
  }
  KvWorkload wl{{20, static_cast<std::uint64_t>(state.thread_index())}};
  std::uint64_t i = 0;
  for (auto _ : state) {
    store->set(wl.key(i % 65536), wl.value());
    ++i;
  }
  if (state.thread_index() == 0) {
    delete store;
    store = nullptr;
  }
}
BENCHMARK(BM_StoreConcurrentSet)->Threads(1)->Threads(2)->Threads(4);

void BM_RingLookup(benchmark::State& state) {
  std::vector<sedna::NodeId> nodes;
  for (sedna::NodeId n = 0; n < 16; ++n) nodes.push_back(n);
  const auto table = sedna::ring::Rebalancer::initial_assignment(
      static_cast<std::uint32_t>(state.range(0)), 3, nodes);
  KvWorkload wl;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.replicas_for_key(wl.key(i++ % 10000)));
  }
}
BENCHMARK(BM_RingLookup)->Arg(1024)->Arg(8192)->Arg(100000);

/// Encode plus decode of the data path's client write, the message every
/// write_latest sends.
void BM_CodecRoundTrip(benchmark::State& state) {
  KvWorkload wl;
  sedna::cluster::WriteRequest req;
  req.key = wl.key(7);
  req.value = wl.value();
  req.ts = 123456789;
  for (auto _ : state) {
    const std::string buf = req.encode();
    benchmark::DoNotOptimize(sedna::cluster::WriteRequest::decode(buf));
  }
}
BENCHMARK(BM_CodecRoundTrip);

void BM_Crc32(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(sedna::crc32(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
