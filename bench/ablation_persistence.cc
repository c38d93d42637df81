// Ablation (Table I "Persistency strategy — periodically flush or
// write-ahead logs according [to] users' needs → different speed and
// availability"): real-file measurement of the strategies' costs and what
// each recovers after a crash.
//
// This bench uses wall-clock time (the persistence layer does real I/O;
// the store runs outside the simulator here). One untimed warm-up pass
// runs every mode first, so no mode is timed in a cold process; then
// kRounds rounds time the modes in turn, and each mode reports its median
// round, so a burst of load from elsewhere on the host lands on one
// round of every mode rather than on one mode.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/outdir.h"
#include "store/local_store.h"
#include "wal/persistence.h"
#include "workload/kv_workload.h"

using namespace sedna;
using Clock = std::chrono::steady_clock;

namespace {

struct ModeResult {
  double ns_per_write = 0;
  std::uint64_t recovered = 0;
};

ModeResult run_mode(wal::PersistMode mode, bool sync_each,
                    std::uint64_t writes, std::uint64_t flush_every) {
  const std::string dir =
      "/tmp/sedna_persist_bench_" + std::to_string(static_cast<int>(mode)) +
      (sync_each ? "_sync" : "_nosync");
  std::filesystem::remove_all(dir);

  workload::KvWorkload wl;
  ModeResult result;
  {
    store::LocalStore store;
    wal::PersistenceConfig pcfg;
    pcfg.mode = mode;
    pcfg.dir = dir;
    pcfg.sync_each_write = sync_each;
    wal::PersistenceManager pm(pcfg, store);
    if (!pm.start().ok()) return result;

    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < writes; ++i) {
      const std::string key = wl.key(i);
      store.write_latest(key, wl.value(), i + 1);
      pm.on_write_latest(key, wl.value(), i + 1, 0);
      if (mode == wal::PersistMode::kPeriodicFlush && flush_every != 0 &&
          (i + 1) % flush_every == 0) {
        pm.flush_snapshot();
      }
    }
    const auto t1 = Clock::now();
    result.ns_per_write =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count() /
        static_cast<double>(writes);
    // "Crash": the store object dies here without a final flush; only
    // what already hit the files survives.
  }

  // Recover into a fresh store.
  store::LocalStore recovered_store;
  wal::PersistenceConfig pcfg;
  pcfg.mode = mode;
  pcfg.dir = dir;
  wal::PersistenceManager pm(pcfg, recovered_store);
  if (pm.start().ok()) {
    auto n = pm.recover();
    if (n.ok()) result.recovered = recovered_store.size();
  }
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace

int main() {
  // Not a multiple of the flush interval: the crash must strand a tail of
  // writes after the last snapshot, or the flush strategy looks lossless.
  constexpr std::uint64_t kWrites = 22000;
  constexpr int kRounds = 5;
  std::printf("Ablation: persistency strategy (real file I/O, %llu writes,"
              " crash, recover; ns/write is the median of %d rounds)\n\n",
              static_cast<unsigned long long>(kWrites), kRounds);
  std::printf("%-28s %14s %18s\n", "strategy", "ns/write",
              "recovered_items");

  struct Mode {
    wal::PersistMode mode;
    bool sync_each;
    std::uint64_t flush_every;
    std::vector<double> ns_per_write;
    ModeResult median;
  };
  Mode modes[] = {{wal::PersistMode::kNone, false, 0, {}, {}},
                  {wal::PersistMode::kPeriodicFlush, false, 5000, {}, {}},
                  {wal::PersistMode::kWal, false, 0, {}, {}},
                  {wal::PersistMode::kWal, true, 0, {}, {}}};
  for (int round = -1; round < kRounds; ++round) {  // round -1: warm-up
    for (Mode& m : modes) {
      const ModeResult r =
          run_mode(m.mode, m.sync_each, kWrites, m.flush_every);
      if (round < 0) continue;
      m.ns_per_write.push_back(r.ns_per_write);
      m.median.recovered = r.recovered;
    }
  }
  for (Mode& m : modes) {
    auto mid = m.ns_per_write.begin() + kRounds / 2;
    std::nth_element(m.ns_per_write.begin(), mid, m.ns_per_write.end());
    m.median.ns_per_write = *mid;
  }
  const ModeResult& none = modes[0].median;
  const ModeResult& flush = modes[1].median;
  const ModeResult& walbuf = modes[2].median;
  const ModeResult& walsync = modes[3].median;

  std::FILE* csv = std::fopen(sedna::out_path("ablation_persistence.csv").c_str(), "w");
  if (csv) std::fprintf(csv, "strategy,ns_per_write,recovered\n");
  auto row = [&](const char* name, const ModeResult& r) {
    std::printf("%-28s %14.0f %18llu\n", name, r.ns_per_write,
                static_cast<unsigned long long>(r.recovered));
    if (csv) {
      std::fprintf(csv, "%s,%.1f,%llu\n", name, r.ns_per_write,
                   static_cast<unsigned long long>(r.recovered));
    }
  };
  row("memory_only", none);
  row("periodic_flush_5k", flush);
  row("wal_buffered", walbuf);
  row("wal_fsync_each", walsync);
  if (csv) std::fclose(csv);

  // Shape (the paper's "different speed and availability"):
  //   memory-only is fastest and recovers nothing; the periodic flush
  //   recovers up to the last snapshot; the WAL recovers everything that
  //   was appended; syncing each write costs the most.
  const bool speed_order = none.ns_per_write <= walbuf.ns_per_write &&
                           walbuf.ns_per_write <= walsync.ns_per_write;
  const bool avail_order = none.recovered == 0 &&
                           flush.recovered >= 5000 &&
                           flush.recovered < kWrites &&
                           walbuf.recovered == kWrites;
  std::printf("\nshape: speed none <= wal <= wal+sync: %s\n",
              speed_order ? "yes" : "NO");
  std::printf("shape: availability none < periodic-flush < wal: %s\n",
              avail_order ? "yes" : "NO");
  return (speed_order && avail_order) ? 0 : 1;
}
