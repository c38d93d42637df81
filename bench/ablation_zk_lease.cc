// Ablation (Table I "Node management — ZooKeeper sub-cluster"; Section
// III.E): metadata refresh strategies under churn.
//
// Compares, for a population of watcher hosts tracking one znode while a
// writer updates it:
//   * adaptive lease (Sedna's choice: halve when busy, double when quiet);
//   * fixed short lease (fresh but chatty);
//   * fixed long lease (quiet but stale);
//   * ZooKeeper watches (the "network storm" Sedna avoids — every change
//     fans out to every watcher, who then re-reads AND re-registers).
//
// Reported: ZooKeeper messages consumed and mean staleness observed.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/outdir.h"
#include "sim/host.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "zk/zk_client.h"
#include "zk/zk_server.h"

using namespace sedna;

namespace {

constexpr const char* kPath = "/meta/hot";
constexpr int kWatchers = 24;
constexpr SimDuration kRunFor = sim_sec(120);

class WatcherHost : public sim::Host {
 public:
  enum class Mode { kAdaptiveLease, kFixedLease, kWatch };

  WatcherHost(sim::Network& net, NodeId id, std::vector<NodeId> ensemble,
              Mode mode, SimDuration fixed_lease)
      : sim::Host(net, id),
        mode_(mode),
        zk_(*this, [&] {
          zk::ZkClientConfig cfg;
          cfg.ensemble = std::move(ensemble);
          if (mode == Mode::kFixedLease) {
            cfg.lease_initial = fixed_lease;
            cfg.lease_min = fixed_lease;
            cfg.lease_max = fixed_lease;
          }
          return cfg;
        }()) {}

  void start() {
    zk_.connect([this](const Status& st) {
      if (!st.ok()) return;
      if (mode_ == Mode::kWatch) {
        arm_watch();
      } else {
        poll();
      }
    });
  }

  /// Marks a change of the authoritative value. The watcher is now stale
  /// until it next observes a version >= this one; the catch-up lag is
  /// the staleness we report.
  void note_truth(std::uint64_t version, SimTime at) {
    truth_version_ = version;
    if (!pending_) {
      pending_ = true;
      pending_since_ = at;  // first unobserved change starts the clock
    }
  }

  [[nodiscard]] double mean_staleness_ms() const {
    return observations_ == 0
               ? 0.0
               : total_staleness_us_ / 1000.0 / observations_;
  }

 protected:
  void on_message(const sim::Message& msg) override {
    if (msg.type == zk::kMsgWatchEvent) zk_.on_watch_event(msg.payload);
  }

 public:
  zk::ZkClient& zk() { return zk_; }

 private:
  void poll() {
    // Lease-paced cached read; on expiry the cache refetches.
    zk_.cached_get(kPath, [this](const auto& got) {
      if (got.ok()) observe(got.value().second.version);
      // Feed the adaptive controller: did this fetch reveal a change?
      if (mode_ == Mode::kAdaptiveLease) {
        const bool changed =
            got.ok() &&
            static_cast<std::uint64_t>(got.value().second.version) !=
                last_seen_version_;
        zk_.note_sync_changes(changed ? 1 : 0);
      }
      if (got.ok()) {
        last_seen_version_ =
            static_cast<std::uint64_t>(got.value().second.version);
      }
      sim().schedule(zk_.current_lease(), [this] { poll(); });
    });
  }

  void arm_watch() {
    zk_.get_and_watch(
        kPath,
        [this](const auto& got) {
          if (got.ok()) observe(got.value().second.version);
        },
        [this](const zk::WatchEventMsg&) { arm_watch(); });
  }

  void observe(std::int64_t version) {
    if (pending_ && static_cast<std::uint64_t>(version) >= truth_version_) {
      // Caught up with everything outstanding: the lag ran from the first
      // unobserved change until now.
      total_staleness_us_ +=
          static_cast<double>(sim().now() - pending_since_);
      ++observations_;
      pending_ = false;
    }
  }

  Mode mode_;
  zk::ZkClient zk_;
  std::uint64_t truth_version_ = 0;
  std::uint64_t last_seen_version_ = 0;
  bool pending_ = false;
  SimTime pending_since_ = 0;
  double total_staleness_us_ = 0;
  std::uint64_t observations_ = 0;
};

struct RunResult {
  std::uint64_t zk_messages = 0;
  double staleness_ms = 0;
};

RunResult run_mode(WatcherHost::Mode mode, SimDuration fixed_lease,
                   SimDuration write_period) {
  sim::Simulation simulation(7);
  sim::Network net(simulation);
  std::vector<NodeId> ensemble = {0, 1, 2};
  zk::ZkServerConfig scfg;
  scfg.ensemble = ensemble;
  std::vector<std::unique_ptr<zk::ZkServer>> servers;
  for (NodeId id : ensemble) {
    servers.push_back(std::make_unique<zk::ZkServer>(net, id, scfg));
    servers.back()->start();
  }
  simulation.run_for(sim_ms(5));

  // Writer host creates the znode then updates it periodically.
  class WriterHost : public sim::Host {
   public:
    WriterHost(sim::Network& net, NodeId id, std::vector<NodeId> ensemble)
        : sim::Host(net, id), zk_(*this, [&] {
            zk::ZkClientConfig cfg;
            cfg.ensemble = std::move(ensemble);
            return cfg;
          }()) {}
    zk::ZkClient& zk() { return zk_; }

   protected:
    void on_message(const sim::Message& msg) override {
      if (msg.type == zk::kMsgWatchEvent) zk_.on_watch_event(msg.payload);
    }

   private:
    zk::ZkClient zk_;
  };
  WriterHost writer(net, 50, ensemble);
  bool writer_ready = false;
  writer.zk().connect([&](const Status&) {
    writer.zk().create("/meta", "", zk::CreateMode::kPersistent,
                       [&](const auto&) {
                         writer.zk().create(kPath, "v0",
                                            zk::CreateMode::kPersistent,
                                            [&](const auto&) {
                                              writer_ready = true;
                                            });
                       });
  });
  while (!writer_ready && simulation.step()) {
  }

  std::vector<std::unique_ptr<WatcherHost>> watchers;
  for (int i = 0; i < kWatchers; ++i) {
    watchers.push_back(std::make_unique<WatcherHost>(
        net, 100 + i, ensemble, mode, fixed_lease));
    watchers.back()->start();
  }

  std::uint64_t version = 0;
  simulation.schedule_periodic(write_period, [&] {
    ++version;
    writer.zk().set(kPath, "v" + std::to_string(version), -1,
                    [](const auto&) {});
    for (auto& w : watchers) w->note_truth(version, simulation.now());
  });

  const std::uint64_t msgs_before = net.messages_sent();
  simulation.run_until(simulation.now() + kRunFor);

  RunResult result;
  result.zk_messages = net.messages_sent() - msgs_before;
  for (const auto& w : watchers) result.staleness_ms += w->mean_staleness_ms();
  result.staleness_ms /= kWatchers;
  return result;
}

}  // namespace

int main() {
  std::printf("Ablation: metadata refresh strategy (%d watchers, 120 s,"
              " znode changing every 2 s then every 100 ms)\n\n", kWatchers);
  std::printf("%-22s %14s %16s\n", "strategy", "zk_messages",
              "staleness_ms");

  std::FILE* csv = std::fopen(sedna::out_path("ablation_zk_lease.csv").c_str(), "w");
  if (csv) std::fprintf(csv, "strategy,write_period_ms,messages,staleness_ms\n");

  bool ok = true;
  for (SimDuration period : {sim_sec(2), sim_ms(100)}) {
    std::printf("-- change period %llu ms --\n",
                static_cast<unsigned long long>(period / 1000));
    const RunResult adaptive =
        run_mode(WatcherHost::Mode::kAdaptiveLease, 0, period);
    const RunResult fixed_short =
        run_mode(WatcherHost::Mode::kFixedLease, sim_ms(250), period);
    const RunResult fixed_long =
        run_mode(WatcherHost::Mode::kFixedLease, sim_sec(8), period);
    const RunResult watch = run_mode(WatcherHost::Mode::kWatch, 0, period);

    auto row = [&](const char* name, const RunResult& r) {
      std::printf("%-22s %14llu %16.1f\n", name,
                  static_cast<unsigned long long>(r.zk_messages),
                  r.staleness_ms);
      if (csv) {
        std::fprintf(csv, "%s,%llu,%llu,%.2f\n", name,
                     static_cast<unsigned long long>(period / 1000),
                     static_cast<unsigned long long>(r.zk_messages),
                     r.staleness_ms);
      }
    };
    row("adaptive_lease", adaptive);
    row("fixed_lease_250ms", fixed_short);
    row("fixed_lease_8s", fixed_long);
    row("zk_watches", watch);

    // Shape: the adaptive lease sits between the fixed extremes on
    // message cost while staying fresher than the long lease.
    if (!(adaptive.zk_messages <= fixed_short.zk_messages &&
          adaptive.staleness_ms <= fixed_long.staleness_ms + 1.0)) {
      ok = false;
    }
  }
  if (csv) std::fclose(csv);
  std::printf("\nshape: adaptive lease cheaper than short lease and "
              "fresher than long lease: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
