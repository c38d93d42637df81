// Shared harness for the figure-reproduction benches.
//
// Reproduces the measurement protocol of Section VI.A on the simulated
// testbed: 9 servers (3 run ZooKeeper), 1 GbE / sub-ms RTT, 20-byte keys
// and values, closed-loop clients, write-everything-then-read-everything.
// "Time spend" is simulated milliseconds; each sweep records the elapsed
// time at every checkpoint (10k, 20k, ... ops) during a single run, which
// is exactly how a wall-clock measurement of a closed loop behaves.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/outdir.h"
#include "baseline/memcache.h"
#include "cluster/sedna_cluster.h"
#include "workload/closed_loop.h"
#include "workload/kv_workload.h"

namespace sedna::bench {

struct SweepResult {
  /// checkpoint (ops) → elapsed simulated ms.
  std::map<std::uint64_t, double> write_ms;
  std::map<std::uint64_t, double> read_ms;
};

inline std::vector<std::uint64_t> default_checkpoints() {
  return {10000, 20000, 30000, 40000, 50000, 60000};
}

/// Per-message server CPU cost used by the figure benches. ~80 us per
/// request matches the 2012 testbed (kernel TCP + memcached dispatch on a
/// 2.53 GHz core ≈ 12k requests/s/core) and is what makes nine concurrent
/// clients visibly contend in Fig. 8 (measured slowdown ≈ 1.18x, matching
/// the paper's nine-vs-one gap).
constexpr SimDuration kPaperServiceUs = 80;

/// Paper testbed parameters (DESIGN.md §6).
inline cluster::SednaClusterConfig paper_cluster_config() {
  cluster::SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 1024;  // ~170 vnodes per real node
  cfg.cluster.replicas = 3;
  cfg.cluster.read_quorum = 2;
  cfg.cluster.write_quorum = 2;
  cfg.node_template.host.base_service_us = kPaperServiceUs;
  cfg.client_template.host.base_service_us = kPaperServiceUs;
  return cfg;
}

/// Runs `clients` concurrent closed-loop clients, each performing
/// `total_ops` write_latest ops then `total_ops` read_latest ops over the
/// same keys. Reported times are the mean across clients of the elapsed
/// time at each checkpoint.
inline SweepResult run_sedna_sweep(std::uint32_t clients,
                                   std::uint64_t total_ops,
                                   const std::vector<std::uint64_t>&
                                       checkpoints,
                                   std::uint64_t seed = 2012) {
  cluster::SednaClusterConfig cfg = paper_cluster_config();
  cfg.seed = seed;
  cluster::SednaCluster cluster(cfg);
  if (!cluster.boot().ok()) {
    std::fprintf(stderr, "sedna cluster failed to boot\n");
    return {};
  }

  std::vector<cluster::SednaClient*> client_ptrs;
  for (std::uint32_t c = 0; c < clients; ++c) {
    client_ptrs.push_back(&cluster.make_client());
  }

  // Every client uses its own key space (the paper runs one load program
  // per client machine).
  std::vector<workload::KvWorkload> workloads;
  for (std::uint32_t c = 0; c < clients; ++c) {
    workloads.emplace_back(
        workload::KvWorkloadConfig{20, seed ^ (c * 7919ULL)});
  }

  SweepResult result;
  auto run_phase = [&](bool write_phase) {
    const SimTime phase_start = cluster.sim().now();
    // Per-client checkpoint recordings.
    std::vector<std::map<std::uint64_t, SimTime>> marks(clients);
    std::vector<std::unique_ptr<workload::ClosedLoopDriver>> drivers;
    std::uint32_t finished = 0;

    for (std::uint32_t c = 0; c < clients; ++c) {
      auto issue = [&, c](std::uint64_t i,
                          const std::function<void()>& done) {
        const std::string key = workloads[c].key(i);
        auto record = [&, c, i, done]() {
          for (std::uint64_t cp : checkpoints) {
            if (i + 1 == cp) marks[c][cp] = cluster.sim().now();
          }
          done();
        };
        if (write_phase) {
          client_ptrs[c]->write_latest(key, workloads[c].value(),
                                       [record](const Status&) { record(); });
        } else {
          client_ptrs[c]->read_latest(
              key,
              [record](const Result<store::VersionedValue>&) { record(); });
        }
      };
      drivers.push_back(std::make_unique<workload::ClosedLoopDriver>(
          total_ops, issue));
    }
    for (auto& d : drivers) {
      d->start([&finished] { ++finished; });
    }
    cluster.run_until([&] { return finished == clients; });

    auto& out = write_phase ? result.write_ms : result.read_ms;
    for (std::uint64_t cp : checkpoints) {
      double sum = 0;
      std::uint32_t have = 0;
      for (std::uint32_t c = 0; c < clients; ++c) {
        const auto it = marks[c].find(cp);
        if (it != marks[c].end()) {
          sum += static_cast<double>(it->second - phase_start) / 1000.0;
          ++have;
        }
      }
      if (have > 0) out[cp] = sum / have;
    }
  };

  run_phase(/*write_phase=*/true);
  run_phase(/*write_phase=*/false);
  return result;
}

/// Same protocol against the memcached baseline: 9 cache servers, client
/// writes/reads each key `copies` times sequentially (copies=1 → Fig 7b
/// mode, copies=3 → Fig 7a mode).
inline SweepResult run_memcached_sweep(std::uint32_t clients,
                                       std::uint64_t total_ops,
                                       std::uint32_t copies,
                                       const std::vector<std::uint64_t>&
                                           checkpoints,
                                       std::uint64_t seed = 2012) {
  sim::Simulation simulation(seed);
  sim::Network net(simulation, {});

  sim::HostConfig host_cfg;
  host_cfg.base_service_us = kPaperServiceUs;

  std::vector<std::unique_ptr<baseline::MemcacheNode>> servers;
  std::vector<NodeId> server_ids;
  for (NodeId id = 100; id < 109; ++id) {  // 9 servers, as in the paper
    servers.push_back(std::make_unique<baseline::MemcacheNode>(
        net, id, store::LocalStoreConfig{}, host_cfg));
    server_ids.push_back(id);
  }

  std::vector<std::unique_ptr<baseline::MemcacheClient>> client_hosts;
  for (std::uint32_t c = 0; c < clients; ++c) {
    baseline::MemcacheClientConfig ccfg;
    ccfg.servers = server_ids;
    ccfg.host = host_cfg;
    client_hosts.push_back(std::make_unique<baseline::MemcacheClient>(
        net, 1000 + c, ccfg));
  }

  std::vector<workload::KvWorkload> workloads;
  for (std::uint32_t c = 0; c < clients; ++c) {
    workloads.emplace_back(
        workload::KvWorkloadConfig{20, seed ^ (c * 7919ULL)});
  }

  SweepResult result;
  auto run_phase = [&](bool write_phase) {
    const SimTime phase_start = simulation.now();
    std::vector<std::map<std::uint64_t, SimTime>> marks(clients);
    std::vector<std::unique_ptr<workload::ClosedLoopDriver>> drivers;
    std::uint32_t finished = 0;

    for (std::uint32_t c = 0; c < clients; ++c) {
      auto issue = [&, c](std::uint64_t i,
                          const std::function<void()>& done) {
        const std::string key = workloads[c].key(i);
        auto record = [&, c, i, done]() {
          for (std::uint64_t cp : checkpoints) {
            if (i + 1 == cp) marks[c][cp] = simulation.now();
          }
          done();
        };
        if (write_phase) {
          client_hosts[c]->set_n(key, workloads[c].value(), copies,
                                 [record](const Status&) { record(); });
        } else {
          client_hosts[c]->get_n(
              key, copies,
              [record](const Result<std::string>&) { record(); });
        }
      };
      drivers.push_back(std::make_unique<workload::ClosedLoopDriver>(
          total_ops, issue));
    }
    for (auto& d : drivers) {
      d->start([&finished] { ++finished; });
    }
    while (finished < clients && simulation.step()) {
    }

    auto& out = write_phase ? result.write_ms : result.read_ms;
    for (std::uint64_t cp : checkpoints) {
      double sum = 0;
      std::uint32_t have = 0;
      for (std::uint32_t c = 0; c < clients; ++c) {
        const auto it = marks[c].find(cp);
        if (it != marks[c].end()) {
          sum += static_cast<double>(it->second - phase_start) / 1000.0;
          ++have;
        }
      }
      if (have > 0) out[cp] = sum / have;
    }
  };

  run_phase(true);
  run_phase(false);
  return result;
}

/// Prints a paper-style table and writes a CSV under out_dir()
/// ($SEDNA_OUT_DIR, default ./out). `csv_path` is the bare file name.
inline void emit_figure(const std::string& title, const std::string& csv_name,
                        const std::vector<std::uint64_t>& checkpoints,
                        const std::vector<std::pair<std::string,
                                                    const std::map<
                                                        std::uint64_t,
                                                        double>*>>& series) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-10s", "ops");
  for (const auto& [name, data] : series) std::printf("  %18s", name.c_str());
  std::printf("\n");
  for (std::uint64_t cp : checkpoints) {
    std::printf("%-10llu", static_cast<unsigned long long>(cp));
    for (const auto& [name, data] : series) {
      const auto it = data->find(cp);
      if (it != data->end()) {
        std::printf("  %18.1f", it->second);
      } else {
        std::printf("  %18s", "-");
      }
    }
    std::printf("\n");
  }

  const std::string csv_path = out_path(csv_name);
  if (std::FILE* f = std::fopen(csv_path.c_str(), "w")) {
    std::fprintf(f, "ops");
    for (const auto& [name, data] : series) std::fprintf(f, ",%s", name.c_str());
    std::fprintf(f, "\n");
    for (std::uint64_t cp : checkpoints) {
      std::fprintf(f, "%llu", static_cast<unsigned long long>(cp));
      for (const auto& [name, data] : series) {
        const auto it = data->find(cp);
        std::fprintf(f, ",%.3f", it != data->end() ? it->second : 0.0);
      }
      std::fprintf(f, "\n");
    }
    std::fclose(f);
    std::printf("(csv: %s)\n", csv_path.c_str());
  }
}

}  // namespace sedna::bench
