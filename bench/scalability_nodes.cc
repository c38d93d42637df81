// Scalability sweep (the paper's headline design goal, Sections I/II.A.4:
// "Sedna is built for an infrastructure with hundreds or thousands of
// servers" and "the most important result is a ZooKeeper like service
// will not obstruct Sedna's read and write efficiency").
//
// Grows the data-node count with one closed-loop client per node (the
// paper's clients == servers rule) while the ZooKeeper ensemble stays at
// 3 members. Reports aggregate write/read throughput; the shape to verify
// is near-linear scaling — the fixed-size coordination tier must not
// flatten the curve.
#include <cstdio>
#include <vector>

#include "fig_common.h"

using namespace sedna;
using namespace sedna::bench;

namespace {

struct Point {
  std::uint32_t nodes = 0;
  double write_kops = 0;
  double read_kops = 0;
  double zk_share = 0;  // fraction of messages that touched ZooKeeper
};

Point run_scale(std::uint32_t data_nodes, std::uint64_t ops_per_client) {
  cluster::SednaClusterConfig cfg = paper_cluster_config();
  cfg.data_nodes = data_nodes;
  cfg.cluster.total_vnodes = 1024;
  cluster::SednaCluster cluster(cfg);
  Point p;
  p.nodes = data_nodes;
  if (!cluster.boot().ok()) return p;

  const std::uint32_t clients = data_nodes;
  std::vector<cluster::SednaClient*> client_ptrs;
  for (std::uint32_t c = 0; c < clients; ++c) {
    client_ptrs.push_back(&cluster.make_client());
  }
  std::vector<workload::KvWorkload> workloads;
  for (std::uint32_t c = 0; c < clients; ++c) {
    workloads.emplace_back(
        workload::KvWorkloadConfig{20, 77 ^ (c * 131ULL)});
  }

  const std::uint64_t zk_msgs_before =
      cluster.zk_member(0).commits_applied();
  auto run_phase = [&](bool write_phase) {
    const SimTime start = cluster.sim().now();
    std::uint32_t finished = 0;
    std::vector<std::unique_ptr<workload::ClosedLoopDriver>> drivers;
    for (std::uint32_t c = 0; c < clients; ++c) {
      drivers.push_back(std::make_unique<workload::ClosedLoopDriver>(
          ops_per_client,
          [&, c](std::uint64_t i, const std::function<void()>& done) {
            const std::string key = workloads[c].key(i);
            if (write_phase) {
              client_ptrs[c]->write_latest(
                  key, workloads[c].value(),
                  [done](const Status&) { done(); });
            } else {
              client_ptrs[c]->read_latest(
                  key, [done](const Result<store::VersionedValue>&) {
                    done();
                  });
            }
          }));
    }
    for (auto& d : drivers) d->start([&finished] { ++finished; });
    cluster.run_until([&] { return finished == clients; });
    const double secs =
        static_cast<double>(cluster.sim().now() - start) / 1e6;
    return static_cast<double>(clients * ops_per_client) / secs / 1000.0;
  };

  p.write_kops = run_phase(true);
  p.read_kops = run_phase(false);
  // ZooKeeper involvement in the data phases: committed ops (metadata
  // writes) after boot. Reads served from member-local trees are cheap;
  // commits are the scarce resource.
  p.zk_share = static_cast<double>(cluster.zk_member(0).commits_applied() -
                                   zk_msgs_before);
  return p;
}

}  // namespace

int main() {
  std::printf("Scalability: aggregate throughput vs data-node count "
              "(3 ZooKeeper members fixed, clients == nodes)\n\n");
  std::printf("%-8s %14s %14s %20s\n", "nodes", "write_kops", "read_kops",
              "zk_commits_in_run");

  std::FILE* csv = std::fopen(sedna::out_path("scalability_nodes.csv").c_str(), "w");
  if (csv) std::fprintf(csv, "nodes,write_kops,read_kops,zk_commits\n");

  constexpr std::uint64_t kOpsPerClient = 3000;
  std::vector<Point> points;
  for (std::uint32_t nodes : {3u, 6u, 12u, 24u}) {
    points.push_back(run_scale(nodes, kOpsPerClient));
    const Point& p = points.back();
    std::printf("%-8u %14.1f %14.1f %20.0f\n", p.nodes, p.write_kops,
                p.read_kops, p.zk_share);
    if (csv) {
      std::fprintf(csv, "%u,%.2f,%.2f,%.0f\n", p.nodes, p.write_kops,
                   p.read_kops, p.zk_share);
    }
  }
  if (csv) std::fclose(csv);

  // Shape: 8x the nodes must give clearly super-constant throughput —
  // near-linear means >= 4x here — and ZooKeeper commit volume during the
  // data phases stays negligible (metadata-only, no data-path commits).
  const double write_scaling = points.back().write_kops / points[0].write_kops;
  const double read_scaling = points.back().read_kops / points[0].read_kops;
  const bool zk_quiet = points.back().zk_share < 100;
  std::printf("\nshape: write throughput x%.1f from 3->24 nodes "
              "(expect >= 4)\n", write_scaling);
  std::printf("shape: read  throughput x%.1f from 3->24 nodes "
              "(expect >= 4)\n", read_scaling);
  std::printf("shape: zookeeper commits during data phases < 100: %s\n",
              zk_quiet ? "yes" : "NO");
  return (write_scaling >= 4.0 && read_scaling >= 4.0 && zk_quiet) ? 0 : 1;
}
