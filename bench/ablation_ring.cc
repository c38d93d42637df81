// Ablation (Table I "Partitioning — consistent hashing + virtual nodes →
// incremental scalability"): how the virtual-node count affects load
// balance and how little data moves on membership changes.
//
// Sweeps vnode counts × cluster sizes and reports:
//   * key-placement imbalance (coefficient of variation of keys/node);
//   * fraction of vnodes (≈ data) moved when one node joins — the
//     consistent-hashing promise is ≈ 1/(n+1), against the ~50% a naive
//     mod-n rehash would move.
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "common/outdir.h"
#include "ring/rebalancer.h"
#include "ring/vnode_table.h"
#include "workload/kv_workload.h"

using namespace sedna;
using ring::Rebalancer;
using ring::VnodeTable;

namespace {

double key_imbalance(const VnodeTable& table, std::uint64_t keys) {
  workload::KvWorkload wl;
  std::map<NodeId, std::uint64_t> per_node;
  for (std::uint64_t i = 0; i < keys; ++i) {
    const auto owner = table.owner(table.vnode_for_key(wl.key(i)));
    ++per_node[owner];
  }
  double mean = 0;
  for (const auto& [node, count] : per_node) {
    mean += static_cast<double>(count);
  }
  mean /= static_cast<double>(per_node.size());
  double var = 0;
  for (const auto& [node, count] : per_node) {
    const double d = static_cast<double>(count) - mean;
    var += d * d;
  }
  var /= static_cast<double>(per_node.size());
  return std::sqrt(var) / mean;
}

}  // namespace

int main() {
  std::printf("Ablation: virtual-node count vs balance and movement\n");
  std::printf("%-8s %-8s %12s %14s\n", "nodes", "vnodes", "key_cv",
              "join_moved%");

  std::FILE* csv = std::fopen(sedna::out_path("ablation_ring.csv").c_str(), "w");
  if (csv) std::fprintf(csv, "nodes,vnodes,key_cv,join_moved\n");

  bool sane = true;
  for (std::uint32_t nodes : {4u, 8u, 16u, 64u}) {
    for (std::uint32_t vnodes : {64u, 256u, 1024u, 8192u}) {
      if (vnodes < nodes) continue;
      std::vector<NodeId> ids;
      for (std::uint32_t i = 0; i < nodes; ++i) ids.push_back(100 + i);
      VnodeTable table = Rebalancer::initial_assignment(vnodes, 3, ids);

      const double cv = key_imbalance(table, 20000);

      // Join movement.
      VnodeTable joined = table;
      Rebalancer::apply(joined, Rebalancer::plan_join(joined, 900));
      const double join_moved =
          100.0 * VnodeTable::moved_vnodes(table, joined) / vnodes;

      std::printf("%-8u %-8u %12.4f %13.1f%%\n", nodes, vnodes, cv,
                  join_moved);
      if (csv) {
        std::fprintf(csv, "%u,%u,%.5f,%.3f\n", nodes, vnodes, cv,
                     join_moved);
      }

      // Consistency-hash sanity: join moves ≈ 100/(n+1) percent, never
      // the ~(1 - 1/n)·100 a naive rehash would.
      const double ideal = 100.0 / (nodes + 1);
      if (join_moved > 2.5 * ideal + 5.0) sane = false;
    }
  }
  if (csv) std::fclose(csv);
  std::printf("\nshape: join movement stays near the consistent-hashing "
              "ideal: %s\n", sane ? "yes" : "NO");
  return sane ? 0 : 1;
}
