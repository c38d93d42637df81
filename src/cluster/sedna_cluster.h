// SednaCluster: test/bench harness that assembles a full simulated
// deployment — the paper's testbed in a box (Section VI.A: 9 servers,
// 3 of them running ZooKeeper, 1 GbE, clients colocated).
//
// boot() performs the paper's first-boot procedure: start the ensemble,
// create the /sedna znode layout including one znode per virtual node
// ("lots of creation operations will take a long time ... but it only
// happens once when the Sedna cluster firstly starts up", Section III.E),
// then start every data node and wait until all are ready.
//
// The harness also offers synchronous wrappers (run the event loop until a
// callback fires) so tests and benches read linearly.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/metadata.h"
#include "cluster/sedna_client.h"
#include "cluster/sedna_node.h"
#include "common/flight_recorder.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "zk/zk_server.h"

namespace sedna::cluster {

class ClusterMonitor;
struct MonitorConfig;

struct SednaClusterConfig {
  std::uint32_t zk_members = 3;
  std::uint32_t data_nodes = 6;
  ClusterConfig cluster;
  sim::NetworkConfig network;
  /// Template applied to every data node (ensemble/ids filled in).
  SednaNodeConfig node_template;
  SednaClientConfig client_template;
  std::uint64_t seed = 2012;
  /// Test hook: explicit initial vnode→owner assignment (one entry per
  /// vnode, values are data-node ids 100, 101, ...). Empty = balanced
  /// round-robin. Lets tests boot intentionally skewed clusters.
  std::vector<NodeId> initial_owners;
};

class SednaCluster {
 public:
  explicit SednaCluster(SednaClusterConfig config = {});
  ~SednaCluster();

  SednaCluster(const SednaCluster&) = delete;
  SednaCluster& operator=(const SednaCluster&) = delete;

  /// Starts the ensemble, bootstraps the znode layout and vnode table,
  /// starts all data nodes. Returns only when every node reports ready.
  Status boot();

  [[nodiscard]] sim::Simulation& sim() { return sim_; }
  [[nodiscard]] sim::Network& network() { return net_; }

  [[nodiscard]] std::size_t data_node_count() const { return nodes_.size(); }
  [[nodiscard]] SednaNode& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] SednaClient& client(std::size_t i) { return *clients_[i]; }
  [[nodiscard]] zk::ZkServer& zk_member(std::size_t i) { return *zk_[i]; }
  [[nodiscard]] std::vector<NodeId> zk_ids() const;
  [[nodiscard]] std::vector<NodeId> data_ids() const;
  [[nodiscard]] const SednaClusterConfig& config() const { return config_; }

  /// Creates and starts a client host; returns when it is ready.
  SednaClient& make_client();

  /// Adds a brand-new data node at runtime and runs the join protocol
  /// (vnode stealing + data transfer). Returns when the join completes.
  Result<NodeId> join_new_node();

  /// Crash/restart by data-node index.
  void crash_node(std::size_t i) { nodes_[i]->crash(); }
  void restart_node(std::size_t i);

  /// Attaches (or replaces) the health/alerting monitor; it starts
  /// sampling on its sim-clock interval immediately. Read-only over
  /// cluster state, so enabling it never perturbs the data path.
  ClusterMonitor& enable_monitor(MonitorConfig config);
  ClusterMonitor& enable_monitor();
  /// The attached monitor, or nullptr if enable_monitor was never called.
  [[nodiscard]] ClusterMonitor* monitor() { return monitor_.get(); }

  /// Cluster-wide flight recorder: a bounded, sim-clock-stamped journal of
  /// notable events (chaos injections, alert transitions, shed bursts,
  /// migration phases, consistency violations). Always on — recording is
  /// pure in-memory bookkeeping and never perturbs the simulation.
  [[nodiscard]] FlightRecorder& flight_recorder() { return flight_; }

  // ---- synchronous wrappers (drive the event loop) ----------------------
  bool run_until(const std::function<bool()>& pred);
  void run_for(SimDuration d) { sim_.run_for(d); }

  Status write_latest(SednaClient& c, const std::string& key,
                      const std::string& value);
  Status write_all(SednaClient& c, const std::string& key,
                   const std::string& value);
  Result<store::VersionedValue> read_latest(SednaClient& c,
                                            const std::string& key);
  Result<std::vector<store::SourceValue>> read_all(SednaClient& c,
                                                   const std::string& key);

 private:
  /// Creates the /sedna layout + per-vnode znodes via a bootstrap host.
  Status bootstrap_metadata();
  /// Constructs data node `id` from the template config, wired to the
  /// flight recorder and, when one is attached, the monitor.
  SednaNode& add_node(NodeId id);

  SednaClusterConfig config_;
  sim::Simulation sim_;
  sim::Network net_;
  std::vector<std::unique_ptr<zk::ZkServer>> zk_;
  std::vector<std::unique_ptr<SednaNode>> nodes_;
  std::vector<std::unique_ptr<SednaClient>> clients_;
  std::unique_ptr<ClusterMonitor> monitor_;
  FlightRecorder flight_;
  NodeId next_client_id_ = 1000;
  NodeId next_data_id_ = 100;
};

}  // namespace sedna::cluster
