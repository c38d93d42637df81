// Simulated cluster network: latency + bandwidth + loss + partitions.
//
// Models the paper's testbed (Section VI.A): all servers in one hosting
// facility on a single 1 GbE link, RTT below a millisecond. Every message
// costs base_latency + wire_size/bandwidth one-way, with optional seeded
// jitter. Failure injection: node crash (drops everything), symmetric
// pairwise partitions, and i.i.d. message loss.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/slot_table.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/simulation.h"

namespace sedna::sim {

struct NetworkConfig {
  /// One-way propagation + switching latency. 120 us gives RTT ~= 0.24 ms,
  /// inside the paper's "< 1 ms" envelope.
  SimDuration base_latency_us = 120;
  /// 1 GbE ~= 125 bytes per microsecond.
  double bandwidth_bytes_per_us = 125.0;
  /// Uniform +/- jitter applied to each delivery, as a fraction of the
  /// base latency (0.1 => +/-10%).
  double jitter_frac = 0.10;
  /// Independent per-message drop probability.
  double loss_prob = 0.0;
};

class Host;

class Network {
 public:
  Network(Simulation& sim, NetworkConfig config = {})
      : sim_(sim), config_(config) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a host under its node id. The host must outlive the network.
  void attach(NodeId id, Host* host);
  void detach(NodeId id) { hosts_.erase(id); }

  /// Crash/recover a node. A crashed node neither receives nor sends;
  /// in-flight messages to it are dropped on delivery.
  void set_node_up(NodeId id, bool up);

  /// Symmetric partition between two nodes.
  void partition(NodeId a, NodeId b) { partitions_.insert(edge(a, b)); }
  void heal(NodeId a, NodeId b) { partitions_.erase(edge(a, b)); }
  void heal_all() { partitions_.clear(); }

  void set_loss_prob(double p) { config_.loss_prob = p; }

  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  /// The reference itself is mutable state shared by the whole cluster;
  /// const hosts still need to read the clock.
  [[nodiscard]] Simulation& sim() const { return sim_; }

  /// Sends a message; delivery is scheduled on the event queue. Messages
  /// from/to crashed or partitioned nodes silently vanish — senders find
  /// out via their own RPC timeouts, exactly how the paper's failure
  /// detection works (Section III.C: 'timeout', 'refuse' responses).
  void send(Message msg);

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }

  /// Drop totals broken down by reason (`net.drops.crashed`,
  /// `net.drops.partitioned`, `net.drops.loss`, `net.drops.no_host`) plus
  /// the aggregate flow counters, for the cluster metrics dump.
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

 private:
  static std::pair<NodeId, NodeId> edge(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  /// Counts the drop and, when the message is traced, records it.
  void drop(const Message& msg, const char* why);

  [[nodiscard]] SimDuration delivery_delay(const Message& msg);

  /// Delivery event of the message parked in in_flight_[slot].
  void arrive(std::uint32_t slot);

  Simulation& sim_;
  NetworkConfig config_;
  std::unordered_map<NodeId, Host*> hosts_;
  std::set<NodeId> down_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  /// Messages on the wire, moved in by send() and out at delivery; the
  /// delivery event carries only the slot index.
  SlotTable<Message> in_flight_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t bytes_ = 0;
  MetricRegistry metrics_;
};

}  // namespace sedna::sim
