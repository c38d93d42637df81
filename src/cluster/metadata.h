// MetadataCache: the vnode-table cache every Sedna node *and client*
// maintains (Section III.E, plus Section VII's "zero-hop DHT that each
// node caches enough routing information locally").
//
// ZooKeeper layout:
//   /sedna/config            — cluster parameters (vnodes, N, R, W)
//   /sedna/vnodes/v%06u      — one znode per virtual node, data = owner id
//   /sedna/changes/c%010u    — change journal: each entry names a changed
//                              vnode, so refreshes touch only modified data
//                              (Section III.E strategy #3)
//   /sedna/real_nodes/node-N — ephemeral liveness markers
//
// Sync protocol (strategy #2): every `lease` the cache lists the change
// journal; new entries name the vnodes to re-read. The lease halves after
// a busy period and doubles after a quiet one via ZkClient's adaptive
// controller. Watches are deliberately not used ("an uncontrollable
// network storm", Section III.E).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/codec.h"
#include "ring/vnode_table.h"
#include "zk/zk_client.h"

namespace sedna::cluster {

struct ClusterConfig {
  std::uint32_t total_vnodes = 1024;
  std::uint32_t replicas = 3;   // N
  std::uint32_t read_quorum = 2;   // R
  std::uint32_t write_quorum = 2;  // W
  // R + W > N and W > N/2 must hold (Section III.C), and N fits a
  // ring::ReplicaSet.

  [[nodiscard]] bool quorum_valid() const {
    return read_quorum + write_quorum > replicas &&
           2 * write_quorum > replicas && read_quorum >= 1 &&
           replicas >= 1 && read_quorum <= replicas &&
           write_quorum <= replicas && replicas_fit();
  }
  /// N fits a ring::ReplicaSet; a cluster refuses to boot otherwise.
  [[nodiscard]] bool replicas_fit() const {
    return replicas <= ring::ReplicaSet::kCapacity;
  }

  template <typename M, typename IO>
  static void wire(M& m, IO& io) {
    io(m.total_vnodes, m.replicas, m.read_quorum, m.write_quorum);
  }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  /// Also rejects an N no ring::ReplicaSet can hold.
  static Result<ClusterConfig> decode(std::string_view bytes) {
    auto cfg = codec::decode<ClusterConfig>(bytes, "bad cluster config");
    if (cfg.ok() && !cfg->replicas_fit()) {
      return Status::Corruption("cluster config: too many replicas");
    }
    return cfg;
  }
};

class MetadataCache {
 public:
  using ReadyCallback = std::function<void(const Status&)>;

  MetadataCache(zk::ZkClient& zk, sim::Host& host)
      : zk_(zk), host_(host) {}
  ~MetadataCache() { sync_timer_.cancel(); }

  MetadataCache(const MetadataCache&) = delete;
  MetadataCache& operator=(const MetadataCache&) = delete;

  /// Loads config + the full vnode table, then starts periodic journal
  /// syncs paced by the adaptive lease.
  void start(ReadyCallback on_ready);

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] const ring::VnodeTable& table() const { return table_; }

  /// Force one journal sync now (e.g. after acting on a stale entry).
  void sync_now(std::function<void()> done = {});

  /// Updates the local view immediately (callers that just wrote the
  /// authoritative znode shouldn't wait a lease to see their own change).
  void apply_local(VnodeId vnode, NodeId owner) {
    if (vnode < table_.total_vnodes()) table_.assign(vnode, owner);
  }

  /// Re-reads one vnode's znode and applies the owner it names: the way
  /// to act on a peer's ownership claim without trusting it (the claim
  /// may be older than a change the journal already delivered).
  void refresh_vnode(VnodeId v, std::function<void()> done);

  [[nodiscard]] std::uint64_t syncs_run() const { return syncs_; }
  [[nodiscard]] std::uint64_t vnodes_refreshed() const { return refreshed_; }

 private:
  void load_vnodes(ReadyCallback on_ready);
  /// Reads vnode `v`'s znode and applies the owner it names. `done` gets
  /// kOk once applied, else the read's error or the body's kCorruption.
  void read_vnode(VnodeId v, std::function<void(const Status&)> done);
  void schedule_sync();
  void run_sync(std::function<void()> done);

  zk::ZkClient& zk_;
  sim::Host& host_;
  ClusterConfig config_;
  ring::VnodeTable table_;
  bool ready_ = false;
  /// Highest journal sequence already applied (journal names are
  /// "c%010u" with a monotonically increasing suffix).
  std::uint64_t last_seen_change_ = 0;
  bool first_journal_scan_ = true;
  std::uint64_t syncs_ = 0;
  std::uint64_t refreshed_ = 0;
  sim::TimerHandle sync_timer_;
};

}  // namespace sedna::cluster
