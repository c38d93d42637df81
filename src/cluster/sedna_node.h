// SednaNode: one Sedna server (paper Fig. 2's per-server stack).
//
// Components per node:
//   * LocalStore            — the "modified Memcached" memory engine;
//   * PersistenceManager    — optional WAL / periodic-flush strategy;
//   * ZkClient + MetadataCache — session, ephemeral registration, cached
//                             vnode table with adaptive-lease journal sync;
//   * quorum coordinator    — the node fields client requests for keys
//                             whose primary vnode it owns, fans them out
//                             to the N replicas and applies the R/W rules
//                             of Section III.C. Reads and writes share one
//                             fan-out (fan_out), and an LWW read answers
//                             through one serve step (serve_latest);
//   * failure detector + recovery — a replica timeout makes the
//                             coordinator check the ephemeral znode; if
//                             gone, it picks a new owner and dispatches a
//                             transfer to it, naming the surviving
//                             replicas as sources (Sections III.C/III.D);
//   * join protocol         — a late-joining node steals vnodes with
//                             kTransferParallelism parallel "data
//                             retrieving threads" (Section III.D).
//
// Join, recovery and traffic migration all change vnode ownership through
// one transfer run by the new owner (transfer_vnode): pull the slice,
// catch up, and only then the versioned-CAS cutover (cas_vnode_owner), so
// ownership never moves ahead of the data. Two replicas of a vnode
// reconcile through one digest exchange (request_digest → diff_vnode →
// pull_keys): anti-entropy runs it both ways, transfer catch-up runs it
// pull-only.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/consistency_auditor.h"
#include "cluster/health.h"
#include "cluster/metadata.h"
#include "cluster/protocol.h"
#include "cluster/rebalancer.h"
#include "common/flight_recorder.h"
#include "common/heavy_hitters.h"
#include "common/metrics.h"
#include "ring/imbalance.h"
#include "ring/rebalancer.h"
#include "sim/host.h"
#include "store/local_store.h"
#include "wal/persistence.h"
#include "zk/zk_client.h"

namespace sedna::cluster {

struct SednaNodeConfig {
  std::vector<NodeId> zk_ensemble;
  store::LocalStoreConfig store;
  wal::PersistenceConfig persistence;
  /// Push the imbalance-table row to ZooKeeper this often (Section III.B).
  SimDuration load_report_interval = sim_sec(5);

  // --- Traffic-aware rebalancer (closes the telemetry loop) -------------
  /// The imbalance-driven "data balance" module of Fig. 2: the lowest-id
  /// live node periodically reads every node's imbalance row from
  /// ZooKeeper and migrates the hottest vnodes of overloaded nodes to the
  /// coldest *healthy* nodes via the multi-phase migration protocol.
  /// 0 disables (the default).
  SimDuration traffic_rebalance_interval = 0;
  /// Planner policy: CV trigger, headroom, per-round caps, cooldown,
  /// isolate ("split") path for persistently-hot single vnodes.
  TrafficRebalancerConfig traffic_rebalance;

  // --- Repair subsystem (hinted handoff + Merkle anti-entropy) ----------
  /// Max hints held across all targets (capped coordinator memory);
  /// oldest hint evicted first when full. 0 disables hinted handoff.
  std::size_t hint_max_queued = 1024;
  /// Hint replay daemon tick; each tick retries targets whose backoff
  /// window has elapsed. 0 disables the daemon.
  SimDuration hint_replay_interval = sim_ms(200);
  /// Exponential per-target backoff while the target stays unregistered
  /// or deliveries keep failing (doubles up to the max, ±25% jitter).
  SimDuration hint_backoff_initial = sim_ms(100);
  SimDuration hint_backoff_max = sim_sec(5);
  /// Anti-entropy daemon tick: each round syncs the least-recently-synced
  /// replicated vnodes against the other replica holders. 0 disables.
  SimDuration anti_entropy_interval = sim_sec(2);
  std::uint32_t anti_entropy_vnodes_per_round = 1;

  // --- Overload safety (admission control + degraded reads) -------------
  // The ingress-queue bound itself lives in `host.max_ingress_queue`
  // (0 = unbounded); SednaNode supplies the priority classing (client
  // reads > client writes > repair/AE > migration) and answers shed
  // client/replica ops with explicit kOverloaded replies.
  /// Serve quorum-relaxed reads when a full read quorum cannot be
  /// assembled (replica timeouts/overload/partition): settle on the
  /// freshest positive reply in hand and tag it stale instead of failing.
  /// Off by default — strict Section III.C quorum semantics.
  bool degraded_reads = false;
  /// After a crash+restart, re-pull every owned vnode slice from peer
  /// replicas (bounded fan-out over the migration fetch path) before
  /// reporting ready. Without this a restarted node re-joins with an
  /// empty RAM store and only heals key-by-key via read repair /
  /// anti-entropy — a rolling restart then strips a replica set bare one
  /// node at a time and reads start answering confident not-found.
  bool restart_hydration = true;

  // --- Consistency observability (staleness auditor + t-visibility) -----
  /// Coordinator-side staleness sampling, per-vnode replication-lag
  /// gossip, and sampled acked-write visibility probes. Off by default:
  /// the probes add replica reads, which would perturb seeded runs.
  ConsistencyAuditorConfig audit;

  zk::ZkClientConfig zk_client;  // ensemble is filled from zk_ensemble
  sim::HostConfig host;
};

class SednaNode : public sim::Host {
 public:
  using ReadyCallback = std::function<void(const Status&)>;

  SednaNode(sim::Network& net, NodeId id, SednaNodeConfig config);
  ~SednaNode() override;

  /// Boot sequence (Section III.D): local store first, then ZooKeeper
  /// session, metadata load, ephemeral registration, load reporting.
  void start(ReadyCallback on_ready);

  /// Runtime join: additionally claims a fair share of vnodes from the
  /// current holders, pulling their data in parallel.
  void start_and_join(ReadyCallback on_ready);

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] store::LocalStore& local_store() { return *store_; }
  /// Per-vnode counters (paper III.B: "we record all the virtual nodes'
  /// status including its capacity, read/write frequency").
  [[nodiscard]] const std::vector<ring::VnodeStatus>& vnode_status() const {
    return vnode_status_;
  }
  [[nodiscard]] MetadataCache& metadata() { return metadata_; }
  [[nodiscard]] zk::ZkClient& zk() { return zk_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] wal::PersistenceManager* persistence() {
    return persistence_.get();
  }

  /// Writer-unique monotone timestamp (Section III.F LWW ordering).
  Timestamp next_ts();

  /// Hints currently queued for later delivery (all targets).
  [[nodiscard]] std::size_t hints_pending() const { return hints_pending_; }
  /// Hints queued for one specific target (0 if none).
  [[nodiscard]] std::size_t hints_pending_for(NodeId target) const {
    const auto it = hint_queues_.find(target);
    return it == hint_queues_.end() ? 0 : it->second.hints.size();
  }

  /// Coordinator-side hot-key sketch over client read/write requests.
  [[nodiscard]] const SpaceSavingSketch& hot_keys() const {
    return hot_keys_;
  }

  /// Re-derives per-vnode resident bytes from the store's digest-tree
  /// tallies (exact, eviction-aware), replacing the rough write-volume
  /// estimate accumulated in apply_write.
  void refresh_vnode_status();

  /// Health oracle the traffic rebalancer consults before picking a
  /// migration target (the cluster status manager's view; wired to the
  /// ClusterMonitor by the harness). Unset = every live node is healthy.
  void set_health_provider(std::function<HealthState(NodeId)> provider) {
    health_provider_ = std::move(provider);
  }

  /// A traffic migration of `vnode` from its owner `from` to this node:
  /// transfer_vnode with `from` as the only source, counted as a rebalance
  /// move and logged to the flight recorder. The reply's status is kOk on committed cutover,
  /// kRefused when the plan went stale, other codes on failure (ownership
  /// then stays with `from`). Public so tests can drive single migrations.
  void begin_migration(VnodeId vnode, NodeId from,
                       std::function<void(const MigrateVnodeReply&)> done);

  /// Transfers this node is currently involved in: leader-side
  /// dispatched-and-unanswered migrations plus in-progress pulls here.
  [[nodiscard]] std::size_t migrations_active() const {
    return migrations_dispatched_ + migrating_in_.size();
  }

  /// Consistency auditor (nullptr unless config.audit.enabled).
  [[nodiscard]] const ConsistencyAuditor* auditor() const {
    return auditor_.get();
  }

  /// Cluster-wide flight recorder this node journals qualitative events
  /// into (migration phases, auditor violations). Wired by the harness;
  /// unset = events are simply not journaled.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }

 protected:
  void on_message(const sim::Message& msg) override;
  void on_crash() override;
  [[nodiscard]] std::string rpc_span_name(
      sim::MessageType type) const override;
  [[nodiscard]] TraceStage rpc_span_stage(
      sim::MessageType type) const override;
  /// Ingress classing for admission control: client/replica reads first,
  /// then writes, then repair/anti-entropy, then migration bulk.
  [[nodiscard]] std::size_t message_priority(
      const sim::Message& msg) const override;
  /// Shed work is answered with an explicit kOverloaded reply on the
  /// client/replica data path (background traffic is silently dropped —
  /// its daemons already retry) and counted per reason.
  void on_shed(const sim::Message& msg, sim::ShedReason reason) override;

 private:
  // Coordinator paths: reads and writes share one fan-out; each keeps only
  // its own per-reply handling and settle rule.
  void handle_client_write(const sim::Message& msg);
  void handle_client_read(const sim::Message& msg);
  struct Fanout;  // the header every fan-out state carries
  struct WriteFanout;
  struct ReadFanout;
  /// The one coordinator fan-out: looks up the key's replicas, opens the
  /// coordinator span, fills the state header, bounds the replica timeout
  /// by the client's deadline, then serves the local replica in place
  /// (`local`) and calls every other one (`remote` gets its answer).
  template <typename State, typename Local, typename Remote>
  void fan_out(const sim::Message& msg, const std::shared_ptr<State>& state,
               const char* span_name, sim::MessageType type, Local local,
               Remote remote);
  /// Counts one replica's write answer; replies once W acks are in or the
  /// quorum is lost.
  void settle_write(WriteFanout& s, StatusCode answer);
  /// Replies once the read's mode-specific quorum rule is met.
  void settle_read(ReadFanout& s);
  /// How an LWW read settled: R replicas agreed, a degraded early settle,
  /// or every replica answered below quorum.
  enum class LwwServe { kQuorum, kDegraded, kBelowQuorum };
  /// The one LWW serve step: answers with `pick` (nullptr: nothing to
  /// serve), stale-tagged unless a quorum agreed. Repair order stays per
  /// settle kind: after the reply on a quorum, before it below quorum, and
  /// none on a degraded settle.
  void serve_latest(ReadFanout& s, const ReadReply* pick, LwwServe how);
  /// Pushes the served answer to every replica in hand that is behind it.
  void repair_behind(const ReadFanout& s);
  /// The auditor's measured-staleness sample, once every replica answered.
  void audit_read(ReadFanout& s);
  // Replica paths.
  void handle_replica_write(const sim::Message& msg);
  void handle_replica_read(const sim::Message& msg);
  // Recovery / transfer paths.
  void handle_fetch_vnode(const sim::Message& msg);
  void handle_purge_vnode(const sim::Message& msg);
  void handle_scan(const sim::Message& msg);
  // Repair paths.
  void handle_hint_deliver(const sim::Message& msg);
  void handle_vnode_digest(const sim::Message& msg);
  // Transfer dispatch (rebalance leader or recovering coordinator).
  void handle_migrate_vnode(const sim::Message& msg);

  /// Applies a write to the local store + persistence. Used by both the
  /// replica handler and the coordinator's own local copy.
  StatusCode apply_write(const WriteRequest& req);
  /// Joins a causal record into the store, WAL-logging it when the join
  /// moved local state; `changed` reports whether it did.
  Status apply_causal(const std::string& key,
                      const store::CausalRecord& record, bool& changed);
  /// Applies every entry of a write_all value list (per-source LWW).
  void apply_value_list(const std::string& key,
                        const std::vector<store::SourceValue>& list);
  /// Visits the local items of `vnode`; with `buckets`, only those in
  /// the listed digest buckets.
  void for_each_in_vnode(VnodeId vnode,
                         const std::set<std::uint32_t>* buckets,
                         const std::function<void(const store::Item&)>& fn);
  [[nodiscard]] ReadReply local_read(const ReadRequest& req);

  /// Failure evidence from the data path: verify via ZooKeeper and kick
  /// off recovery if the node is really gone (Section III.C).
  void suspect_node(NodeId replica, VnodeId vnode);
  void start_recovery(VnodeId vnode, NodeId dead);
  void finish_recovery(VnodeId vnode);

  /// Outcome of one ownership cutover attempt.
  enum class CasOutcome {
    kCommitted,  // znode now names the new owner; local table updated
    kStale,      // znode named someone other than `expected`
    kGetFailed,  // could not read the znode (ZK unreachable)
    kLost,       // versioned set refused: ownership provably elsewhere
    kAmbiguous,  // set timed out / errored: it may have committed
  };
  struct CasResult {
    CasOutcome outcome = CasOutcome::kGetFailed;
    /// kGetFailed / kLost / kAmbiguous: the ZooKeeper error.
    Status status;
  };
  /// The one vnode cutover, run by transfer_vnode: read the vnode znode,
  /// check it still names `expected`, set it to `new_owner` under the read
  /// version, and on commit apply the change to the local table before
  /// reporting.
  void cas_vnode_owner(VnodeId vnode, NodeId expected, NodeId new_owner,
                       std::function<void(const CasResult&)> cb);

  /// Read repair: push the answer `fresh` (the freshest LWW value, or the
  /// joined causal record, which replicas fold in with a semilattice merge)
  /// to replicas that answered with stale or missing data.
  void read_repair(const WriteRequest& fresh,
                   const std::vector<NodeId>& stale);

  /// The one way vnode ownership changes, run by the node that will own
  /// `vnode` (join, recovery and migration all call it): snapshot from the
  /// first node in `sources` that can serve it, pull-only catch-up against
  /// that same source, CAS the znode from `expected` to us, journal, drain
  /// once more, then invite `expected` to purge its copy. `done` gets kOk
  /// on a committed cutover (an ambiguous CAS counts once a znode re-read
  /// shows it committed); kRefused when ownership is provably elsewhere
  /// (the pulled copy is purged unless the walk keeps us); other codes
  /// otherwise (the copy is kept). Returns false, without calling `done`,
  /// when the transfer cannot start here (not ready, already the owner,
  /// or `vnode` already in transfer).
  bool transfer_vnode(VnodeId vnode, NodeId expected,
                      std::vector<NodeId> sources,
                      std::function<void(const MigrateVnodeReply&)> done);

  /// Restart hydration: re-fetch every owned vnode slice (bounded
  /// concurrency), then invoke done. Best effort — unreachable slices are
  /// left to read repair and anti-entropy.
  void hydrate_after_restart(std::function<void()> done);
  /// Pulls `vnode`'s items from the first healthy node in `sources`.
  /// `done` receives the node that served (kInvalidNode if none could)
  /// plus the approximate payload bytes applied.
  void fetch_vnode_from(VnodeId vnode, std::vector<NodeId> sources,
                        std::size_t idx,
                        std::function<void(NodeId, std::uint64_t)> done);

  void append_change_journal(VnodeId vnode, NodeId owner,
                             std::function<void()> done);
  void report_load();
  void schedule_flush();

  // ---- Consistency auditor (probe driver) --------------------------------
  /// Schedules the t-visibility probes for one sampled acked write: at
  /// each configured offset, re-read the key from every replica and
  /// tally whether the write (or something newer) is visible.
  void probe_visibility(const std::string& key, Timestamp wts, VnodeId vnode,
                        SimTime acked_at);
  /// A final-offset probe found a *reachable* replica still missing the
  /// acked write: count it, retain the record, journal a flight event.
  void record_visibility_violation(SimTime acked_at, const std::string& key,
                                   NodeId replica);

  // ---- Hinted handoff ----------------------------------------------------
  struct PendingHint {
    WriteRequest write;
    SimTime queued_at = 0;
    std::uint64_t seq = 0;  // arrival order, for oldest-first eviction
  };
  struct HintQueue {
    /// Dedupe key ("L:<key>" / "A:<source>:<key>") → newest queued write.
    std::map<std::string, PendingHint> hints;
    SimTime next_attempt = 0;
    SimDuration backoff = 0;
    bool in_flight = false;
    /// Root span of the in-flight replay batch's trace (0 when untraced).
    SpanId replay_span = 0;
  };

  /// Queues (or upgrades) a hint after a replica write RPC failed.
  void queue_hint(NodeId target, const WriteRequest& req);
  void evict_oldest_hint();
  void bump_hint_backoff(HintQueue& q);
  /// Daemon tick: for each due target, check its ephemeral znode and
  /// replay a bounded batch if it is back.
  void hint_replay_tick();
  void replay_hints_to(NodeId target);
  void finish_hint_batch(NodeId target, bool failed);

  // ---- Merkle anti-entropy ----------------------------------------------
  /// Daemon tick: pick the least-recently-synced replicated vnodes and
  /// reconcile them with the other replica holders.
  void anti_entropy_tick();
  void sync_vnodes(std::shared_ptr<std::vector<VnodeId>> vnodes,
                   std::size_t next);
  void sync_vnode(VnodeId vnode, std::function<void()> done);
  void sync_vnode_peer(VnodeId vnode,
                       std::shared_ptr<std::vector<NodeId>> peers,
                       std::size_t idx, std::function<void()> done);
  void reconcile_with_peer(VnodeId vnode, NodeId peer,
                           const VnodeDigestReply& rep,
                           std::function<void()> done);

  // ---- Digest reconcile (shared by anti-entropy and migration) -----------
  /// One key to fetch from the peer.
  struct KeyPull {
    std::string key;
    bool want_list = false;
    bool want_causal = false;
  };
  /// What one digest exchange found: keys to pull from the peer, and the
  /// writes that would bring the peer up to date with us.
  struct VnodeDelta {
    std::vector<KeyPull> pulls;
    std::vector<WriteRequest> pushes;
  };
  /// Step 1: sends our Merkle digest of `vnode` to `peer`. `done` gets the
  /// transport status and the decoded reply (nullptr when the call failed
  /// or the peer could not serve it).
  void request_digest(
      VnodeId vnode, NodeId peer,
      std::function<void(const Status&, const VnodeDigestReply*)> done);
  /// Step 2: scans the local copies of the reply's mismatched buckets and
  /// decides every key's pulls and pushes.
  VnodeDelta diff_vnode(VnodeId vnode, const VnodeDigestReply& rep);
  /// Step 3: pulls each key from `peer`; `done` fires once all finished.
  void pull_keys(NodeId peer, const std::vector<KeyPull>& pulls,
                 std::function<void()> done);
  void pull_key(NodeId peer, const KeyPull& pull,
                std::function<void()> done);

  // ---- Traffic-aware rebalancer ------------------------------------------
  /// Leader tick (lowest live id): gather the imbalance rows from
  /// ZooKeeper, plan a migration round, dispatch each move to its
  /// destination node.
  void traffic_rebalance_tick();
  void run_traffic_plan(const ring::ImbalanceTable& table,
                        std::vector<NodeId> live);
  /// The digest reconcile of `vnode` against `source`, pull-only (the
  /// delta catch-up phases of a transfer). `done` receives success plus
  /// the number of keys pulled.
  void migration_catchup(VnodeId vnode, NodeId source,
                         std::function<void(bool, std::size_t)> done);
  /// Drops the local copy of `vnode` unless this node is (still) in its
  /// replica set.
  void purge_local_vnode(VnodeId vnode);

  SednaNodeConfig config_;
  std::unique_ptr<store::LocalStore> store_;
  std::unique_ptr<wal::PersistenceManager> persistence_;
  zk::ZkClient zk_;
  MetadataCache metadata_;
  MetricRegistry metrics_;
  // Per-op metrics, resolved once.
  MetricHandle<Counter> coordinator_writes_{metrics_, "coordinator.writes"};
  MetricHandle<Counter> coordinator_reads_{metrics_, "coordinator.reads"};
  MetricHandle<Counter> replica_writes_{metrics_, "replica.writes"};
  MetricHandle<Counter> replica_reads_{metrics_, "replica.reads"};
  MetricHandle<Histogram> coordinator_write_latency_{
      metrics_, "coordinator.write_latency_us"};
  MetricHandle<Histogram> coordinator_read_latency_{
      metrics_, "coordinator.read_latency_us"};
  bool ready_ = false;
  /// Set by on_crash: the next start() must hydrate the empty store from
  /// peer replicas before reporting ready (see restart_hydration).
  bool needs_hydration_ = false;
  std::uint16_t write_seq_ = 0;
  /// Per-vnode capacity/read/write/miss counters, sized at metadata load.
  std::vector<ring::VnodeStatus> vnode_status_;
  /// Top-k hot keys by client-request frequency (coordinator view, so
  /// bench ground truth — client requests per key — matches what the
  /// sketch observes without replica-fan-out inflation).
  SpaceSavingSketch hot_keys_;
  /// Vnodes with an in-flight recovery (dedupe concurrent suspicion): held
  /// until the dispatched transfer answers or times out.
  std::set<VnodeId> recovering_;
  /// Nodes recently verified alive — damps repeated ZK existence checks.
  std::map<NodeId, SimTime> verified_alive_;

  // Hinted-handoff state (volatile: dies with the process, by design —
  // the Merkle path covers hints lost to coordinator crashes).
  std::map<NodeId, HintQueue> hint_queues_;
  std::size_t hints_pending_ = 0;
  std::uint64_t hint_seq_ = 0;
  sim::TimerHandle hint_timer_;

  // Anti-entropy state.
  std::map<VnodeId, SimTime> ae_last_synced_;
  bool ae_in_flight_ = false;
  sim::TimerHandle ae_timer_;

  // Traffic-aware rebalancer state.
  TrafficRebalancer traffic_rebalancer_;
  /// Load-window baseline: counters as of the previous imbalance-row
  /// report, so each row carries per-window deltas (a migrated vnode's
  /// history must not keep its old owner looking hot forever).
  std::vector<ring::VnodeStatus> reported_status_;
  /// Vnodes this node is currently pulling in (transfer_vnode).
  std::set<VnodeId> migrating_in_;
  /// Leader-side: dispatched migration RPCs not yet answered.
  std::size_t migrations_dispatched_ = 0;
  std::function<HealthState(NodeId)> health_provider_;
  sim::TimerHandle traffic_rebalance_timer_;

  // Consistency observability.
  std::unique_ptr<ConsistencyAuditor> auditor_;
  FlightRecorder* flight_ = nullptr;
};

}  // namespace sedna::cluster
