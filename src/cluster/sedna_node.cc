#include "cluster/sedna_node.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <type_traits>

#include "common/gather.h"
#include "ring/rebalancer.h"

namespace sedna::cluster {

namespace {

/// How long a positive ZooKeeper liveness check suppresses re-checking.
constexpr SimDuration kAliveVerifyTtl = sim_ms(500);

/// Concurrent slice transfers during join and restart hydration ("the
/// data retrieving threads number could be 16 or 8", Section III.D).
constexpr std::size_t kTransferParallelism = 8;

/// Snapshot cadence under PersistMode::kPeriodicFlush.
constexpr SimDuration kFlushInterval = sim_sec(30);

/// End-to-end deadline a dispatcher (the rebalance leader or a recovering
/// coordinator) grants one vnode transfer (snapshot + delta catch-up +
/// cutover + drain).
constexpr SimDuration kMigrationTimeout = sim_sec(10);

/// Hints delivered to one target per replay round (rate bound).
constexpr std::size_t kHintReplayBatch = 32;

/// Digest buckets per vnode in the LocalStore Merkle tree.
constexpr std::uint32_t kDigestBuckets = 16;

/// Key summaries per digest reply (bounds message size per round).
constexpr std::size_t kAntiEntropyMaxKeys = 512;

/// Tracked entries in the coordinator's SpaceSaving hot-key sketch (keys
/// whose client-request frequency exceeds requests/capacity are
/// guaranteed tracked).
constexpr std::size_t kHotKeyCapacity = 64;

/// Per-replica visibility-probe read timeout (a timed-out replica is
/// counted unreachable, never a violation).
constexpr SimDuration kAuditProbeTimeout = sim_ms(50);

/// Write that carries one LWW value with its original timestamp pinned,
/// so replaying it anywhere is idempotent.
WriteRequest latest_write(const std::string& key,
                          const store::VersionedValue& v) {
  WriteRequest w;
  w.mode = WriteMode::kLatest;
  w.key = key;
  w.value = v.value;
  w.ts = v.ts;
  w.flags = v.flags;
  return w;
}

/// Write that carries one write_all value-list entry.
WriteRequest list_write(const std::string& key, const store::SourceValue& sv) {
  WriteRequest w;
  w.mode = WriteMode::kAll;
  w.key = key;
  w.value = sv.value;
  w.ts = sv.ts;
  w.source = sv.source;
  return w;
}

/// Write that carries a whole causal record; receivers join it into their
/// own, so it can never clobber a concurrent sibling.
WriteRequest causal_write(const std::string& key,
                          const store::CausalRecord& record) {
  WriteRequest w;
  w.key = key;
  w.causal_tag = WriteRequest::kCausalRecord;
  w.record = record;
  return w;
}

/// Live data-node ids from the children of the kZkRealNodes registry
/// (ephemeral "node-<id>" entries; "load-<id>" rows are skipped).
std::vector<NodeId> live_node_ids(const std::vector<std::string>& children) {
  std::vector<NodeId> live;
  for (const auto& name : children) {
    if (name.rfind("node-", 0) != 0) continue;
    live.push_back(
        static_cast<NodeId>(std::strtoul(name.c_str() + 5, nullptr, 10)));
  }
  return live;
}

/// The kZkRealNodes row where node `n` publishes its load report.
std::string load_znode(NodeId n) {
  return std::string(kZkRealNodes) + "/load-" + std::to_string(n);
}

}  // namespace

SednaNode::SednaNode(sim::Network& net, NodeId id, SednaNodeConfig config)
    : sim::Host(net, id, config.host),
      config_(std::move(config)),
      zk_(*this, zk::ZkClientConfig{config_.zk_ensemble}),
      metadata_(zk_, *this),
      hot_keys_(kHotKeyCapacity),
      traffic_rebalancer_(config_.traffic_rebalance) {
  store_ = std::make_unique<store::LocalStore>(
      store::LocalStoreConfig{}, [this] { return sim().now(); });
  if (config_.persistence.mode != wal::PersistMode::kNone) {
    persistence_ = std::make_unique<wal::PersistenceManager>(
        config_.persistence, *store_);
  }
  if (config_.audit.enabled) {
    auditor_ = std::make_unique<ConsistencyAuditor>(config_.audit, metrics_);
  }
}

SednaNode::~SednaNode() = default;

void SednaNode::start(ReadyCallback on_ready) {
  if (persistence_ != nullptr) {
    Status st = persistence_->start();
    if (st.ok()) {
      auto recovered = persistence_->recover();
      if (recovered.ok() && recovered.value() > 0) {
        metrics_.counter("persistence.recovered_records")
            .add(recovered.value());
      }
    }
    schedule_flush();
  }
  zk_.connect([this, on_ready = std::move(on_ready)](const Status& st) {
    if (!st.ok()) {
      on_ready(st);
      return;
    }
    metadata_.start([this, on_ready](const Status& meta_st) {
      if (!meta_st.ok()) {
        on_ready(meta_st);
        return;
      }
      // Register liveness *after* the table is loaded so other nodes never
      // route to a node that cannot serve yet.
      own_znode(real_node_znode(id()), {}, [this, on_ready](const Status& live) {
        if (!live.ok()) {
          on_ready(live);
          return;
        }
        ready_ = true;
        // Merkle leaf cells sized to the ring; rebuilt from the (possibly
        // persistence-recovered) store content.
        store_->enable_digests(metadata_.table().total_vnodes(),
                               kDigestBuckets);
        arm_daemon(config_.load_report_interval, &SednaNode::report_load);
        arm_daemon(config_.traffic_rebalance_interval,
                   &SednaNode::traffic_rebalance_tick);
        arm_daemon(
            config_.hint_max_queued > 0 ? config_.hint_replay_interval : 0,
            &SednaNode::hint_replay_tick);
        arm_daemon(config_.anti_entropy_interval,
                   &SednaNode::anti_entropy_tick);
        if (config_.restart_hydration && needs_hydration_) {
          // A crash emptied the RAM store: pull our vnode slices back from
          // peer replicas before telling the operator we are ready — the
          // rolling-restart contract is "ready means caught up".
          hydrate_after_restart([on_ready] { on_ready(Status::Ok()); });
          return;
        }
        on_ready(Status::Ok());
      });
    });
  });
}

void SednaNode::own_znode(const std::string& path, std::string body,
                          ReadyCallback done) {
  zk_.create(path, body, zk::CreateMode::kEphemeral,
             [this, path, body, done](const Result<std::string>& created) {
    if (!created.status().is(StatusCode::kAlreadyExists)) {
      done(created.status());
      return;
    }
    zk_.exists(path, [this, path, body, done](const auto& stat) {
      claim_znode(path, body, stat, done);
    });
  });
}

void SednaNode::claim_znode(const std::string& path, std::string body,
                            const Result<zk::ZnodeStat>& stat,
                            ReadyCallback done) {
  if (stat.ok() && stat->ephemeral_owner == zk_.session_id()) {
    done(Status::Ok());
  } else if (stat.ok()) {
    // A restart inside the previous session's timeout finds that session's
    // znode, and the ensemble deletes it when that session expires, though
    // this node stays up. Replace it with one this session owns.
    zk_.remove(path, stat->version, [this, path, body, done](const Status&) {
      own_znode(path, body, done);
    });
  } else if (stat.status().is(StatusCode::kNotFound)) {
    own_znode(path, body, done);  // gone (or never made): create it
  } else {
    done(stat.status());
  }
}

void SednaNode::start_and_join(ReadyCallback on_ready) {
  start([this, on_ready = std::move(on_ready)](const Status& st) {
    if (!st.ok()) {
      on_ready(st);
      return;
    }
    const auto moves = ring::Rebalancer::plan_join(metadata_.table(), id());
    metrics_.counter("join.vnodes_planned").add(moves.size());
    run_bounded(
        moves.size(), kTransferParallelism,
        [this, moves](std::size_t i, GatherDone done) {
          const ring::VnodeMove& move = moves[i];
          // Pull from the donor first, then from the slice's other
          // pre-move replicas in case the donor dies mid-transfer.
          std::vector<NodeId> sources{move.from};
          for (NodeId n : metadata_.table().replicas_for_vnode(move.vnode)) {
            if (n != move.from) sources.push_back(n);
          }
          // Each claimed vnode is its own trace, not a child of the last.
          set_trace_context({});
          const bool started = transfer_vnode(
              move.vnode, move.from, std::move(sources),
              [this, done](const MigrateVnodeReply& rep) {
                if (rep.status == StatusCode::kOk) {
                  metrics_.counter("join.vnodes_claimed").add(1);
                }
                done();
              });
          if (!started) done();
        },
        [on_ready] { on_ready(Status::Ok()); });
  });
}

void SednaNode::cas_vnode_owner(VnodeId vnode, NodeId expected,
                                NodeId new_owner,
                                std::function<void(const CasResult&)> cb) {
  zk_.get(vnode_znode(vnode),
          [this, vnode, expected, new_owner, cb = std::move(cb)](
              const Result<std::pair<std::string, zk::ZnodeStat>>& got) {
            if (!got.ok()) {
              cb({CasOutcome::kGetFailed, got.status()});
              return;
            }
            const auto current = VnodeZnode::decode(got->first);
            if (!current.ok() || current->owner != expected) {
              cb({CasOutcome::kStale, Status::Ok()});
              return;
            }
            zk_.set(vnode_znode(vnode), VnodeZnode{new_owner}.encode(),
                    got->second.version,
                    [this, vnode, new_owner, cb](
                        const Result<zk::ZnodeStat>& set) {
                      if (set.ok()) {
                        metadata_.apply_local(vnode, new_owner);
                        cb({CasOutcome::kCommitted, Status::Ok()});
                        return;
                      }
                      const bool lost =
                          set.status().is(StatusCode::kFailure) ||
                          set.status().is(StatusCode::kNotFound);
                      cb({lost ? CasOutcome::kLost : CasOutcome::kAmbiguous,
                          set.status()});
                    });
          });
}

void SednaNode::arm_daemon(SimDuration interval, void (SednaNode::*tick)()) {
  if (interval == 0) return;
  daemons_.push_back(sim().schedule_periodic(interval, [this, tick] {
    // Daemon ticks are background work: never run them under the trace
    // context of the last dispatched request.
    set_trace_context({});
    (this->*tick)();
  }));
}

void SednaNode::schedule_flush() {
  if (persistence_ == nullptr ||
      config_.persistence.mode != wal::PersistMode::kPeriodicFlush) {
    return;
  }
  arm_daemon(kFlushInterval, &SednaNode::flush_tick);
}

void SednaNode::flush_tick() {
  if (persistence_->flush_snapshot().ok()) {
    metrics_.counter("persistence.snapshots").add(1);
  }
}

void SednaNode::report_load() {
  if (!alive() || !ready_) return;
  // The row is computed from the per-vnode statuses (paper III.B: "a[n]
  // imbalance table for all the real nodes computed from the virtual
  // nodes' status"), with resident bytes taken from the store. Only
  // vnodes with activity get a detail row, so the row stays compact.
  //
  // Read/write/miss counts are *per-window deltas* since the previous
  // report, not lifetime totals: the traffic rebalancer compares recent
  // load across nodes, and a lifetime counter would keep crediting a
  // migrated vnode's whole history to its old owner. Capacity stays
  // absolute (resident bytes are a level, not a rate): the store's
  // per-vnode tallies, which are exact and eviction-aware (digests are
  // on from the moment the node is ready).
  const auto bytes = store_->vnode_bytes_all();
  if (vnode_status_.size() < bytes.size()) {
    vnode_status_.resize(bytes.size());
  }
  for (std::size_t v = 0; v < bytes.size(); ++v) {
    vnode_status_[v].capacity_bytes = bytes[v];
  }
  ring::RealNodeLoad row;
  row.node = id();
  row.vnode_count = 0;
  for (const auto& [node, count] : metadata_.table().counts()) {
    if (node == id()) row.vnode_count = count;
  }
  row.capacity_bytes = store_->stats().bytes;
  if (reported_status_.size() < vnode_status_.size()) {
    reported_status_.resize(vnode_status_.size());
  }
  for (std::size_t v = 0; v < vnode_status_.size(); ++v) {
    const ring::VnodeStatus& vs = vnode_status_[v];
    const ring::VnodeStatus& prev = reported_status_[v];
    const std::uint64_t reads = vs.reads - prev.reads;
    const std::uint64_t writes = vs.writes - prev.writes;
    const std::uint64_t misses = vs.misses - prev.misses;
    row.reads += reads;
    row.writes += writes;
    row.misses += misses;
    if (reads != 0 || writes != 0 || misses != 0 ||
        vs.capacity_bytes != 0) {
      row.vnodes.push_back(ring::VnodeLoadRow{
          static_cast<VnodeId>(v), vs.capacity_bytes, reads, writes,
          misses});
    }
  }
  reported_status_ = vnode_status_;
  // Replication-lag gossip rides the same row as a trailing-optional
  // section: per-vnode lag estimate plus the stale serves issued this
  // window. Nothing is appended with auditing off, so the row (and its
  // network footprint) stays byte-identical.
  if (auditor_ != nullptr) row.lags = auditor_->lag_rows(now());
  const std::string path = load_znode(id());
  const std::string body = row.encode();
  // Upsert: set, then create on NotFound or replace a row the previous
  // session still owns.
  zk_.set(path, body, -1, [this, path, body](const auto& set) {
    claim_znode(path, body, set, [](const Status&) {});
  });
}

void SednaNode::probe_visibility(std::string key, Timestamp wts,
                                 VnodeId vnode, SimTime acked_at) {
  // Snapshot the replica set at ack time: those are the copies the write
  // quorum was assembled from, so those are the copies the visibility
  // promise is about.
  auto replicas = std::make_shared<ring::ReplicaSet>(
      metadata_.table().replicas_for_vnode(vnode));
  const std::size_t offsets = config_.audit.probe_offsets.size();
  for (std::size_t i = 0; i < offsets; ++i) {
    const bool final_offset = i + 1 == offsets;
    sim().schedule(
        config_.audit.probe_offsets[i],
        [this, key, wts, acked_at, replicas, i, final_offset] {
          if (!alive() || !ready_ || auditor_ == nullptr) return;
          set_trace_context({});
          auditor_->on_probe_fire(i);
          ReadRequest probe;
          probe.mode = ReadMode::kLatest;
          probe.key = key;
          const std::string payload = probe.encode();
          for (NodeId replica : *replicas) {
            if (replica == id()) {
              // Visibility means "this write or something newer": under
              // LWW a later overwrite legitimately shadows the probed
              // timestamp.
              const ReadReply rep = local_read(probe);
              const bool visible = rep.has_latest && rep.latest.ts >= wts;
              auditor_->on_probe_check(i, true, visible);
              if (final_offset && !visible) {
                record_visibility_violation(acked_at, key, replica);
              }
              continue;
            }
            call<ReadReply>(
                replica, kMsgReplicaRead, payload, kAuditProbeTimeout,
                [this, i, final_offset, wts, acked_at, key,
                 replica](const Result<ReadReply>& rep) {
                  if (auditor_ == nullptr) return;
                  if (!rep.ok() || rep->status == StatusCode::kOverloaded) {
                    // Lost and shed probes are abandonment, not evidence.
                    auditor_->on_probe_check(i, false, false);
                    return;
                  }
                  const bool visible =
                      rep->has_latest && rep->latest.ts >= wts;
                  auditor_->on_probe_check(i, true, visible);
                  if (final_offset && !visible) {
                    record_visibility_violation(acked_at, key, replica);
                  }
                });
          }
        });
  }
}

void SednaNode::record_visibility_violation(SimTime acked_at,
                                            const std::string& key,
                                            NodeId replica) {
  auditor_->on_violation(acked_at, now(), key, replica);
  if (flight_ != nullptr) {
    flight_->record(now(), "consistency", "node-" + std::to_string(id()),
                    "visibility-violation",
                    "key=" + key + " replica=" + std::to_string(replica) +
                        " acked_at=" + std::to_string(acked_at));
  }
}

template <typename Rep, typename Req>
void SednaNode::serve(const sim::Message& msg,
                      void (SednaNode::*handle)(const sim::Message&, Req)) {
  auto req = Req::decode(msg.payload);
  if (req.ok()) {
    (this->*handle)(msg, std::move(req).value());
  } else if constexpr (!std::is_void_v<Rep>) {
    reply_status<Rep>(msg, StatusCode::kInvalidArgument);
  }
}

void SednaNode::on_message(const sim::Message& msg) {
  using N = SednaNode;
  switch (msg.type) {
    case kMsgClientWrite:
      return serve<WriteReply>(msg, &N::handle_client_write);
    case kMsgClientRead:
      return serve<ReadReply>(msg, &N::handle_client_read);
    case kMsgReplicaWrite:
      return serve<WriteReply>(msg, &N::handle_replica_write);
    case kMsgReplicaRead:
      return serve<ReadReply>(msg, &N::handle_replica_read);
    case kMsgFetchVnode:
      return serve<FetchVnodeReply>(msg, &N::handle_fetch_vnode);
    case kMsgPurgeVnode:
      return serve<void>(msg, &N::handle_purge_vnode);
    case kMsgScan:
      return serve<ScanReply>(msg, &N::handle_scan);
    case kMsgHintDeliver:
      return serve<HintAckReply>(msg, &N::handle_hint_deliver);
    case kMsgVnodeDigest:
      return serve<VnodeDigestReply>(msg, &N::handle_vnode_digest);
    case kMsgMigrateVnode:
      return serve<MigrateVnodeReply>(msg, &N::handle_migrate_vnode);
    case zk::kMsgWatchEvent:
      return zk_.on_watch_event(msg.payload);
    default:
      return;
  }
}

void SednaNode::on_shed(const sim::Message& msg, sim::ShedReason reason) {
  metrics_
      .counter(reason == sim::ShedReason::kQueueFull
                   ? "node.shed.queue_full"
                   : "node.shed.deadline_exceeded")
      .add(1);
  // The shed is part of the request's trace: a zero-width span whose
  // "overloaded" status the critical-path analyzer charges to retry.
  set_trace_context(TraceContext{msg.trace_id, msg.span_id});
  instant_span("node.shed", "overloaded", TraceStage::kQueue);
  switch (msg.type) {
    case kMsgClientWrite:
    case kMsgReplicaWrite:
      reply_status<WriteReply>(msg, StatusCode::kOverloaded);
      break;
    case kMsgClientRead:
    case kMsgReplicaRead:
      reply_status<ReadReply>(msg, StatusCode::kOverloaded);
      break;
    default:
      break;  // background daemons retry on their own cadence
  }
}

void SednaNode::on_crash() {
  // Volatile state dies with the process; the LocalStore empties (it is
  // RAM) and in-flight coordination is dropped. Persistence files remain
  // on disk for restart-time recovery.
  store_->clear();
  recovering_.clear();
  verified_alive_.clear();
  vnode_status_.clear();
  hot_keys_.clear();
  ready_ = false;
  // Hints are coordinator RAM: they die with the process. The Merkle
  // anti-entropy pass is what makes that loss survivable.
  hint_queues_.clear();
  hints_pending_ = 0;
  ae_last_synced_.clear();
  ae_in_flight_ = false;
  // Every periodic daemon dies with the process; the next start() arms a
  // fresh set.
  for (sim::TimerHandle& daemon : daemons_) daemon.cancel();
  daemons_.clear();
  // Transfer state is volatile too: a crashed destination simply never
  // reaches cutover (the source keeps serving), and a crashed leader's
  // in-flight round is forgotten (the next leader replans from fresh
  // telemetry).
  reported_status_.clear();
  migrating_in_.clear();
  migrations_dispatched_ = 0;
  traffic_rebalancer_.reset();
  // The next start() finds an empty store where peers still hold data.
  needs_hydration_ = true;
}

void SednaNode::hydrate_after_restart(std::function<void()> done) {
  needs_hydration_ = false;
  const auto todo = metadata_.table().replica_vnodes_of(id());
  run_bounded(
      todo.size(), kTransferParallelism,
      [this, todo](std::size_t i, GatherDone fetched) {
        const VnodeId v = todo[i];
        const auto replicas = metadata_.table().replicas_for_vnode(v);
        fetch_vnode_from(v, {replicas.begin(), replicas.end()},
                         [this, fetched](NodeId source, std::uint64_t) {
                           metrics_
                               .counter(source != kInvalidNode
                                            ? "restart.vnodes_hydrated"
                                            : "restart.hydration_failed")
                               .add(1);
                           fetched();
                         });
      },
      std::move(done));
}

StatusCode SednaNode::apply_write(const WriteRequest& req) {
  // Per-vnode write frequency (paper III.B); report_load takes the
  // capacity column from the store.
  if (metadata_.ready()) {
    const VnodeId v = metadata_.table().vnode_for_key(req.key);
    if (vnode_status_.size() < metadata_.table().total_vnodes()) {
      vnode_status_.resize(metadata_.table().total_vnodes());
    }
    ++vnode_status_[v].writes;
  }
  Status st;
  if (req.causal_tag == WriteRequest::kCausalRecord) {
    bool changed = false;
    st = apply_causal(req.key, req.record, changed);
  } else if (req.mode == WriteMode::kLatest) {
    st = store_->write_latest(req.key, req.value, req.ts, req.flags,
                              req.ttl);
    if (st.ok() && persistence_ != nullptr) {
      persistence_->on_write_latest(req.key, req.value, req.ts, req.flags);
    }
  } else {
    st = store_->write_all(req.key, req.source, req.value, req.ts);
    if (st.ok() && persistence_ != nullptr) {
      persistence_->on_write_all(req.key, req.source, req.value, req.ts);
    }
  }
  return st.code();
}

Status SednaNode::apply_causal(const std::string& key,
                               const store::CausalRecord& record,
                               bool& changed) {
  // A semilattice join with the incoming record. The WAL logs the
  // *incoming* record only when the join moved local state — replay
  // re-joins the same records, so recovery cannot lose siblings that were
  // acked. Transfers and pulls call this directly, not apply_write:
  // apply_write also counts a write in vnode_status_, whose rows feed the
  // imbalance table the rebalancer plans from, and moved causal records
  // have never been counted there.
  Status st = store_->merge_causal(key, record, &changed);
  if (st.ok() && changed && persistence_ != nullptr) {
    persistence_->on_write_causal(key, record);
  }
  return st;
}

void SednaNode::apply_value_list(const std::string& key,
                                 const std::vector<store::SourceValue>& list) {
  for (const auto& sv : list) apply_write(list_write(key, sv));
}

void SednaNode::for_each_in_vnode(
    VnodeId vnode, const std::set<std::uint32_t>* buckets,
    const std::function<void(const store::Item&)>& fn) {
  if (!store_->digests_enabled()) {
    // Only a node that was never ready lacks the index (the store keeps
    // its digest tree across crash()), and only a purge reaches it there;
    // digest buckets, and so `buckets`, exist only once digests do.
    const auto& table = metadata_.table();
    store_->for_each_matching(
        [&table, vnode](std::string_view key) {
          return table.vnode_for_key(key) == vnode;
        },
        fn);
    return;
  }
  if (buckets == nullptr) {
    store_->for_each_in_vnode(vnode, fn);
    return;
  }
  const std::uint32_t bucket_count = store_->digest_buckets_per_vnode();
  store_->for_each_in_vnode(
      vnode, [buckets, bucket_count, &fn](const store::Item& item) {
        if (buckets->contains(item.digest_cell % bucket_count)) fn(item);
      });
}

ReadReply SednaNode::local_read(const ReadRequest& req) {
  VnodeId v = kInvalidVnode;
  if (metadata_.ready()) {
    v = metadata_.table().vnode_for_key(req.key);
    if (vnode_status_.size() < metadata_.table().total_vnodes()) {
      vnode_status_.resize(metadata_.table().total_vnodes());
    }
    ++vnode_status_[v].reads;
  }
  ReadReply rep;
  if (req.causal) {
    auto got = store_->read_causal(req.key);
    if (got.ok()) {
      rep.has_causal = true;
      rep.causal = std::move(got).value();
    } else {
      rep.status = got.status().code();
    }
  } else if (req.mode == ReadMode::kLatest) {
    auto got = store_->read_latest(req.key);
    if (got.ok()) {
      rep.has_latest = true;
      rep.latest = std::move(got).value();
    } else {
      rep.status = got.status().code();
    }
  } else {
    auto got = store_->read_all(req.key);
    if (got.ok()) {
      rep.value_list = std::move(got).value();
    } else {
      rep.status = got.status().code();
    }
  }
  if (v != kInvalidVnode && rep.status != StatusCode::kOk) {
    ++vnode_status_[v].misses;
  }
  return rep;
}

void SednaNode::handle_replica_write(const sim::Message& msg,
                                     WriteRequest req) {
  const StatusCode st = apply_write(req);
  replica_writes_->add(1);
  instant_span("replica.write", to_string(st), TraceStage::kService);
  reply_status<WriteReply>(msg, st);
}

void SednaNode::handle_replica_read(const sim::Message& msg,
                                    ReadRequest req) {
  replica_reads_->add(1);
  ReadReply rep = local_read(req);
  instant_span("replica.read", to_string(rep.status), TraceStage::kService);
  reply(msg, rep.encode());
}

// ---- quorum coordinator -------------------------------------------------

/// The header every coordinator fan-out carries. One state per fan-out,
/// shared by the reply closure of every replica call, which reach the
/// request and the client's reply header through it.
struct SednaNode::Fanout {
  sim::Message origin;  // reply header only
  ClusterConfig cfg;
  std::uint32_t total = 0;
  SimTime started = 0;
  VnodeId vnode = 0;
  TraceId trace = 0;
  SpanId span = 0;
  /// The replica timeout was cut to the client's remaining budget.
  bool deadline_bounded = false;
  std::uint32_t responses = 0;
  std::uint32_t failures = 0;
  bool replied = false;
};

struct SednaNode::WriteFanout : Fanout {
  using Reply = WriteReply;
  WriteRequest req;
  bool causal_put = false;
  store::VersionVector causal_clock;
  std::uint32_t acks = 0;
  std::uint32_t outdated = 0;
};

struct SednaNode::ReadFanout : Fanout {
  using Reply = ReadReply;
  ReadRequest req;
  std::vector<std::pair<NodeId, ReadReply>> replies;
  /// The answer served to the client — the LWW value (`answer`, kLatest
  /// mode) or the joined causal record (`merged`) — kept for repairing
  /// replicas that are behind it, late arrivals included.
  bool has_answer = false;
  store::VersionedValue answer;
  store::CausalRecord merged;
  /// Consistency-auditor bookkeeping: whether the final audit sample has
  /// been emitted, whether the reply went out stale-tagged, and when the
  /// reply was sent (for the confirmation-lag measurement).
  bool audited = false;
  bool served_stale = false;
  SimTime settled_at = 0;

  /// The straggler-repair predicate: `rep` is older than, or missing, the
  /// answer served.
  [[nodiscard]] bool behind(const ReadReply& rep) const {
    if (req.causal) return !rep.has_causal || !(rep.causal == merged);
    return !rep.has_latest || rep.latest.ts < answer.ts;
  }
  [[nodiscard]] WriteRequest answer_write() const {
    return req.causal ? causal_write(req.key, merged)
                      : latest_write(req.key, answer);
  }
};

template <typename State, typename Local, typename Remote>
void SednaNode::fan_out(const sim::Message& msg,
                        std::shared_ptr<State> state,
                        const char* span_name, sim::MessageType type,
                        Local local, Remote remote) {
  const VnodeId vnode = metadata_.table().vnode_for_key(state->req.key);
  const auto replicas = metadata_.table().replicas_for_vnode(vnode);
  hot_keys_.record(state->req.key);
  const SpanId span = begin_span(span_name, TraceStage::kService);
  const TraceContext prev_ctx = enter_span(span);
  state->origin = msg.header();
  state->cfg = metadata_.config();
  state->total = static_cast<std::uint32_t>(replicas.size());
  state->started = now();
  state->vnode = vnode;
  state->trace = prev_ctx.trace_id;
  state->span = span;

  // Deadline-aware fan-out: the replica RPC timeout never extends past the
  // client's remaining budget — once the deadline passes, waiting longer
  // can only produce an answer nobody wants. A timeout that fired early
  // *because* of the deadline is abandonment, not failure evidence, so it
  // must not feed the failure detector or queue hints (suspecting healthy
  // nodes and replaying hints during overload would amplify the overload).
  // The host sheds a request whose deadline passed while it queued, but
  // one can still lapse during its own service time: that leaves no
  // budget at all, and counts as bounded too.
  SimDuration timeout = config().rpc_timeout_us;
  if (msg.deadline != 0) {
    timeout = std::min<SimDuration>(
        timeout, msg.deadline > now() ? msg.deadline - now() : 0);
  }
  state->deadline_bounded =
      msg.deadline != 0 && timeout < config().rpc_timeout_us;

  // The last remote send takes the encoded payload; the others copy it.
  std::string payload = state->req.encode();
  std::size_t remotes = replicas.size() - (replicas.contains(id()) ? 1 : 0);
  for (NodeId replica : replicas) {
    if (replica == id()) {
      ++state->responses;
      local(*state);
      continue;
    }
    call<typename State::Reply>(
        replica, type, --remotes == 0 ? std::move(payload) : payload,
        timeout,
        [state, replica, remote](Result<typename State::Reply> rep) {
          ++state->responses;
          remote(*state, replica, std::move(rep));
        },
        msg.deadline);
  }
  set_trace_context(prev_ctx);
}

void SednaNode::handle_client_write(const sim::Message& msg,
                                    WriteRequest decoded) {
  if (!ready_) {
    reply_status<WriteReply>(msg, StatusCode::kUnavailable);
    return;
  }
  auto state = std::make_shared<WriteFanout>();
  state->req = std::move(decoded);
  WriteRequest& req = state->req;
  if (req.ts == 0) req.ts = next_ts();
  if (req.source == kInvalidNode) req.source = msg.from;

  // Causal put: the coordinator mints the dot locally *first* — pruning
  // the siblings covered by the client's read context and appending the
  // new value — then fans out the full post-update record, so replicas
  // join states instead of racing on timestamps. The local apply in the
  // fan-out sees the rewritten record and is an idempotent no-op join
  // that still counts as this replica's ack.
  if (req.causal_tag == WriteRequest::kCausalCtx) {
    auto minted = store_->write_causal(req.key, req.ctx, req.value, req.ts,
                                       req.flags, id());
    if (!minted.ok()) {
      reply_status<WriteReply>(msg, StatusCode::kFailure);
      return;
    }
    if (persistence_ != nullptr) {
      persistence_->on_write_causal(req.key, minted.value());
    }
    state->causal_put = true;
    state->causal_clock = minted.value().clock;
    req.causal_tag = WriteRequest::kCausalRecord;
    req.record = std::move(minted).value();
    req.ctx = {};
  }

  coordinator_writes_->add(1);
  fan_out(
      msg, std::move(state), "coord.write", kMsgReplicaWrite,
      [this](WriteFanout& s) {
        const StatusCode st = apply_write(s.req);
        instant_span("coord.local_write", to_string(st),
                     TraceStage::kService);
        settle_write(s, st);
      },
      [this](WriteFanout& s, NodeId replica, Result<WriteReply> rep) {
        StatusCode answer = StatusCode::kFailure;
        if (rep.ok()) {
          answer = rep->status;
        } else if (rep.status().is(StatusCode::kTimeout) &&
                   !s.deadline_bounded) {
          // The replica missed an acknowledged-at-W write: remember it
          // and replay once the replica re-registers (hinted handoff).
          queue_hint(replica, s.req);
          suspect_node(replica, s.vnode);
        }
        settle_write(s, answer);
      });
}

void SednaNode::settle_write(WriteFanout& s, StatusCode answer) {
  if (answer == StatusCode::kOk) {
    ++s.acks;
  } else if (answer == StatusCode::kOutdated) {
    ++s.outdated;
  } else {
    ++s.failures;
  }
  if (s.replied) return;
  WriteReply rep;
  if (s.acks >= s.cfg.write_quorum) {
    rep.status = StatusCode::kOk;
    if (s.causal_put) {
      // Hand the post-write clock back as the client's next context.
      rep.has_ctx = true;
      rep.ctx = s.causal_clock;
    }
    // t-visibility probe (PBS-style): sample acked LWW writes and check
    // back on every replica at fixed offsets to measure how quickly an
    // acknowledged write becomes readable cluster-wide. Causal puts are
    // excluded — their convergence is vector-clock joins, not a single
    // timestamp, so "ts >= wts" is not the right visibility predicate.
    if (auditor_ != nullptr && !s.causal_put && auditor_->should_probe()) {
      probe_visibility(s.req.key, s.req.ts, s.vnode, now());
    }
  } else if (s.responses < s.total) {
    return;  // still waiting and quorum still possible
  } else if (s.outdated > 0) {
    rep.status = StatusCode::kOutdated;
  } else {
    rep.status = StatusCode::kFailure;  // recovery already triggered
    metrics_.counter("coordinator.write_quorum_failures").add(1);
  }
  s.replied = true;
  coordinator_write_latency_->record(now() - s.started, s.trace);
  end_span(s.span, to_string(rep.status));
  reply(s.origin, rep.encode());
}

void SednaNode::handle_client_read(const sim::Message& msg,
                                   ReadRequest decoded) {
  if (!ready_) {
    reply_status<ReadReply>(msg, StatusCode::kUnavailable);
    return;
  }
  auto state = std::make_shared<ReadFanout>();
  state->req = std::move(decoded);
  state->replies.reserve(metadata_.table().replicas());
  coordinator_reads_->add(1);
  fan_out(
      msg, std::move(state), "coord.read", kMsgReplicaRead,
      [this](ReadFanout& s) {
        ReadReply rep = local_read(s.req);
        instant_span("coord.local_read", to_string(rep.status),
                     TraceStage::kService);
        s.replies.emplace_back(id(), std::move(rep));
        settle_read(s);
        audit_read(s);
      },
      [this](ReadFanout& s, NodeId replica, Result<ReadReply> rep) {
        if (!rep.ok() || rep->status == StatusCode::kOverloaded) {
          // A timeout is failure evidence. An overloaded replica is alive
          // but shedding: count it as failed for quorum purposes, but do
          // not suspect it and do not read-repair it (pushing writes at a
          // node that just shed a read would deepen the overload).
          ++s.failures;
          if (rep.status().is(StatusCode::kTimeout) && !s.deadline_bounded) {
            suspect_node(replica, s.vnode);
          }
        } else {
          // Replies arriving after the read settled still feed read
          // repair: a replica that is behind (or brand new, after a
          // membership change) gets the answer pushed.
          if (s.replied && s.has_answer && s.behind(*rep)) {
            read_repair(s.answer_write(), {replica});
          }
          s.replies.emplace_back(replica, std::move(rep).value());
        }
        settle_read(s);
        audit_read(s);
      });
}

void SednaNode::settle_read(ReadFanout& s) {
  if (s.replied) return;

  if (s.req.causal) {
    // Causal quorum read: R *positive* replies settle (the same
    // positive-only rule as the LWW path — a fresh replica-set member
    // legitimately lacks the key). The answer is the semilattice join of
    // every record in hand: with R+W > N the R positives intersect every
    // write quorum, so the join covers every acked write — concurrent
    // writes surface as siblings instead of one silently shadowing the
    // other.
    std::uint32_t positives = 0;
    for (const auto& [node, rep] : s.replies) {
      if (rep.has_causal) ++positives;
    }
    if (positives < s.cfg.read_quorum && s.responses < s.total) return;
    s.replied = true;
    coordinator_read_latency_->record(now() - s.started, s.trace);
    ReadReply out;
    for (const auto& [node, rep] : s.replies) {
      if (rep.has_causal) s.merged.merge(rep.causal);
    }
    if (!s.merged.empty()) {
      out.status = StatusCode::kOk;
      out.has_causal = true;
      out.causal = s.merged;
      if (positives < s.cfg.read_quorum) {
        out.stale = true;
        if (auditor_ != nullptr) {
          out.staleness_us = auditor_->on_stale_serve(s.vnode, now());
        }
      } else if (auditor_ != nullptr) {
        auditor_->on_full_quorum(s.vnode, now());
      }
      s.has_answer = true;
      // Repair replicas whose record is missing or diverged: push the
      // join, which each replica folds in idempotently.
      repair_behind(s);
    } else if (s.failures > 0) {
      out.status = StatusCode::kFailure;
    } else {
      out.status = StatusCode::kNotFound;
    }
    end_span(s.span, to_string(out.status));
    reply(s.origin, out.encode());
    return;
  }

  if (s.req.mode == ReadMode::kLatest) {
    // Quorum rule (Section III.C): R replies carrying the *same
    // timestamp* settle the read. Only *positive* replies may settle
    // early — concluding "not found" from R misses while a replica that
    // does hold the value has yet to answer would lose data during
    // membership changes (a fresh replica-set member legitimately lacks
    // the key until read repair backfills it).
    const ReadReply* freshest = nullptr;
    for (const auto& [node, rep] : s.replies) {
      if (!rep.has_latest) continue;
      std::uint32_t agree = 0;
      for (const auto& [other_node, other] : s.replies) {
        if (other.has_latest && rep.latest.ts == other.latest.ts) ++agree;
      }
      if (agree >= s.cfg.read_quorum) {
        serve_latest(s, &rep, LwwServe::kQuorum);
        return;
      }
      if (freshest == nullptr || rep.latest.ts > freshest->latest.ts) {
        freshest = &rep;
      }
    }
    // Degraded mode: once enough replicas have failed (timed out, shed
    // with kOverloaded, or sit behind a partition) that a full R-sized
    // agreeing set is impossible, answer from the freshest positive reply
    // in hand and *say so* via the stale tag, instead of letting the op
    // ride out every timeout and fail. Keyspace-style trade: availability
    // bought with labeled staleness.
    if (freshest != nullptr && config_.degraded_reads &&
        s.failures + s.cfg.read_quorum > s.total) {
      serve_latest(s, freshest, LwwServe::kDegraded);
      return;
    }
    if (s.responses < s.total) return;  // keep waiting
    // All replicas answered without an R-sized agreeing set: return the
    // freshest value (eventual consistency) and repair the rest.
    serve_latest(s, freshest, LwwServe::kBelowQuorum);
    return;
  }

  // read_all: wait for R successful replies, then merge the value lists
  // (newest timestamp wins per source).
  std::uint32_t successes = 0;
  for (const auto& [node, rep] : s.replies) {
    if (rep.status == StatusCode::kOk || !rep.value_list.empty()) {
      ++successes;
    }
  }
  const bool exhausted = s.responses >= s.total;
  if (successes < s.cfg.read_quorum && !exhausted) return;
  s.replied = true;
  coordinator_read_latency_->record(now() - s.started, s.trace);
  ReadReply out;
  std::map<NodeId, store::SourceValue> merged;
  for (const auto& [node, rep] : s.replies) {
    for (const auto& sv : rep.value_list) {
      auto [it, inserted] = merged.try_emplace(sv.source, sv);
      if (!inserted && sv.ts > it->second.ts) it->second = sv;
    }
  }
  for (auto& [source, sv] : merged) out.value_list.push_back(sv);
  if (out.value_list.empty()) {
    out.status = s.failures > 0 && successes == 0 ? StatusCode::kFailure
                                                  : StatusCode::kNotFound;
  }
  end_span(s.span, to_string(out.status));
  reply(s.origin, out.encode());
}

void SednaNode::serve_latest(ReadFanout& s, const ReadReply* pick,
                             LwwServe how) {
  s.replied = true;
  coordinator_read_latency_->record(now() - s.started, s.trace);
  ReadReply out;
  if (pick != nullptr) {
    out = *pick;
    out.status = StatusCode::kOk;
    // Anything short of an R-sized agreeing set is the freshest value in
    // hand but unconfirmed: label it rather than pass it off as a quorum
    // read.
    out.stale = how != LwwServe::kQuorum;
    s.has_answer = true;
    s.answer = pick->latest;
    s.served_stale = out.stale;
    s.settled_at = now();
    if (how == LwwServe::kDegraded) {
      metrics_.counter("coordinator.degraded_reads").add(1);
    }
    // Bounded staleness: a stale answer is no older than the time since
    // this vnode last confirmed a full read quorum, so hand the client
    // that bound alongside the stale tag.
    if (auditor_ != nullptr) {
      if (out.stale) {
        out.staleness_us = auditor_->on_stale_serve(s.vnode, now());
      } else {
        auditor_->on_full_quorum(s.vnode, now());
      }
    }
    // Below quorum the repair goes out before the reply; after a quorum
    // agreed, behind it. A degraded early settle repairs only the late
    // arrivals.
    if (how == LwwServe::kBelowQuorum) repair_behind(s);
  } else {
    out.status = s.failures > 0 ? StatusCode::kFailure : StatusCode::kNotFound;
  }
  end_span(s.span, to_string(out.status));
  reply(s.origin, out.encode());
  if (how == LwwServe::kQuorum) repair_behind(s);
}

void SednaNode::repair_behind(const ReadFanout& s) {
  std::vector<NodeId> stale;
  for (const auto& [node, rep] : s.replies) {
    if (s.behind(rep)) stale.push_back(node);
  }
  if (!stale.empty()) read_repair(s.answer_write(), stale);
}

void SednaNode::audit_read(ReadFanout& s) {
  // Staleness sample: once every replica has answered (call_with_timeout
  // always fires, so responses always reaches total), compare the value
  // the client was served against the freshest timestamp any replica
  // reported. The gap — versions behind, and wall-clock µs behind — is a
  // *measured* staleness observation, not a bound.
  if (auditor_ == nullptr || s.audited || s.responses < s.total ||
      s.req.causal || s.req.mode != ReadMode::kLatest || !s.has_answer) {
    return;
  }
  s.audited = true;
  ReadAuditSample sample;
  sample.vnode = s.vnode;
  sample.served_ts = s.answer.ts;
  sample.stale = s.served_stale;
  sample.confirm_lag_us = now() > s.settled_at ? now() - s.settled_at : 0;
  for (const auto& [node, rep] : s.replies) {
    if (!rep.has_latest) continue;
    ++sample.positives;
    if (sample.positives == 1) {
      sample.freshest_ts = sample.oldest_ts = rep.latest.ts;
    } else {
      sample.freshest_ts = std::max(sample.freshest_ts, rep.latest.ts);
      sample.oldest_ts = std::min(sample.oldest_ts, rep.latest.ts);
    }
    if (rep.latest.ts > s.answer.ts) ++sample.newer;
  }
  auditor_->on_read_final(sample);
}

void SednaNode::read_repair(const WriteRequest& fresh,
                            const std::vector<NodeId>& stale) {
  metrics_.counter("coordinator.read_repairs").add(1);
  // The repair span closes when the last stale replica has been pushed,
  // so its duration covers the backfill round trips.
  const SpanId span = begin_span("coord.read_repair", TraceStage::kRepair);
  const TraceContext prev = enter_span(span);
  const std::string payload = fresh.encode();
  auto push = [&](std::size_t i, GatherDone done) {
    if (stale[i] != id()) {
      call(stale[i], kMsgReplicaWrite, payload,
           [done](const Status&, const std::string&) { done(); });
      return;
    }
    apply_write(fresh);
    done();
  };
  run_bounded(stale.size(), kNoLimit, push, [this, span] { end_span(span); });
  set_trace_context(prev);
}

void SednaNode::suspect_node(NodeId replica, VnodeId vnode) {
  // Damp repeated verification of a node we recently saw alive: a single
  // dropped packet must not stampede ZooKeeper (Section III.E: "use local
  // cache").
  const auto it = verified_alive_.find(replica);
  if (it != verified_alive_.end() &&
      now() - it->second <= kAliveVerifyTtl) {
    return;
  }
  metrics_.counter("failure.suspicions").add(1);
  const SpanId span = begin_span("failure.suspect", TraceStage::kRepair);
  const TraceContext prev = enter_span(span);
  const TraceContext span_ctx = trace_context();
  zk_.exists(real_node_znode(replica),
             [this, span, span_ctx, replica,
              vnode](const Result<zk::ZnodeStat>& st) {
               set_trace_context(span_ctx);
               if (st.ok()) {
                 verified_alive_[replica] = now();
                 end_span(span, "alive");
                 return;  // transient hiccup; node is registered
               }
               if (!st.status().is(StatusCode::kNotFound)) {
                 end_span(span, "error");
                 return;
               }
               end_span(span, "dead");
               // Ephemeral gone: the heartbeat lapsed and ZooKeeper
               // expired the session — the node is dead (Section III.D).
               // Recover every vnode the dead node owns within this key's
               // replica walk (the walk spans vnodes until N distinct live
               // owners are found; the dead node may own several of them).
               const auto& table = metadata_.table();
               const std::uint32_t n = table.total_vnodes();
               const std::uint32_t want = metadata_.config().replicas;
               std::vector<NodeId> live_seen;
               for (std::uint32_t step = 0; step < n; ++step) {
                 const VnodeId v = (vnode + step) % n;
                 const NodeId owner = table.owner(v);
                 if (owner == replica) {
                   start_recovery(v, replica);
                 } else if (owner != kInvalidNode &&
                            std::find(live_seen.begin(), live_seen.end(),
                                      owner) == live_seen.end()) {
                   live_seen.push_back(owner);
                   if (live_seen.size() >= want) break;
                 }
               }
             });
  set_trace_context(prev);
}

void SednaNode::start_recovery(VnodeId vnode, NodeId dead) {
  if (recovering_.contains(vnode)) return;
  recovering_.insert(vnode);
  metrics_.counter("failure.recoveries_started").add(1);
  instant_span("recovery.start", "ok", TraceStage::kRepair);

  // Healthy sources for the slice: the vnode's other current replicas.
  auto sources = metadata_.table().replicas_for_vnode(vnode);
  sources.erase(dead);

  zk_.children(
      kZkRealNodes,
      [this, vnode, dead, sources](
          const Result<std::vector<std::string>>& kids) {
        if (!kids.ok()) {
          finish_recovery(vnode);
          return;
        }
        // Candidates: live nodes not already holding this slice.
        std::vector<NodeId> candidates;
        for (NodeId n : live_node_ids(kids.value())) {
          if (n != dead && !sources.contains(n)) candidates.push_back(n);
        }
        if (sources.empty() || candidates.empty()) {
          // Nothing left to copy from, or nowhere to copy to: stay
          // degraded (quorum reads/writes continue on the survivors).
          metrics_.counter("failure.recovery_degraded").add(1);
          finish_recovery(vnode);
          return;
        }
        // Least-loaded candidate by our local vnode counts, tie by id.
        const auto counts = metadata_.table().counts();
        NodeId target = candidates.front();
        std::uint32_t best = UINT32_MAX;
        for (NodeId n : candidates) {
          const auto cit = counts.find(n);
          const std::uint32_t load = cit == counts.end() ? 0 : cit->second;
          if (load < best || (load == best && n < target)) {
            best = load;
            target = n;
          }
        }
        // The target pulls the slice from the survivors and only then
        // CASes itself in (transfer_vnode, Section III.C's async
        // duplication task). If several coordinators noticed, exactly one
        // CAS wins and the losing targets purge their copies.
        MigrateVnodeRequest req{vnode, dead, {sources.begin(), sources.end()}};
        call<MigrateVnodeReply>(
            target, kMsgMigrateVnode, req.encode(), kMigrationTimeout,
            [this, vnode](const Result<MigrateVnodeReply>& rep) {
              if (rep.ok() && rep->status == StatusCode::kOk) {
                metrics_.counter("failure.recoveries_completed").add(1);
                instant_span("recovery.reassigned", "ok",
                             TraceStage::kRepair);
              }
              // Learn the outcome from the znode, not from the reply: a
              // refused or timed-out transfer may still have lost to (or
              // be) a committed one.
              metadata_.refresh_vnode(vnode,
                                      [this, vnode] { finish_recovery(vnode); });
            });
      });
}

void SednaNode::finish_recovery(VnodeId vnode) { recovering_.erase(vnode); }

void SednaNode::append_change_journal(VnodeId vnode, NodeId owner,
                                      std::function<void()> done) {
  zk_.create(std::string(kZkChanges) + "/c",
             ChangeJournalEntry{vnode, owner}.encode(),
             zk::CreateMode::kPersistentSequential,
             [done = std::move(done)](const Result<std::string>&) {
               if (done) done();
             });
}

void SednaNode::handle_fetch_vnode(const sim::Message& msg,
                                   FetchVnodeRequest req) {
  if (!ready_) {
    reply_status<FetchVnodeReply>(msg, StatusCode::kUnavailable);
    return;
  }
  FetchVnodeReply rep;
  for_each_in_vnode(req.vnode, nullptr, [&rep](const store::Item& item) {
    TransferItem out;
    out.key = item.key;
    out.has_latest = item.has_latest;
    out.latest = item.latest;
    out.value_list = item.value_list;
    out.causal = item.causal;
    rep.items.push_back(std::move(out));
  });
  metrics_.counter("transfer.vnodes_served").add(1);
  metrics_.counter("transfer.items_served").add(rep.items.size());
  reply(msg, rep.encode());
}

void SednaNode::handle_scan(const sim::Message& msg, ScanRequest req) {
  if (!ready_) {
    reply_status<ScanReply>(msg, StatusCode::kUnavailable);
    return;
  }
  // Report only keys whose primary vnode we own: the client scatters to
  // every node, so replica copies must not triple the result set.
  ScanReply rep;
  const auto& table = metadata_.table();
  const std::string& prefix = req.prefix;
  const std::uint32_t limit = req.limit;
  store_->for_each_matching(
      [&](std::string_view key) {
        return key.substr(0, prefix.size()) == prefix &&
               table.owner(table.vnode_for_key(key)) == id();
      },
      [&rep, limit](const store::Item& item) {
        if (rep.keys.size() < limit) {
          rep.keys.push_back(item.key);
        } else {
          rep.truncated = true;
        }
      });
  metrics_.counter("coordinator.scans").add(1);
  reply(msg, rep.encode());
}

void SednaNode::handle_purge_vnode(const sim::Message&,
                                   PurgeVnodeRequest req) {
  // Re-read the znode first: the journal entry naming the new owner may
  // not have reached us yet, and the sender's claim may be older than a
  // later move we already applied.
  const VnodeId vnode = req.vnode;
  metadata_.refresh_vnode(vnode, [this, vnode] { purge_local_vnode(vnode); });
}

void SednaNode::purge_local_vnode(VnodeId vnode) {
  // Only purge if we are truly out of the slice's replica set now; the
  // previous owner often remains a successor replica on the walk.
  if (metadata_.table().replicas_for_vnode(vnode).contains(id())) return;
  std::vector<std::string> doomed;
  for_each_in_vnode(vnode, nullptr, [&doomed](const store::Item& item) {
    doomed.push_back(item.key);
  });
  for (const auto& key : doomed) {
    store_->del(key);
    // Logged like every other store write, or a WAL replay on restart
    // would bring the purged slice back.
    if (persistence_ != nullptr) persistence_->on_delete(key);
  }
  metrics_.counter("transfer.purged_items").add(doomed.size());
}

void SednaNode::fetch_vnode_from(
    VnodeId vnode, std::vector<NodeId> sources,
    std::function<void(NodeId, std::uint64_t)> done) {
  // One source at a time, skipping ourselves (we may appear in a replica
  // walk); once one has served, the rest are skipped.
  auto served = std::make_shared<std::pair<NodeId, std::uint64_t>>(
      kInvalidNode, 0);
  auto fetch = [this, vnode, sources, served](std::size_t i, GatherDone next) {
    const NodeId source = sources[i];
    if (source == id() || served->first != kInvalidNode) {
      next();
      return;
    }
    call<FetchVnodeReply>(
        source, kMsgFetchVnode, FetchVnodeRequest{vnode}.encode(),
        [this, source, served, next](const Result<FetchVnodeReply>& rep) {
          if (!rep.ok() || rep->status != StatusCode::kOk) {
            next();
            return;
          }
          std::uint64_t bytes = 0;
          for (const auto& item : rep->items) {
            bytes += item.key.size();
            if (item.has_latest) bytes += item.latest.value.size();
            for (const auto& sv : item.value_list) bytes += sv.value.size();
            if (!item.causal.empty()) {
              // Causal item: join the record; the LWW mirror refreshes
              // from the winner, so no separate kLatest apply is needed.
              bool changed = false;
              apply_causal(item.key, item.causal, changed);
            } else if (item.has_latest) {
              apply_write(latest_write(item.key, item.latest));
            }
            apply_value_list(item.key, item.value_list);
          }
          metrics_.counter("transfer.items_received").add(rep->items.size());
          *served = {source, bytes};
          next();
        });
  };
  run_bounded(sources.size(), 1, fetch, [served, done = std::move(done)] {
    done(served->first, served->second);
  });
}

// ---------------------------------------------------------------------------
// Hinted handoff
// ---------------------------------------------------------------------------

namespace {

/// Hints for the same (mode, key[, source]) coalesce: only the newest
/// version needs replaying under LWW, and causal records coalesce by
/// joining (the join carries every queued write's dot).
std::string hint_dedupe_key(const WriteRequest& req) {
  if (req.causal_tag == WriteRequest::kCausalRecord) return "C:" + req.key;
  if (req.mode == WriteMode::kLatest) return "L:" + req.key;
  return "A:" + std::to_string(req.source) + ":" + req.key;
}

}  // namespace

void SednaNode::queue_hint(NodeId target, const WriteRequest& req) {
  if (config_.hint_max_queued == 0 || target == id()) return;
  {
    HintQueue& q = hint_queues_[target];
    auto it = q.hints.find(hint_dedupe_key(req));
    if (it != q.hints.end()) {
      // Coalesce: keep the newest write, but the original queue position
      // (age for eviction is the age of the oldest un-replayed miss).
      // Causal hints coalesce by joining records — a timestamp compare
      // could drop one of two concurrent writes.
      if (req.causal_tag == WriteRequest::kCausalRecord) {
        it->second.write.record.merge(req.record);
        ++it->second.coalesced;
      } else if (req.ts > it->second.write.ts) {
        it->second.write = req;
        ++it->second.coalesced;
      }
      return;
    }
  }
  // Eviction may erase `target`'s own (possibly only) queue entry, so no
  // HintQueue reference can be held across this call.
  if (hints_pending_ >= config_.hint_max_queued) evict_oldest_hint();
  PendingHint hint;
  hint.write = req;
  hint.queued_at = now();
  hint.seq = hint_seq_++;
  hint_queues_[target].hints.emplace(hint_dedupe_key(req), std::move(hint));
  ++hints_pending_;
  metrics_.counter("coordinator.hints_queued").add(1);
}

void SednaNode::evict_oldest_hint() {
  NodeId victim_target = kInvalidNode;
  std::string victim_key;
  std::uint64_t oldest_seq = UINT64_MAX;
  for (const auto& [target, q] : hint_queues_) {
    for (const auto& [key, hint] : q.hints) {
      if (hint.seq < oldest_seq) {
        oldest_seq = hint.seq;
        victim_target = target;
        victim_key = key;
      }
    }
  }
  if (victim_target == kInvalidNode) return;
  auto qit = hint_queues_.find(victim_target);
  qit->second.hints.erase(victim_key);
  if (hints_pending_ > 0) --hints_pending_;
  metrics_.counter("coordinator.hints_evicted").add(1);
  if (qit->second.hints.empty() && !qit->second.in_flight) {
    hint_queues_.erase(qit);
  }
}

void SednaNode::bump_hint_backoff(HintQueue& q) {
  const SimDuration base =
      q.backoff == 0
          ? config_.hint_backoff_initial
          : std::min<SimDuration>(config_.hint_backoff_max, q.backoff * 2);
  q.backoff = base;
  // ±25% seeded jitter decorrelates coordinators hammering the same
  // recovering node.
  const double jitter = 0.75 + 0.5 * sim().rng().next_double();
  q.next_attempt =
      now() + static_cast<SimDuration>(static_cast<double>(base) * jitter);
}

void SednaNode::hint_replay_tick() {
  if (!alive() || !ready_ || hint_queues_.empty()) return;
  std::vector<NodeId> due;
  for (const auto& [target, q] : hint_queues_) {
    if (!q.in_flight && now() >= q.next_attempt) due.push_back(target);
  }
  for (NodeId target : due) {
    // Gate on the target's ephemeral znode: deliveries start only once
    // the node has re-registered (its session is back).
    hint_queues_[target].in_flight = true;
    zk_.exists(real_node_znode(target),
               [this, target](const Result<zk::ZnodeStat>& st) {
                 auto it = hint_queues_.find(target);
                 if (it == hint_queues_.end()) return;
                 if (!st.ok()) {
                   it->second.in_flight = false;
                   bump_hint_backoff(it->second);
                   return;
                 }
                 replay_hints_to(target);
               });
  }
}

void SednaNode::replay_hints_to(NodeId target) {
  auto qit = hint_queues_.find(target);
  if (qit == hint_queues_.end()) return;
  HintQueue& q = qit->second;
  q.in_flight = true;
  std::vector<std::string> batch;
  for (const auto& [key, hint] : q.hints) {
    if (batch.size() >= kHintReplayBatch) break;
    batch.push_back(key);
  }
  if (batch.empty()) {
    finish_hint_batch(target, /*failed=*/false);
    return;
  }
  // The replay daemon runs outside any request context; each batch gets
  // its own trace so replay storms are attributable (no-op when the
  // tracer is disabled). The root closes in finish_hint_batch.
  const TraceContext replay_ctx =
      begin_trace("hints.replay", TraceStage::kHintReplay);
  q.replay_span = replay_ctx.span_id;
  tracer().annotate(q.replay_span, "target=" + std::to_string(target));
  auto failures = std::make_shared<std::uint32_t>(0);
  auto deliver = [&](std::size_t i, GatherDone done) {
    const PendingHint& hint = q.hints.at(batch[i]);
    HintDeliverRequest req;
    req.write = hint.write;
    call<HintAckReply>(
        target, kMsgHintDeliver, req.encode(),
        [this, target, key = batch[i], seq = hint.seq,
         coalesced = hint.coalesced, failures,
         done](const Result<HintAckReply>& ack) {
          // kOutdated means the replica already holds newer data — the
          // hint's job is done either way.
          const bool delivered =
              ack.ok() && (ack->status == StatusCode::kOk ||
                           ack->status == StatusCode::kOutdated);
          auto it = hint_queues_.find(target);
          if (it != hint_queues_.end()) {
            if (delivered) {
              // Retire only the copy this batch sent. A write coalesced
              // into the entry (or a fresh entry queued after an
              // eviction) while it was in flight still needs handing
              // off: it stays for the next round.
              auto hit = it->second.hints.find(key);
              if (hit != it->second.hints.end() && hit->second.seq == seq &&
                  hit->second.coalesced == coalesced) {
                it->second.hints.erase(hit);
                if (hints_pending_ > 0) --hints_pending_;
                metrics_.counter("coordinator.hints_delivered").add(1);
              }
            } else {
              ++*failures;
            }
          }
          done();
        });
  };
  run_bounded(batch.size(), kNoLimit, deliver, [this, target, failures] {
    finish_hint_batch(target, *failures > 0);
  });
  set_trace_context({});
}

void SednaNode::finish_hint_batch(NodeId target, bool failed) {
  auto it = hint_queues_.find(target);
  if (it == hint_queues_.end()) return;
  HintQueue& q = it->second;
  q.in_flight = false;
  if (q.replay_span != 0) {
    end_span(q.replay_span, failed ? "failure" : "ok");
    q.replay_span = 0;
  }
  if (failed) {
    bump_hint_backoff(q);
    return;
  }
  q.backoff = 0;
  q.next_attempt = now();  // drain the rest on the next tick
  if (q.hints.empty()) hint_queues_.erase(it);
}

void SednaNode::handle_hint_deliver(const sim::Message& msg,
                                    HintDeliverRequest req) {
  // Not serving yet: refuse so the coordinator keeps the hint.
  StatusCode st = StatusCode::kUnavailable;
  if (ready_) {
    st = apply_write(req.write);
    metrics_.counter("replica.hints_received").add(1);
  }
  instant_span("replica.hint_apply", to_string(st), TraceStage::kHintReplay);
  reply_status<HintAckReply>(msg, st);
}

// ---------------------------------------------------------------------------
// Merkle anti-entropy
// ---------------------------------------------------------------------------

void SednaNode::anti_entropy_tick() {
  if (!alive() || !ready_ || ae_in_flight_ || !store_->digests_enabled()) {
    return;
  }
  const auto replicated = metadata_.table().replica_vnodes_of(id());
  if (replicated.empty()) return;
  // Least-recently-synced first (never-synced counts as time 0), vnode id
  // as the deterministic tie-break: a strict total order, so only the
  // `take` front entries need sorting.
  std::vector<std::pair<SimTime, VnodeId>> order;
  order.reserve(replicated.size());
  for (const VnodeId v : replicated) {
    const auto it = ae_last_synced_.find(v);
    order.emplace_back(it == ae_last_synced_.end() ? 0 : it->second, v);
  }
  const std::size_t take =
      std::min<std::size_t>(order.size(),
                            std::max<std::uint32_t>(
                                1, config_.anti_entropy_vnodes_per_round));
  std::partial_sort(order.begin(), order.begin() + take, order.end());
  std::vector<VnodeId> mine;
  mine.reserve(take);
  for (std::size_t i = 0; i < take; ++i) mine.push_back(order[i].second);
  ae_in_flight_ = true;
  metrics_.counter("antientropy.rounds").add(1);
  // One vnode at a time; a crash or restart skips the rest.
  auto sync = [this, mine](std::size_t i, GatherDone done) {
    if (!alive() || !ready_) {
      done();
      return;
    }
    ae_last_synced_[mine[i]] = now();
    sync_vnode(mine[i], done);
  };
  run_bounded(mine.size(), 1, sync, [this] { ae_in_flight_ = false; });
}

void SednaNode::sync_vnode(VnodeId vnode, std::function<void()> done) {
  std::vector<NodeId> peers;
  for (NodeId n : metadata_.table().replicas_for_vnode(vnode)) {
    if (n != id()) peers.push_back(n);
  }
  if (peers.empty()) {
    done();
    return;
  }
  // The daemon runs outside any request context; open a dedicated trace
  // so repair exchanges show up in trace dumps (no-op while disabled).
  const TraceContext ctx =
      begin_trace("antientropy.sync", TraceStage::kRepair);
  auto sync_peer = [this, vnode, peers](std::size_t i, GatherDone next) {
    if (!alive()) {
      next();
      return;
    }
    const NodeId peer = peers[i];
    metrics_.counter("antientropy.digest_requests").add(1);
    request_digest(vnode, peer,
                   [this, vnode, peer,
                    next](const Result<VnodeDigestReply>& rep) {
                     if (rep.status().is(StatusCode::kTimeout)) {
                       metrics_.counter("antientropy.peer_timeouts").add(1);
                     }
                     if (!rep.ok() || rep->match) {
                       next();
                       return;
                     }
                     metrics_.counter("antientropy.digest_mismatches").add(1);
                     reconcile_with_peer(vnode, peer, *rep, next);
                   });
  };
  run_bounded(peers.size(), 1, sync_peer, [this, ctx, done] {
    end_span(ctx.span_id);
    set_trace_context({});
    done();
  });
}

void SednaNode::reconcile_with_peer(VnodeId vnode, NodeId peer,
                                    const VnodeDigestReply& rep,
                                    std::function<void()> done) {
  const SpanId span = begin_span("antientropy.reconcile", TraceStage::kRepair);
  const TraceContext prev = enter_span(span);
  const VnodeDelta delta = diff_vnode(vnode, rep);
  if (rep.truncated) metrics_.counter("antientropy.truncated_replies").add(1);
  // One task per push, then the pull batch.
  auto send = [this, peer, prev, &delta](std::size_t i, GatherDone finish) {
    if (i < delta.pushes.size()) {
      metrics_.counter("antientropy.keys_pushed").add(1);
      call(peer, kMsgReplicaWrite, delta.pushes[i].encode(),
           [finish](const Status&, const std::string&) { finish(); });
      return;
    }
    pull_keys(peer, delta.pulls, finish);
    // Restored before `done` can run, even when nothing was in flight.
    set_trace_context(prev);
  };
  run_bounded(delta.pushes.size() + 1, kNoLimit, send, [this, span, done] {
    end_span(span);
    done();
  });
}

void SednaNode::request_digest(
    VnodeId vnode, NodeId peer,
    std::function<void(const Result<VnodeDigestReply>&)> done) {
  VnodeDigestRequest req;
  req.vnode = vnode;
  req.root = store_->digest_root(vnode);
  req.buckets = store_->digest_buckets(vnode);
  call<VnodeDigestReply>(
      peer, kMsgVnodeDigest, req.encode(),
      [done = std::move(done)](Result<VnodeDigestReply> rep) {
        if (rep.ok() && rep->status != StatusCode::kOk) {
          rep = Status(rep->status);
        }
        done(rep);
      });
}

SednaNode::VnodeDelta SednaNode::diff_vnode(VnodeId vnode,
                                            const VnodeDigestReply& rep) {
  // Local view of the mismatched buckets.
  struct LocalKey {
    bool has_latest = false;
    store::VersionedValue latest;
    std::vector<store::SourceValue> list;
    std::uint64_t list_digest = 0;
    store::CausalRecord causal;
    std::uint64_t causal_digest = 0;
  };
  const std::set<std::uint32_t> mismatched(rep.mismatched.begin(),
                                           rep.mismatched.end());
  std::map<std::string, LocalKey> local;
  for_each_in_vnode(vnode, &mismatched, [&local](const store::Item& item) {
    LocalKey lk;
    lk.has_latest = item.has_latest;
    lk.latest = item.latest;
    lk.list = item.value_list;
    lk.list_digest = store::LocalStore::value_list_digest(item.value_list);
    if (!item.causal.empty()) {
      lk.causal = item.causal;
      lk.causal_digest = item.causal.digest();
    }
    local.emplace(item.key, std::move(lk));
  });

  // Decide per key: push what we have newer, pull what the peer has
  // newer; a value-list digest mismatch reconciles both directions for
  // LWW and causal keys alike (the per-source LWW merge makes the union
  // converge).
  VnodeDelta delta;
  std::set<std::string> peer_keys;
  for (const KeySummary& ks : rep.keys) {
    peer_keys.insert(ks.key);
    const auto it = local.find(ks.key);
    const LocalKey* mine = it == local.end() ? nullptr : &it->second;
    const std::uint64_t local_causal = mine ? mine->causal_digest : 0;
    const bool list_diff = (mine ? mine->list_digest : 0) != ks.list_digest;
    bool pull = list_diff;
    bool pull_causal = false;
    if (local_causal != 0 || ks.causal_digest != 0) {
      // Causal keys reconcile by exchanging records (Preguiça et al.):
      // timestamp ordering cannot rank concurrent siblings, but the
      // semilattice join converges from both directions. Equal digests
      // mean converged.
      if (local_causal != ks.causal_digest) {
        if (local_causal != 0) {
          delta.pushes.push_back(causal_write(ks.key, mine->causal));
        }
        pull_causal = ks.causal_digest != 0;
      }
    } else {
      const bool local_has = mine != nullptr && mine->has_latest;
      const Timestamp local_ts = local_has ? mine->latest.ts : 0;
      if (ks.has_latest && (!local_has || local_ts < ks.latest_ts)) pull = true;
      if (local_has && (!ks.has_latest || ks.latest_ts < local_ts)) {
        delta.pushes.push_back(latest_write(ks.key, mine->latest));
      }
    }
    if (pull || pull_causal) {
      delta.pulls.push_back(KeyPull{ks.key, list_diff, pull_causal});
    }
    if (list_diff && mine != nullptr) {
      for (const auto& sv : mine->list) {
        delta.pushes.push_back(list_write(ks.key, sv));
      }
    }
  }
  // Keys the peer did not list at all are missing there — unless its
  // summary was truncated: then absence proves nothing, and an unlisted
  // key is reconciled only once a later reply lists it.
  if (rep.truncated) return delta;
  for (const auto& [key, lk] : local) {
    if (peer_keys.contains(key)) continue;
    if (lk.causal_digest != 0) {
      // Missing causal key: push the whole record (subsumes the mirror,
      // which the peer rebuilds from the winner).
      delta.pushes.push_back(causal_write(key, lk.causal));
    } else if (lk.has_latest) {
      delta.pushes.push_back(latest_write(key, lk.latest));
    }
    for (const auto& sv : lk.list) {
      delta.pushes.push_back(list_write(key, sv));
    }
  }
  return delta;
}

void SednaNode::pull_keys(NodeId peer, const std::vector<KeyPull>& pulls,
                          std::function<void()> done) {
  auto pull = [this, peer, &pulls](std::size_t i, GatherDone pulled) {
    pull_key(peer, pulls[i], pulled);
  };
  run_bounded(pulls.size(), kNoLimit, pull, std::move(done));
}

void SednaNode::pull_key(NodeId peer, KeyPull pull,
                         std::function<void()> done) {
  ReadRequest latest_req;
  latest_req.mode = ReadMode::kLatest;
  latest_req.key = pull.key;
  latest_req.causal = pull.want_causal;
  call<ReadReply>(
      peer, kMsgReplicaRead, latest_req.encode(),
      [this, peer, pull = std::move(pull),
       done = std::move(done)](const Result<ReadReply>& rep) {
        bool pulled = false;
        if (rep.ok() && pull.want_causal && rep->has_causal) {
          apply_causal(pull.key, rep->causal, pulled);
        } else if (rep.ok() && !pull.want_causal && rep->has_latest) {
          pulled = apply_write(latest_write(pull.key, rep->latest)) ==
                   StatusCode::kOk;
        }
        if (pulled) metrics_.counter("antientropy.keys_pulled").add(1);
        if (!pull.want_list) {
          done();
          return;
        }
        ReadRequest list_req;
        list_req.mode = ReadMode::kAll;
        list_req.key = pull.key;
        call<ReadReply>(
            peer, kMsgReplicaRead, list_req.encode(),
            [this, key = pull.key, done](const Result<ReadReply>& list) {
              if (list.ok()) apply_value_list(key, list->value_list);
              done();
            });
      });
}

// ---------------------------------------------------------------------------
// Traffic-aware rebalancing
// ---------------------------------------------------------------------------

void SednaNode::traffic_rebalance_tick() {
  if (!alive() || !ready_) return;
  // One round at a time: a new plan over telemetry that predates the
  // previous round's cutovers would double-move the same slices.
  if (migrations_dispatched_ > 0) return;
  zk_.children(
      kZkRealNodes, [this](const Result<std::vector<std::string>>& kids) {
        if (!kids.ok() || !alive() || !ready_) return;
        std::vector<NodeId> live = live_node_ids(kids.value());
        // Single deterministic actor: the lowest live node id.
        if (live.empty() ||
            *std::min_element(live.begin(), live.end()) != id()) {
          return;
        }
        std::sort(live.begin(), live.end());
        // Assemble the cluster-wide imbalance table from each live node's
        // reported row (missing rows — a node that has not reported yet —
        // simply count as zero traffic).
        auto table = std::make_shared<ring::ImbalanceTable>();
        auto fetch_row = [this, table, &live](std::size_t i, GatherDone done) {
          zk_.get(load_znode(live[i]),
                  [table, done](const Result<
                                std::pair<std::string, zk::ZnodeStat>>& got) {
                    if (got.ok()) {
                      auto row = ring::RealNodeLoad::decode(got->first);
                      if (row.ok()) table->update(*row);
                    }
                    done();
                  });
        };
        run_bounded(live.size(), kNoLimit, fetch_row,
                    [this, table, live]() mutable {
                      run_traffic_plan(*table, std::move(live));
                    });
      });
}

void SednaNode::run_traffic_plan(const ring::ImbalanceTable& table,
                                 std::vector<NodeId> live) {
  if (!alive() || !ready_ || migrations_dispatched_ > 0) return;
  TrafficRebalancer::HealthFn health = health_provider_;
  if (!health) health = [](NodeId) { return HealthState::kHealthy; };
  const auto moves =
      traffic_rebalancer_.plan(table, metadata_.table(), live, health, now());
  metrics_.counter("rebalance.traffic_rounds").add(1);
  for (const MigrationPlan& m : moves) {
    ++migrations_dispatched_;
    metrics_.counter("rebalance.migrations_started").add(1);
    // One trace per move, rooted at the leader: the destination continues
    // the context carried by the dispatch RPC, so the whole protocol
    // (snapshot → catch-up → cutover → drain) is one span tree.
    const TraceContext mroot =
        begin_trace("rebalance.migration", TraceStage::kMigration);
    tracer().annotate(mroot.span_id,
                      "vnode=" + std::to_string(m.vnode) +
                          " from=" + std::to_string(m.from) +
                          " to=" + std::to_string(m.to));
    MigrateVnodeRequest req{m.vnode, m.from, {}};
    call<MigrateVnodeReply>(
        m.to, kMsgMigrateVnode, req.encode(), kMigrationTimeout,
        [this, root = mroot.span_id](const Result<MigrateVnodeReply>& rep) {
          if (migrations_dispatched_ > 0) --migrations_dispatched_;
          if (!rep.ok() || rep->status != StatusCode::kOk) {
            // Completion metrics live on the destination; the leader only
            // tracks dispatches that came back without a commit.
            metrics_.counter("rebalance.migrations_failed").add(1);
            end_span(root, "failure");
          } else {
            end_span(root, "ok");
          }
          set_trace_context({});
        });
  }
  set_trace_context({});
}

void SednaNode::handle_migrate_vnode(const sim::Message& msg,
                                     MigrateVnodeRequest req) {
  auto respond = [this, msg](const MigrateVnodeReply& rep) {
    reply(msg, rep.encode());
  };
  // No source list: a leader's traffic move out of the current owner.
  if (req.sources.empty()) {
    begin_migration(req.vnode, req.from, respond);
  } else if (!transfer_vnode(req.vnode, req.from, std::move(req.sources),
                             respond)) {
    respond(MigrateVnodeReply{StatusCode::kRefused});
  }
}

void SednaNode::begin_migration(
    VnodeId vnode, NodeId from,
    std::function<void(const MigrateVnodeReply&)> done) {
  // The transfer's trace, once it has opened one: the cutover histogram's
  // exemplar.
  auto trace = std::make_shared<TraceId>(0);
  const bool started = transfer_vnode(
      vnode, from, {from},
      [this, vnode, trace, done](const MigrateVnodeReply& rep) {
        const bool committed = rep.status == StatusCode::kOk;
        if (committed) {
          metrics_.histogram("rebalance.cutover_latency_us")
              .record(rep.cutover_us, *trace);
          metrics_.counter("rebalance.migrations_completed").add(1);
          metrics_.counter("rebalance.bytes_moved").add(rep.bytes);
        } else {
          metrics_.counter("rebalance.migrations_aborted").add(1);
        }
        if (flight_ != nullptr) {
          flight_->record(now(), "migration", "node-" + std::to_string(id()),
                          committed ? "migration-commit" : "migration-abort",
                          "vnode=" + std::to_string(vnode));
        }
        done(rep);
      });
  if (!started) {
    done(MigrateVnodeReply{StatusCode::kRefused});
    return;
  }
  *trace = trace_context().trace_id;
  metrics_.counter("rebalance.migrations_accepted").add(1);
  if (flight_ != nullptr) {
    flight_->record(now(), "migration", "node-" + std::to_string(id()),
                    "migration-start",
                    "vnode=" + std::to_string(vnode) +
                        " from=" + std::to_string(from));
  }
}

bool SednaNode::transfer_vnode(
    VnodeId vnode, NodeId expected, std::vector<NodeId> sources,
    std::function<void(const MigrateVnodeReply&)> done) {
  if (!ready_ || expected == id() || migrating_in_.contains(vnode) ||
      metadata_.table().owner(vnode) == id()) {
    return false;
  }
  migrating_in_.insert(vnode);
  auto state = std::make_shared<MigrateVnodeReply>();
  // Trace continuation: a dispatched transfer arrives with the sender's
  // context stamped on the RPC — run as a child span so the whole
  // protocol is one tree rooted at the leader (or the recovering
  // coordinator). Direct invocations (tests, joins) open their own root.
  // No-op while the tracer is off.
  SpanId root = 0;
  if (trace_context().active()) {
    root = begin_span("migration.run", TraceStage::kMigration);
    enter_span(root);
  } else {
    root = begin_trace("rebalance.migration", TraceStage::kMigration).span_id;
  }
  tracer().annotate(root, "vnode=" + std::to_string(vnode) +
                              " from=" + std::to_string(expected));
  const TraceContext mctx = trace_context();
  // Opens a protocol-phase span under the transfer root and makes it
  // current, so each phase's RPCs parent beneath it.
  auto enter_phase = [this, mctx](const char* name) {
    const SpanId s =
        tracer().begin(mctx, name, id(), now(), TraceStage::kMigration);
    if (s != 0) set_trace_context(TraceContext{mctx.trace_id, s});
    return s;
  };
  // `migrating_in_` doubles as the liveness token: on_crash clears it, so
  // any continuation that still fires afterwards (stale RPC callbacks
  // delivered post-restart) must bail out instead of touching the store.
  auto finish = [this, vnode, root, state,
                 done = std::move(done)](bool committed) {
    migrating_in_.erase(vnode);
    end_span(root, committed ? "ok" : "failure");
    set_trace_context({});
    done(*state);
  };
  // Phase 1: bulk snapshot from the first source that can serve it. Every
  // later phase reads from that same source.
  const SpanId snap = enter_phase("migrate.snapshot");
  fetch_vnode_from(
      vnode, std::move(sources),
      [this, vnode, expected, state, finish, enter_phase,
       snap](NodeId source, std::uint64_t bytes) {
        if (!migrating_in_.contains(vnode)) return;
        end_span(snap, source != kInvalidNode ? "ok" : "failure");
        if (source == kInvalidNode) {
          state->status = StatusCode::kUnavailable;
          finish(false);
          return;
        }
        state->bytes += bytes;
        // Phase 2: delta catch-up — writes that landed at the source while
        // the snapshot was in flight.
        const SpanId catchup = enter_phase("migrate.catchup");
        migration_catchup(vnode, source, [this, vnode, expected, source,
                                          state, finish, enter_phase,
                                          catchup](bool caught,
                                                   std::size_t keys) {
          if (!migrating_in_.contains(vnode)) return;
          end_span(catchup, caught ? "ok" : "failure");
          if (!caught) {
            state->status = StatusCode::kUnavailable;
            finish(false);
            return;
          }
          state->items += keys;
          // Phase 3: atomic cutover — re-verify the owner, then CAS the
          // vnode znode to us under its version. The only ownership write.
          const SimTime cut_start = now();
          const SpanId cutover = enter_phase("migrate.cutover");
          // What follows a cutover that committed: journal it, then
          // phase 4, the drain catch-up — writes the source acked between
          // phase 2 and the cutover landing. Best-effort: a miss here is
          // converged later by anti-entropy against the surviving
          // replicas. Then phase 5: invite the ex-owner to drop its copy
          // (it re-checks replica membership before deleting anything).
          auto commit = [this, vnode, expected, source, state, finish,
                         enter_phase, cut_start] {
            state->cutover_us = now() - cut_start;
            append_change_journal(vnode, id(), [this, vnode, expected, source,
                                                state, finish, enter_phase] {
              if (!migrating_in_.contains(vnode)) return;
              const SpanId drain = enter_phase("migrate.drain");
              migration_catchup(
                  vnode, source,
                  [this, vnode, expected, state, finish, drain](
                      bool, std::size_t keys) {
                    if (!migrating_in_.contains(vnode)) return;
                    end_span(drain);
                    state->items += keys;
                    PurgeVnodeRequest purge{vnode, id()};
                    send_oneway(expected, kMsgPurgeVnode, purge.encode());
                    state->status = StatusCode::kOk;
                    finish(true);
                  });
            });
          };
          cas_vnode_owner(
              vnode, expected, id(),
              [this, vnode, state, finish, cutover,
               commit](const CasResult& cas) {
                if (!migrating_in_.contains(vnode)) return;
                switch (cas.outcome) {
                  case CasOutcome::kCommitted:
                    end_span(cutover, "ok");
                    commit();
                    return;
                  case CasOutcome::kGetFailed:
                    end_span(cutover, "failure");
                    // Unknown outcome territory (ZK unreachable): keep the
                    // pulled data — it is never wrong to hold extra
                    // replicas — and let the caller retry later.
                    state->status = StatusCode::kUnavailable;
                    finish(false);
                    return;
                  case CasOutcome::kStale:
                  case CasOutcome::kLost:
                    // Definite no-go: the plan went stale (the slice moved
                    // under the caller's feet) or the CAS lost (the
                    // version moved), so ownership is provably elsewhere.
                    // Drop the pulled copy (unless the walk keeps us as a
                    // successor replica).
                    end_span(cutover, cas.outcome == CasOutcome::kStale
                                          ? "stale"
                                          : "failure");
                    state->status = StatusCode::kRefused;
                    purge_local_vnode(vnode);
                    finish(false);
                    return;
                  case CasOutcome::kAmbiguous:
                    // Timeout / partition: the CAS may have committed on
                    // the other side. KEEP the data — purging here could
                    // orphan acked writes if we are in fact the new owner
                    // — and re-read the znode: a set whose reply was lost
                    // has no journal entry, so no journal sync could ever
                    // surface it. If it names us, finish the commit.
                    end_span(cutover, cas.status.is(StatusCode::kTimeout)
                                          ? "timeout"
                                          : "failure");
                    metadata_.refresh_vnode(vnode, [this, vnode, state,
                                                    finish, commit] {
                      if (!migrating_in_.contains(vnode)) return;
                      if (metadata_.table().owner(vnode) == id()) {
                        commit();
                        return;
                      }
                      state->status = StatusCode::kUnavailable;
                      finish(false);
                    });
                    return;
                }
              });
        });
      });
  return true;
}

void SednaNode::migration_catchup(VnodeId vnode, NodeId source,
                                  std::function<void(bool, std::size_t)> done) {
  request_digest(vnode, source,
                 [this, vnode, source, done = std::move(done)](
                     const Result<VnodeDigestReply>& rep) {
                   if (!rep.ok()) {
                     done(false, 0);
                     return;
                   }
                   if (rep->match) {
                     done(true, 0);
                     return;
                   }
                   // Pull-only: the source stays authoritative until
                   // cutover, so the pushes are dropped. A truncated reply
                   // leaves a remainder for the drain pass (and ultimately
                   // anti-entropy) to cover.
                   const VnodeDelta delta = diff_vnode(vnode, *rep);
                   const std::size_t pulled = delta.pulls.size();
                   metrics_.counter("rebalance.catchup_keys").add(pulled);
                   pull_keys(source, delta.pulls,
                             [done, pulled] { done(true, pulled); });
                 });
}

void SednaNode::handle_vnode_digest(const sim::Message& msg,
                                    VnodeDigestRequest req) {
  if (!ready_ || !store_->digests_enabled()) {
    reply_status<VnodeDigestReply>(msg, StatusCode::kUnavailable);
    return;
  }
  metrics_.counter("antientropy.digest_serves").add(1);
  VnodeDigestReply rep;
  const auto local = store_->digest_buckets(req.vnode);
  if (local.size() == req.buckets.size() &&
      store_->digest_root(req.vnode) == req.root) {
    rep.match = true;
    instant_span("antientropy.digest_match", "ok", TraceStage::kRepair);
    reply(msg, rep.encode());
    return;
  }
  // A bucket-count mismatch marks every bucket divergent.
  const bool same_shape = local.size() == req.buckets.size();
  std::set<std::uint32_t> mismatched;
  for (std::uint32_t b = 0; b < local.size(); ++b) {
    if (!same_shape || local[b] != req.buckets[b]) mismatched.insert(b);
  }
  // Summaries in store visit order, each tagged with its bucket. Past the
  // key cap, list whole mismatched buckets, lowest first, while they fit,
  // and name only those: the initiator reconciles every key of a listed
  // bucket, so the next round's mismatch set drops it and the listing
  // moves on. A first bucket over the cap alone is listed up to the cap.
  std::vector<std::pair<std::uint32_t, KeySummary>> found;
  const auto n = static_cast<std::uint32_t>(local.size());
  for_each_in_vnode(req.vnode, &mismatched,
                    [&found, n](const store::Item& item) {
                      KeySummary ks;
                      ks.key = item.key;
                      ks.has_latest = item.has_latest;
                      ks.latest_ts = item.has_latest ? item.latest.ts : 0;
                      ks.list_digest = store::LocalStore::value_list_digest(
                          item.value_list);
                      if (!item.causal.empty()) {
                        ks.causal_digest = item.causal.digest();
                      }
                      found.emplace_back(item.digest_cell % n, std::move(ks));
                    });
  std::set<std::uint32_t> listed;
  if (found.size() <= kAntiEntropyMaxKeys) {
    listed = std::move(mismatched);
  } else {
    std::vector<std::size_t> per_bucket(n, 0);
    for (const auto& [b, ks] : found) ++per_bucket[b];
    std::size_t fits = 0;
    for (const std::uint32_t b : mismatched) {
      if (!listed.empty() && fits + per_bucket[b] > kAntiEntropyMaxKeys) {
        break;
      }
      listed.insert(b);
      fits += per_bucket[b];
    }
    rep.truncated = true;
  }
  rep.mismatched.assign(listed.begin(), listed.end());
  for (auto& [b, ks] : found) {
    if (rep.keys.size() >= kAntiEntropyMaxKeys) break;
    if (listed.contains(b)) rep.keys.push_back(std::move(ks));
  }
  instant_span("antientropy.digest_mismatch", "ok", TraceStage::kRepair);
  reply(msg, rep.encode());
}

}  // namespace sedna::cluster
