// SednaClient: the client-side library (paper Section III.F APIs).
//
// A client host carries the same metadata machinery as a server — ZooKeeper
// session plus lease-cached vnode table — so it can route each request in
// zero hops straight to the key's primary replica, which coordinates the
// quorum (Section VII: "each node caches enough routing information locally
// to route a request to the appropriate node directly").
//
// API surface = the paper's four calls:
//   write_latest(k, v)  → ok | outdated | failure
//   write_all(k, v)     → ok | outdated | failure   (source = this client)
//   read_latest(k)      → freshest value regardless of writer
//   read_all(k)         → the full per-source value list
//
// Every call, causal ones included, runs through one attempt driver
// (run_attempt): the same coordinator choice, deadline check, retryable-
// status test, retry budget, metadata re-sync and backoff for reads and
// writes. A read differs only in its message type and counter names, and
// in the stale-read accounting its caller adds on top.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "cluster/metadata.h"
#include "cluster/protocol.h"
#include "common/metrics.h"
#include "sim/host.h"
#include "store/item.h"
#include "zk/zk_client.h"

namespace sedna::cluster {

struct SednaClientConfig {
  std::vector<NodeId> zk_ensemble;
  /// Attempts per operation; each retry targets the next replica as
  /// coordinator after refreshing the metadata cache.
  int max_attempts = 3;
  /// Client-side deadline per attempt. Must comfortably exceed the
  /// coordinator's replica RPC timeout: the coordinator may legitimately
  /// take one full replica timeout to settle a quorum when a replica is
  /// dead, and the client must still be listening when the answer comes.
  SimDuration op_timeout_us = 250 * 1000;
  /// Seeded exponential backoff before retry k: ~initial·2^(k-1), capped
  /// at the max, with ±`retry_backoff_jitter` fractional spread so a herd
  /// of clients retrying into a degraded coordinator decorrelates.
  /// 0 restores the old behavior (retry immediately after the metadata
  /// sync).
  SimDuration retry_backoff_initial_us = 2000;
  SimDuration retry_backoff_max_us = 100 * 1000;
  double retry_backoff_jitter = 0.25;
  /// Whole-operation deadline (all attempts + backoffs). When set, every
  /// request message is stamped with `now + op_deadline_us` so any host on
  /// the path sheds the work once it cannot finish in time, each attempt's
  /// RPC timeout is clamped to the remaining budget, and an op whose
  /// deadline passes between attempts fails with kTimeout instead of
  /// burning another attempt. 0 disables (legacy behavior).
  SimDuration op_deadline_us = 0;
  /// Client-side adaptive retry budget (token bucket): every retry —
  /// whatever provoked it — spends one token; every successfully settled
  /// operation refills `retry_budget_refill` tokens up to the capacity.
  /// With refill r, steady-state retries cannot exceed an r fraction of
  /// fresh traffic, which is what keeps a saturated cluster from being
  /// driven metastable by its own retries. An op that wants to retry with
  /// an empty bucket fails fast with kOverloaded. Capacity 0 disables
  /// (legacy unbudgeted retries).
  double retry_budget_capacity = 0.0;
  double retry_budget_refill = 0.1;
  zk::ZkClientConfig zk_client;
  sim::HostConfig host;
};

class SednaClient : public sim::Host {
 public:
  using ReadyCallback = std::function<void(const Status&)>;
  using WriteCallback = std::function<void(const Status&)>;
  using ReadLatestCallback =
      std::function<void(const Result<store::VersionedValue>&)>;
  using ReadAllCallback =
      std::function<void(const Result<std::vector<store::SourceValue>>&)>;

  SednaClient(sim::Network& net, NodeId id, SednaClientConfig config);

  /// Connects the session and loads the vnode table.
  void start(ReadyCallback on_ready);
  [[nodiscard]] bool ready() const { return ready_; }

  // ---- causal versioning (DVV) ------------------------------------------

  /// One causal read: the concurrent sibling frontier (one entry when the
  /// key is conflict-free) plus the read context to thread into the next
  /// put_causal so it supersedes everything this read saw.
  struct CausalRead {
    std::vector<store::Sibling> siblings;
    store::VersionVector ctx;
    bool stale = false;
  };
  using GetCausalCallback = std::function<void(const Result<CausalRead>&)>;
  /// put_causal outcome: status + the post-write clock (the caller's next
  /// write context; empty on failure).
  using PutCausalCallback =
      std::function<void(const Status&, const store::VersionVector&)>;
  /// Picks the index of the winning sibling from a conflict set (size
  /// >= 2). Unset = the default LWW resolver, which orders by
  /// (ts, value hash, value, dot) — byte-identical behavior to the
  /// timestamp path for every existing workload.
  using ConflictResolver =
      std::function<std::size_t(const std::vector<store::Sibling>&)>;

  /// Causal put: `ctx` is the clock from the caller's last get_causal of
  /// this key (empty for a blind put). The coordinator prunes the
  /// siblings the context covers and mints a fresh dot, so two writers
  /// racing from the same context produce two siblings — neither is lost.
  void put_causal(const std::string& key, const std::string& value,
                  const store::VersionVector& ctx, PutCausalCallback cb);
  /// Causal get: quorum-joined record as sibling list + read context.
  void get_causal(const std::string& key, GetCausalCallback cb);
  /// Applies the configured conflict resolver to a sibling read; counts
  /// client.conflicts_resolved when the set held real concurrency.
  /// Returns a default-constructed Sibling on an empty set.
  [[nodiscard]] store::Sibling resolve(const CausalRead& read);
  void set_conflict_resolver(ConflictResolver r) {
    resolver_ = std::move(r);
  }

  void write_latest(const std::string& key, const std::string& value,
                    WriteCallback cb);
  /// write_latest with a relative expiry (microseconds; 0 = never):
  /// every replica drops the value once the TTL lapses.
  void write_latest_ttl(const std::string& key, const std::string& value,
                        std::uint64_t ttl_us, WriteCallback cb);
  void write_all(const std::string& key, const std::string& value,
                 WriteCallback cb);
  void read_latest(const std::string& key, ReadLatestCallback cb);
  void read_all(const std::string& key, ReadAllCallback cb);

  /// Pipelined batch variants: all operations are issued concurrently
  /// (each still routed to its own key's coordinator); the callback fires
  /// once with the per-key outcomes in input order. Throughput-oriented
  /// realtime ingest (crawlers, event firehoses) should prefer these —
  /// a closed loop per key wastes a full round trip per datum.
  using BatchWriteCallback =
      std::function<void(const std::vector<Status>&)>;
  using BatchReadCallback = std::function<void(
      const std::vector<Result<store::VersionedValue>>&)>;

  void write_latest_batch(
      const std::vector<std::pair<std::string, std::string>>& entries,
      BatchWriteCallback cb);
  void read_latest_batch(const std::vector<std::string>& keys,
                         BatchReadCallback cb);

  /// Prefix scan across the cluster (extension — the paper has no
  /// enumeration API): scatter to every data node, gather the primary
  /// keys under `prefix`, return them sorted. `truncated` reports
  /// per-node limit overflow.
  struct ScanResult {
    std::vector<std::string> keys;
    bool truncated = false;
  };
  using ScanCallback = std::function<void(const Result<ScanResult>&)>;
  void scan(const std::string& prefix, ScanCallback cb,
            std::uint32_t per_node_limit = 1000);

  [[nodiscard]] MetadataCache& metadata() { return metadata_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }
  [[nodiscard]] Timestamp next_ts();

 protected:
  void on_message(const sim::Message& msg) override;
  [[nodiscard]] std::string rpc_span_name(
      sim::MessageType type) const override;
  [[nodiscard]] TraceStage rpc_span_stage(
      sim::MessageType type) const override;

 private:
  template <typename Rep>
  using ReplyCallback = std::function<void(const Result<Rep>&)>;

  /// What a read attempt and a write attempt differ in. Counter names are
  /// looked up on first use, so an op that never retries or fails adds no
  /// zero-valued row to the metric dumps.
  struct AttemptKind {
    sim::MessageType type;
    const char* span_prefix;  // + attempt number
    const char* exhausted;    // status text when every attempt failed
    const char* retries;
    const char* failures;
    MetricHandle<Counter> SednaClient::*successes;
    MetricHandle<Histogram> SednaClient::*latency;
  };
  static const AttemptKind kWriteKind;
  static const AttemptKind kReadKind;
  static const AttemptKind& kind_of(const WriteRequest&) { return kWriteKind; }
  static const AttemptKind& kind_of(const ReadRequest&) { return kReadKind; }

  /// The one attempt driver for reads and writes: picks attempt k's
  /// coordinator, gives up once the op deadline has passed, opens the
  /// attempt span, and on a retryable answer (or a timeout) spends a retry
  /// token, re-syncs the metadata, backs off and tries the next replica.
  template <typename Rep, typename Req>
  void run_attempt(Req req, int attempt, SimTime deadline,
                   ReplyCallback<Rep> cb);
  /// One public op: opens its root span, runs the driver from attempt 0
  /// under the op deadline, then records the op latency and closes the
  /// span with the final status code. `cb` takes a `const Result<Rep>&`;
  /// it is held by value, so an op builds one std::function, not one per
  /// wrapper layer.
  template <typename Rep, typename Req, typename Callback>
  void submit(Req req, const char* op, Callback cb);
  /// submit for writes whose caller wants only the status.
  void submit_write(WriteRequest req, const char* op, WriteCallback cb);
  /// submit for reads, plus the stale-read and staleness-bound accounting.
  template <typename Callback>
  void submit_read(ReadRequest req, const char* op, Callback cb);
  /// A write of `value` from this client, stamped with a fresh timestamp.
  [[nodiscard]] WriteRequest make_write(WriteMode mode,
                                        const std::string& key,
                                        const std::string& value);

  /// Absolute deadline for an op starting now (0 when deadlines are off).
  [[nodiscard]] SimTime op_deadline() const {
    return config_.op_deadline_us == 0 ? 0 : now() + config_.op_deadline_us;
  }
  /// Attempt-level RPC timeout clamped to the remaining deadline budget.
  [[nodiscard]] SimDuration attempt_timeout(SimTime deadline) const {
    if (deadline == 0 || deadline <= now()) return config_.op_timeout_us;
    return std::min<SimDuration>(config_.op_timeout_us, deadline - now());
  }
  /// Charges one token for a retry; false = bucket empty, fail fast.
  [[nodiscard]] bool spend_retry_token();
  void refill_retry_budget();

  /// Coordinator choice for attempt k: the k-th replica of the key.
  [[nodiscard]] NodeId coordinator_for(const std::string& key,
                                       int attempt) const;

  /// Draws the jittered wait before `next_attempt` and records it in the
  /// client.retry_backoff_us histogram.
  [[nodiscard]] SimDuration retry_backoff(int next_attempt);

  /// Opens the span for one attempt, `prefix` + attempt number; builds
  /// the name only while the tracer is on.
  SpanId attempt_span(const char* prefix, int attempt);

  SednaClientConfig config_;
  zk::ZkClient zk_;
  MetadataCache metadata_;
  MetricRegistry metrics_;
  // Per-op metrics, resolved once.
  MetricHandle<Counter> writes_{metrics_, "client.writes"};
  MetricHandle<Counter> reads_{metrics_, "client.reads"};
  MetricHandle<Histogram> write_latency_{metrics_, "client.write_latency_us"};
  MetricHandle<Histogram> read_latency_{metrics_, "client.read_latency_us"};
  bool ready_ = false;
  std::uint16_t write_seq_ = 0;
  /// Retry-budget token bucket; starts full so a cold client can still
  /// ride out an unlucky first op.
  double retry_tokens_ = 0.0;
  /// Sibling conflict resolver; empty = default LWW winner.
  ConflictResolver resolver_;
};

}  // namespace sedna::cluster
