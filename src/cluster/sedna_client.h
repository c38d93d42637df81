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
// (send_attempt / on_answer): the same coordinator choice, deadline check,
// retryable-status test, retry budget, metadata re-sync and backoff for
// reads and writes. A read differs only in its message type and counter
// names, and in the stale-read accounting its caller adds on top. Each
// open op lives in one slot of its kind's table; RPC callbacks and timers
// capture only the slot reference.
//
// Hedged attempts. A dead coordinator stays in the vnode table until
// recovery's CAS reaches the client's lease sync, so attempt 0 would wait
// out the whole op_timeout_us against it before retrying. Instead, an
// attempt 0 still unanswered after the client's recent p99 latency for
// that op kind (kHedgeQuantile) is *hedged*: the same request, its
// timestamp still pinned, goes to the key's next replica, and the first
// answer that is not retryable completes the op (Dean & Barroso, "The
// Tail at Scale"). A hedge spends one retry-budget token and is not sent
// when the bucket is empty.
//
// The delay comes from each lane's LatencyWindow, not from the lifetime
// client.{read,write}_latency_us histograms. Its samples are the ops that
// ended on attempt 0's own answer, hedged or not; hedge wins and retried
// ops are left out, so time spent routing around a dead coordinator never
// raises the delay that routes around it. A window half retires once it
// spans kHedgeWindow and holds kHedgeSampleFloor samples: a busy client
// forgets an old regime (a preload burst, say) within a second or two, an
// idle one keeps its last window, and one with fewer than
// kHedgeSampleFloor samples does not hedge.
//
// Reads and LWW writes (write_latest, write_latest_ttl, write_all) hedge;
// an LWW replay with the same timestamp and value is an idempotent kOk at
// every replica. Causal puts do not: the coordinator that serves an
// attempt mints the dot, so two served attempts would leave two siblings
// for one client write. Retries after a failed attempt are unchanged.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/metadata.h"
#include "cluster/protocol.h"
#include "common/inline_function.h"
#include "common/metrics.h"
#include "common/ring_queue.h"
#include "common/slot_table.h"
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
  /// at SednaClient::kRetryBackoffMaxUs, with ±kRetryBackoffJitter
  /// fractional spread so a herd of clients retrying into a degraded
  /// coordinator decorrelates. 0 restores the old behavior (retry
  /// immediately after the metadata sync).
  SimDuration retry_backoff_initial_us = 2000;
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

  /// Cap on the exponential retry backoff, and its ± fractional jitter.
  static constexpr SimDuration kRetryBackoffMaxUs = 100 * 1000;
  static constexpr double kRetryBackoffJitter = 0.25;
  /// An attempt 0 is hedged once it has gone this quantile of the client's
  /// recent first-attempt latency for its op kind without an answer ...
  static constexpr double kHedgeQuantile = 0.99;
  /// ... and only once that recent window holds this many samples. A
  /// window half retires once it holds this many and spans kHedgeWindow.
  static constexpr std::uint64_t kHedgeSampleFloor = 100;
  static constexpr SimDuration kHedgeWindow = 1000 * 1000;

  SednaClient(sim::Network& net, NodeId id, SednaClientConfig config);
  ~SednaClient() override;

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

  /// Causal put: `ctx` is the clock from the caller's last get_causal of
  /// this key (empty for a blind put). The coordinator prunes the
  /// siblings the context covers and mints a fresh dot, so two writers
  /// racing from the same context produce two siblings — neither is lost.
  void put_causal(const std::string& key, const std::string& value,
                  const store::VersionVector& ctx, PutCausalCallback cb);
  /// Causal get: quorum-joined record as sibling list + read context.
  void get_causal(const std::string& key, GetCausalCallback cb);
  /// The sibling read's deterministic LWW winner, ordered by (ts, value
  /// hash, value, dot); counts client.conflicts_resolved when the set held
  /// real concurrency. Returns a default-constructed Sibling on an empty
  /// set.
  [[nodiscard]] store::Sibling resolve(const CausalRead& read);

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

 protected:
  void on_message(const sim::Message& msg) override;
  [[nodiscard]] sim::MessageTraits message_traits(
      sim::MessageType type) const override {
    return cluster::message_traits(type);
  }

 private:
  /// An op's final-answer callback: move-only, and stored inline, so an
  /// op's wrapped user callback costs no allocation.
  template <typename Rep>
  using ReplyCallback = InlineFunction<void(const Result<Rep>&)>;

  /// One client op from submit to its final answer.
  template <typename Req, typename Rep>
  struct Op {
    Req req;
    ReplyCallback<Rep> cb;
    TraceContext root;  // the op's root span; parent of its attempt spans
    SimTime started = 0;
    SimTime deadline = 0;  // absolute op deadline, 0 = none
    SimTime sent = 0;      // when attempt 0 went out: the hedge clock
    NodeId first = kInvalidNode;  // attempt 0's coordinator
    /// Open attempt spans: [0] the current attempt, [1] its hedge.
    std::array<SpanId, 2> spans{};
    int attempt = 0;        // highest attempt number sent
    std::uint8_t open = 0;  // attempts still awaiting an answer
    bool retried = false;   // a retry has gone out (a hedge is not one)
    /// Queued for a hedge: attempt 0 is out, unanswered and unhedged.
    bool hedge_due = false;
  };

  /// Everything one op kind (reads or writes) keeps: what its attempts
  /// differ in, its metrics (resolved on first use, so an op that never
  /// retries or fails adds no zero-valued row to the dumps), its open ops,
  /// its recent first-attempt latency and its hedge queue.
  template <typename Req, typename Rep>
  struct Lane {
    using Ref = typename SlotTable<Op<Req, Rep>>::Ref;
    Lane(MetricRegistry& metrics, sim::MessageType type,
         const char* span_prefix, const char* exhausted,
         const char* successes, const char* retries, const char* failures,
         const char* latency)
        : type(type),
          span_prefix(span_prefix),
          exhausted(exhausted),
          successes(metrics, successes),
          retries(metrics, retries),
          failures(metrics, failures),
          latency(metrics, latency) {}
    sim::MessageType type;
    const char* span_prefix;  // + attempt number
    const char* exhausted;    // status text when every attempt failed
    MetricHandle<Counter> successes;
    MetricHandle<Counter> retries;
    MetricHandle<Counter> failures;
    MetricHandle<Histogram> latency;
    SlotTable<Op<Req, Rep>> ops;
    /// Latency of ops that ended on attempt 0's own answer; the hedge
    /// delay is its kHedgeQuantile.
    LatencyWindow recent{kHedgeWindow, kHedgeSampleFloor};
    /// Ops whose attempt 0 may still be hedged, in send order. Entries
    /// whose op has since been answered are dropped when they reach the
    /// front.
    RingQueue<Ref> hedge_queue;
    /// Armed for the front entry while the queue holds a due one, with
    /// the delay it was armed with.
    sim::TimerHandle hedge_timer;
    SimDuration hedge_delay = 0;

    /// Whether a queue entry's op is still waiting for its hedge.
    bool due(Ref ref) { return ops.live(ref) && ops[ref.slot].hedge_due; }
  };
  using ReadLane = Lane<ReadRequest, ReadReply>;
  using WriteLane = Lane<WriteRequest, WriteReply>;
  ReadLane& lane_of(const ReadRequest&) { return reads_; }
  WriteLane& lane_of(const WriteRequest&) { return writes_; }

  /// Sends attempt `attempt` of the op in `ref`: picks the coordinator,
  /// gives up once the op deadline has passed, opens the attempt span and
  /// queues attempt 0 for a hedge when the op may be hedged.
  template <typename Req, typename Rep>
  void send_attempt(Lane<Req, Rep>& lane, typename Lane<Req, Rep>::Ref ref,
                    int attempt);
  /// Opens the span of the op's latest attempt under the current context
  /// and sends its request to `coordinator`; `hedge` marks attempt 0's
  /// hedge, which keeps its own span and answer slot.
  template <typename Req, typename Rep>
  void dispatch(Lane<Req, Rep>& lane, typename Lane<Req, Rep>::Ref ref,
                NodeId coordinator, bool hedge);
  /// An attempt's answer (`hedge`: from the hedge). The first answer that
  /// is not retryable completes the op; a retryable one waits for the
  /// other attempt if one is still out, else spends a retry token,
  /// re-syncs the metadata, backs off and tries the next replica.
  template <typename Req, typename Rep>
  void on_answer(Lane<Req, Rep>& lane, typename Lane<Req, Rep>::Ref ref,
                 bool hedge, const Result<Rep>& rep);
  /// Ends the op: records its latency, closes its root span with the final
  /// status code, frees its slot, then runs its callback.
  template <typename Req, typename Rep>
  void finish(Lane<Req, Rep>& lane, typename Lane<Req, Rep>::Ref ref,
              const std::type_identity_t<Result<Rep>>& rep);

  /// Whether an op of this request may be hedged: every read, and every
  /// write but a causal put.
  static bool hedgeable(const ReadRequest&) { return true; }
  static bool hedgeable(const WriteRequest& req) {
    return req.causal_tag == WriteRequest::kCausalNone;
  }
  /// Takes the op in `ref` off the hedge queue once attempt 0 answered.
  template <typename Req, typename Rep>
  void cancel_hedge(Lane<Req, Rep>& lane, typename Lane<Req, Rep>::Ref ref);
  /// Drops answered entries off the queue's front and arms the timer for
  /// the first due one, with the lane's recent p99 as the delay.
  template <typename Req, typename Rep>
  void arm_hedge(Lane<Req, Rep>& lane);
  /// The timer: hedges every queued op that has waited out the delay.
  template <typename Req, typename Rep>
  void fire_hedges(Lane<Req, Rep>& lane);
  /// Sends the hedge of the op in `ref` to its key's next replica, unless
  /// that is attempt 0's coordinator again (a one-replica key), the op
  /// deadline has passed or the budget is empty.
  template <typename Req, typename Rep>
  void send_hedge(Lane<Req, Rep>& lane, typename Lane<Req, Rep>::Ref ref);

  /// One public op: opens its root span and runs the driver from attempt
  /// 0 under the op deadline. `cb` takes a `const Result<Rep>&`.
  template <typename Req, typename Callback>
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
  /// Takes one token; false = bucket empty. Counts nothing.
  [[nodiscard]] bool take_retry_token();
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
  ReadLane reads_{metrics_,
                  kMsgClientRead,
                  "client.read.attempt#",
                  "read attempts exhausted",
                  "client.reads",
                  "client.read_retries",
                  "client.read_failures",
                  "client.read_latency_us"};
  WriteLane writes_{metrics_,
                    kMsgClientWrite,
                    "client.write.attempt#",
                    "write attempts exhausted",
                    "client.writes",
                    "client.write_retries",
                    "client.write_failures",
                    "client.write_latency_us"};
  // Client metrics outside the lanes, resolved on first use.
  MetricHandle<Counter> hedges_{metrics_, "client.hedges"};
  MetricHandle<Counter> hedge_wins_{metrics_, "client.hedge_wins"};
  MetricHandle<Counter> budget_sheds_{metrics_, "node.shed.retry_budget"};
  MetricHandle<Histogram> retry_backoff_{metrics_, "client.retry_backoff_us"};
  MetricHandle<Counter> stale_reads_{metrics_, "client.stale_reads"};
  MetricHandle<Histogram> staleness_bound_{metrics_,
                                           "client.staleness_bound_us"};
  MetricHandle<Counter> stale_unbounded_{metrics_, "client.stale_unbounded"};
  MetricHandle<Counter> sibling_reads_{metrics_, "client.sibling_reads"};
  MetricHandle<Counter> conflicts_resolved_{metrics_,
                                            "client.conflicts_resolved"};
  bool ready_ = false;
  /// Retry-budget token bucket; starts full so a cold client can still
  /// ride out an unlucky first op.
  double retry_tokens_ = 0.0;
};

}  // namespace sedna::cluster
