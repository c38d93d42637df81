// End-to-end tracing: span trees recorded for client operations must have
// the right shape — correct parentage across client → coordinator →
// replicas, and the failure machinery (replica timeout, client retry,
// read repair) visible as spans when a replica set is degraded.
//
// Also covered here: the critical-path analyzer (per-stage attribution
// telescopes to the end-to-end latency, failure reclassification, cause
// inheritance), the two-tier retention policy (recent ring + slowest-K
// reservoir, eviction counters, span cap), exemplar-linked histograms,
// the inspector's attribution surfaces, and migration trace propagation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cluster/admin.h"
#include "cluster/protocol.h"
#include "cluster/sedna_cluster.h"
#include "common/critical_path.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace sedna::cluster {
namespace {

SednaClusterConfig small_config(std::uint64_t seed) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 128;
  cfg.seed = seed;
  return cfg;
}

/// Spans of one trace, in span-id (event) order.
std::vector<Span> trace_spans(const Tracer& tracer, TraceId trace) {
  std::vector<Span> out;
  for (const Span& s : tracer.spans()) {
    if (s.trace_id == trace) out.push_back(s);
  }
  return out;
}

const Span* find_span(const std::vector<Span>& spans,
                      const std::string& name) {
  for (const Span& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const Span*> children_of(const std::vector<Span>& spans,
                                     SpanId parent) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (s.parent == parent) out.push_back(&s);
  }
  return out;
}

TEST(Tracing, HealthyWriteAndReadSpanTrees) {
  SednaCluster cluster(small_config(42));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  Tracer& tracer = cluster.sim().tracer();
  tracer.set_enabled(true);

  ASSERT_TRUE(cluster.write_latest(client, "traced", "v1").ok());

  // ---- write trace: client root → attempt → RPC → coordinator fan-out.
  {
    const auto& all = tracer.spans();
    ASSERT_FALSE(all.empty());
    const TraceId trace = all.front().trace_id;
    const auto spans = trace_spans(tracer, trace);

    const Span* root = find_span(spans, "client.write_latest");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->parent, 0u);
    EXPECT_EQ(root->node, client.id());
    EXPECT_EQ(root->status, "ok");

    const Span* attempt = find_span(spans, "client.write.attempt#0");
    ASSERT_NE(attempt, nullptr);
    EXPECT_EQ(attempt->parent, root->id);
    EXPECT_EQ(attempt->status, "ok");

    const Span* rpc = find_span(spans, "rpc.client_write");
    ASSERT_NE(rpc, nullptr);
    EXPECT_EQ(rpc->parent, attempt->id);
    EXPECT_EQ(rpc->node, client.id());  // RPC span lives on the caller
    EXPECT_EQ(rpc->status, "ok");

    const Span* coord = find_span(spans, "coord.write");
    ASSERT_NE(coord, nullptr);
    EXPECT_EQ(coord->parent, rpc->id);
    EXPECT_NE(coord->node, client.id());
    EXPECT_EQ(coord->status, "ok");

    // N=3 replicas: the coordinator applies locally and calls the other
    // two; each remote apply shows up as a replica.write on that node.
    const auto coord_kids = children_of(spans, coord->id);
    int local = 0, remote = 0;
    for (const Span* k : coord_kids) {
      if (k->name == "coord.local_write") ++local;
      if (k->name == "rpc.replica_write") ++remote;
    }
    EXPECT_EQ(local, 1);
    EXPECT_EQ(remote, 2);
    int applied = 0;
    for (const Span& s : spans) {
      if (s.name == "replica.write") {
        ++applied;
        EXPECT_EQ(s.status, "ok");
      }
    }
    EXPECT_EQ(applied, 2);

    // The whole exchange is causally ordered on the virtual clock.
    EXPECT_LE(root->start_us, coord->start_us);
    EXPECT_LE(coord->end_us, root->end_us);
  }

  // ---- read trace: same shape on the read path.
  const TraceId before_read = tracer.last_trace_id();
  auto got = cluster.read_latest(client, "traced");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v1");
  {
    const auto spans = trace_spans(tracer, before_read + 1);
    const Span* root = find_span(spans, "client.read_latest");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->status, "ok");
    const Span* attempt = find_span(spans, "client.read.attempt#0");
    ASSERT_NE(attempt, nullptr);
    EXPECT_EQ(attempt->status, "ok");
    const Span* coord = find_span(spans, "coord.read");
    ASSERT_NE(coord, nullptr);
    EXPECT_EQ(coord->status, "ok");
    // Healthy cluster: no retry attempt, no repair, no suspicion.
    EXPECT_EQ(find_span(spans, "client.read.attempt#1"), nullptr);
    EXPECT_EQ(find_span(spans, "coord.read_repair"), nullptr);
    EXPECT_EQ(find_span(spans, "failure.suspect"), nullptr);
  }
}

TEST(Tracing, CrashedReplicaReadShowsTimeoutRetryAndRepair) {
  SednaClusterConfig cfg = small_config(7);
  // This test hollows a replica via crash+restart to force a read
  // repair; restart hydration would refill it before it can answer
  // "not found", so keep it off here.
  cfg.node_template.restart_hydration = false;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  // Find a key whose three replicas are distinct nodes.
  const auto& table = client.metadata().table();
  std::string key;
  std::vector<NodeId> replicas;
  for (int i = 0; i < 1000; ++i) {
    std::string candidate = "rkey-" + std::to_string(i);
    auto reps = table.replicas_for_key(candidate);
    if (reps.size() == 3 && reps[0] != reps[1] && reps[1] != reps[2] &&
        reps[0] != reps[2]) {
      key = std::move(candidate);
      replicas.assign(reps.begin(), reps.end());
      break;
    }
  }
  ASSERT_FALSE(key.empty());
  auto index_of = [&](NodeId id) {
    for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
      if (cluster.node(i).id() == id) return i;
    }
    return static_cast<std::size_t>(-1);
  };

  ASSERT_TRUE(cluster.write_latest(client, key, "precious").ok());

  // Hollow the third replica: crash+restart wipes its RAM store but
  // leaves it registered and serving (it will answer "not found").
  cluster.crash_node(index_of(replicas[2]));
  cluster.restart_node(index_of(replicas[2]));
  // Kill the primary outright: attempt#0 routes to it and must time out.
  cluster.crash_node(index_of(replicas[0]));

  Tracer& tracer = cluster.sim().tracer();
  tracer.set_enabled(true);

  auto got = cluster.read_latest(client, key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "precious");
  // The client settles before the repair's replica write round-trips;
  // run on a little so the repair span closes.
  cluster.run_for(sim_ms(50));

  const auto spans = trace_spans(tracer, 1);
  const Span* root = find_span(spans, "client.read_latest");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->status, "ok");

  // Attempt #0 targeted the dead primary and timed out client-side.
  const Span* a0 = find_span(spans, "client.read.attempt#0");
  ASSERT_NE(a0, nullptr);
  EXPECT_EQ(a0->parent, root->id);
  EXPECT_EQ(a0->status, "timeout");
  const auto a0_kids = children_of(spans, a0->id);
  ASSERT_FALSE(a0_kids.empty());
  EXPECT_EQ(a0_kids.front()->name, "rpc.client_read");
  EXPECT_EQ(a0_kids.front()->status, "timeout");

  // Attempt #1 is a sibling of #0 (both parent to the op root) and went
  // to the second replica, which coordinated successfully.
  const Span* a1 = find_span(spans, "client.read.attempt#1");
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a1->parent, root->id);
  EXPECT_EQ(a1->status, "ok");

  const Span* coord = nullptr;
  for (const Span& s : spans) {
    if (s.name == "coord.read" && s.status == "ok") coord = &s;
  }
  ASSERT_NE(coord, nullptr);
  EXPECT_EQ(coord->node, replicas[1]);

  // The coordinator's fan-out to the dead primary timed out...
  bool replica_timeout = false;
  for (const Span* k : children_of(spans, coord->id)) {
    if (k->name == "rpc.replica_read" && k->status == "timeout") {
      replica_timeout = true;
    }
  }
  EXPECT_TRUE(replica_timeout);

  // ...and the hollowed replica's stale answer triggered read repair,
  // pushing the fresh value back via a replica write under the repair
  // span — all within the same trace.
  const Span* repair = find_span(spans, "coord.read_repair");
  ASSERT_NE(repair, nullptr);
  EXPECT_EQ(repair->parent, coord->id);
  EXPECT_EQ(repair->status, "ok");
  bool repair_write = false;
  for (const Span* k : children_of(spans, repair->id)) {
    if (k->name == "rpc.replica_write") repair_write = true;
  }
  EXPECT_TRUE(repair_write);

  // The rendered tree carries the same story for operators.
  ClusterInspector inspector(cluster);
  const std::string report = inspector.trace_report();
  EXPECT_NE(report.find("client.read_latest"), std::string::npos);
  EXPECT_NE(report.find("timeout"), std::string::npos);
  EXPECT_NE(report.find("coord.read_repair"), std::string::npos);
}

// ---- critical-path analyzer --------------------------------------------

TEST(CriticalPath, TelescopesReclassifiesAndInheritsCauses) {
  Tracer t;
  t.set_enabled(true);
  // root (service) [0,1000]
  //   A (net)     [0,300]
  //   B (zk)      [300,500] with a service grandchild [350,450]
  //   C (service) [500,900] ended "timeout" -> reclassified as retry
  const TraceContext root = t.start_trace("op", 1, 0, TraceStage::kService);
  const SpanId a = t.begin(root, "a", 1, 0, TraceStage::kNet);
  t.end(a, 300);
  const SpanId b = t.begin(root, "b", 1, 300, TraceStage::kZk);
  const SpanId g = t.begin(TraceContext{root.trace_id, b}, "g", 2, 350,
                           TraceStage::kService);
  t.end(g, 450);
  t.end(b, 500);
  const SpanId c = t.begin(root, "c", 1, 500, TraceStage::kService);
  t.end(c, 900, "timeout");
  t.end(root.span_id, 1000);

  const Tracer::TraceRecord* rec = t.trace(root.trace_id);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->finished);
  const StageBreakdown bd = attribute_trace(rec->spans);
  EXPECT_EQ(bd.total_us, 1000u);
  EXPECT_EQ(bd.stage_us(TraceStage::kNet), 300u);
  // The zk cause taints its service grandchild: all 200us are zk time.
  EXPECT_EQ(bd.stage_us(TraceStage::kZk), 200u);
  // The timeout reclassifies C's 400us as retry time.
  EXPECT_EQ(bd.stage_us(TraceStage::kRetry), 400u);
  // Root's own gap [900,1000].
  EXPECT_EQ(bd.stage_us(TraceStage::kService), 100u);
  // Attribution telescopes exactly: nothing unattributed, coverage 1.
  EXPECT_EQ(bd.unattributed_us(), 0u);
  EXPECT_DOUBLE_EQ(bd.coverage(), 1.0);
  EXPECT_EQ(bd.dominant(), TraceStage::kRetry);
}

TEST(CriticalPath, UnknownStageTimeIsReportedNotDropped) {
  Tracer t;
  t.set_enabled(true);
  const TraceContext root = t.start_trace("op", 1, 0, TraceStage::kService);
  const SpanId mystery = t.begin(root, "mystery", 1, 0);  // kUnknown
  t.end(mystery, 90);
  t.end(root.span_id, 100);
  const StageBreakdown bd = attribute_trace(t.trace(root.trace_id)->spans);
  EXPECT_EQ(bd.total_us, 100u);
  EXPECT_EQ(bd.unattributed_us(), 90u);
  EXPECT_EQ(bd.stage_us(TraceStage::kService), 10u);
  EXPECT_NEAR(bd.coverage(), 0.1, 1e-9);
}

TEST(CriticalPath, AggregatorTailDominantAndCoverage) {
  Tracer t;
  t.set_enabled(true);
  AttributionAggregator agg;
  t.set_on_trace_finished([&](TraceId id, const Tracer::TraceRecord& rec) {
    agg.observe(id, rec);
  });
  // Nine fast service-dominant traces, one huge retry-dominant straggler:
  // the slowest-10% tail is exactly the straggler.
  for (int i = 0; i < 9; ++i) {
    const SimTime at = static_cast<SimTime>(i) * 1000;
    const TraceContext root =
        t.start_trace("op", 1, at, TraceStage::kService);
    t.end(root.span_id, at + 100);
  }
  const TraceContext slow =
      t.start_trace("op", 1, 50'000, TraceStage::kService);
  const SpanId r = t.begin(slow, "wait", 1, 50'000, TraceStage::kRetry);
  t.end(r, 59'000);
  t.end(slow.span_id, 60'000);

  EXPECT_EQ(agg.count(), 10u);
  EXPECT_DOUBLE_EQ(agg.min_coverage(), 1.0);
  EXPECT_EQ(agg.tail_dominant(0.10), TraceStage::kRetry);
  // The whole population is still service-heavy only in count, not time:
  // merged, retry also wins (9000us vs 9x100 + 1000us service).
  EXPECT_EQ(agg.sum().dominant(), TraceStage::kRetry);
  // Log-bucketed p99 over 9x100us + 1x10000us lands in the 100us bucket
  // (rank floor(0.99*(n-1)) = 8); the exact math is covered by the
  // histogram tests — here just pin that the fold records totals at all.
  EXPECT_GT(agg.total_p99(), 0u);
  EXPECT_GT(agg.stage_p99(TraceStage::kService), 0u);
}

// ---- retention ----------------------------------------------------------

TEST(TraceRetention, RecentRingPlusTailReservoirEvictTheRest) {
  Tracer t;
  t.set_enabled(true);

  // Single-span traces of op "op", trace i lasting 100·i us, all started
  // inside reservoir window 0; six more than the ring holds.
  constexpr std::size_t n = Tracer::kRecentTraces + 6;
  static_assert(n < Tracer::kWindowUs);  // trace i starts at i us
  for (std::size_t i = 1; i <= n; ++i) {
    const SimTime at = static_cast<SimTime>(i);
    const TraceContext root = t.start_trace("op", 1, at);
    t.end(root.span_id, at + static_cast<SimDuration>(i) * 100);
  }

  // The ring holds the newest kRecentTraces; the reservoir pins the
  // kTailPerWindow slowest (the newest, here); the rest is evicted.
  EXPECT_GT(t.evicted_traces(), 0u);
  EXPECT_GT(t.evicted_spans(), 0u);
  EXPECT_LE(t.retained_traces(),
            Tracer::kRecentTraces + Tracer::kTailPerWindow);

  const auto tails = t.tail_trace_ids();
  ASSERT_EQ(tails.size(), 1u);
  EXPECT_EQ(tails[0].first, "op");
  ASSERT_EQ(tails[0].second.size(), Tracer::kTailPerWindow);
  EXPECT_EQ(tails[0].second[0], n);  // slowest first
  EXPECT_EQ(tails[0].second[1], n - 1);

  // Trace 1 was evicted: no record, and a child span can no longer be
  // attached to its root (begin() refuses resurrected parents).
  EXPECT_EQ(t.trace(1), nullptr);
  EXPECT_EQ(t.begin(TraceContext{1, 1}, "late", 1, 99), 0u);
}

TEST(TraceRetention, SlowTraceSurvivesRingChurn) {
  Tracer t;
  t.set_enabled(true);

  const TraceContext slow = t.start_trace("op", 1, 0);
  t.end(slow.span_id, 500'000);
  for (std::size_t i = 0; i < Tracer::kRecentTraces + 20; ++i) {
    const SimTime at = 600'000 + static_cast<SimTime>(i) * 10;
    const TraceContext fast = t.start_trace("op", 1, at);
    t.end(fast.span_id, at + 5);
  }
  // More fast traces than the ring holds churned through it, all in the
  // slow trace's reservoir window, but the slowest trace is pinned by the
  // reservoir.
  ASSERT_NE(t.trace(slow.trace_id), nullptr);
  EXPECT_FALSE(t.trace(slow.trace_id)->in_recent);
  EXPECT_TRUE(t.trace(slow.trace_id)->in_reservoir);
  EXPECT_GT(t.evicted_traces(), 0u);
}

TEST(TraceRetention, HardSpanCapForceEvictsOldestFinished) {
  Tracer t;
  t.set_enabled(true);

  // Five traces of 65,536 spans each: few enough for the ring alone to
  // keep every one, more spans than the cap.
  constexpr std::size_t kTraces = 5;
  constexpr std::size_t kSpansPerTrace = 65'536;
  static_assert(kTraces < Tracer::kRecentTraces);
  static_assert(kTraces * kSpansPerTrace > Tracer::kMaxSpans);
  for (std::size_t i = 0; i < kTraces; ++i) {
    const SimTime at = static_cast<SimTime>(i) * 10;
    const TraceContext root = t.start_trace("op", 1, at);
    for (std::size_t k = 1; k < kSpansPerTrace; ++k) {
      t.end(t.begin(root, "kid", 1, at), at + 1);
    }
    t.end(root.span_id, at + 2);
  }
  EXPECT_LE(t.retained_spans(), Tracer::kMaxSpans);
  EXPECT_GT(t.evicted_spans(), 0u);
  // The oldest trace went first.
  EXPECT_EQ(t.trace(1), nullptr);
  EXPECT_NE(t.trace(kTraces), nullptr);
}

TEST(TraceRetention, FinishedHookSeesEveryTraceBeforeEviction) {
  Tracer t;
  t.set_enabled(true);
  std::size_t seen = 0;
  t.set_on_trace_finished(
      [&](TraceId, const Tracer::TraceRecord& rec) {
        EXPECT_TRUE(rec.finished);
        ++seen;
      });
  // More traces than both tiers together hold.
  const std::size_t n = Tracer::kRecentTraces + Tracer::kTailPerWindow + 1;
  for (std::size_t i = 0; i < n; ++i) {
    const SimTime at = static_cast<SimTime>(i) * 10;
    const TraceContext root = t.start_trace("op", 1, at);
    t.end(root.span_id, at + 1);
  }
  EXPECT_EQ(seen, n);
  EXPECT_LT(t.retained_traces(), n);
}

// ---- exemplar-linked histograms ----------------------------------------

TEST(Exemplars, TailBucketsKeepRepresentativeTraceIds) {
  Histogram h;
  h.record(10, 1);     // bucket of small values
  h.record(2000, 7);   // bucket [1024,2048)
  h.record(1500, 8);   // same bucket, smaller value: 2000 wins
  h.record(3000, 9);   // bucket [2048,4096)
  h.record(500);       // no trace id -> no exemplar
  const auto& ex = h.exemplars();
  ASSERT_GE(ex.size(), 3u);
  bool found_2000 = false, found_3000 = false;
  for (const auto& [bucket, e] : ex) {
    if (e.value == 2000) {
      found_2000 = true;
      EXPECT_EQ(e.trace, 7u);
    }
    if (e.value == 3000) {
      found_3000 = true;
      EXPECT_EQ(e.trace, 9u);
    }
    EXPECT_NE(e.value, 1500u);  // displaced by the larger 2000
    EXPECT_NE(e.value, 500u);   // untraced samples leave no exemplar
  }
  EXPECT_TRUE(found_2000);
  EXPECT_TRUE(found_3000);

  MetricRegistry reg;
  reg.histogram("lat_us").record(4000, 42);
  MetricsRegistry registry;
  registry.attach("n1", reg);
  const std::string text = registry.prometheus_text();
  EXPECT_NE(text.find("# exemplar sedna_lat_us{node=\"n1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("trace_id=42"), std::string::npos);
}

// ---- inspector surfaces -------------------------------------------------

TEST(Tracing, InspectorExportsAttributionTailReportAndEvictionCounters) {
  SednaCluster cluster(small_config(5));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  cluster.sim().tracer().set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        cluster.write_latest(client, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(cluster.read_latest(client, "k" + std::to_string(i)).ok());
  }
  cluster.sim().tracer().set_enabled(false);

  ClusterInspector inspector(cluster);
  const std::string csv = inspector.attribution_csv();
  EXPECT_EQ(csv.rfind(attribution_csv_header(), 0), 0u);
  EXPECT_NE(csv.find("client.read_latest"), std::string::npos);
  EXPECT_NE(csv.find(",service\n"), std::string::npos);

  const std::string tail = inspector.tail_report();
  EXPECT_NE(tail.find("op client.read_latest"), std::string::npos);
  EXPECT_NE(tail.find("dominant="), std::string::npos);

  const std::string metrics = inspector.metrics_text();
  EXPECT_NE(metrics.find("sedna_trace_evicted_spans{node=\"tracer\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("sedna_trace_evicted_traces{node=\"tracer\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("# exemplar"), std::string::npos);

  // The analyzer invariant on real traffic: every traced request
  // attributes at least 95% of its end-to-end latency.
  AttributionAggregator agg;
  const Tracer& tracer = cluster.sim().tracer();
  for (const TraceId id : tracer.finished_trace_ids()) {
    const Tracer::TraceRecord* rec = tracer.trace(id);
    if (rec->op.rfind("client.", 0) == 0) agg.observe(id, *rec);
  }
  EXPECT_GT(agg.count(), 0u);
  EXPECT_GE(agg.min_coverage(), 0.95);
}

// ---- migration trace propagation ---------------------------------------

TEST(Tracing, MigrationIsOneSpanTreeAcrossAllPhases) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 32;
  cfg.seed = 2012;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();

  // A (vnode, destination) pair where the destination is outside the
  // vnode's replica set, plus a few keys so the snapshot moves bytes.
  const ring::VnodeTable table = cluster.node(0).metadata().table();
  VnodeId vnode = kInvalidVnode;
  NodeId from = kInvalidNode;
  std::size_t dst_idx = SIZE_MAX;
  for (VnodeId v = 0; v < table.total_vnodes() && dst_idx == SIZE_MAX;
       ++v) {
    const auto reps = table.replicas_for_vnode(v);
    for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
      const NodeId cand = cluster.node(i).id();
      if (std::find(reps.begin(), reps.end(), cand) != reps.end()) continue;
      vnode = v;
      from = table.owner(v);
      dst_idx = i;
      break;
    }
  }
  ASSERT_NE(dst_idx, SIZE_MAX);
  int written = 0;
  for (int i = 0; i < 200000 && written < 5; ++i) {
    const std::string key = "mig-" + std::to_string(i);
    if (table.vnode_for_key(key) != vnode) continue;
    ASSERT_TRUE(cluster.write_latest(client, key, "v").ok());
    ++written;
  }
  ASSERT_EQ(written, 5);

  cluster.sim().tracer().set_enabled(true);
  std::optional<MigrateVnodeReply> out;
  cluster.node(dst_idx).begin_migration(
      vnode, from, [&](const MigrateVnodeReply& rep) { out = rep; });
  ASSERT_TRUE(cluster.run_until([&] { return out.has_value(); }));
  ASSERT_EQ(out->status, StatusCode::kOk);
  cluster.run_for(sim_sec(1));  // let the drain phase close
  cluster.sim().tracer().set_enabled(false);

  // Exactly one trace rooted at rebalance.migration, carrying every
  // phase and the data-plane RPCs in a single tree.
  const Tracer& tracer = cluster.sim().tracer();
  const auto spans = tracer.spans();
  int roots = 0;
  for (const Span& s : spans) {
    if (s.name == "rebalance.migration") ++roots;
  }
  EXPECT_EQ(roots, 1);
  const Span* root = find_span(spans, "rebalance.migration");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, 0u);
  EXPECT_EQ(root->stage, TraceStage::kMigration);
  EXPECT_EQ(root->status, "ok");
  EXPECT_NE(root->cause.find("vnode="), std::string::npos);

  for (const char* phase : {"migrate.snapshot", "migrate.catchup",
                            "migrate.cutover", "migrate.drain"}) {
    const Span* s = find_span(spans, phase);
    ASSERT_NE(s, nullptr) << phase;
    EXPECT_EQ(s->trace_id, root->trace_id) << phase;
    EXPECT_EQ(s->stage, TraceStage::kMigration) << phase;
    EXPECT_TRUE(s->finished()) << phase;
    EXPECT_EQ(s->status, "ok") << phase;
  }
  const Span* fetch = find_span(spans, "rpc.fetch_vnode");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->trace_id, root->trace_id);

  // The analyzer pins the whole migration on the migration stage.
  const StageBreakdown bd = attribute_trace(tracer.trace(root->trace_id)->spans);
  EXPECT_EQ(bd.dominant(), TraceStage::kMigration);
  EXPECT_GE(bd.coverage(), 0.95);
}

TEST(Tracing, DisabledTracerRecordsNothing) {
  SednaCluster cluster(small_config(3));
  ASSERT_TRUE(cluster.boot().ok());
  auto& client = cluster.make_client();
  ASSERT_TRUE(cluster.write_latest(client, "k", "v").ok());
  ASSERT_TRUE(cluster.read_latest(client, "k").ok());
  EXPECT_TRUE(cluster.sim().tracer().spans().empty());
  EXPECT_EQ(cluster.sim().tracer().dump_json(), "[\n]\n");
}

}  // namespace
}  // namespace sedna::cluster
