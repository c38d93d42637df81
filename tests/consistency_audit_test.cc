// Tests for the consistency auditor: staleness-bound math, per-vnode
// replication-lag rows and their delta semantics, t-visibility probe
// bookkeeping, the trailing-optional wire sections (ReadReply audit
// trailer, RealNodeLoad lag rows), the ZooKeeper lag gossip end to end,
// the client-side staleness-bound wiring, and the alerts_json export.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/admin.h"
#include "cluster/consistency_auditor.h"
#include "cluster/protocol.h"
#include "cluster/sedna_cluster.h"
#include "ring/imbalance.h"

namespace sedna::cluster {
namespace {

// ---- staleness math ------------------------------------------------------------

TEST(ConsistencyAuditor, StaleServeBoundIsTimeSinceLastFullQuorum) {
  MetricRegistry metrics;
  ConsistencyAuditor aud({}, metrics);
  aud.on_full_quorum(7, 1000);
  EXPECT_EQ(aud.on_stale_serve(7, 5000), 4000u);
  // Same-instant stale serve: the bound floors at 1 so a measured bound
  // is always distinguishable from "not measured" (0).
  aud.on_full_quorum(7, 6000);
  EXPECT_EQ(aud.on_stale_serve(7, 6000), 1u);
  EXPECT_EQ(metrics.counter("audit.stale_serves").value(), 2u);
  EXPECT_EQ(metrics.histogram("audit.staleness_bound_us").count(), 2u);
}

TEST(ConsistencyAuditor, ReadFinalRecordsVersionAndTimeLag) {
  MetricRegistry metrics;
  ConsistencyAuditor aud({}, metrics);

  // Served the freshest copy: no lag, not behind.
  ReadAuditSample fresh;
  fresh.vnode = 3;
  fresh.served_ts = make_timestamp(2000, 1);
  fresh.positives = 3;
  fresh.newer = 0;
  fresh.freshest_ts = fresh.served_ts;
  fresh.oldest_ts = make_timestamp(1500, 1);
  fresh.confirm_lag_us = 80;
  aud.on_read_final(fresh);
  EXPECT_EQ(metrics.counter("audit.reads_audited").value(), 1u);
  EXPECT_EQ(metrics.counter("audit.reads_behind").value(), 0u);
  EXPECT_EQ(metrics.histogram("audit.fresh_read_lag_us").max(), 0);
  EXPECT_EQ(metrics.histogram("audit.confirm_lag_us").max(), 80);
  // Healthy vnode lag = freshest-vs-oldest replica spread.
  EXPECT_EQ(aud.max_replication_lag_us(9000), 500u);

  // A replica held something 700 µs newer than the served value.
  ReadAuditSample behind;
  behind.vnode = 3;
  behind.served_ts = make_timestamp(2000, 1);
  behind.stale = true;
  behind.positives = 2;
  behind.newer = 1;
  behind.freshest_ts = make_timestamp(2700, 4);
  behind.oldest_ts = behind.served_ts;
  aud.on_read_final(behind);
  EXPECT_EQ(metrics.counter("audit.reads_behind").value(), 1u);
  EXPECT_EQ(metrics.histogram("audit.stale_read_lag_us").max(), 700);
  EXPECT_EQ(metrics.histogram("audit.version_lag").max(), 1);
}

TEST(ConsistencyAuditor, EmptyReadsOnlyCountExposure) {
  MetricRegistry metrics;
  ConsistencyAuditor aud({}, metrics);
  ReadAuditSample miss;
  miss.vnode = 1;
  miss.positives = 0;
  miss.confirm_lag_us = 250;
  aud.on_read_final(miss);
  EXPECT_EQ(metrics.counter("audit.reads_audited").value(), 1u);
  EXPECT_EQ(metrics.histogram("audit.confirm_lag_us").count(), 1u);
  // No value to compare against: no lag histograms, no vnode row.
  EXPECT_EQ(metrics.histogram("audit.version_lag").count(), 0u);
  EXPECT_EQ(aud.max_replication_lag_us(1000), 0u);
}

TEST(ConsistencyAuditor, StaleVnodeLagGrowsUntilFullQuorum) {
  MetricRegistry metrics;
  ConsistencyAuditor aud({}, metrics);
  aud.on_full_quorum(5, 1000);
  aud.on_stale_serve(5, 2000);
  // While serving stale the lag is a clock: it grows with `now`.
  EXPECT_EQ(aud.max_replication_lag_us(3000), 2000u);
  EXPECT_EQ(aud.max_replication_lag_us(9000), 8000u);
  // A full-quorum read snaps it back to the (zero) replica spread.
  aud.on_full_quorum(5, 9500);
  EXPECT_EQ(aud.max_replication_lag_us(10000), 0u);
}

TEST(ConsistencyAuditor, LagRowsReportStaleServeDeltas) {
  MetricRegistry metrics;
  ConsistencyAuditor aud({}, metrics);
  aud.on_full_quorum(2, 1000);
  aud.on_stale_serve(2, 4000);
  aud.on_stale_serve(2, 4500);

  auto rows = aud.lag_rows(5000);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].vnode, 2u);
  EXPECT_EQ(rows[0].lag_us, 4000u);
  EXPECT_EQ(rows[0].stale_serves, 2u);

  // Next window: no new stale serves — the delta resets but the vnode is
  // still serving stale, so it keeps its (grown) lag row.
  rows = aud.lag_rows(6000);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].lag_us, 5000u);
  EXPECT_EQ(rows[0].stale_serves, 0u);

  // Healed and quiet: nothing to say, no row.
  aud.on_full_quorum(2, 6500);
  EXPECT_TRUE(aud.lag_rows(7000).empty());
}

// ---- t-visibility probe bookkeeping --------------------------------------------

TEST(ConsistencyAuditor, DeterministicWriteSampling) {
  MetricRegistry metrics;
  ConsistencyAuditorConfig cfg;
  cfg.probe_sample_every = 4;
  ConsistencyAuditor aud(cfg, metrics);
  int probed = 0;
  for (int i = 0; i < 12; ++i) {
    if (aud.should_probe()) ++probed;
  }
  EXPECT_EQ(probed, 3);

  ConsistencyAuditorConfig off;
  off.probe_sample_every = 0;
  ConsistencyAuditor quiet(off, metrics);
  EXPECT_FALSE(quiet.should_probe());
}

TEST(ConsistencyAuditor, OffsetStatsSeparateUnreachableFromInvisible) {
  MetricRegistry metrics;
  ConsistencyAuditor aud(ConsistencyAuditorConfig{}, metrics);
  aud.on_probe_fire(0);
  aud.on_probe_check(0, true, true);
  aud.on_probe_check(0, true, false);
  aud.on_probe_check(0, false, false);  // timed out: never a violation
  ASSERT_EQ(aud.offset_stats().size(),
            ConsistencyAuditor::kProbeOffsets.size());
  EXPECT_EQ(aud.offset_stats()[0].probes, 1u);
  EXPECT_EQ(aud.offset_stats()[0].checked, 2u);
  EXPECT_EQ(aud.offset_stats()[0].visible, 1u);
  EXPECT_EQ(aud.offset_stats()[0].unreachable, 1u);
  EXPECT_EQ(aud.offset_stats()[1].probes, 0u);
  // Out-of-range offsets are ignored, not UB.
  aud.on_probe_fire(9);
  aud.on_probe_check(9, true, true);
  EXPECT_EQ(metrics.counter("audit.probe_rounds").value(), 1u);
}

TEST(ConsistencyAuditor, ViolationRecordsAreBoundedButCounted) {
  MetricRegistry metrics;
  ConsistencyAuditor aud(ConsistencyAuditorConfig{}, metrics);
  constexpr std::size_t kCap = ConsistencyAuditor::kMaxViolations;
  for (std::size_t i = 0; i < kCap + 3; ++i) {
    aud.on_violation(100 * i, 1000 + i, "k" + std::to_string(i), 101);
  }
  EXPECT_EQ(aud.violations().size(), kCap);
  EXPECT_EQ(aud.violations()[0].key, "k0");
  EXPECT_EQ(aud.violations()[1].acked_at, 100u);
  // The oldest records are the ones kept.
  EXPECT_EQ(aud.violations().back().key, "k" + std::to_string(kCap - 1));
  EXPECT_EQ(metrics.counter("audit.visibility_violations").value(), kCap + 3);
}

// ---- wire format ---------------------------------------------------------------

TEST(AuditWire, ReadReplyAuditTrailerRoundTrips) {
  ReadReply rep;
  rep.has_latest = true;
  rep.latest = {"v", 42, 0};
  rep.stale = true;
  rep.staleness_us = 123456;
  auto back = ReadReply::decode(rep.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->stale);
  EXPECT_EQ(back->staleness_us, 123456u);
  EXPECT_FALSE(back->has_causal);
}

TEST(AuditWire, ReadReplyAuditAndCausalTrailersCompose) {
  ReadReply rep;
  rep.has_latest = true;
  rep.latest = {"v", 42, 0};
  rep.staleness_us = 7;
  rep.has_causal = true;
  rep.causal.clock.bump(3);
  store::Sibling sib;
  sib.value = "sib";
  sib.ts = 99;
  sib.dot = store::Dot{3, 1};
  rep.causal.siblings.push_back(sib);
  auto back = ReadReply::decode(rep.encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->staleness_us, 7u);
  ASSERT_TRUE(back->has_causal);
  ASSERT_EQ(back->causal.siblings.size(), 1u);
  EXPECT_EQ(back->causal.siblings[0].value, "sib");
}

TEST(AuditWire, PlainReplyStaysByteIdenticalWithLegacyLayout) {
  // The PR 7 rule: payload size feeds the network delay model, so an
  // audit-off reply must not gain a single byte. A plain reply must end
  // exactly at the stale flag — no trailer tag at all.
  ReadReply rep;
  rep.has_latest = true;
  rep.latest = {"value", 77, 1};
  const std::string bytes = rep.encode();
  ReadReply tagged = rep;
  tagged.staleness_us = 1;
  EXPECT_EQ(tagged.encode().size(), bytes.size() + 1 + 8);
  auto back = ReadReply::decode(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->staleness_us, 0u);
  EXPECT_FALSE(back->has_causal);
}

TEST(AuditWire, ReadReplyRejectsBadTrailerTag) {
  ReadReply rep;
  rep.has_latest = true;
  rep.latest = {"v", 1, 0};
  std::string bytes = rep.encode();
  bytes.push_back('\0');  // tag 0: trailer present but empty
  EXPECT_FALSE(ReadReply::decode(bytes).ok());
  bytes.back() = '\x40';  // unknown bit
  EXPECT_FALSE(ReadReply::decode(bytes).ok());
}

TEST(AuditWire, LoadRowLagSectionIsTrailingOptional) {
  ring::RealNodeLoad row;
  row.node = 104;
  row.vnode_count = 20;
  row.reads = 5;
  row.vnodes.push_back(ring::VnodeLoadRow{9, 100, 5, 0, 0});
  const std::string legacy = row.encode();

  ring::RealNodeLoad with_lags = row;
  with_lags.lags.push_back(ring::VnodeLagRow{9, 2500, 3});
  with_lags.lags.push_back(ring::VnodeLagRow{12, 80, 0});
  const std::string extended = with_lags.encode();
  // Auditing off ⇒ empty lags ⇒ byte-identical with the legacy layout.
  EXPECT_GT(extended.size(), legacy.size());

  auto old_back = ring::RealNodeLoad::decode(legacy);
  ASSERT_TRUE(old_back.ok());
  EXPECT_TRUE(old_back->lags.empty());

  auto new_back = ring::RealNodeLoad::decode(extended);
  ASSERT_TRUE(new_back.ok());
  ASSERT_EQ(new_back->lags.size(), 2u);
  EXPECT_EQ(new_back->lags[0], with_lags.lags[0]);
  EXPECT_EQ(new_back->lags[1], with_lags.lags[1]);
}

// ---- end to end: gossip, client bound, alerts_json -----------------------------

TEST(AuditEndToEnd, StaleBoundsReachClientAndLagRowsReachZk) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 3;
  cfg.cluster.total_vnodes = 64;
  cfg.seed = 77;
  cfg.node_template.audit.enabled = true;
  cfg.node_template.audit.probe_sample_every = 0;
  cfg.node_template.degraded_reads = true;
  cfg.node_template.load_report_interval = sim_ms(200);
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  cluster.enable_monitor();
  auto& client = cluster.make_client();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "au-" + std::to_string(i),
                                     "v" + std::to_string(i)).ok());
  }

  // Isolate one data node from its peers (clients still reach it): with
  // N = 3 over 3 nodes, every key it coordinates has exactly one
  // reachable replica — its own — so reads there settle degraded.
  const std::vector<NodeId> ids = cluster.data_ids();
  cluster.network().partition(ids[0], ids[1]);
  cluster.network().partition(ids[0], ids[2]);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 30; ++i) {
      (void)cluster.read_latest(client, "au-" + std::to_string(i));
    }
  }

  std::uint64_t stale_serves = 0;
  for (std::size_t n = 0; n < cluster.data_node_count(); ++n) {
    stale_serves +=
        cluster.node(n).metrics().counter("audit.stale_serves").value();
  }
  ASSERT_GT(stale_serves, 0u);

  // Every stale serve carried a measured bound to the client; none of
  // them arrived as a bare "stale" flag.
  EXPECT_EQ(client.metrics().histogram("client.staleness_bound_us").count(),
            stale_serves);
  EXPECT_EQ(client.metrics().counter("client.stale_unbounded").value(), 0u);
  EXPECT_GE(client.metrics().histogram("client.staleness_bound_us").min(),
            1);

  // Let a load report fire and check the lag gossip landed in ZooKeeper:
  // the isolated node's row must decode with a non-empty lag section.
  cluster.run_for(sim_ms(500));
  const auto& tree = cluster.zk_member(0).tree();
  bool saw_lag_row = false;
  for (std::size_t n = 0; n < cluster.data_node_count(); ++n) {
    auto got = tree.get(std::string(kZkRealNodes) + "/load-" +
                        std::to_string(cluster.node(n).id()));
    if (!got.ok()) continue;
    auto row = ring::RealNodeLoad::decode(got->first);
    ASSERT_TRUE(row.ok());
    for (const auto& lag : row->lags) {
      if (lag.lag_us > 0 || lag.stale_serves > 0) saw_lag_row = true;
    }
  }
  EXPECT_TRUE(saw_lag_row);

  // The monitor picked the lag up as a gauge series.
  ClusterInspector inspector(cluster);
  EXPECT_NE(inspector.timeseries_csv().find("replication_lag_max_us"),
            std::string::npos);
}

TEST(AuditEndToEnd, AlertsJsonIsWellFormedAndListsStalenessBudget) {
  SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 4;
  cfg.cluster.total_vnodes = 64;
  cfg.seed = 5;
  cfg.node_template.audit.enabled = true;
  SednaCluster cluster(cfg);
  ASSERT_TRUE(cluster.boot().ok());
  cluster.enable_monitor();
  auto& client = cluster.make_client();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.write_latest(client, "aj-" + std::to_string(i),
                                     "v").ok());
  }
  cluster.run_for(sim_sec(1));

  ClusterInspector inspector(cluster);
  const std::string json = inspector.alerts_json();
  // Schema shell.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"rules\":["), std::string::npos);
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  // Every rule row carries the full schema, including the new budget
  // rule watching the auditor's lag gauge.
  EXPECT_NE(json.find("\"name\":\"staleness-budget\""), std::string::npos);
  EXPECT_NE(json.find("\"series\":\"replication_lag_max_us\""),
            std::string::npos);
  for (const char* field :
       {"\"severity\":", "\"threshold\":", "\"state\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // A healthy run: nothing firing.
  EXPECT_EQ(json.find("\"state\":\"firing\""), std::string::npos);
  // Balanced quoting/braces — cheap well-formedness guard.
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  // Without a monitor the export keeps its shape (empty arrays).
  SednaCluster bare(cfg);
  ASSERT_TRUE(bare.boot().ok());
  EXPECT_EQ(ClusterInspector(bare).alerts_json(),
            "{\"rules\":[],\"events\":[]}");
}

}  // namespace
}  // namespace sedna::cluster
