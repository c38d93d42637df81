// Open-loop chaos scenario suite: proves the overload-safe request path.
//
// The figure benches are closed-loop — they can never push the cluster
// past saturation, so they cannot exercise admission control, deadline
// propagation, or retry budgets at all. This suite drives the paper
// testbed with *open-loop* arrival curves (workload/open_loop.h) through
// four chaos scenarios plus a metastability ablation, and gates on the
// goodput/availability *shape* over time:
//
//   flash-crowd       a pulse of traffic on a tiny key range: bystander
//                     goodput stays >= 70% of pre-pulse during the crowd
//                     and fully recovers within 2 s of it ending; the
//                     overload-shedding alert fires and resolves.
//   diurnal-wave      a slow offered-load wave cresting above cluster
//                     capacity: troughs stay ~lossless, the crest keeps a
//                     goodput floor instead of collapsing.
//   rolling-restart   crash/restart every data node in sequence under
//                     load: read availability >= 99%.
//   zone-partition    split the data nodes into two zones (ZooKeeper
//                     reachable from both): coordinators stranded with a
//                     minority of replicas keep serving stale-tagged
//                     reads; staleness stops once the partition heals.
//   lost-update       LWW vs DVV ablation: pairs of RMW racers append
//                     op-ids to shared keys across a zone partition.
//                     Timestamp LWW demonstrably drops acked updates
//                     (lost > 0); dotted-version-vector causal puts lose
//                     exactly zero. Emits out/ablation_dvv.csv.
//   metastability     the same overload pulse with defenses ON vs OFF:
//                     with bounded queues + deadlines + retry budgets the
//                     cluster recovers after the pulse; with the legacy
//                     unbounded/unbudgeted path, retry amplification
//                     (3 attempts/op) keeps demand above capacity forever
//                     and goodput never comes back — the classic
//                     metastable failure this PR exists to prevent.
//
// Everything is driven by the shared seeded sim RNG: two runs of this
// binary produce byte-identical CSVs (gated in tests/run_all.sh).
// Artifacts: out/scenario_suite.csv (per-window series for every
// scenario) and out/scenario_suite_metrics.prom (exposition dump of the
// flash-crowd cluster, including the node.shed.* counters).

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fig_common.h"
#include "cluster/admin.h"
#include "cluster/monitor.h"
#include "common/outdir.h"
#include "workload/open_loop.h"

namespace {

using namespace sedna;          // NOLINT
using namespace sedna::cluster; // NOLINT
using workload::OpenLoopConfig;
using workload::OpenLoopDriver;
using workload::RatePoint;

constexpr std::size_t kKeys = 2048;
constexpr std::size_t kClients = 8;
constexpr SimDuration kWindow = sim_ms(100);

std::string key_for(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "k%05zu", i);
  return buf;
}

/// Which overload defenses a scenario's cluster runs with. The chaos
/// scenarios use everything; the metastability ablation toggles all of
/// it off to reproduce the legacy request path.
struct Defenses {
  bool on = true;
};

struct Harness {
  std::unique_ptr<SednaCluster> cluster;
  std::vector<SednaClient*> clients;

  [[nodiscard]] sim::Simulation& sim() { return cluster->sim(); }

  [[nodiscard]] std::uint64_t total_sheds() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster->data_node_count(); ++i) {
      n += cluster->node(i).shed_queue_full() +
           cluster->node(i).shed_deadline();
    }
    return n;
  }

  [[nodiscard]] std::uint64_t client_counter(const std::string& name) const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster->client_count(); ++i) {
      n += cluster->client(i).metrics().counter_value(name);
    }
    return n;
  }

  [[nodiscard]] std::uint64_t node_counter(const std::string& name) const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < cluster->data_node_count(); ++i) {
      n += cluster->node(i).metrics().counter_value(name);
    }
    return n;
  }
};

Harness make_harness(std::uint64_t seed, Defenses defenses) {
  SednaClusterConfig cfg = bench::paper_cluster_config();
  cfg.seed = seed;
  // Fast failure detection so scenarios play out in seconds of sim time.
  cfg.node_template.host.rpc_timeout_us = 10'000;
  cfg.client_template.op_timeout_us = 30'000;
  cfg.client_template.max_attempts = 3;
  if (defenses.on) {
    cfg.node_template.host.max_ingress_queue = 96;
    cfg.node_template.degraded_reads = true;
    // Consistency auditor rides along with the defended configuration:
    // every stale serve carries a measured bound, and sampled acked
    // writes get t-visibility probes.
    cfg.node_template.audit.enabled = true;
    cfg.client_template.op_deadline_us = 90'000;
    // Refill 0.3: sustained retries up to ~30% of fresh traffic — enough
    // headroom to ride out a crashed primary (1/6 of ops need one retry)
    // while still capping retry amplification well below the 3x the
    // attempt limit would otherwise allow.
    cfg.client_template.retry_budget_capacity = 20.0;
    cfg.client_template.retry_budget_refill = 0.3;
  }

  Harness h;
  h.cluster = std::make_unique<SednaCluster>(cfg);
  if (!h.cluster->boot().ok()) {
    std::fprintf(stderr, "scenario_suite: cluster failed to boot\n");
    std::exit(2);
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    h.clients.push_back(&h.cluster->make_client());
  }
  // Preload the key space so the open-loop read phases always hit.
  const std::string value(20, 'v');
  std::size_t next = 0;
  while (next < kKeys) {
    const std::size_t batch_end = std::min(next + 128, kKeys);
    std::size_t done = 0;
    const std::size_t batch = batch_end - next;
    for (; next < batch_end; ++next) {
      h.clients[next % kClients]->write_latest(
          key_for(next), value, [&done](const Status&) { ++done; });
    }
    h.cluster->run_until([&] { return done == batch; });
  }
  return h;
}

/// Uniform-read issue function over [0, universe) via the shared sim RNG.
OpenLoopDriver::IssueFn read_issue(Harness& h, std::size_t universe,
                                   std::size_t base = 0) {
  return [&h, universe, base](std::uint64_t seq,
                              const std::function<void(bool)>& done) {
    const std::size_t k = base + h.sim().rng().next_below(universe);
    h.clients[seq % h.clients.size()]->read_latest(
        key_for(k),
        [done](const Result<store::VersionedValue>& r) { done(r.ok()); });
  };
}

/// 80/20 read/write mix over the full key space.
OpenLoopDriver::IssueFn mixed_issue(Harness& h) {
  return [&h](std::uint64_t seq, const std::function<void(bool)>& done) {
    const std::size_t k = h.sim().rng().next_below(kKeys);
    SednaClient& c = *h.clients[seq % h.clients.size()];
    if (seq % 5 == 4) {
      c.write_latest(key_for(k), std::string(20, 'w'),
                     [done](const Status& st) { done(st.ok()); });
    } else {
      c.read_latest(key_for(k), [done](const Result<store::VersionedValue>&
                                           r) { done(r.ok()); });
    }
  };
}

// ---- reporting --------------------------------------------------------------

std::string g_csv = "scenario,window,t_ms,issued,ok,failed,goodput_ops\n";
int g_failures = 0;

void dump_windows(const std::string& scenario, const OpenLoopDriver& d) {
  char buf[160];
  for (std::size_t w = 0; w < d.windows().size(); ++w) {
    const auto& win = d.windows()[w];
    std::snprintf(buf, sizeof buf, "%s,%zu,%llu,%llu,%llu,%llu,%.1f\n",
                  scenario.c_str(), w,
                  static_cast<unsigned long long>(w * kWindow / 1000),
                  static_cast<unsigned long long>(win.issued),
                  static_cast<unsigned long long>(win.ok),
                  static_cast<unsigned long long>(win.failed),
                  d.goodput_at(w));
    g_csv += buf;
  }
}

void gate(const std::string& scenario, const std::string& what, bool pass,
          const std::string& detail) {
  std::printf("  [%s] %s: %s (%s)\n", pass ? "PASS" : "FAIL",
              scenario.c_str(), what.c_str(), detail.c_str());
  if (!pass) ++g_failures;
}

std::string fmt2(double a, double b) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.0f vs %.0f ops/s", a, b);
  return buf;
}

/// Window index range [from_ms, to_ms) → driver window indices.
std::size_t win(std::uint64_t ms) { return ms * 1000 / kWindow; }

// ---- scenarios --------------------------------------------------------------

void flash_crowd(std::uint64_t seed) {
  std::printf("\n=== flash crowd (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  Harness h = make_harness(seed, Defenses{true});
  MonitorConfig mc;
  mc.sample_interval = sim_ms(100);
  ClusterMonitor& monitor = h.cluster->enable_monitor(mc);

  // Bystanders: uniform reads over the whole key space. Crowd: a pulse
  // aimed at 4 keys — a handful of vnodes, so a minority of nodes takes
  // the brunt as coordinators while the rest of the cluster stays sane.
  OpenLoopConfig base_cfg;
  base_cfg.curve = {{0, 6000}};
  base_cfg.duration = sim_sec(6);
  base_cfg.window = kWindow;
  OpenLoopDriver base(h.sim(), base_cfg, read_issue(h, kKeys));

  OpenLoopConfig crowd_cfg;
  crowd_cfg.curve = {{0, 0}, {sim_sec(2), 6500}, {sim_ms(3200), 0}};
  crowd_cfg.duration = sim_sec(6);
  crowd_cfg.window = kWindow;
  OpenLoopDriver crowd(h.sim(), crowd_cfg, read_issue(h, 4));

  base.start();
  crowd.start();
  h.cluster->run_for(sim_sec(6) + sim_ms(300));  // +drain

  const double pre = base.mean_goodput(win(500), win(2000));
  const double during = base.mean_goodput(win(2100), win(3100));
  const double post = base.mean_goodput(win(5200), win(6000));
  gate("flash-crowd", "bystander goodput >= 70% of pre-pulse during crowd",
       during >= 0.7 * pre, fmt2(during, pre));
  gate("flash-crowd", "full recovery <= 2 s after the pulse",
       post >= 0.9 * pre, fmt2(post, pre));
  gate("flash-crowd", "overload shed work instead of queueing it",
       h.total_sheds() > 0,
       "sheds=" + std::to_string(h.total_sheds()));

  bool fired = false, resolved = false;
  for (const AlertEvent& e : monitor.alerts().events()) {
    if (e.rule != "overload-shedding") continue;
    if (e.fired) fired = true;
    else if (fired) resolved = true;
  }
  gate("flash-crowd", "overload-shedding alert fired then resolved",
       fired && resolved,
       std::string("fired=") + (fired ? "y" : "n") +
           " resolved=" + (resolved ? "y" : "n"));

  dump_windows("flash_crowd_base", base);
  dump_windows("flash_crowd_crowd", crowd);

  // Exposition dump for promlint: this cluster exercised every new
  // counter (sheds, stale reads, budget refusals may be zero but the
  // families exist once touched).
  ClusterInspector inspector(*h.cluster);
  if (std::FILE* f =
          std::fopen(out_path("scenario_suite_metrics.prom").c_str(), "w")) {
    std::fputs(inspector.metrics_text().c_str(), f);
    std::fclose(f);
  }
}

void diurnal_wave(std::uint64_t seed) {
  std::printf("\n=== diurnal wave (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  Harness h = make_harness(seed, Defenses{true});
  MonitorConfig mc;
  mc.sample_interval = sim_ms(100);
  h.cluster->enable_monitor(mc);

  OpenLoopConfig cfg;
  cfg.curve = {{0, 1500},          {sim_ms(800), 4000},
               {sim_ms(1600), 9000}, {sim_ms(2400), 14000},
               {sim_ms(3200), 9000}, {sim_ms(4000), 4000},
               {sim_ms(4800), 1500}};
  cfg.duration = sim_ms(5600);
  cfg.window = kWindow;
  OpenLoopDriver wave(h.sim(), cfg, mixed_issue(h));
  wave.start();
  h.cluster->run_for(sim_ms(5600) + sim_ms(300));

  const double trough_in = wave.mean_goodput(win(300), win(800));
  const double crest = wave.mean_goodput(win(2500), win(3200));
  const double trough_out = wave.mean_goodput(win(5000), win(5600));
  gate("diurnal-wave", "inbound trough ~lossless", trough_in >= 0.95 * 1500,
       fmt2(trough_in, 1500));
  gate("diurnal-wave", "crest keeps a goodput floor past saturation",
       crest >= 8000, fmt2(crest, 14000));
  gate("diurnal-wave", "outbound trough ~lossless (no hysteresis)",
       trough_out >= 0.95 * 1500, fmt2(trough_out, 1500));

  dump_windows("diurnal_wave", wave);
}

void rolling_restart(std::uint64_t seed) {
  std::printf("\n=== rolling restart (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  Harness h = make_harness(seed, Defenses{true});

  OpenLoopConfig cfg;
  cfg.curve = {{0, 4000}};
  cfg.duration = sim_sec(12);
  cfg.window = kWindow;
  std::map<StatusCode, std::uint64_t> fail_codes;
  OpenLoopDriver reads(
      h.sim(), cfg,
      [&h, &fail_codes](std::uint64_t seq,
                        const std::function<void(bool)>& done) {
        const std::size_t k = h.sim().rng().next_below(kKeys);
        h.clients[seq % h.clients.size()]->read_latest(
            key_for(k), [&fail_codes, done](
                            const Result<store::VersionedValue>& r) {
              if (!r.ok()) ++fail_codes[r.status().code()];
              done(r.ok());
            });
      });
  reads.start();

  h.cluster->run_for(sim_ms(800));
  for (std::size_t i = 0; i < h.cluster->data_node_count(); ++i) {
    h.cluster->crash_node(i);
    h.cluster->run_for(sim_ms(300));
    h.cluster->restart_node(i);  // waits until the node reports ready
    h.cluster->run_for(sim_ms(300));
  }
  h.cluster->run_for(sim_ms(500));

  const double settled =
      static_cast<double>(reads.succeeded() + reads.failed());
  const double availability =
      settled > 0 ? static_cast<double>(reads.succeeded()) / settled : 0.0;
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.4f (%llu/%llu settled)", availability,
                static_cast<unsigned long long>(reads.succeeded()),
                static_cast<unsigned long long>(settled));
  gate("rolling-restart", "read availability >= 99%", availability >= 0.99,
       buf);
  for (const auto& [code, n] : fail_codes) {
    std::printf("    failures with %s: %llu\n", std::string(to_string(code)).c_str(),
                static_cast<unsigned long long>(n));
  }

  dump_windows("rolling_restart", reads);
}

void zone_partition(std::uint64_t seed) {
  std::printf("\n=== zone partition (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  Harness h = make_harness(seed, Defenses{true});
  MonitorConfig mc;
  mc.sample_interval = sim_ms(100);
  h.cluster->enable_monitor(mc);

  OpenLoopConfig cfg;
  cfg.curve = {{0, 4000}};
  cfg.duration = sim_sec(6);
  cfg.window = kWindow;
  OpenLoopDriver reads(h.sim(), cfg, read_issue(h, kKeys));
  reads.start();

  // Side stream of writes: the visibility probes sample *acked* writes,
  // so the scenario needs a write population to audit. Kept out of the
  // gated goodput stream — writes stranded away from a W-quorum during
  // the partition legitimately fail.
  OpenLoopConfig wcfg;
  wcfg.curve = {{0, 400}};
  wcfg.duration = sim_sec(6);
  wcfg.window = kWindow;
  OpenLoopDriver writes(
      h.sim(), wcfg,
      [&h](std::uint64_t seq, const std::function<void(bool)>& done) {
        const std::size_t k = h.sim().rng().next_below(kKeys);
        h.clients[seq % h.clients.size()]->write_latest(
            key_for(k), std::string(20, 'w'),
            [done](const Status& st) { done(st.ok()); });
      });
  writes.start();

  // Zone A = first half of the data nodes, zone B = second half. Only
  // data-node links are cut: clients and ZooKeeper see both zones, so
  // there is no lease churn — just coordinators stranded away from their
  // replica majorities.
  const std::vector<NodeId> ids = h.cluster->data_ids();
  const std::size_t half = ids.size() / 2;
  h.cluster->run_for(sim_sec(2));
  h.cluster->flight_recorder().record(
      h.sim().now(), "chaos", "bench", "partition",
      "data-data links cut between zone halves");
  for (std::size_t a = 0; a < half; ++a) {
    for (std::size_t b = half; b < ids.size(); ++b) {
      h.cluster->network().partition(ids[a], ids[b]);
    }
  }
  h.cluster->run_for(sim_ms(2500));
  const std::uint64_t stale_during = h.client_counter("client.stale_reads");
  const SimTime heal_time = h.sim().now();
  h.cluster->flight_recorder().record(heal_time, "chaos", "bench", "heal",
                                      "all links restored");
  h.cluster->network().heal_all();
  h.cluster->run_for(sim_ms(700));
  const std::uint64_t stale_settled = h.client_counter("client.stale_reads");
  h.cluster->run_for(sim_ms(800) + sim_ms(300));
  const std::uint64_t stale_end = h.client_counter("client.stale_reads");

  gate("zone-partition", "stale-tagged reads served during the partition",
       stale_during > 0, "stale_reads=" + std::to_string(stale_during));
  const double part_avail_num = reads.mean_goodput(win(2200), win(4400));
  gate("zone-partition", "goodput holds >= 90% through the partition",
       part_avail_num >= 0.9 * 4000, fmt2(part_avail_num, 4000));
  gate("zone-partition", "staleness stops once the partition heals",
       stale_end == stale_settled,
       "post-heal delta=" + std::to_string(stale_end - stale_settled));

  // Consistency-observability gates: every stale read the minority zone
  // served must have carried a measured staleness bound, the visibility
  // probes must actually have run, and no write acked *after* the heal
  // may be invisible on any replica at the final probe offset.
  // (Partition-era acked writes may legitimately lag past the probe
  // horizon — hinted handoff backs off up to seconds — so those are
  // reported but not gated.)
  const std::uint64_t unbounded = h.client_counter("client.stale_unbounded");
  gate("zone-partition", "every stale read carried a staleness bound",
       stale_during > 0 && unbounded == 0,
       "stale=" + std::to_string(stale_during) +
           " unbounded=" + std::to_string(unbounded));
  const std::uint64_t probe_rounds = h.node_counter("audit.probe_rounds");
  gate("zone-partition", "t-visibility probes sampled acked writes",
       probe_rounds > 0, "probe_rounds=" + std::to_string(probe_rounds));
  std::uint64_t pre_heal_violations = 0, post_heal_violations = 0;
  for (std::size_t i = 0; i < h.cluster->data_node_count(); ++i) {
    const ConsistencyAuditor* aud = h.cluster->node(i).auditor();
    if (aud == nullptr) continue;
    for (const auto& v : aud->violations()) {
      if (v.acked_at >= heal_time) ++post_heal_violations;
      else ++pre_heal_violations;
    }
  }
  gate("zone-partition",
       "zero visibility violations for writes acked after heal",
       post_heal_violations == 0,
       "post_heal=" + std::to_string(post_heal_violations) +
           " partition_era=" + std::to_string(pre_heal_violations));

  dump_windows("zone_partition", reads);
  dump_windows("zone_partition_writes", writes);

  // Artifacts: the t-visibility curve, the flight-recorder journal, and
  // the incident report on stdout (all byte-diffed across double runs).
  ClusterInspector inspector(*h.cluster);
  if (std::FILE* f =
          std::fopen(out_path("scenario_consistency.csv").c_str(), "w")) {
    std::fputs(inspector.visibility_csv().c_str(), f);
    std::fclose(f);
  }
  if (std::FILE* f =
          std::fopen(out_path("scenario_incidents.csv").c_str(), "w")) {
    std::fputs(inspector.incidents_csv().c_str(), f);
    std::fclose(f);
  }
  std::printf("  (consistency: scenario_consistency.csv, incidents: "
              "scenario_incidents.csv)\n");
  std::printf("%s", inspector.incident_report("zone partition").c_str());
}

// ---- lost-update ablation (LWW vs DVV) --------------------------------------
//
// The causal-versioning gate: pairs of read-modify-write racers append
// their op-ids to shared keys while a zone partition splits the replica
// sets. Every *acked* append must survive into the final converged read.
// Under timestamp LWW two racers that read the same base overwrite each
// other — one acked op-id vanishes; divergent partition halves reconcile
// by timestamp and drop one side wholesale. Under DVVs the racers become
// siblings, the next contextual writer folds both in, and the final
// sibling-union read retains every acked id.

std::vector<std::string> split_ids(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::string join_ids(const std::set<std::string>& ids) {
  std::string out;
  for (const auto& id : ids) {
    if (!out.empty()) out += ',';
    out += id;
  }
  return out;
}

struct LostUpdateArm {
  std::uint64_t acked = 0;
  std::uint64_t lost = 0;
  std::uint64_t sibling_reads = 0;
  std::uint64_t conflicts_resolved = 0;
};

LostUpdateArm lost_update_arm(std::uint64_t seed, bool causal) {
  Harness h = make_harness(seed, Defenses{true});
  constexpr std::size_t kShared = 16;
  constexpr int kRounds = 12;

  auto shared_key = [](std::size_t k) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "c%03zu", k);
    return std::string(buf);
  };
  auto opid = [](int round, std::size_t key, int writer) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "r%02d.k%02zu.w%d", round, key, writer);
    return std::string(buf);
  };

  // Acked op-ids per key — the ground-truth write history the final read
  // is checked against.
  std::vector<std::set<std::string>> acked(kShared);

  const std::vector<NodeId> ids = h.cluster->data_ids();
  const std::size_t half = ids.size() / 2;

  for (int round = 0; round < kRounds; ++round) {
    // Rounds 4..7 run split in two zones (same cut as zone_partition:
    // data-data links only, so both halves keep coordinating).
    if (round == 4) {
      for (std::size_t a = 0; a < half; ++a) {
        for (std::size_t b = half; b < ids.size(); ++b) {
          h.cluster->network().partition(ids[a], ids[b]);
        }
      }
    }
    if (round == 8) h.cluster->network().heal_all();

    std::size_t done = 0;
    for (std::size_t k = 0; k < kShared; ++k) {
      for (int w = 0; w < 2; ++w) {
        SednaClient* c = h.clients[(k * 2 + w) % h.clients.size()];
        const std::string key = shared_key(k);
        const std::string id = opid(round, k, w);
        if (causal) {
          c->get_causal(
              key, [&acked, &done, c, key, id, k](
                       const Result<SednaClient::CausalRead>& r) {
                std::set<std::string> idset;
                store::VersionVector ctx;
                if (r.ok()) {
                  ctx = r->ctx;
                  for (const auto& sib : r->siblings) {
                    for (auto& t : split_ids(sib.value)) {
                      idset.insert(std::move(t));
                    }
                  }
                }
                idset.insert(id);
                c->put_causal(key, join_ids(idset), ctx,
                              [&acked, &done, id, k](
                                  const Status& st,
                                  const store::VersionVector&) {
                                if (st.ok()) acked[k].insert(id);
                                ++done;
                              });
              });
        } else {
          c->read_latest(
              key, [&acked, &done, c, key, id, k](
                       const Result<store::VersionedValue>& r) {
                std::set<std::string> idset;
                if (r.ok()) {
                  for (auto& t : split_ids(r->value)) {
                    idset.insert(std::move(t));
                  }
                }
                idset.insert(id);
                c->write_latest(key, join_ids(idset),
                                [&acked, &done, id, k](const Status& st) {
                                  if (st.ok()) acked[k].insert(id);
                                  ++done;
                                });
              });
        }
      }
    }
    h.cluster->run_until([&] { return done == kShared * 2; });
  }

  // Settle: hint replay and anti-entropy converge the healed halves.
  h.cluster->network().heal_all();
  h.cluster->run_for(sim_sec(2));

  LostUpdateArm out;
  for (std::size_t k = 0; k < kShared; ++k) {
    std::set<std::string> present;
    std::size_t done = 0;
    SednaClient* c = h.clients[0];
    if (causal) {
      c->get_causal(shared_key(k),
                    [&present, &done, c](
                        const Result<SednaClient::CausalRead>& r) {
                      if (r.ok()) {
                        for (const auto& sib : r->siblings) {
                          for (auto& t : split_ids(sib.value)) {
                            present.insert(std::move(t));
                          }
                        }
                        // Exercise the default LWW resolver too.
                        (void)c->resolve(*r);
                      }
                      ++done;
                    });
    } else {
      c->read_latest(shared_key(k),
                     [&present, &done](const Result<store::VersionedValue>&
                                           r) {
                       if (r.ok()) {
                         for (auto& t : split_ids(r->value)) {
                           present.insert(std::move(t));
                         }
                       }
                       ++done;
                     });
    }
    h.cluster->run_until([&] { return done == 1; });
    for (const auto& id : acked[k]) {
      ++out.acked;
      if (present.count(id) == 0) ++out.lost;
    }
  }
  out.sibling_reads = h.client_counter("client.sibling_reads");
  out.conflicts_resolved = h.client_counter("client.conflicts_resolved");

  if (causal) {
    // Exposition dump for promlint: this cluster exercised the causal
    // metric families (sibling reads, conflict resolutions, causal
    // repairs) for real.
    ClusterInspector inspector(*h.cluster);
    if (std::FILE* f = std::fopen(
            out_path("ablation_dvv_metrics.prom").c_str(), "w")) {
      std::fputs(inspector.metrics_text().c_str(), f);
      std::fclose(f);
    }
  }
  return out;
}

void lost_update(std::uint64_t seed) {
  std::printf("\n=== lost-update ablation (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));
  const LostUpdateArm lww = lost_update_arm(seed, /*causal=*/false);
  const LostUpdateArm dvv = lost_update_arm(seed, /*causal=*/true);

  gate("lost-update", "LWW drops acked updates under race+partition",
       lww.lost > 0,
       "lost=" + std::to_string(lww.lost) + "/" + std::to_string(lww.acked));
  gate("lost-update", "DVV retains every acked update", dvv.lost == 0,
       "lost=" + std::to_string(dvv.lost) + "/" + std::to_string(dvv.acked));
  gate("lost-update", "concurrent siblings surfaced to readers",
       dvv.sibling_reads > 0,
       "sibling_reads=" + std::to_string(dvv.sibling_reads) +
           " conflicts_resolved=" + std::to_string(dvv.conflicts_resolved));

  std::string csv = "mode,acked,lost,sibling_reads,conflicts_resolved\n";
  char buf[128];
  std::snprintf(buf, sizeof buf, "lww,%llu,%llu,%llu,%llu\n",
                static_cast<unsigned long long>(lww.acked),
                static_cast<unsigned long long>(lww.lost),
                static_cast<unsigned long long>(lww.sibling_reads),
                static_cast<unsigned long long>(lww.conflicts_resolved));
  csv += buf;
  std::snprintf(buf, sizeof buf, "dvv,%llu,%llu,%llu,%llu\n",
                static_cast<unsigned long long>(dvv.acked),
                static_cast<unsigned long long>(dvv.lost),
                static_cast<unsigned long long>(dvv.sibling_reads),
                static_cast<unsigned long long>(dvv.conflicts_resolved));
  csv += buf;
  if (std::FILE* f = std::fopen(out_path("ablation_dvv.csv").c_str(), "w")) {
    std::fputs(csv.c_str(), f);
    std::fclose(f);
    std::printf("  (ablation: ablation_dvv.csv)\n");
  }
}

void metastability(std::uint64_t seed) {
  std::printf("\n=== metastability ablation (seed %llu) ===\n",
              static_cast<unsigned long long>(seed));

  auto run_arm = [&](bool defenses_on) {
    Harness h = make_harness(seed, Defenses{defenses_on});
    OpenLoopConfig cfg;
    cfg.curve = {{0, 7000}, {sim_sec(2), 22000}, {sim_ms(3200), 7000}};
    cfg.duration = sim_sec(9);
    cfg.window = kWindow;
    auto driver = std::make_unique<OpenLoopDriver>(h.sim(), cfg,
                                                   read_issue(h, kKeys));
    driver->start();
    h.cluster->run_for(sim_sec(9) + sim_ms(300));
    const double pre = driver->mean_goodput(win(1000), win(2000));
    const double late = driver->mean_goodput(win(7000), win(9000));
    dump_windows(defenses_on ? "metastable_defenses_on"
                             : "metastable_defenses_off",
                 *driver);
    return std::make_pair(pre, late);
  };

  const auto [on_pre, on_late] = run_arm(true);
  const auto [off_pre, off_late] = run_arm(false);

  gate("metastability", "defenses ON: goodput recovers after the pulse",
       on_late >= 0.8 * on_pre, fmt2(on_late, on_pre));
  gate("metastability",
       "defenses OFF: retry amplification sustains the collapse",
       off_late <= 0.3 * off_pre, fmt2(off_late, off_pre));
}

}  // namespace

int main() {
  std::printf("Sedna open-loop chaos scenario suite\n");
  flash_crowd(2012);
  diurnal_wave(2012);
  rolling_restart(2012);
  zone_partition(2012);
  lost_update(2012);
  metastability(2012);

  if (std::FILE* f = std::fopen(out_path("scenario_suite.csv").c_str(), "w")) {
    std::fputs(g_csv.c_str(), f);
    std::fclose(f);
    // Name only: stdout is byte-diffed across runs with different out dirs.
    std::printf("\n(window series: scenario_suite.csv)\n");
  }

  if (g_failures > 0) {
    std::printf("\n%d gate(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf("\nall gates passed\n");
  return 0;
}
