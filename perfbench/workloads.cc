#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>

#include "alloc_counter.h"
#include "reference.h"
#include "cluster/monitor.h"
#include "cluster/sedna_cluster.h"
#include "common/critical_path.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workload shapes --------------------------------------------------------

// paper_rw: the Fig. 8 protocol. 9 closed-loop clients, 20 B keys and
// values, every key written once then read once.
constexpr std::uint32_t kPaperClients = 9;
constexpr std::size_t kPaperKeysPerClient = 1200;

// ycsb_skew: YCSB-B over a preloaded record set, open loop.
constexpr std::size_t kYcsbRecords = 50'000;
constexpr std::size_t kYcsbOps = 220'000;
constexpr double kYcsbRate = 7'200;  // ops/s: 60 % of the ~12k/s knee  // ops per simulated second
constexpr double kYcsbReadShare = 0.95;

// churn: zipf 50/50 stream across join, crash and restart.
constexpr std::size_t kChurnRecords = 10'000;
constexpr double kChurnRate = 2'500;
constexpr SimDuration kChurnDuration = sim_sec(12);
constexpr SimDuration kChurnJoinAt = sim_sec(1);
constexpr SimDuration kChurnCrashAt = sim_sec(6);
constexpr SimDuration kChurnRestartAt = sim_ms(9500);
constexpr std::size_t kChurnVictim = 2;  // data-node index crashed

constexpr std::uint32_t kOpenLoopClients = 9;
constexpr std::size_t kValueBytesYcsb = 100;
constexpr double kZipfTheta = 0.99;

/// Read-back sample size after quiesce.
constexpr std::size_t kVerifyKeys = 512;
/// Event-queue / ingress-queue sampling period, in fired events.
constexpr std::uint64_t kSampleEvery = 64;
/// Simulation steps between reference slices (reference.h).
constexpr std::uint64_t kReferenceEvery = 1024;
/// Reference slices at each end of set-up, so that a set-up with little
/// or no preload still measures the host's speed.
constexpr int kSetupEndSlices = 16;
/// Simulated settle time between the last op and the read-back check.
constexpr SimDuration kSettle = sim_sec(1);

// ---- seeded input generation -----------------------------------------------
// Independent of the program's own RNG and hashes, so a change to either
// cannot change the inputs.

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return splitmix64(state_);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double exponential(double mean) { return -mean * std::log1p(-uniform()); }

 private:
  std::uint64_t state_;
};

/// The record set and its popularity order are fixed; the seed draws the
/// request stream over them. A seed-dependent key set would move the hot
/// keys between nodes from seed to seed, and with them the write tail.
constexpr std::uint64_t kDatasetSeed = 2012;

/// 20-byte key "test-" + 15 digits, as in the paper's key format. The
/// digit string is a bijection of i (the stride is coprime with 10^15),
/// shifted by a fixed offset, so keys never collide.
std::vector<std::string> make_keys(std::size_t n) {
  constexpr std::uint64_t kSpace = 1'000'000'000'000'000ULL;
  constexpr std::uint64_t kStride = 387'420'489;  // 3^18
  const std::uint64_t offset = splitmix64(kDatasetSeed) % kSpace;
  std::vector<std::string> keys;
  keys.reserve(n);
  char buf[32];
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto digits = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(i) * kStride + offset) % kSpace);
    std::snprintf(buf, sizeof buf, "test-%015llu",
                  static_cast<unsigned long long>(digits));
    keys.emplace_back(buf);
  }
  return keys;
}

/// Zipf(theta) over ranks [0, n) by inverse CDF, with ranks scattered
/// over the records by a seeded permutation (hot keys land on random
/// vnodes, as in YCSB's scrambled zipfian).
class ScrambledZipf {
 public:
  ScrambledZipf(std::size_t n, double theta) : cdf_(n), record_(n) {
    InputRng rng(kDatasetSeed);
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    std::iota(record_.begin(), record_.end(), 0);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(record_[i - 1], record_[rng.next() % i]);
    }
  }
  std::uint32_t next(InputRng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    return record_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> record_;
};

/// Poisson arrivals at `rate` ops/s; each op a write with `write_share`.
std::vector<Op> open_loop_ops(std::size_t max_ops, SimDuration horizon,
                              double rate, double write_share,
                              const ScrambledZipf& zipf, InputRng& rng) {
  std::vector<Op> ops;
  double t = 0;
  const double mean_gap = 1e6 / rate;
  while (ops.size() < max_ops) {
    t += rng.exponential(mean_gap);
    if (horizon != 0 && t >= static_cast<double>(horizon)) break;
    Op op;
    op.due_us = static_cast<SimDuration>(t);
    op.write = rng.uniform() < write_share;
    op.key = zipf.next(rng);
    op.client = static_cast<std::uint32_t>(ops.size() % kOpenLoopClients);
    ops.push_back(op);
  }
  return ops;
}

// ---- cluster under test ----------------------------------------------------

/// The paper testbed (3 ZK + 6 data nodes, 1024 vnodes, N3/R2/W2, 80 µs
/// per message, simulated 1 GbE) plus the workload's own settings.
cluster::SednaClusterConfig cluster_config(const Inputs& in,
                                           const TrialOptions& options) {
  cluster::SednaClusterConfig cfg;
  cfg.zk_members = 3;
  cfg.data_nodes = 6;
  cfg.cluster.total_vnodes = 1024;
  cfg.cluster.replicas = 3;
  cfg.cluster.read_quorum = 2;
  cfg.cluster.write_quorum = 2;
  cfg.node_template.host.base_service_us = 80;
  cfg.client_template.host.base_service_us = 80;
  cfg.seed = in.seed;
  switch (in.workload) {
    case Workload::kPaperRw:
      break;
    case Workload::kYcsbSkew:
      // Production overload defenses.
      cfg.node_template.host.max_ingress_queue = 96;
      cfg.client_template.op_deadline_us = 100'000;
      cfg.client_template.retry_budget_capacity = 20.0;
      cfg.client_template.retry_budget_refill = 0.3;
      break;
    case Workload::kChurn:
      // Fast enough to re-replicate what the join left under-replicated
      // before the crash: a slower sweep turns join + crash into reads
      // that find no copy.
      cfg.node_template.anti_entropy_interval = sim_ms(250);
      cfg.node_template.anti_entropy_vnodes_per_round = 32;
      cfg.node_template.load_report_interval = sim_ms(500);
      cfg.node_template.traffic_rebalance_interval = sim_sec(2);
      cfg.node_template.traffic_rebalance.cv_trigger = 0.2;
      break;
  }
  cfg.node_template.audit.enabled = options.auditor;
  return cfg;
}

std::uint64_t counter(const MetricRegistry& m, const char* name) {
  const auto it = m.counters().find(name);
  return it == m.counters().end() ? 0 : it->second.value();
}

std::uint64_t histogram_count(const MetricRegistry& m, const char* name) {
  const auto it = m.histograms().find(name);
  return it == m.histograms().end() ? 0 : it->second.count();
}

/// Cumulative program counters at one instant; a phase's counts are the
/// difference of two snapshots.
struct Snapshot {
  std::uint64_t msgs = 0, bytes = 0, drops = 0, sheds = 0, zk_syncs = 0;
  std::uint64_t retries = 0, read_repairs = 0, items_moved = 0, ae_keys = 0;
  std::uint64_t migrations = 0;
  std::vector<std::uint64_t> replica_ops;  // per data node
  AllocCounts alloc;
};

Snapshot snapshot(cluster::SednaCluster& c) {
  Snapshot s;
  s.msgs = c.network().messages_sent();
  s.bytes = c.network().bytes_sent();
  s.drops = c.network().messages_dropped();
  for (std::size_t i = 0; i < c.data_node_count(); ++i) {
    auto& node = c.node(i);
    const MetricRegistry& m = node.metrics();
    s.sheds += node.shed_queue_full() + node.shed_deadline();
    s.zk_syncs += node.metadata().syncs_run();
    s.read_repairs += counter(m, "coordinator.read_repairs");
    s.items_moved += counter(m, "transfer.items_received");
    s.ae_keys += counter(m, "antientropy.keys_pushed") +
                 counter(m, "antientropy.keys_pulled");
    s.migrations += histogram_count(m, "rebalance.cutover_latency_us");
    s.replica_ops.push_back(counter(m, "replica.reads") +
                            counter(m, "replica.writes"));
  }
  for (std::size_t i = 0; i < c.client_count(); ++i) {
    auto& client = c.client(i);
    s.zk_syncs += client.metadata().syncs_run();
    s.retries += counter(client.metrics(), "client.read_retries") +
                 counter(client.metrics(), "client.write_retries");
  }
  s.alloc = alloc_counts();
  return s;
}

/// Percentile of integer samples, interpolated inside the unit bin that
/// holds rank q·n (grouped-data quantile): ties spread evenly over
/// [x - 0.5, x + 0.5) instead of reading back as one repeated integer.
double quantile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size());
  const auto idx = std::min(static_cast<std::size_t>(rank), sorted.size() - 1);
  const std::uint64_t x = sorted[idx];
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), x);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), x);
  const auto below = static_cast<double>(lo - sorted.begin());
  const auto count = static_cast<double>(hi - lo);
  return static_cast<double>(x) - 0.5 + (rank - below) / count;
}

LatencySummary summarize(std::vector<std::uint64_t>& lat) {
  std::sort(lat.begin(), lat.end());
  return {lat.size(), quantile(lat, 0.5), quantile(lat, 0.999)};
}

/// Writes to one sampled key: (issue time, write id, acked).
struct WriteRecord {
  SimTime issued = 0;
  std::uint64_t wid = 0;
  bool acked = false;
};

class Trial {
 public:
  Trial(const Inputs& in, const TrialOptions& options, Reference& ref)
      : in_(in), opt_(options), ref_(ref), written_(in.keys.size(), false) {
    const std::size_t stride = std::max<std::size_t>(
        1, in.keys.size() / kVerifyKeys);
    for (std::size_t k = 0; k < in.keys.size(); k += stride) {
      sampled_[k] = {};
    }
  }

  TrialResult run() {
    const auto t0 = Clock::now();
    const Reference::Tally r0 = ref_.tally();
    if (!setup()) return std::move(out_);
    const auto [wall, speed] = phase_wall(t0, r0);
    out_.setup_s = wall * speed;
    if (!measure()) return std::move(out_);
    verify();
    return std::move(out_);
  }

 private:
  sim::Simulation& sim() { return cluster_->sim(); }

  /// Wall seconds since t0 less the reference slices run since r0, and
  /// the host speed those slices measured.
  std::pair<double, double> phase_wall(Clock::time_point t0,
                                       const Reference::Tally& r0) const {
    const Reference::Tally r1 = ref_.tally();
    return {seconds_since(t0) - (r1.seconds - r0.seconds),
            Reference::speed(r0, r1)};
  }

  void setup_end_slices() {
    for (int i = 0; i < kSetupEndSlices; ++i) ref_.slice();
  }

  bool fail(const std::string& why) {
    out_.error = why;
    return false;
  }

  bool setup() {
    setup_end_slices();
    cluster_ = std::make_unique<cluster::SednaCluster>(
        cluster_config(in_, opt_));
    if (!cluster_->boot().ok()) return fail("cluster failed to boot");
    for (std::uint32_t c = 0; c < in_.clients; ++c) {
      auto& client = cluster_->make_client();
      if (!client.ready()) return fail("client failed to start");
      clients_.push_back(&client);
    }
    if (opt_.monitor) cluster_->enable_monitor();
    // Preload in windows of four concurrent writes per client.
    std::size_t next = 0;
    std::size_t acked = 0;
    while (next < in_.preload) {
      const std::size_t end = std::min(next + 4 * in_.clients, in_.preload);
      const std::size_t want = end - next;
      std::size_t done = 0;
      for (; next < end; ++next) {
        const std::size_t k = next;
        note_issue(k, k);
        clients_[k % in_.clients]->write_latest(
            in_.keys[k], in_.value(k),
            [this, k, &done, &acked](const Status& st) {
              ++done;
              if (st.ok()) {
                ++acked;
                note_ack(k, k);
              }
            });
      }
      if (!drive([&] { return done == want; }, /*measured=*/false)) {
        return fail("preload stalled");
      }
    }
    if (acked != in_.preload) return fail("preload writes failed");
    setup_end_slices();
    return true;
  }

  bool measure() {
    AttributionAggregator agg;
    if (opt_.trace) {
      sim().tracer().set_on_trace_finished(
          [&agg](TraceId id, const Tracer::TraceRecord& rec) {
            if (rec.op.rfind("client.", 0) == 0) agg.observe(id, rec);
          });
      sim().tracer().set_enabled(true);
    }
    const Snapshot before = snapshot(*cluster_);
    const SimTime start = sim().now();
    const auto t0 = Clock::now();
    const Reference::Tally r0 = ref_.tally();
    const bool ok = in_.open_loop() ? run_open_loop() : run_closed_loop();
    const auto [wall, speed] = phase_wall(t0, r0);
    if (!ok) return false;
    // Every measured-phase wall figure is reported at reference speed.
    out_.measure_wall_s = wall;
    out_.measure_speed = speed;
    out_.measure_s = wall * speed;
    out_.join_wall_s *= speed;
    out_.restart_wall_s *= speed;
    c_.sim_us = sim().now() - start;
    const Snapshot after = snapshot(*cluster_);
    if (opt_.trace) {
      sim().tracer().set_enabled(false);
      sim().tracer().set_on_trace_finished({});
      record_attribution(agg);
    }
    record_counts(before, after);
    return true;
  }

  // ---- closed loop (paper_rw) ----------------------------------------------

  bool run_closed_loop() {
    const std::size_t per = in_.keys_per_client;
    for (const bool write_phase : {true, false}) {
      std::vector<std::size_t> done_keys(in_.clients, 0);
      std::uint32_t finished = 0;
      std::function<void(std::uint32_t)> next = [&](std::uint32_t c) {
        if (done_keys[c] == per) {
          ++finished;
          return;
        }
        const std::size_t k = c * per + done_keys[c]++;
        if (write_phase) {
          issue_write(c, k, k, sim().now(), [&next, c] { next(c); });
        } else {
          issue_read(c, k, sim().now(), [&next, c] { next(c); });
        }
      };
      for (std::uint32_t c = 0; c < in_.clients; ++c) next(c);
      if (!drive([&] { return finished == in_.clients; })) {
        return fail("closed loop stalled");
      }
    }
    return true;
  }

  // ---- open loop (ycsb_skew, churn) ----------------------------------------

  void schedule_arrival(std::size_t i) {
    if (i >= in_.ops.size()) return;
    const SimTime due = phase_start_ + in_.ops[i].due_us;
    sim().schedule(due - sim().now(), [this, i, due] {
      const Op& op = in_.ops[i];
      if (op.write) {
        issue_write(op.client, op.key, in_.preload + i, due, {});
      } else {
        issue_read(op.client, op.key, due, {});
      }
      ++issued_;
      schedule_arrival(i + 1);
    });
  }

  bool run_open_loop() {
    phase_start_ = sim().now();
    schedule_arrival(0);
    if (in_.workload == Workload::kChurn && !run_churn_schedule()) {
      return false;
    }
    if (!drive([&] { return issued_ == in_.ops.size() && outstanding_ == 0; })) {
      return fail("open loop stalled");
    }
    return true;
  }

  /// join → crash → restart, each at its fixed offset into the stream.
  bool run_churn_schedule() {
    auto at = [&](SimDuration offset) {
      return drive([&] { return sim().now() >= phase_start_ + offset; });
    };
    if (!at(in_.join_at)) return fail("churn stalled before join");
    auto t0 = Clock::now();
    SimTime s0 = sim().now();
    if (!cluster_->join_new_node().ok()) return fail("join failed");
    out_.join_wall_s = seconds_since(t0);
    c_.join_sim_us = sim().now() - s0;

    if (!at(in_.crash_at)) return fail("churn stalled before crash");
    cluster_->crash_node(kChurnVictim);

    if (!at(in_.restart_at)) return fail("churn stalled before restart");
    t0 = Clock::now();
    s0 = sim().now();
    cluster_->restart_node(kChurnVictim);
    if (!cluster_->node(kChurnVictim).ready()) return fail("restart failed");
    out_.restart_wall_s = seconds_since(t0);
    c_.restart_sim_us = sim().now() - s0;
    return true;
  }

  // ---- op issue and completion ---------------------------------------------

  void issue_write(std::uint32_t client, std::size_t k, std::uint64_t wid,
                   SimTime due, std::function<void()> then) {
    ++c_.attempted;
    ++outstanding_;
    note_issue(k, wid);
    const std::string value = in_.value(wid);
    const auto t0 = opt_.time_issue ? Clock::now() : Clock::time_point{};
    clients_[client]->write_latest(
        in_.keys[k], value,
        [this, k, wid, due, then = std::move(then)](const Status& st) {
          // kOutdated is a settled LWW answer: a newer write won.
          complete(write_lat_, due, st.ok() || st.is(StatusCode::kOutdated));
          if (st.ok()) note_ack(k, wid);
          if (then) then();
        });
    if (opt_.time_issue) add_issue_time(t0);
  }

  void issue_read(std::uint32_t client, std::size_t k, SimTime due,
                  std::function<void()> then) {
    ++c_.attempted;
    ++outstanding_;
    const auto t0 = opt_.time_issue ? Clock::now() : Clock::time_point{};
    clients_[client]->read_latest(
        in_.keys[k], [this, k, due, then = std::move(then)](
                         const Result<store::VersionedValue>& r) {
          if (r.ok() || r.status().is(StatusCode::kNotFound)) {
            complete(read_lat_, due, true);
            // Every key read was written and acked before: a miss, or in
            // the closed loop any value but the one written, is wrong.
            if (!r.ok() ||
                (!in_.open_loop() && r.value().value != in_.value(k))) {
              ++c_.lost_reads;
            }
          } else {
            complete(read_lat_, due, false);
          }
          if (then) then();
        });
    if (opt_.time_issue) add_issue_time(t0);
  }

  /// Failed ops keep their time-to-failure as their latency sample.
  void complete(std::vector<std::uint64_t>& lat, SimTime due, bool ok) {
    --outstanding_;
    lat.push_back(sim().now() - due);
    if (!ok) ++c_.failed;
  }

  void add_issue_time(Clock::time_point t0) {
    issue_ns_ += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                     .count();
    ++issue_calls_;
  }

  void note_issue(std::size_t k, std::uint64_t wid) {
    written_[k] = true;
    const auto it = sampled_.find(k);
    if (it != sampled_.end()) it->second.push_back({sim().now(), wid, false});
  }

  void note_ack(std::size_t k, std::uint64_t wid) {
    const auto it = sampled_.find(k);
    if (it == sampled_.end()) return;
    for (WriteRecord& w : it->second) {
      if (w.wid == wid) w.acked = true;
    }
  }

  // ---- event loop ----------------------------------------------------------

  /// Steps the simulation until done() holds, running a reference slice
  /// every kReferenceEvery steps. Measured-phase steps are counted and
  /// sample the event queue and the data nodes' ingress queues.
  bool drive(const std::function<bool()>& done, bool measured = true) {
    const SimTime limit = sim().now() + sim_sec(600);
    while (!done()) {
      if (sim().now() > limit || !sim().step()) return false;
      if (++steps_ % kReferenceEvery == 0) ref_.slice();
      if (measured && ++c_.steps % kSampleEvery == 0) sample_queues();
    }
    return true;
  }

  void sample_queues() {
    const std::uint64_t pending = sim().pending_events();
    ++c_.pending_samples;
    c_.pending_sum += pending;
    c_.pending_max = std::max(c_.pending_max, pending);
    for (std::size_t i = 0; i < cluster_->data_node_count(); ++i) {
      const std::uint64_t depth = cluster_->node(i).queue_depth();
      ++c_.qdepth_samples;
      c_.qdepth_sum += depth;
      c_.qdepth_max = std::max(c_.qdepth_max, depth);
    }
  }

  // ---- results ---------------------------------------------------------------

  void record_counts(const Snapshot& before, const Snapshot& after) {
    c_.msgs = after.msgs - before.msgs;
    c_.bytes = after.bytes - before.bytes;
    c_.drops = after.drops - before.drops;
    c_.sheds = after.sheds - before.sheds;
    c_.zk_syncs = after.zk_syncs - before.zk_syncs;
    c_.retries = after.retries - before.retries;
    c_.read_repairs = after.read_repairs - before.read_repairs;
    c_.items_moved = after.items_moved - before.items_moved;
    c_.ae_keys = after.ae_keys - before.ae_keys;
    c_.migrations = after.migrations - before.migrations;
    for (std::size_t i = 0; i < after.replica_ops.size(); ++i) {
      const std::uint64_t ops =
          after.replica_ops[i] -
          (i < before.replica_ops.size() ? before.replica_ops[i] : 0);
      c_.replica_ops += ops;
      c_.replica_ops_busiest = std::max(c_.replica_ops_busiest, ops);
    }
    const AllocCounts alloc = after.alloc - before.alloc;
    c_.allocs = alloc.allocs;
    c_.alloc_bytes = alloc.bytes;
    c_.read = summarize(read_lat_);
    c_.write = summarize(write_lat_);
    for (std::size_t i = 0; i < cluster_->data_node_count(); ++i) {
      auto& store = cluster_->node(i).local_store();
      c_.items_per_node_max =
          std::max<std::uint64_t>(c_.items_per_node_max, store.size());
      c_.store_bytes += store.slab_charged_bytes();
    }
    const auto distinct = static_cast<std::uint64_t>(
        std::count(written_.begin(), written_.end(), true));
    c_.user_bytes = distinct * (in_.keys[0].size() + in_.value_bytes);
    if (issue_calls_ > 0) {
      out_.issue_ns = issue_ns_ / static_cast<double>(issue_calls_) *
                      out_.measure_speed;
    }
  }

  void record_attribution(const AttributionAggregator& agg) {
    Attribution& a = out_.attribution;
    a.coverage_min = agg.min_coverage();
    const StageBreakdown& sum = agg.sum();
    for (std::size_t s = 0; s < kTraceStageCount; ++s) {
      a.share[s] = sum.total_us == 0
                       ? 0.0
                       : static_cast<double>(sum.us[s]) /
                             static_cast<double>(sum.total_us);
      a.p99_us[s] = static_cast<double>(agg.stage_p99(
          static_cast<TraceStage>(s)));
    }
  }

  /// After quiesce, every sampled key must read back a value its latest
  /// acked write could have left: that write's, or one issued at or after
  /// it (a same-instant tie, or a later write that failed but landed).
  void verify() {
    cluster_->run_for(kSettle);
    for (const auto& [k, writes] : sampled_) {
      SimTime newest_acked = 0;
      bool any_acked = false;
      for (const WriteRecord& w : writes) {
        if (w.acked && (!any_acked || w.issued > newest_acked)) {
          newest_acked = w.issued;
          any_acked = true;
        }
      }
      if (!any_acked) continue;
      ++c_.verified;
      const auto got = cluster_->read_latest(*clients_[0], in_.keys[k]);
      bool match = false;
      for (const WriteRecord& w : writes) {
        if (w.issued >= newest_acked && got.ok() &&
            got.value().value == in_.value(w.wid)) {
          match = true;
        }
      }
      if (!match) ++c_.mismatches;
    }
    out_.counts = c_;
  }

  const Inputs& in_;
  const TrialOptions opt_;
  Reference& ref_;
  TrialResult out_;
  Counts c_;
  std::unique_ptr<cluster::SednaCluster> cluster_;
  std::vector<cluster::SednaClient*> clients_;
  std::vector<std::uint64_t> read_lat_;
  std::vector<std::uint64_t> write_lat_;
  std::vector<bool> written_;
  std::map<std::size_t, std::vector<WriteRecord>> sampled_;
  SimTime phase_start_ = 0;
  std::size_t issued_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t steps_ = 0;  // every step drive() took, set-up included
  double issue_ns_ = 0;
  std::uint64_t issue_calls_ = 0;
};

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (const Workload w :
       {Workload::kPaperRw, Workload::kYcsbSkew, Workload::kChurn}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperRw: return "paper_rw";
    case Workload::kYcsbSkew: return "ycsb_skew";
    case Workload::kChurn: return "churn";
  }
  return "?";
}

std::string Inputs::value(std::uint64_t wid) const {
  // splitmix64 is a bijection, so the first 16 hex digits are unique per
  // write id; the rest repeat them to the value size.
  static constexpr char kHex[] = "0123456789abcdef";
  const std::uint64_t h = splitmix64(seed ^ (wid * 0xd1b54a32d192ed03ULL));
  std::string v(value_bytes, '0');
  for (std::size_t i = 0; i < value_bytes; ++i) {
    v[i] = kHex[(h >> ((i % 16) * 4)) & 0xf];
  }
  return v;
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  InputRng rng(seed ^ 0x5ed7a2012ULL);
  switch (w) {
    case Workload::kPaperRw:
      in.clients = kPaperClients;
      in.keys_per_client = kPaperKeysPerClient;
      in.keys = make_keys(kPaperClients * kPaperKeysPerClient);
      in.value_bytes = 20;
      break;
    case Workload::kYcsbSkew: {
      in.clients = kOpenLoopClients;
      in.keys = make_keys(kYcsbRecords);
      in.value_bytes = kValueBytesYcsb;
      in.preload = kYcsbRecords;
      const ScrambledZipf zipf(kYcsbRecords, kZipfTheta);
      in.ops = open_loop_ops(kYcsbOps, 0, kYcsbRate, 1.0 - kYcsbReadShare,
                             zipf, rng);
      break;
    }
    case Workload::kChurn: {
      in.clients = kOpenLoopClients;
      in.keys = make_keys(kChurnRecords);
      in.value_bytes = kValueBytesYcsb;
      in.preload = kChurnRecords;
      const ScrambledZipf zipf(kChurnRecords, kZipfTheta);
      in.ops = open_loop_ops(SIZE_MAX, kChurnDuration, kChurnRate, 0.5, zipf,
                             rng);
      in.join_at = kChurnJoinAt;
      in.crash_at = kChurnCrashAt;
      in.restart_at = kChurnRestartAt;
      break;
    }
  }
  return in;
}

std::vector<std::pair<std::string, double>> Counts::fingerprint() const {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"attempted", d(attempted)},   {"failed", d(failed)},
      {"read.samples", d(read.samples)}, {"read.p50", read.p50_us},
      {"read.p999", read.p999_us},   {"write.samples", d(write.samples)},
      {"write.p50", write.p50_us},   {"write.p999", write.p999_us},
      {"sim_us", d(sim_us)},         {"steps", d(steps)},
      {"pending_sum", d(pending_sum)}, {"pending_max", d(pending_max)},
      {"qdepth_sum", d(qdepth_sum)}, {"qdepth_max", d(qdepth_max)},
      {"msgs", d(msgs)},             {"bytes", d(bytes)},
      {"drops", d(drops)},           {"sheds", d(sheds)},
      {"replica_ops", d(replica_ops)},
      {"replica_ops_busiest", d(replica_ops_busiest)},
      {"zk_syncs", d(zk_syncs)},     {"retries", d(retries)},
      {"read_repairs", d(read_repairs)}, {"items_moved", d(items_moved)},
      {"ae_keys", d(ae_keys)},       {"migrations", d(migrations)},
      {"items_per_node_max", d(items_per_node_max)},
      {"store_bytes", d(store_bytes)}, {"join_sim_us", d(join_sim_us)},
      {"restart_sim_us", d(restart_sim_us)},
      {"lost_reads", d(lost_reads)}, {"verified", d(verified)},
      {"mismatches", d(mismatches)},
  };
}

TrialResult run_trial(const Inputs& in, const TrialOptions& options,
                      Reference& ref) {
  return Trial(in, options, ref).run();
}

}  // namespace perfbench
