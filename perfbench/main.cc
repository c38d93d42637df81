// sedna_perfbench: the Sedna benchmark binary.
//
//   sedna_perfbench --workload paper_rw|ycsb_skew|churn --seed N
//                   --seconds S --trace 0|1
//
// Repeats whole trials (fresh cluster, set-up, measured phase, read-back
// check) of one workload for about S wall seconds in this one process,
// then prints every metric as "name value unit" and, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0: the end-to-end metrics, tracing off. Wall-clock figures are
// medians over the trials, each at reference speed (reference.h);
// simulated-clock figures come from the first trial, and every later
// trial must reproduce them exactly.
// --trace 1: the per-layer metrics. Trials cycle through plain, traced,
// monitored and audited runs (observability cost pairs), then the store,
// ring and codec are replayed standalone over the workload's inputs.
//
// Exits 1 on a correctness violation (the JSON still prints, with
// "correct": false) and 2 on bad arguments or a run that cannot finish.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "layers.h"
#include "reference.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinTrials = 3;
constexpr int kMaxTrials = 400;

struct Args {
  Workload workload = Workload::kPaperRw;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* out) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = parse_workload(val, &out->workload);
      if (!have_workload) return false;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || out->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      out->trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Wall-clock figures are medians over the run's trials.
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Runs trials cycling through `variants` until `seconds` of wall time
/// have passed (at least kMinTrials trials and one full cycle). Returns
/// per-variant trial lists; aborts the process if a trial cannot finish.
std::vector<std::vector<TrialResult>> run_trials(
    const Inputs& in, const std::vector<TrialOptions>& variants,
    double seconds, Reference& ref) {
  std::vector<std::vector<TrialResult>> out(variants.size());
  const auto start = Clock::now();
  double longest_cycle = 0;
  for (int trial = 0; trial < kMaxTrials;) {
    const auto cycle_start = Clock::now();
    for (std::size_t v = 0; v < variants.size(); ++v, ++trial) {
      TrialResult r = run_trial(in, variants[v], ref);
      if (!r.error.empty()) {
        std::fprintf(stderr, "trial %d: %s\n", trial, r.error.c_str());
        std::exit(2);
      }
      out[v].push_back(std::move(r));
    }
    const double now =
        std::chrono::duration<double>(Clock::now() - start).count();
    longest_cycle = std::max(
        longest_cycle,
        std::chrono::duration<double>(Clock::now() - cycle_start).count());
    if (trial >= kMinTrials && now + longest_cycle > seconds) break;
  }
  return out;
}

/// Names of fingerprint fields that differ between two trials.
std::vector<std::string> diff_fields(const Counts& a, const Counts& b) {
  std::vector<std::string> diffs;
  const auto fa = a.fingerprint();
  const auto fb = b.fingerprint();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (fa[i].second != fb[i].second) diffs.push_back(fa[i].first);
  }
  return diffs;
}

/// Simulated-clock results a user sees: they must not move when an
/// observability layer is switched on.
std::size_t sim_metric_diffs(const Counts& a, const Counts& b) {
  const double av[] = {static_cast<double>(a.read.samples), a.read.p50_us,
                       a.read.p999_us, static_cast<double>(a.write.samples),
                       a.write.p50_us, a.write.p999_us,
                       static_cast<double>(a.failed)};
  const double bv[] = {static_cast<double>(b.read.samples), b.read.p50_us,
                       b.read.p999_us, static_cast<double>(b.write.samples),
                       b.write.p50_us, b.write.p999_us,
                       static_cast<double>(b.failed)};
  std::size_t n = 0;
  for (std::size_t i = 0; i < std::size(av); ++i) n += av[i] != bv[i];
  return n;
}

/// Checks every trial against the first: program counts reproduce
/// exactly and the read-back found no lost or wrong value.
bool check_trials(const Args& args, const std::vector<TrialResult>& trials) {
  bool ok = true;
  const Counts& first = trials.front().counts;
  for (std::size_t t = 0; t < trials.size(); ++t) {
    const Counts& c = trials[t].counts;
    if (c.mismatches != 0) {
      std::printf("VIOLATION trial %zu: %llu of %llu keys read back a lost "
                  "or wrong value after quiesce\n",
                  t, static_cast<unsigned long long>(c.mismatches),
                  static_cast<unsigned long long>(c.verified));
      ok = false;
    }
    // Membership is steady outside churn, so no read may miss there;
    // churn's in-flight misses are reported as client.lost_reads.
    if (args.workload != Workload::kChurn && c.lost_reads != 0) {
      std::printf("VIOLATION trial %zu: %llu reads lost an acked write\n", t,
                  static_cast<unsigned long long>(c.lost_reads));
      ok = false;
    }
    if (args.workload == Workload::kPaperRw && c.failed != 0) {
      std::printf("VIOLATION trial %zu: %llu paper_rw ops failed\n", t,
                  static_cast<unsigned long long>(c.failed));
      ok = false;
    }
    for (const std::string& field : diff_fields(first, c)) {
      std::printf("VIOLATION trial %zu: %s differs from trial 0 on the same "
                  "seed\n",
                  t, field.c_str());
      ok = false;
    }
  }
  return ok;
}

std::vector<double> walls(const std::vector<TrialResult>& trials,
                          double TrialResult::*field) {
  std::vector<double> v;
  for (const TrialResult& t : trials) v.push_back(t.*field);
  return v;
}

/// Measured-phase wall time spent in the benchmark's own event loop:
/// join and restart drive the simulation themselves, uncounted.
std::vector<double> loop_walls(const std::vector<TrialResult>& trials) {
  std::vector<double> v;
  for (const TrialResult& t : trials) {
    v.push_back(t.measure_s - t.join_wall_s - t.restart_wall_s);
  }
  return v;
}

std::vector<Metric> end_to_end_metrics(const std::vector<TrialResult>& runs) {
  const Counts& c = runs.front().counts;
  const double measure_s = median(walls(runs, &TrialResult::measure_s));
  return {
      {"ops_per_s", static_cast<double>(c.attempted) / measure_s, "1/s"},
      {"setup_s", median(walls(runs, &TrialResult::setup_s)), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_read_p50_us", c.read.p50_us, "us"},
      {"sim_read_p999_us", c.read.p999_us, "us"},
      {"sim_write_p50_us", c.write.p50_us, "us"},
      {"sim_write_p999_us", c.write.p999_us, "us"},
  };
}

std::vector<Metric> per_layer_metrics(
    const Inputs& in, const std::vector<std::vector<TrialResult>>& runs) {
  const std::vector<TrialResult>& base = runs[0];
  const Counts& c = base.front().counts;
  const double ops = static_cast<double>(c.attempted);
  const double base_wall = median(walls(base, &TrialResult::measure_s));
  auto overhead = [&](std::size_t v) {
    return median(walls(runs[v], &TrialResult::measure_s)) / base_wall - 1.0;
  };
  const LayerTimes layers = replay_layers(in, c.items_per_node_max);
  const Attribution& a = runs[1].front().attribution;

  std::vector<Metric> m = {
      {"failed_op_ratio", ratio(static_cast<double>(c.failed), ops), "ratio"},
      {"ops_per_wall_s", ops / median(walls(base, &TrialResult::measure_wall_s)),
       "1/s"},
      {"ref.host_speed", median(walls(base, &TrialResult::measure_speed)),
       "ratio"},
      {"sim.read_samples", static_cast<double>(c.read.samples), "count"},
      {"sim.write_samples", static_cast<double>(c.write.samples), "count"},
      {"sim.events_per_op", ratio(static_cast<double>(c.steps), ops),
       "events/op"},
      {"sim.ns_per_event",
       ratio(median(loop_walls(base)) * 1e9, static_cast<double>(c.steps)),
       "ns"},
      {"sim.pending_mean",
       ratio(static_cast<double>(c.pending_sum),
             static_cast<double>(c.pending_samples)),
       "events"},
      {"sim.pending_max", static_cast<double>(c.pending_max), "events"},
      {"net.msgs_per_op", ratio(static_cast<double>(c.msgs), ops), "msgs/op"},
      {"net.bytes_per_op", ratio(static_cast<double>(c.bytes), ops), "B/op"},
      {"net.drop_ratio",
       ratio(static_cast<double>(c.drops), static_cast<double>(c.msgs)),
       "ratio"},
      {"host.queue_depth_mean",
       ratio(static_cast<double>(c.qdepth_sum),
             static_cast<double>(c.qdepth_samples)),
       "msgs"},
      {"host.queue_depth_max", static_cast<double>(c.qdepth_max), "msgs"},
      {"host.shed_ratio", ratio(static_cast<double>(c.sheds), ops), "ratio"},
      {"host.hot_node_share",
       ratio(static_cast<double>(c.replica_ops_busiest),
             static_cast<double>(c.replica_ops)),
       "ratio"},
      {"store.write_latest_ns", layers.store_write_latest_ns, "ns"},
      {"store.read_latest_ns", layers.store_read_latest_ns, "ns"},
      {"store.vnode_scan_ms", layers.store_vnode_scan_ms, "ms"},
      {"store.bytes_per_user_byte",
       ratio(static_cast<double>(c.store_bytes),
             static_cast<double>(c.user_bytes)),
       "ratio"},
      {"store.items_per_node_max", static_cast<double>(c.items_per_node_max),
       "count"},
      {"ring.lookup_ns", layers.ring_lookup_ns, "ns"},
      {"codec.write_request_ns", layers.codec_write_request_ns, "ns"},
      {"codec.read_reply_ns", layers.codec_read_reply_ns, "ns"},
      {"zk.metadata_syncs_per_sim_s",
       ratio(static_cast<double>(c.zk_syncs),
             static_cast<double>(c.sim_us) / 1e6),
       "1/s"},
      {"client.issue_ns", median(walls(base, &TrialResult::issue_ns)), "ns"},
      {"client.retry_ratio", ratio(static_cast<double>(c.retries), ops),
       "ratio"},
      {"client.lost_reads", static_cast<double>(c.lost_reads), "count"},
      {"coord.read_repairs_per_read",
       ratio(static_cast<double>(c.read_repairs),
             static_cast<double>(c.read.samples)),
       "ratio"},
      {"transfer.join_wall_s", median(walls(base, &TrialResult::join_wall_s)),
       "s"},
      {"transfer.join_sim_ms", static_cast<double>(c.join_sim_us) / 1e3,
       "ms"},
      {"transfer.restart_wall_s",
       median(walls(base, &TrialResult::restart_wall_s)), "s"},
      {"transfer.restart_sim_ms", static_cast<double>(c.restart_sim_us) / 1e3,
       "ms"},
      {"transfer.items_moved", static_cast<double>(c.items_moved), "count"},
      {"antientropy.keys_repaired", static_cast<double>(c.ae_keys), "count"},
      {"rebalance.migrations", static_cast<double>(c.migrations), "count"},
      {"alloc.per_op", ratio(static_cast<double>(c.allocs), ops),
       "allocs/op"},
      {"alloc.bytes_per_op", ratio(static_cast<double>(c.alloc_bytes), ops),
       "B/op"},
  };
  for (const TraceStage s :
       {TraceStage::kQueue, TraceStage::kNet, TraceStage::kService,
        TraceStage::kZk, TraceStage::kRetry, TraceStage::kRepair,
        TraceStage::kMigration}) {
    const auto i = static_cast<std::size_t>(s);
    m.push_back({std::string("stage.") + to_string(s) + "_share", a.share[i],
                 "ratio"});
    m.push_back({std::string("stage.") + to_string(s) + "_p99_us",
                 a.p99_us[i], "us"});
  }
  m.push_back({"trace.coverage_min", a.coverage_min, "ratio"});
  m.push_back({"obs.tracer_overhead", overhead(1), "ratio"});
  m.push_back({"obs.monitor_overhead", overhead(2), "ratio"});
  m.push_back({"obs.auditor_overhead", overhead(3), "ratio"});
  m.push_back({"obs.tracer_sim_diffs",
               static_cast<double>(
                   sim_metric_diffs(c, runs[1].front().counts)),
               "count"});
  m.push_back({"obs.monitor_sim_diffs",
               static_cast<double>(
                   sim_metric_diffs(c, runs[2].front().counts)),
               "count"});
  return m;
}

void print_result(bool correct, const Counts& c,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(c.attempted);
  json += ", \"failed\": " + std::to_string(c.failed);
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    json += buf;
    json += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(const Args& args) {
  const Inputs in = make_inputs(args.workload, args.seed);
  std::vector<TrialOptions> variants;
  if (!args.trace) {
    variants = {TrialOptions{}};
  } else {
    TrialOptions plain;
    plain.time_issue = true;
    TrialOptions traced = plain;
    traced.trace = true;
    TrialOptions monitored = plain;
    monitored.monitor = true;
    TrialOptions audited = plain;
    audited.auditor = true;
    variants = {plain, traced, monitored, audited};
  }
  Reference ref;
  const auto runs = run_trials(in, variants, args.seconds, ref);
  const bool correct = check_trials(args, runs[0]);
  const Counts& c = runs[0].front().counts;
  std::printf("workload %s seed %llu: %zu trials, %llu reads, %llu writes "
              "per trial\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), runs[0].size(),
              static_cast<unsigned long long>(c.read.samples),
              static_cast<unsigned long long>(c.write.samples));
  print_result(correct, c,
               args.trace ? per_layer_metrics(in, runs)
                          : end_to_end_metrics(runs[0]));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper_rw|ycsb_skew|churn --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  return perfbench::run(args);
}
