// The benchmark's three workloads: their inputs (made from the seed
// alone), the cluster each runs on, and one trial — set-up, measured
// phase, quiesce and read-back check — driven from outside the program
// through SednaCluster / SednaClient and the simulation's public API.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/types.h"

namespace perfbench {

// The benchmark is a client of the sedna library throughout.
using namespace sedna;  // NOLINT

class Reference;

enum class Workload { kPaperRw, kYcsbSkew, kChurn };

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);

/// One open-loop operation: a read or write of keys[key], due `due_us`
/// after the measured phase starts, issued by client `client`.
struct Op {
  std::uint32_t key = 0;
  std::uint32_t client = 0;
  bool write = false;
  SimDuration due_us = 0;
};

/// Everything a workload feeds the program. The same seed gives the same
/// inputs; the program sees only these keys, values and arrival times.
struct Inputs {
  Workload workload = Workload::kPaperRw;
  std::uint64_t seed = 0;
  std::vector<std::string> keys;
  std::size_t value_bytes = 20;
  /// keys[0, preload) are written (write ids 0..preload-1) during set-up.
  std::size_t preload = 0;
  std::uint32_t clients = 9;
  /// Closed loop (paper_rw): client c writes then reads
  /// keys[c*keys_per_client, (c+1)*keys_per_client) in order.
  std::size_t keys_per_client = 0;
  /// Open loop (ycsb_skew, churn): arrivals in due order. Write i of the
  /// measured phase carries write id preload + i.
  std::vector<Op> ops;
  /// churn only: schedule offsets from the start of the measured phase.
  SimDuration join_at = 0;
  SimDuration crash_at = 0;
  SimDuration restart_at = 0;

  [[nodiscard]] bool open_loop() const { return !ops.empty(); }
  /// Value carried by write id `wid`: unique per write, value_bytes long.
  [[nodiscard]] std::string value(std::uint64_t wid) const;
};

Inputs make_inputs(Workload w, std::uint64_t seed);

/// Instrumentation switched on for one trial.
struct TrialOptions {
  bool trace = false;       // Simulation::tracer() + critical-path attribution
  bool monitor = false;     // SednaCluster::enable_monitor()
  bool auditor = false;     // consistency auditor on every data node
  bool time_issue = false;  // steady-clock the synchronous client calls
};

/// Exact percentile summary of one op type's simulated latencies.
struct LatencySummary {
  std::uint64_t samples = 0;
  double p50_us = 0;
  double p999_us = 0;
};

/// Program counters over the measured phase. Every field is a pure
/// function of the seed: reruns must reproduce them exactly.
struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  LatencySummary read;
  LatencySummary write;
  SimDuration sim_us = 0;
  std::uint64_t steps = 0;
  std::uint64_t pending_samples = 0;
  std::uint64_t pending_sum = 0;
  std::uint64_t pending_max = 0;
  std::uint64_t qdepth_samples = 0;
  std::uint64_t qdepth_sum = 0;
  std::uint64_t qdepth_max = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t sheds = 0;
  std::uint64_t replica_ops = 0;
  std::uint64_t replica_ops_busiest = 0;
  std::uint64_t zk_syncs = 0;
  std::uint64_t retries = 0;
  std::uint64_t read_repairs = 0;
  std::uint64_t items_moved = 0;
  std::uint64_t ae_keys = 0;
  std::uint64_t migrations = 0;
  std::uint64_t items_per_node_max = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t user_bytes = 0;
  SimDuration join_sim_us = 0;
  SimDuration restart_sim_us = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  /// Measured-phase reads that answered not-found (or, in the closed
  /// loop, a value other than the one written) for an acked key.
  std::uint64_t lost_reads = 0;
  /// Read-back after quiesce: sampled keys checked, and those whose value
  /// no acked write could have left.
  std::uint64_t verified = 0;
  std::uint64_t mismatches = 0;

  /// Fields that must repeat exactly when a seed is rerun, as
  /// name/value pairs (latency percentiles included).
  [[nodiscard]] std::vector<std::pair<std::string, double>> fingerprint()
      const;
};

/// Critical-path attribution of a traced trial's client ops.
struct Attribution {
  std::array<double, kTraceStageCount> share{};
  std::array<double, kTraceStageCount> p99_us{};
  double coverage_min = 1.0;
};

struct TrialResult {
  /// Non-empty when the trial could not run to completion (boot failed,
  /// the simulation stalled); the run is then invalid.
  std::string error;
  /// Wall-clock figures at reference speed (reference.h): wall time less
  /// the reference slices run in the same phase, times the host speed
  /// those slices measured.
  double setup_s = 0;
  double measure_s = 0;
  double join_wall_s = 0;
  double restart_wall_s = 0;
  double issue_ns = 0;  // mean per synchronous client call (time_issue)
  /// The measured phase's wall seconds before rescaling, and the host
  /// speed that rescaled them.
  double measure_wall_s = 0;
  double measure_speed = 1;
  Counts counts;
  Attribution attribution;  // filled when options.trace
};

/// Builds a fresh cluster, runs the workload once, checks read-back.
/// `ref` runs in slices interleaved with the trial's simulation steps.
TrialResult run_trial(const Inputs& in, const TrialOptions& options,
                      Reference& ref);

}  // namespace perfbench
