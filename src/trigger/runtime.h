// TriggerRuntime: the per-node trigger engine (paper Section IV.C).
//
// "Once Sedna started, it will start several threads according to the
// data size to scan the Dirty and Monitored fields sequentially. Whenever
// [a] Dirty flag was found, that data piece will be sent to corresponding
// filters according [to] the monitor fields of that data piece."
//
// Mechanically: the runtime enables change capture on the node's
// LocalStore, sweeps the coalescing dirty table every scan interval, and
// routes each change through the hierarchy-aware monitor registry. A
// change fires a job only on the key's *primary* replica (otherwise every
// job would run three times, once per replica). Per-(job, key) flow
// control enforces the trigger interval: within the window only the
// freshest pending change survives.
//
// Action outputs (ResultWriter) loop back into the node's own coordinator
// path, so results are quorum-replicated and can cascade into downstream
// triggers — the Fig. 4 "Domino" composition.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/sedna_node.h"
#include "trigger/api.h"

namespace sedna::trigger {

struct TriggerStats {
  std::uint64_t changes_seen = 0;
  std::uint64_t non_primary_skipped = 0;
  std::uint64_t unmatched = 0;
  std::uint64_t coalesced = 0;   // changes merged into a pending activation
  std::uint64_t filtered_out = 0;
  std::uint64_t activations = 0;
  std::uint64_t emits = 0;
};

class TriggerRuntime {
 public:
  explicit TriggerRuntime(cluster::SednaNode& node);
  ~TriggerRuntime();

  TriggerRuntime(const TriggerRuntime&) = delete;
  TriggerRuntime& operator=(const TriggerRuntime&) = delete;

  /// Registers a job until `timeout` of simulated time elapses
  /// (Listing 1: job.schedule(Timeout); 0 = no timeout).
  void schedule(std::shared_ptr<Job> job, SimDuration timeout = 0);
  void cancel(const std::string& job_name);

  /// Starts the periodic scanner (idempotent).
  void start();
  void stop();

  [[nodiscard]] const TriggerStats& stats() const { return stats_; }

 private:
  struct JobState {
    std::shared_ptr<Job> job;
    sim::TimerHandle expiry;
    /// Per-key flow control: when each key may fire again, plus the
    /// coalesced pending change (first-old .. last-new).
    struct KeyState {
      SimTime next_allowed = 0;
      bool has_pending = false;
      std::string old_value;
      bool had_old = false;
      std::string new_value;
      bool deleted = false;
    };
    std::map<std::string, KeyState> keys;
  };

  class NodeResultWriter;

  void scan();
  void dispatch(JobState& state, const store::ChangeRecord& change);
  void fire_due(JobState& state);
  void run_action(JobState& state, const std::string& key,
                  JobState::KeyState& ks);
  void refresh_monitored_predicate();

  cluster::SednaNode& node_;
  std::map<std::string, JobState> jobs_;
  TriggerStats stats_;
  sim::TimerHandle scan_timer_;
  bool started_ = false;
};

}  // namespace sedna::trigger
