// TriggerService: cluster-wide job registration.
//
// A job definition must exist on every node — any node may be the primary
// replica for some of the hooked keys. This helper owns one TriggerRuntime
// per data node and broadcasts schedule/cancel (the moral equivalent of
// the paper's job submission through the cluster scheduler in Fig. 1).
#pragma once

#include <memory>
#include <vector>

#include "cluster/sedna_cluster.h"
#include "trigger/runtime.h"

namespace sedna::trigger {

class TriggerService {
 public:
  explicit TriggerService(cluster::SednaCluster& cluster) {
    for (std::size_t i = 0; i < cluster.data_node_count(); ++i) {
      runtimes_.push_back(std::make_unique<TriggerRuntime>(cluster.node(i)));
    }
  }

  /// Registers the job on every node (shared Action/Filter instances —
  /// user classes must be safe to invoke from any node; within the
  /// single-threaded simulation this is trivially true).
  void schedule(const std::shared_ptr<Job>& job, SimDuration timeout = 0) {
    for (auto& rt : runtimes_) rt->schedule(job, timeout);
  }

  void cancel(const std::string& job_name) {
    for (auto& rt : runtimes_) rt->cancel(job_name);
  }

  [[nodiscard]] TriggerStats aggregate_stats() const {
    TriggerStats total;
    for (const auto& rt : runtimes_) {
      const auto& s = rt->stats();
      total.changes_seen += s.changes_seen;
      total.non_primary_skipped += s.non_primary_skipped;
      total.unmatched += s.unmatched;
      total.coalesced += s.coalesced;
      total.filtered_out += s.filtered_out;
      total.activations += s.activations;
      total.emits += s.emits;
    }
    return total;
  }

  [[nodiscard]] TriggerRuntime& runtime(std::size_t i) {
    return *runtimes_[i];
  }

 private:
  std::vector<std::unique_ptr<TriggerRuntime>> runtimes_;
};

}  // namespace sedna::trigger
