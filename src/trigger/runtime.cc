#include "trigger/runtime.h"

#include <algorithm>

namespace sedna::trigger {

namespace {

/// Dirty-table sweep cadence (the paper's scanner threads).
constexpr SimDuration kScanInterval = sim_ms(20);

}  // namespace

/// Routes action outputs through the node's own coordinator path: the
/// write is quorum-replicated exactly like a client write and lands in
/// the dirty tables of its replica set, enabling trigger cascades.
class TriggerRuntime::NodeResultWriter final : public ResultWriter {
 public:
  NodeResultWriter(cluster::SednaNode& node, TriggerStats& stats)
      : node_(node), stats_(stats) {}

  void put(const std::string& key, const std::string& value) override {
    emit(cluster::WriteMode::kLatest, key, value, node_.id());
  }

  void put_all(const std::string& key, const std::string& value) override {
    emit(cluster::WriteMode::kAll, key, value, node_.id());
  }

  void put_all_tagged(const std::string& key, const std::string& value,
                      std::uint32_t source_tag) override {
    emit(cluster::WriteMode::kAll, key, value, source_tag);
  }

 private:
  /// Fire-and-forget: an action's output is not retried, so the reply
  /// (or its timeout) is dropped.
  void emit(cluster::WriteMode mode, const std::string& key,
            const std::string& value, NodeId source) {
    cluster::WriteRequest req;
    req.mode = mode;
    req.key = key;
    req.value = value;
    req.ts = node_.next_ts();
    req.source = source;
    node_.call<cluster::WriteReply>(node_.id(), cluster::kMsgClientWrite,
                                    req.encode(),
                                    [](const Result<cluster::WriteReply>&) {});
    ++stats_.emits;
  }

  cluster::SednaNode& node_;
  TriggerStats& stats_;
};

TriggerRuntime::TriggerRuntime(cluster::SednaNode& node) : node_(node) {}

TriggerRuntime::~TriggerRuntime() { stop(); }

void TriggerRuntime::start() {
  if (started_) return;
  started_ = true;
  scan_timer_ = node_.sim().schedule_periodic(kScanInterval, [this] {
    node_.set_trace_context({});
    scan();
  });
}

void TriggerRuntime::stop() {
  scan_timer_.cancel();
  started_ = false;
}

void TriggerRuntime::schedule(std::shared_ptr<Job> job, SimDuration timeout) {
  const std::string name = job->config().name;
  JobState& state = jobs_[name];
  state.expiry.cancel();
  state.job = std::move(job);
  if (timeout > 0) {
    state.expiry = node_.sim().schedule(
        timeout, [this, name] { cancel(name); });
  }
  refresh_monitored_predicate();
  start();
}

void TriggerRuntime::cancel(const std::string& job_name) {
  const auto it = jobs_.find(job_name);
  if (it == jobs_.end()) return;
  it->second.expiry.cancel();
  jobs_.erase(it);
  refresh_monitored_predicate();
}

void TriggerRuntime::refresh_monitored_predicate() {
  auto& store = node_.local_store();
  if (jobs_.empty()) {
    store.set_track_changes(false);
    store.set_monitored_predicate({});
    return;
  }
  // Capture the hook sets by value: the predicate outlives individual
  // registrations and is replaced on every schedule/cancel.
  std::vector<DataHooks> hook_sets;
  hook_sets.reserve(jobs_.size());
  for (const auto& [name, state] : jobs_) {
    hook_sets.push_back(state.job->input().hooks);
  }
  store.set_track_changes(true);
  store.set_monitored_predicate(
      [hook_sets = std::move(hook_sets)](std::string_view key) {
        const KeyPath path = KeyPath::parse(key);
        return std::any_of(hook_sets.begin(), hook_sets.end(),
                           [&path](const DataHooks& hooks) {
                             return hooks.matches(path);
                           });
      });
}

void TriggerRuntime::scan() {
  if (!node_.alive() || !node_.ready()) return;
  auto changes = node_.local_store().drain_changes();
  const auto& table = node_.metadata().table();

  for (const auto& change : changes) {
    ++stats_.changes_seen;
    // Fire only on the key's primary replica: the same change lands on
    // all N replicas and must not run the job N times.
    if (table.total_vnodes() == 0 ||
        table.owner(table.vnode_for_key(change.key)) != node_.id()) {
      ++stats_.non_primary_skipped;
      continue;
    }
    const KeyPath path = KeyPath::parse(change.key);
    bool matched = false;
    for (auto& [name, state] : jobs_) {
      if (!state.job->input().hooks.matches(path)) continue;
      matched = true;
      dispatch(state, change);
    }
    if (!matched) ++stats_.unmatched;
  }

  for (auto& [name, state] : jobs_) fire_due(state);
}

void TriggerRuntime::dispatch(JobState& state,
                              const store::ChangeRecord& change) {
  auto& ks = state.keys[change.key];
  if (ks.has_pending) {
    // Coalesce: keep the original old side, overwrite the new side —
    // only the freshest data matters (Section IV.B).
    ++stats_.coalesced;
  } else {
    ks.has_pending = true;
    ks.had_old = change.had_old;
    ks.old_value = change.old_value.value;
  }
  ks.new_value = change.new_value.value;
  ks.deleted = change.deleted;
}

void TriggerRuntime::fire_due(JobState& state) {
  const SimTime now = node_.now();
  for (auto it = state.keys.begin(); it != state.keys.end();) {
    JobState::KeyState& ks = it->second;
    if (ks.has_pending && now >= ks.next_allowed) {
      run_action(state, it->first, ks);
      ks.has_pending = false;
      ks.old_value.clear();
      ks.new_value.clear();
      ks.next_allowed = now + state.job->config().trigger_interval;
      ++it;
    } else if (!ks.has_pending && now >= ks.next_allowed) {
      it = state.keys.erase(it);  // idle entry; keep the table small
    } else {
      ++it;
    }
  }
}

void TriggerRuntime::run_action(JobState& state, const std::string& key,
                                JobState::KeyState& ks) {
  Job& job = *state.job;
  if (!job.filter().assert_change(key, ks.had_old ? ks.old_value : "",
                                  key, ks.new_value)) {
    ++stats_.filtered_out;
    return;
  }
  ++stats_.activations;

  // Current values for the action: the per-source list when present,
  // otherwise the latest single value.
  std::vector<std::string> values;
  auto list = node_.local_store().read_all(key);
  if (list.ok()) {
    for (const auto& sv : list.value()) values.push_back(sv.value);
  } else {
    auto latest = node_.local_store().read_latest(key);
    if (latest.ok()) {
      values.push_back(latest->value);
    } else if (!ks.deleted) {
      values.push_back(ks.new_value);
    }
  }

  NodeResultWriter writer(node_, stats_);
  job.action().action(key, values, writer);
}

}  // namespace sedna::trigger
