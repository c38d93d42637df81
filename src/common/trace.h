// End-to-end request tracing over the simulated cluster.
//
// Every sim::Message carries a (TraceId, SpanId) pair; hosts propagate the
// pair client → coordinator → replicas → ZooKeeper and record spans (name,
// node, start/end sim-time, status, parent) into one Tracer per
// simulation. Because all timestamps are virtual clock readings and span
// ids are allocated in event order, two identically-seeded runs produce
// byte-identical dumps — traces are assertable test artifacts, not just
// operator output.
//
// Spans carry a *stage* — which part of the request machinery the time
// belongs to (CPU queue wait, wire, replica service, ZooKeeper, retry,
// repair, migration, hint replay) — plus an optional free-text cause.
// The critical-path analyzer (common/critical_path.h) turns a finished
// span tree into a per-stage latency attribution.
//
// Retention is a deterministic two-tier policy instead of keep-everything:
//   * a bounded ring of the most recently finished traces, and
//   * a slowest-K-per-(operation, time window) reservoir, so the traces
//     that explain the tail survive long after the ring has moved on.
// A trace referenced by neither tier is evicted (spans freed, counters
// bumped); `set_on_trace_finished` lets aggregators observe every trace
// before eviction can touch it.
//
// The tracer is disabled by default: benches and long-running simulations
// pay nothing (begin() returns span id 0 and records nothing). Tests and
// the failure drill enable it around the window they want to explain.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace sedna {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

/// Which part of the request machinery a span's self-time belongs to.
/// The taxonomy follows the question an operator asks about a slow
/// request: was it queue wait, the wire, replica service, ZooKeeper,
/// retries, or background interference (repair / migration / hint
/// replay)?
enum class TraceStage : std::uint8_t {
  kUnknown = 0,     // untagged; reported as `unattributed`
  kQueue = 1,       // CPU queue wait behind earlier messages
  kNet = 2,         // wire time of a client-facing RPC
  kService = 3,     // handler execution + replica service waits
  kZk = 4,          // ZooKeeper round trips
  kRetry = 5,       // timed-out attempts + retry backoff sleeps
  kRepair = 6,      // read repair / anti-entropy / failure handling
  kMigration = 7,   // vnode migration protocol
  kHintReplay = 8,  // hinted-handoff replay
};

inline constexpr std::size_t kTraceStageCount = 9;

inline constexpr const char* to_string(TraceStage s) {
  switch (s) {
    case TraceStage::kQueue: return "queue";
    case TraceStage::kNet: return "net";
    case TraceStage::kService: return "service";
    case TraceStage::kZk: return "zk";
    case TraceStage::kRetry: return "retry";
    case TraceStage::kRepair: return "repair";
    case TraceStage::kMigration: return "migration";
    case TraceStage::kHintReplay: return "hint_replay";
    case TraceStage::kUnknown: break;
  }
  return "unattributed";
}

/// The pair stamped on messages and carried by hosts while they work on
/// behalf of a request. trace_id 0 means "no active trace".
struct TraceContext {
  TraceId trace_id = 0;
  SpanId span_id = 0;

  [[nodiscard]] bool active() const { return trace_id != 0; }
};

struct Span {
  TraceId trace_id = 0;
  SpanId id = 0;
  /// Parent span id; 0 for a trace's root span.
  SpanId parent = 0;
  std::string name;
  /// Node the work ran on (an RPC span lives on the *caller*).
  NodeId node = kInvalidNode;
  SimTime start_us = 0;
  SimTime end_us = 0;
  /// Outcome ("ok", "timeout", ...); empty while the span is open.
  std::string status;
  /// Latency-attribution stage for the span's self-time.
  TraceStage stage = TraceStage::kUnknown;
  /// Optional free-text cause annotation ("vnode=7 from=102", ...).
  std::string cause;

  [[nodiscard]] bool finished() const { return !status.empty(); }
};

/// Deterministic two-tier retention. The tiers are generous enough that
/// short test runs never evict; long-running benches stay bounded, and
/// kMaxSpans is the hard memory cap: a long sim must not grow span
/// storage without limit.
class Tracer {
 public:
  /// Most recently finished traces kept regardless of duration.
  static constexpr std::size_t kRecentTraces = 512;
  /// Slowest traces kept per (operation, window): the tail reservoir.
  static constexpr std::size_t kTailPerWindow = 4;
  /// Reservoir window width (virtual microseconds).
  static constexpr SimDuration kWindowUs = 1'000'000;
  /// Reservoir windows kept per operation; older windows are dropped
  /// whole.
  static constexpr std::size_t kMaxWindowsPerOp = 8;
  /// Hard cap on retained spans; the oldest finished traces are
  /// force-evicted (from both tiers) once it is exceeded.
  static constexpr std::size_t kMaxSpans = 262'144;

  /// One retained trace: its spans in span-id (= event) order plus the
  /// summary fields the retention tiers key on.
  struct TraceRecord {
    std::vector<Span> spans;
    /// Root span name; the reservoir's "operation" key.
    std::string op;
    SimTime start_us = 0;
    /// Root span duration, set when the root ends.
    SimDuration duration_us = 0;
    /// Root span ended (children may still be open stragglers).
    bool finished = false;
    bool in_recent = false;
    bool in_reservoir = false;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Called on every trace the moment its root span ends — before any
  /// retention decision, so aggregators see 100% of finished traces even
  /// when the tiers later evict them.
  void set_on_trace_finished(
      std::function<void(TraceId, const TraceRecord&)> fn) {
    on_trace_finished_ = std::move(fn);
  }

  /// Opens a new trace with a root span. Returns {0,0} while disabled.
  TraceContext start_trace(std::string_view name, NodeId node, SimTime now,
                           TraceStage stage = TraceStage::kUnknown) {
    if (!enabled_) return {};
    const TraceId trace = next_trace_++;
    return TraceContext{trace, add_span(trace, 0, name, node, now, stage)};
  }

  /// Opens a child span under `parent`. Returns 0 (a no-op id) while
  /// disabled, when the parent context carries no trace, or when the
  /// parent span's trace has already been evicted.
  SpanId begin(const TraceContext& parent, std::string_view name,
               NodeId node, SimTime now,
               TraceStage stage = TraceStage::kUnknown) {
    if (!enabled_ || !parent.active() || parent.span_id == 0) return 0;
    if (!span_index_.contains(parent.span_id)) return 0;
    return add_span(parent.trace_id, parent.span_id, name, node, now, stage);
  }

  /// Closes a span with an outcome. Safe on id 0 and on already-closed
  /// spans (first close wins, so a response beats its raced timeout).
  /// Closing a root span finalizes its trace: the finished hook fires and
  /// the retention tiers admit (or evict) it.
  void end(SpanId span, SimTime now, std::string_view status = "ok") {
    if (span == 0) return;
    const auto it = span_index_.find(span);
    if (it == span_index_.end()) return;
    const TraceId trace = it->second;
    Span* s = find_span(trace, span);
    if (s == nullptr || s->finished()) return;
    s->end_us = now;
    s->status = status;
    if (s->parent == 0) finalize_trace(trace);
  }

  /// Attaches a cause annotation ("vnode=7 from=102") to an open or
  /// closed span. No-op on id 0 / evicted spans.
  void annotate(SpanId span, std::string_view cause) {
    if (span == 0) return;
    const auto it = span_index_.find(span);
    if (it == span_index_.end()) return;
    Span* s = find_span(it->second, span);
    if (s != nullptr) s->cause = cause;
  }

  /// Zero-duration annotation (e.g. a network drop).
  void instant(const TraceContext& parent, std::string_view name,
               NodeId node, SimTime now, std::string_view status = "ok",
               TraceStage stage = TraceStage::kUnknown) {
    end(begin(parent, name, node, now, stage), now, status);
  }

  /// Every retained span, in span-id order (copy: the retention store is
  /// grouped per trace internally).
  [[nodiscard]] std::vector<Span> spans() const {
    std::vector<const Span*> ptrs = all_span_ptrs();
    std::vector<Span> out;
    out.reserve(ptrs.size());
    for (const Span* s : ptrs) out.push_back(*s);
    return out;
  }

  /// The retained record for one trace, or nullptr if unknown/evicted.
  [[nodiscard]] const TraceRecord* trace(TraceId id) const {
    const auto it = traces_.find(id);
    return it == traces_.end() ? nullptr : &it->second;
  }

  /// Retained finished traces, in trace-id order.
  [[nodiscard]] std::vector<TraceId> finished_trace_ids() const {
    std::vector<TraceId> out;
    for (const auto& [id, rec] : traces_) {
      if (rec.finished) out.push_back(id);
    }
    return out;
  }

  /// The reservoir tier: per operation (sorted), the retained tail traces
  /// ordered slowest-first (duration desc, trace id asc).
  [[nodiscard]] std::vector<std::pair<std::string, std::vector<TraceId>>>
  tail_trace_ids() const {
    std::vector<std::pair<std::string, std::vector<TraceId>>> out;
    for (const auto& [op, windows] : reservoir_) {
      std::vector<TailEntry> merged;
      for (const auto& [window, entries] : windows) {
        merged.insert(merged.end(), entries.begin(), entries.end());
      }
      std::sort(merged.begin(), merged.end(), slower_first);
      std::vector<TraceId> ids;
      ids.reserve(merged.size());
      for (const TailEntry& e : merged) ids.push_back(e.trace);
      if (!ids.empty()) out.emplace_back(op, std::move(ids));
    }
    return out;
  }

  [[nodiscard]] TraceId last_trace_id() const { return next_trace_ - 1; }
  [[nodiscard]] std::size_t retained_spans() const { return live_spans_; }
  [[nodiscard]] std::size_t retained_traces() const { return traces_.size(); }
  [[nodiscard]] std::uint64_t evicted_spans() const { return evicted_spans_; }
  [[nodiscard]] std::uint64_t evicted_traces() const {
    return evicted_traces_;
  }

  void clear() {
    traces_.clear();
    span_index_.clear();
    recent_.clear();
    reservoir_.clear();
    live_spans_ = 0;
    evicted_spans_ = 0;
    evicted_traces_ = 0;
    next_trace_ = 1;
    next_span_ = 1;
  }

  /// Deterministic JSON dump: one object per retained span, in span-id
  /// order.
  [[nodiscard]] std::string dump_json() const {
    std::string out = "[";
    char buf[160];
    const std::vector<const Span*> ptrs = all_span_ptrs();
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      const Span& s = *ptrs[i];
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"trace\":%llu,\"span\":%llu,\"parent\":%llu,",
                    i == 0 ? "" : ",",
                    static_cast<unsigned long long>(s.trace_id),
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent));
      out += buf;
      out += "\"name\":\"" + s.name + "\",";
      std::snprintf(buf, sizeof buf,
                    "\"node\":%u,\"start_us\":%llu,\"end_us\":%llu,", s.node,
                    static_cast<unsigned long long>(s.start_us),
                    static_cast<unsigned long long>(s.end_us));
      out += buf;
      out += "\"stage\":\"" + std::string(to_string(s.stage)) + "\",";
      if (!s.cause.empty()) out += "\"cause\":\"" + s.cause + "\",";
      out += "\"status\":\"" + (s.finished() ? s.status : "open") + "\"}";
    }
    out += "\n]\n";
    return out;
  }

  /// ASCII span tree for one trace; times are relative to the root span.
  [[nodiscard]] std::string render_tree(TraceId trace) const {
    const auto it = traces_.find(trace);
    if (it == traces_.end()) return {};
    // Children sorted by span id == start order (event order).
    std::map<SpanId, std::vector<const Span*>> children;
    const Span* root = nullptr;
    for (const Span& s : it->second.spans) {
      if (s.parent == 0) root = &s;
      children[s.parent].push_back(&s);
    }
    std::string out;
    if (root != nullptr) {
      render_node(*root, children, root->start_us, 0, out);
    }
    return out;
  }

  /// Every retained trace, in trace-id order.
  [[nodiscard]] std::string render_all() const {
    std::string out;
    for (const auto& [t, rec] : traces_) {
      char head[48];
      std::snprintf(head, sizeof head, "--- trace %llu ---\n",
                    static_cast<unsigned long long>(t));
      out += head;
      out += render_tree(t);
    }
    return out;
  }

 private:
  struct TailEntry {
    SimDuration duration = 0;
    TraceId trace = 0;
  };

  static bool slower_first(const TailEntry& a, const TailEntry& b) {
    if (a.duration != b.duration) return a.duration > b.duration;
    return a.trace < b.trace;
  }

  SpanId add_span(TraceId trace, SpanId parent, std::string_view name,
                  NodeId node, SimTime now, TraceStage stage) {
    const SpanId id = next_span_++;
    TraceRecord& rec = traces_[trace];
    if (parent == 0 && rec.spans.empty()) {
      rec.op = name;
      rec.start_us = now;
    }
    rec.spans.push_back(Span{trace, id, parent, std::string(name), node, now,
                             0, {}, stage, {}});
    span_index_.emplace(id, trace);
    ++live_spans_;
    enforce_span_cap();
    return id;
  }

  Span* find_span(TraceId trace, SpanId id) {
    const auto it = traces_.find(trace);
    if (it == traces_.end()) return nullptr;
    auto& spans = it->second.spans;
    const auto sit = std::lower_bound(
        spans.begin(), spans.end(), id,
        [](const Span& s, SpanId v) { return s.id < v; });
    return (sit != spans.end() && sit->id == id) ? &*sit : nullptr;
  }

  [[nodiscard]] std::vector<const Span*> all_span_ptrs() const {
    std::vector<const Span*> ptrs;
    ptrs.reserve(live_spans_);
    for (const auto& [id, rec] : traces_) {
      for (const Span& s : rec.spans) ptrs.push_back(&s);
    }
    std::sort(ptrs.begin(), ptrs.end(),
              [](const Span* a, const Span* b) { return a->id < b->id; });
    return ptrs;
  }

  void finalize_trace(TraceId id) {
    auto it = traces_.find(id);
    if (it == traces_.end() || it->second.finished) return;
    TraceRecord& rec = it->second;
    rec.finished = true;
    const Span& root = rec.spans.front();
    rec.duration_us = root.end_us - root.start_us;
    if (on_trace_finished_) on_trace_finished_(id, rec);

    // Tier 1: recent ring. Admit before the reservoir so a trace the
    // reservoir rejects is still pinned by its ring slot.
    rec.in_recent = true;
    recent_.push_back(id);

    // Tier 2: slowest-K reservoir keyed by (operation, window).
    const std::string op = rec.op;  // copy: eviction may drop `rec`
    auto& slot = reservoir_[op][rec.start_us / kWindowUs];
    slot.push_back(TailEntry{rec.duration_us, id});
    rec.in_reservoir = true;
    std::sort(slot.begin(), slot.end(), slower_first);
    if (slot.size() > kTailPerWindow) {
      const TraceId dropped = slot.back().trace;
      slot.pop_back();
      unreserve(dropped);
    }
    auto& windows = reservoir_[op];
    while (windows.size() > kMaxWindowsPerOp) {
      auto oldest = windows.begin();
      const std::vector<TailEntry> gone = std::move(oldest->second);
      windows.erase(oldest);
      for (const TailEntry& e : gone) unreserve(e.trace);
    }

    // Trim the ring after both admissions so a fresh trace cannot be
    // evicted in between.
    while (recent_.size() > kRecentTraces) {
      const TraceId old = recent_.front();
      recent_.pop_front();
      auto oit = traces_.find(old);
      if (oit != traces_.end()) {
        oit->second.in_recent = false;
        maybe_evict(old);
      }
    }
  }

  void unreserve(TraceId id) {
    auto it = traces_.find(id);
    if (it == traces_.end()) return;
    it->second.in_reservoir = false;
    maybe_evict(id);
  }

  /// Evicts a finished trace referenced by neither tier.
  void maybe_evict(TraceId id) {
    auto it = traces_.find(id);
    if (it == traces_.end()) return;
    const TraceRecord& rec = it->second;
    if (!rec.finished || rec.in_recent || rec.in_reservoir) return;
    ++evicted_traces_;
    evicted_spans_ += rec.spans.size();
    live_spans_ -= rec.spans.size();
    for (const Span& s : rec.spans) span_index_.erase(s.id);
    traces_.erase(it);
  }

  /// Hard cap: force-evict the oldest finished traces (removing their
  /// tier references first) until the retained span count fits.
  void enforce_span_cap() {
    if (live_spans_ <= kMaxSpans) return;
    auto it = traces_.begin();
    while (live_spans_ > kMaxSpans && it != traces_.end()) {
      auto cur = it++;
      TraceRecord& rec = cur->second;
      if (!rec.finished) continue;
      const TraceId id = cur->first;
      if (rec.in_recent) {
        rec.in_recent = false;
        const auto rit = std::find(recent_.begin(), recent_.end(), id);
        if (rit != recent_.end()) recent_.erase(rit);
      }
      if (rec.in_reservoir) {
        rec.in_reservoir = false;
        const auto oit = reservoir_.find(rec.op);
        if (oit != reservoir_.end()) {
          const auto wit = oit->second.find(rec.start_us / kWindowUs);
          if (wit != oit->second.end()) {
            auto& slot = wit->second;
            slot.erase(std::remove_if(slot.begin(), slot.end(),
                                      [id](const TailEntry& e) {
                                        return e.trace == id;
                                      }),
                       slot.end());
            if (slot.empty()) oit->second.erase(wit);
          }
          if (oit->second.empty()) reservoir_.erase(oit);
        }
      }
      ++evicted_traces_;
      evicted_spans_ += rec.spans.size();
      live_spans_ -= rec.spans.size();
      for (const Span& s : rec.spans) span_index_.erase(s.id);
      traces_.erase(cur);
    }
  }

  void render_node(const Span& s,
                   const std::map<SpanId, std::vector<const Span*>>& children,
                   SimTime origin, int depth, std::string& out) const {
    char buf[64];
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += s.name;
    std::snprintf(buf, sizeof buf, " @%u [+%llu us", s.node,
                  static_cast<unsigned long long>(s.start_us - origin));
    out += buf;
    if (s.finished()) {
      std::snprintf(buf, sizeof buf, ", %llu us] %s",
                    static_cast<unsigned long long>(s.end_us - s.start_us),
                    s.status.c_str());
    } else {
      std::snprintf(buf, sizeof buf, "] open");
    }
    out += buf;
    if (s.stage != TraceStage::kUnknown) {
      out += " (";
      out += to_string(s.stage);
      out += ")";
    }
    if (!s.cause.empty()) out += " {" + s.cause + "}";
    out += "\n";
    const auto it = children.find(s.id);
    if (it == children.end()) return;
    for (const Span* child : it->second) {
      render_node(*child, children, origin, depth + 1, out);
    }
  }

  bool enabled_ = false;
  TraceId next_trace_ = 1;
  SpanId next_span_ = 1;
  /// Retention store: spans grouped per trace, trace-id ordered.
  std::map<TraceId, TraceRecord> traces_;
  /// SpanId → owning trace, for O(1)-ish end()/annotate(). Never
  /// iterated, so the unordered map cannot perturb determinism.
  std::unordered_map<SpanId, TraceId> span_index_;
  /// Tier 1: most recently finished traces, oldest first.
  std::deque<TraceId> recent_;
  /// Tier 2: op → window → slowest-K entries (sorted slowest first).
  std::map<std::string, std::map<std::uint64_t, std::vector<TailEntry>>>
      reservoir_;
  std::size_t live_spans_ = 0;
  std::uint64_t evicted_spans_ = 0;
  std::uint64_t evicted_traces_ = 0;
  std::function<void(TraceId, const TraceRecord&)> on_trace_finished_;
};

}  // namespace sedna
