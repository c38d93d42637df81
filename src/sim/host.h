// Simulated server: a CPU-serialized message handler with an RPC layer.
//
// CPU model: each host owns one logical core (the testbed's dual-core Xeons
// ran one Sedna service each); incoming messages wait in a real ingress
// queue and each costs a (seeded, jittered) service time. This
// serialization is what produces the Fig. 8 behaviour — nine concurrent
// clients slow each other down at the replicas while aggregate throughput
// rises.
//
// Overload safety: the ingress queue is priority-classed (0 = most
// important) and optionally bounded. When `max_ingress_queue` is set,
// requests arriving above their class's admission threshold are *shed* at
// delivery — the subclass's on_shed() hook decides whether to answer with
// an explicit kOverloaded reply — and requests whose stamped deadline
// (Message::deadline) has already expired are shed at dequeue time without
// consuming any CPU. Responses are never shed: they complete work the
// host already paid for. With the bound disabled (the default) and a
// single priority class the queue degenerates to exactly the old FIFO
// timeline, byte for byte.
//
// RPC: call() tags a message with a fresh rpc_id and arms a timeout timer.
// The callback receives kOk plus the response payload, or kTimeout with an
// empty payload when the peer crashed, the network dropped the message, or
// the peer simply never answered. This is precisely the failure evidence
// the paper's read/write paths act on (Section III.C). The typed
// call<Rep>() decodes the reply for the callback, and reply_status<Rep>()
// answers a request with a reply that carries only a status. Open RPCs
// live in a SlotTable; an rpc_id is (generation << 32 | slot), and a slot's
// generation is bumped when its RPC completes, so a late reply or timeout
// for a finished RPC never reaches the call that reused the slot.
//
// Tracing: each host carries a current TraceContext. Incoming requests set
// it from the message; every call() opens an RPC span under it (ended with
// "ok"/"timeout"/"crashed") and stamps the outgoing message so the
// receiver's spans parent correctly; RPC callbacks run under the context
// saved at call time, so a whole async quorum exchange stays on one span
// tree. All of it is a no-op while the simulation's Tracer is disabled.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/inline_function.h"
#include "common/ring_queue.h"
#include "common/slot_table.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/message.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace sedna::sim {

/// Ingress priority classes (0 served first). The data-path convention:
/// client reads > client writes > repair/anti-entropy > migration.
inline constexpr std::size_t kHostPriorities = 4;

/// Why a message was shed instead of serviced.
enum class ShedReason : std::uint8_t {
  /// Admission control: the ingress queue was at this class's threshold.
  kQueueFull = 0,
  /// The message's stamped deadline expired while it waited in queue.
  kDeadlineExceeded = 1,
};

struct HostConfig {
  /// Mean CPU cost of handling one message (hash + store op + reply build).
  /// ~8 us matches the era's Memcached at roughly 100k ops/s/core.
  SimDuration base_service_us = 8;
  /// Uniform jitter fraction applied to each service time.
  double service_jitter_frac = 0.25;
  /// Default RPC timeout.
  SimDuration rpc_timeout_us = 50 * 1000;
  /// Bounded ingress queue: maximum queued messages before *requests*
  /// start being shed (responses are always admitted). Priority class p
  /// is admitted only while the queue holds fewer than
  /// max_ingress_queue·(4-p)/4 messages, so background classes lose
  /// their slots first as the queue fills. 0 = unbounded (legacy model).
  std::size_t max_ingress_queue = 0;
};

class Host {
 public:
  /// Move-only; a callback of up to 48 bytes of captures is stored
  /// without a heap allocation.
  using RpcCallback =
      InlineFunction<void(const Status&, const std::string& payload)>;

  Host(Network& net, NodeId id, HostConfig config = {})
      : net_(net), id_(id), config_(config) {
    net_.attach(id_, this);
  }
  virtual ~Host() {
    // Cancel every event that still points at this host (the service
    // completion, RPC timeouts): hosts may die while the simulation runs
    // on (e.g. a short-lived bootstrap client).
    cpu_timer_.cancel();
    for (std::uint32_t slot = 0; slot < rpcs_.slot_count(); ++slot) {
      rpcs_[slot].timeout.cancel();
    }
    net_.detach(id_);
  }

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Simulation& sim() const { return net_.sim(); }
  [[nodiscard]] SimTime now() const { return net_.sim().now(); }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] const HostConfig& config() const { return config_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Crash the host: stop receiving, drop the ingress queue, forget
  /// pending RPCs (their remote responses will be dropped by the network
  /// anyway). Recover with restart(); subclasses override
  /// on_crash/on_restart for state effects.
  void crash() {
    alive_ = false;
    net_.set_node_up(id_, false);
    for (std::uint32_t slot = 0; slot < rpcs_.slot_count(); ++slot) {
      if (!rpcs_.in_use(slot)) continue;
      Pending pending = rpcs_.release(slot);
      pending.timeout.cancel();
      tracer().end(pending.rpc_span, now(), "crashed");
    }
    for (auto& q : queues_) q.clear();
    queued_ = 0;
    cpu_busy_ = false;
    cpu_timer_.cancel();  // drop the message in service
    trace_ctx_ = {};
    on_crash();
  }
  void restart() {
    alive_ = true;
    net_.set_node_up(id_, true);
    on_restart();
  }

  /// Entry point used by Network: admit (or shed) the message, then queue
  /// it behind the CPU in its priority class.
  void deliver(Message msg) {
    if (!alive_) return;
    // Responses stay in class 0: they finish work already paid for.
    const std::size_t prio =
        msg.is_response ? 0 : clamp_priority(message_traits(msg.type).priority);
    if (!msg.is_response && config_.max_ingress_queue > 0) {
      const std::size_t cap = config_.max_ingress_queue *
                              (kHostPriorities - prio) / kHostPriorities;
      if (queued_ >= (cap == 0 ? 1 : cap)) {
        ++shed_queue_full_;
        on_shed(msg, ShedReason::kQueueFull);
        return;
      }
    }
    // Service cost is drawn at arrival (not at dequeue) so the shared RNG
    // stream is consumed in network-delivery order — the same order the
    // pre-queue timeline model used.
    const SimDuration cost = service_cost(msg);
    queues_[prio].push_back(QueuedMessage{std::move(msg), sim().now(), cost});
    ++queued_;
    if (!cpu_busy_) start_next();
  }

  /// Issues a request and arms a timeout.
  void call(NodeId to, MessageType type, std::string payload,
            RpcCallback cb) {
    call_with_timeout(to, type, std::move(payload), config_.rpc_timeout_us,
                      std::move(cb));
  }

  /// `deadline` (absolute, 0 = none) is stamped on the outgoing message so
  /// every downstream host may shed the work once it cannot finish in time.
  void call_with_timeout(NodeId to, MessageType type, std::string payload,
                         SimDuration timeout, RpcCallback cb,
                         SimTime deadline = 0) {
    const TraceContext caller_ctx = trace_ctx_;
    SpanId rpc_span = 0;
    if (tracer().enabled()) {
      const MessageTraits traits = message_traits(type);
      rpc_span = tracer().begin(
          caller_ctx,
          traits.span != nullptr ? traits.span
                                 : "rpc.t" + std::to_string(type),
          id_, now(), traits.stage);
    }
    const auto ref = rpcs_.acquire();
    Pending& pending = rpcs_[ref.slot];
    const std::uint64_t rpc_id =
        (static_cast<std::uint64_t>(ref.gen) << 32) | ref.slot;
    pending.callback = std::move(cb);
    pending.ctx = caller_ctx;
    pending.rpc_span = rpc_span;
    pending.timeout = sim().schedule(timeout, [this, rpc_id]() {
      const auto open = rpc_ref(rpc_id);
      if (!rpcs_.live(open)) return;
      Pending expired = rpcs_.release(open.slot);
      tracer().end(expired.rpc_span, now(), "timeout");
      trace_ctx_ = expired.ctx;
      expired.callback(Status::Timeout(), {});
    });
    Message msg{id_, to, type, rpc_id, /*is_response=*/false,
                std::move(payload)};
    msg.trace_id = caller_ctx.trace_id;
    msg.span_id = rpc_span != 0 ? rpc_span : caller_ctx.span_id;
    msg.deadline = deadline;
    net_.send(std::move(msg));
  }

  /// Typed call: `cb` gets a Result<Rep> — kTimeout when the call failed
  /// on the wire, kCorruption when the reply does not decode as Rep, else
  /// the reply, whose own status field is left to the caller. The wrapper
  /// captures only `cb`, so a callback that fits RpcCallback's inline
  /// buffer still does.
  template <typename Rep, typename Callback>
  void call(NodeId to, MessageType type, std::string payload, Callback cb) {
    call<Rep>(to, type, std::move(payload), config_.rpc_timeout_us,
              std::move(cb));
  }
  template <typename Rep, typename Callback>
  void call(NodeId to, MessageType type, std::string payload,
            SimDuration timeout, Callback cb, SimTime deadline = 0) {
    call_with_timeout(
        to, type, std::move(payload), timeout,
        [cb = std::move(cb)](const Status& st,
                             const std::string& body) mutable {
          cb(st.ok() ? Rep::decode(body) : Result<Rep>(st));
        },
        deadline);
  }

  /// One-way message; no response expected.
  void send_oneway(NodeId to, MessageType type, std::string payload) {
    Message msg{id_, to, type, /*rpc_id=*/0, /*is_response=*/false,
                std::move(payload)};
    msg.trace_id = trace_ctx_.trace_id;
    msg.span_id = trace_ctx_.span_id;
    net_.send(std::move(msg));
  }

  /// Replies to a request received in on_message().
  void reply(const Message& request, std::string payload) {
    Message msg{id_, request.from, request.type, request.rpc_id,
                /*is_response=*/true, std::move(payload)};
    msg.trace_id = trace_ctx_.trace_id;
    msg.span_id = trace_ctx_.span_id;
    net_.send(std::move(msg));
  }

  /// Replies to `request` with a Rep that carries only `code`.
  template <typename Rep>
  void reply_status(const Message& request, StatusCode code) {
    Rep rep;
    rep.status = code;
    reply(request, rep.encode());
  }

  /// Writer-unique monotone timestamp: this host's id in the high byte of
  /// the tie-break, a rolling sequence in the low byte, under the
  /// microsecond clock (Section III.F LWW ordering).
  Timestamp next_ts() {
    const auto seq = static_cast<std::uint16_t>(((id_ & 0xff) << 8) |
                                                (write_seq_++ & 0xff));
    return make_timestamp(now(), seq);
  }

  [[nodiscard]] std::size_t pending_rpcs() const {
    return rpcs_.in_use_count();
  }

  // ---- overload introspection -------------------------------------------
  /// Messages currently waiting in the ingress queue (all classes).
  [[nodiscard]] std::size_t queue_depth() const { return queued_; }
  /// Requests shed at admission because the queue was full.
  [[nodiscard]] std::uint64_t shed_queue_full() const {
    return shed_queue_full_;
  }
  /// Requests shed at dequeue because their deadline had expired.
  [[nodiscard]] std::uint64_t shed_deadline() const { return shed_deadline_; }

  // ---- tracing ----------------------------------------------------------
  [[nodiscard]] Tracer& tracer() const { return sim().tracer(); }
  [[nodiscard]] TraceContext trace_context() const { return trace_ctx_; }
  void set_trace_context(TraceContext ctx) { trace_ctx_ = ctx; }

  /// Opens a fresh trace rooted at this host and makes it current.
  TraceContext begin_trace(std::string_view name,
                           TraceStage stage = TraceStage::kUnknown) {
    trace_ctx_ = tracer().start_trace(name, id_, now(), stage);
    return trace_ctx_;
  }
  /// Child span of the current context. Does not change the context.
  SpanId begin_span(std::string_view name,
                    TraceStage stage = TraceStage::kUnknown) {
    return tracer().begin(trace_ctx_, name, id_, now(), stage);
  }
  /// Makes `span` the current context; returns the previous context so
  /// the caller can restore it after issuing nested work.
  TraceContext enter_span(SpanId span) {
    const TraceContext prev = trace_ctx_;
    if (span != 0) trace_ctx_ = TraceContext{prev.trace_id, span};
    return prev;
  }
  void end_span(SpanId span, std::string_view status = "ok") {
    tracer().end(span, now(), status);
  }
  /// Zero-duration annotation under the current context.
  void instant_span(std::string_view name, std::string_view status = "ok",
                    TraceStage stage = TraceStage::kUnknown) {
    tracer().instant(trace_ctx_, name, id_, now(), status, stage);
  }

 protected:
  /// Handles a request or one-way message. Responses are routed to RPC
  /// callbacks before reaching this.
  virtual void on_message(const Message& msg) = 0;

  virtual void on_crash() {}
  virtual void on_restart() {}

  /// The span name and stage of an outgoing RPC of `type`, and the
  /// ingress priority class of an incoming request of it. The base host
  /// names spans "rpc.t<type>" at the network stage and treats all
  /// traffic equally — strict FIFO, exactly the old timeline model.
  /// Protocol subclasses look their message types up in their table.
  [[nodiscard]] virtual MessageTraits message_traits(MessageType type) const {
    (void)type;
    return {};
  }

  /// A message was dropped instead of serviced. Runs at shed time with no
  /// CPU cost modeled; subclasses may send an explicit kOverloaded reply
  /// (building a tiny reject reply is negligible next to real service).
  /// Default: silent drop — the caller's RPC timeout is the signal.
  virtual void on_shed(const Message& msg, ShedReason reason) {
    (void)msg;
    (void)reason;
  }

  /// CPU cost model; override for per-type costs.
  virtual SimDuration service_cost(const Message& msg) {
    (void)msg;
    const double jitter =
        1.0 + config_.service_jitter_frac * (2.0 * sim().rng().next_double() -
                                             1.0);
    const double cost =
        static_cast<double>(config_.base_service_us) * jitter;
    return cost < 1.0 ? 1 : static_cast<SimDuration>(cost);
  }

 private:
  /// One open RPC. Its slot's generation (never 0) is the high half of
  /// its rpc_id, so no rpc_id is 0 (the one-way marker).
  struct Pending {
    RpcCallback callback;
    TimerHandle timeout;
    /// Caller's trace context at call time; restored for the callback.
    TraceContext ctx;
    /// Span covering the request/response round trip (0 when untraced).
    SpanId rpc_span = 0;
  };

  /// The table reference an rpc_id encodes. Once the RPC completes its
  /// slot's generation moves on and the reference is stale.
  static SlotTable<Pending>::Ref rpc_ref(std::uint64_t rpc_id) {
    return {static_cast<std::uint32_t>(rpc_id),
            static_cast<std::uint32_t>(rpc_id >> 32)};
  }

  struct QueuedMessage {
    Message msg;
    SimTime arrival = 0;
    SimDuration cost = 0;
  };

  static std::size_t clamp_priority(std::size_t p) {
    return p >= kHostPriorities ? kHostPriorities - 1 : p;
  }

  /// Begins servicing the head of the highest non-empty priority class.
  /// Expired-deadline requests are shed here, before any CPU is spent on
  /// them — late work is dropped, not burned.
  void start_next() {
    while (queued_ > 0) {
      auto* queue = &queues_[0];
      for (auto& q : queues_) {
        if (!q.empty()) {
          queue = &q;
          break;
        }
      }
      QueuedMessage item = std::move(queue->front());
      queue->pop_front();
      --queued_;
      if (!item.msg.is_response && item.msg.deadline != 0 &&
          now() > item.msg.deadline) {
        ++shed_deadline_;
        on_shed(item.msg, ShedReason::kDeadlineExceeded);
        continue;
      }
      cpu_busy_ = true;
      in_service_ = std::move(item);
      service_start_ = now();
      cpu_timer_ =
          sim().schedule(in_service_.cost, [this] { finish_service(); });
      return;
    }
    cpu_busy_ = false;
  }

  /// Service completion of in_service_. crash() and the destructor cancel
  /// the event, so it only runs on the incarnation that started it.
  void finish_service() {
    cpu_busy_ = false;
    // Moved out: the handler may start the next message.
    const QueuedMessage item = std::move(in_service_);
    if (alive_) dispatch(item.msg, item.arrival, service_start_, item.cost);
    if (alive_ && !cpu_busy_) start_next();
  }

  void dispatch(const Message& msg, SimTime arrival, SimTime start,
                SimDuration cost) {
    if (msg.is_response) {
      const auto open = rpc_ref(msg.rpc_id);
      if (!rpcs_.live(open)) return;  // response raced its own timeout
      // Released first, so the callback may issue new calls.
      Pending pending = rpcs_.release(open.slot);
      pending.timeout.cancel();
      // The response's queue/service time belongs under the RPC span it
      // answers — its stamped span id points at the *caller side* context
      // whose span may already be closed.
      record_cpu_spans(TraceContext{msg.trace_id, pending.rpc_span}, arrival,
                       start, cost);
      tracer().end(pending.rpc_span, now(), "ok");
      trace_ctx_ = pending.ctx;
      pending.callback(Status::Ok(), msg.payload);
      return;
    }
    record_cpu_spans(TraceContext{msg.trace_id, msg.span_id}, arrival, start,
                     cost);
    trace_ctx_ = TraceContext{msg.trace_id, msg.span_id};
    on_message(msg);
  }

  /// Records the CPU queue wait and service time of one handled message
  /// as closed child spans. Emitted at dispatch time so a host that
  /// crashes with messages queued never reports phantom CPU work.
  void record_cpu_spans(const TraceContext& parent, SimTime arrival,
                        SimTime start, SimDuration cost) {
    if (!parent.active() || parent.span_id == 0) return;
    Tracer& t = tracer();
    if (start > arrival) {
      const SpanId queue =
          t.begin(parent, "cpu.queue", id_, arrival, TraceStage::kQueue);
      t.end(queue, start, "ok");
    }
    const SpanId svc =
        t.begin(parent, "cpu.service", id_, start, TraceStage::kService);
    t.end(svc, start + cost, "ok");
  }

  Network& net_;
  NodeId id_;
  HostConfig config_;
  bool alive_ = true;
  /// Real ingress queues, one per priority class, drained by one core.
  std::array<RingQueue<QueuedMessage>, kHostPriorities> queues_;
  std::size_t queued_ = 0;
  bool cpu_busy_ = false;
  /// The message the CPU is servicing, its start time and its completion
  /// event.
  QueuedMessage in_service_;
  SimTime service_start_ = 0;
  TimerHandle cpu_timer_;
  std::uint64_t shed_queue_full_ = 0;
  std::uint64_t shed_deadline_ = 0;
  std::uint16_t write_seq_ = 0;
  /// Open RPCs, addressed by rpc_id (see rpc_ref).
  SlotTable<Pending> rpcs_;
  TraceContext trace_ctx_;
};

}  // namespace sedna::sim
