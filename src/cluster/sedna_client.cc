#include "cluster/sedna_client.h"

#include <algorithm>
#include <utility>

#include "common/gather.h"

namespace sedna::cluster {

SednaClient::SednaClient(sim::Network& net, NodeId id,
                         SednaClientConfig config)
    : sim::Host(net, id, config.host),
      config_(std::move(config)),
      zk_(*this, zk::ZkClientConfig{config_.zk_ensemble}),
      metadata_(zk_, *this) {
  retry_tokens_ = config_.retry_budget_capacity;
}

SednaClient::~SednaClient() {
  reads_.hedge_timer.cancel();
  writes_.hedge_timer.cancel();
}

bool SednaClient::take_retry_token() {
  if (config_.retry_budget_capacity <= 0) return true;  // budget disabled
  if (retry_tokens_ < 1.0) return false;
  retry_tokens_ -= 1.0;
  return true;
}

bool SednaClient::spend_retry_token() {
  if (take_retry_token()) return true;
  // Exhausted: this retry would have exceeded the allowed fraction of
  // fresh traffic. Counted under the shed family — it is load the budget
  // refused to send.
  budget_sheds_->add(1);
  return false;
}

void SednaClient::refill_retry_budget() {
  if (config_.retry_budget_capacity <= 0) return;
  retry_tokens_ = std::min(config_.retry_budget_capacity,
                           retry_tokens_ + config_.retry_budget_refill);
}

void SednaClient::start(ReadyCallback on_ready) {
  zk_.connect([this, on_ready = std::move(on_ready)](const Status& st) {
    if (!st.ok()) {
      on_ready(st);
      return;
    }
    metadata_.start([this, on_ready](const Status& meta_st) {
      ready_ = meta_st.ok();
      on_ready(meta_st);
    });
  });
}

void SednaClient::on_message(const sim::Message& msg) {
  if (msg.type == zk::kMsgWatchEvent) zk_.on_watch_event(msg.payload);
}

SpanId SednaClient::attempt_span(const char* prefix, int attempt) {
  if (!tracer().enabled()) return 0;
  return begin_span(prefix + std::to_string(attempt), TraceStage::kService);
}

SimDuration SednaClient::retry_backoff(int next_attempt) {
  if (config_.retry_backoff_initial_us == 0) return 0;
  SimDuration base = config_.retry_backoff_initial_us;
  for (int i = 1; i < next_attempt && base < kRetryBackoffMaxUs; ++i) {
    base *= 2;
  }
  base = std::min(base, kRetryBackoffMaxUs);
  const double spread =
      1.0 + kRetryBackoffJitter * (2.0 * sim().rng().next_double() - 1.0);
  auto wait = static_cast<SimDuration>(static_cast<double>(base) * spread);
  if (wait == 0) wait = 1;
  retry_backoff_->record(wait);
  return wait;
}

NodeId SednaClient::coordinator_for(const std::string& key,
                                    int attempt) const {
  const auto replicas = metadata_.table().replicas_for_key(key);
  if (replicas.empty()) return kInvalidNode;
  return replicas[static_cast<std::size_t>(attempt) % replicas.size()];
}

namespace {

/// kUnavailable (node not ready), kFailure (quorum broken — often stale
/// routing at the coordinator while recovery is in flight) and kOverloaded
/// (explicit shed) are retryable, and so is a timeout. Such an answer ends
/// an attempt but not the op: if the op's other attempt (attempt 0 or its
/// hedge) is still out, its answer decides; else the driver retries on the
/// next replica. A write's timestamp is pinned at attempt 0, so a retried
/// or hedged LWW write is an idempotent replay. A causal put re-sends the
/// same context, but the coordinator mints a fresh dot: a retry after a
/// lost ack leaves an extra sibling until the client's next contextual put
/// prunes it. Causal puts are therefore never hedged, since a hedge would
/// mint that second dot on every slow attempt, not only on a lost ack.
bool retryable(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kFailure ||
         code == StatusCode::kOverloaded;
}

}  // namespace

template <typename Req, typename Rep>
void SednaClient::send_attempt(Lane<Req, Rep>& lane,
                               typename Lane<Req, Rep>::Ref ref,
                               int attempt) {
  auto& op = lane.ops[ref.slot];
  const NodeId coordinator = coordinator_for(op.req.key, attempt);
  if (coordinator == kInvalidNode) {
    finish(lane, ref, Status::Unavailable("no replicas for key"));
    return;
  }
  // The whole-op deadline may have lapsed during a backoff sleep; give up
  // here rather than launch an attempt whose answer nobody wants.
  if (op.deadline != 0 && now() >= op.deadline) {
    lane.failures->add(1);
    finish(lane, ref, Status::Timeout("op deadline exceeded"));
    return;
  }
  op.attempt = attempt;
  op.retried = attempt > 0;
  op.open = 1;
  dispatch(lane, ref, coordinator, /*hedge=*/false);
  // Only attempt 0 is hedged, and only once the lane's recent window is
  // deep enough for its p99 to mean something.
  if (attempt != 0 || !hedgeable(op.req) || config_.max_attempts < 2 ||
      lane.recent.count() < kHedgeSampleFloor) {
    return;
  }
  op.sent = now();
  op.first = coordinator;
  op.hedge_due = true;
  lane.hedge_queue.push_back(ref);
  if (!lane.hedge_timer.active()) arm_hedge(lane);
}

template <typename Req, typename Rep>
void SednaClient::cancel_hedge(Lane<Req, Rep>& lane,
                               typename Lane<Req, Rep>::Ref ref) {
  lane.ops[ref.slot].hedge_due = false;
  const auto& front = lane.hedge_queue.front();
  if (front.slot != ref.slot || front.gen != ref.gen) return;
  // The timer was armed for this op: re-arm it for the next due one.
  lane.hedge_timer.cancel();
  arm_hedge(lane);
}

template <typename Req, typename Rep>
void SednaClient::arm_hedge(Lane<Req, Rep>& lane) {
  auto& queue = lane.hedge_queue;
  while (!queue.empty() && !lane.due(queue.front())) queue.pop_front();
  if (queue.empty()) return;
  lane.hedge_delay =
      static_cast<SimDuration>(lane.recent.quantile(kHedgeQuantile));
  const SimTime at = lane.ops[queue.front().slot].sent + lane.hedge_delay;
  lane.hedge_timer = sim().schedule(at > now() ? at - now() : 0,
                                    [this, &lane] { fire_hedges(lane); });
}

template <typename Req, typename Rep>
void SednaClient::fire_hedges(Lane<Req, Rep>& lane) {
  auto& queue = lane.hedge_queue;
  while (!queue.empty()) {
    const auto ref = queue.front();
    if (lane.due(ref)) {
      auto& op = lane.ops[ref.slot];
      if (op.sent + lane.hedge_delay > now()) break;
      op.hedge_due = false;
      send_hedge(lane, ref);
    }
    queue.pop_front();
  }
  arm_hedge(lane);
}

template <typename Req, typename Rep>
void SednaClient::send_hedge(Lane<Req, Rep>& lane,
                             typename Lane<Req, Rep>::Ref ref) {
  auto& op = lane.ops[ref.slot];
  const NodeId coordinator = coordinator_for(op.req.key, 1);
  if (coordinator == kInvalidNode || coordinator == op.first) return;
  if (op.deadline != 0 && now() >= op.deadline) return;
  // A hedge is optional load: an empty bucket just means no hedge, not a
  // shed op.
  if (!take_retry_token()) return;
  hedges_->add(1);
  op.attempt = 1;
  ++op.open;
  // The wait since attempt 0 went out is failover time: attempt 0's
  // coordinator has not answered within the client's recent p99.
  tracer().end(tracer().begin(op.root, "client.hedge_wait", id(), op.sent,
                              TraceStage::kRetry),
               now());
  const TraceContext prev = trace_context();
  set_trace_context(op.root);
  dispatch(lane, ref, coordinator, /*hedge=*/true);
  set_trace_context(prev);
}

template <typename Req, typename Rep>
void SednaClient::dispatch(Lane<Req, Rep>& lane,
                           typename Lane<Req, Rep>::Ref ref,
                           NodeId coordinator, bool hedge) {
  auto& op = lane.ops[ref.slot];
  // Attempt span: one per coordinator tried. Siblings under the op root,
  // so a retried op reads as attempt#0 (timeout) then attempt#1 (ok).
  SpanId& span = op.spans[hedge ? 1 : 0];
  span = attempt_span(lane.span_prefix, op.attempt);
  const TraceContext parent = enter_span(span);
  call<Rep>(
      coordinator, lane.type, op.req.encode(), attempt_timeout(op.deadline),
      [this, &lane, ref, hedge](const Result<Rep>& rep) {
        on_answer(lane, ref, hedge, rep);
      },
      op.deadline);
  set_trace_context(parent);
}

template <typename Req, typename Rep>
void SednaClient::on_answer(Lane<Req, Rep>& lane,
                            typename Lane<Req, Rep>::Ref ref, bool hedge,
                            const Result<Rep>& rep) {
  // The op already completed on its other attempt: drop this answer.
  if (!lane.ops.live(ref)) return;
  auto& op = lane.ops[ref.slot];
  if (op.hedge_due) cancel_hedge(lane, ref);
  --op.open;
  const SpanId span = std::exchange(op.spans[hedge ? 1 : 0], 0);
  if (rep.ok() && !retryable(rep->status)) {
    lane.successes->add(1);
    refill_retry_budget();
    end_span(span, to_string(rep->status));
    end_span(op.spans[hedge ? 0 : 1], "hedged");  // the loser, if open
    if (hedge) {
      hedge_wins_->add(1);
    } else if (!op.retried) {
      // Attempt 0's own answer: the only latency the hedge delay learns
      // from. A hedge win or a retry says how long a dead or slow
      // coordinator took to route around, not how long a healthy one
      // takes, and would push the delay up exactly when it must stay low.
      lane.recent.record(now() - op.started, now());
    }
    finish(lane, ref, rep);
    return;
  }
  const char* why =
      rep.status().is(StatusCode::kTimeout) ? "timeout" : "retry";
  if (op.open > 0) {
    // The other attempt is still out; its answer decides.
    end_span(span, why);
    return;
  }
  if (op.attempt + 1 >= config_.max_attempts) {
    lane.failures->add(1);
    end_span(span, "failure");
    // The retryable status the coordinator answered, if any; the failure
    // text is only built when the op fails on it.
    finish(lane, ref,
           rep.ok() ? Result<Rep>(Status(rep->status))
                    : Result<Rep>(Status::Failure(lane.exhausted)));
    return;
  }
  if (!spend_retry_token()) {
    lane.failures->add(1);
    end_span(span, "overloaded");
    finish(lane, ref, Status::Overloaded("retry budget exhausted"));
    return;
  }
  // Refresh routing state, wait out the jittered backoff, then retry via
  // the next replica.
  lane.retries->add(1);
  end_span(span, why);
  const SimDuration backoff = retry_backoff(op.attempt + 1);
  // The metadata re-sync + backoff sleep before the next attempt is real
  // client-visible latency — span it as retry time.
  const SpanId wait = tracer().begin(op.root, "client.retry_wait", id(),
                                     now(), TraceStage::kRetry);
  metadata_.sync_now([this, &lane, ref, backoff, wait] {
    sim().schedule(backoff, [this, &lane, ref, wait] {
      tracer().end(wait, now());
      if (!lane.ops.live(ref)) return;
      auto& waiting = lane.ops[ref.slot];
      set_trace_context(waiting.root);
      send_attempt(lane, ref, waiting.attempt + 1);
    });
  });
}

template <typename Req, typename Rep>
void SednaClient::finish(Lane<Req, Rep>& lane,
                         typename Lane<Req, Rep>::Ref ref,
                         const std::type_identity_t<Result<Rep>>& rep) {
  auto op = lane.ops.release(ref.slot);
  lane.latency->record(now() - op.started, op.root.trace_id);
  end_span(op.root.span_id,
           to_string(rep.ok() ? rep->status : rep.status().code()));
  op.cb(rep);
}

template <typename Req, typename Callback>
void SednaClient::submit(Req req, const char* op, Callback cb) {
  auto& lane = lane_of(req);
  const auto ref = lane.ops.acquire();
  auto& state = lane.ops[ref.slot];
  state.req = std::move(req);
  static_assert(decltype(state.cb)::template stores_inline<Callback>(),
                "an op's callback must not allocate");
  state.cb = std::move(cb);
  state.root = begin_trace(op, TraceStage::kService);
  state.started = now();
  state.deadline = op_deadline();
  send_attempt(lane, ref, 0);
}

void SednaClient::submit_write(WriteRequest req, const char* op,
                               WriteCallback cb) {
  submit(std::move(req), op,
         [cb = std::move(cb)](const Result<WriteReply>& rep) {
           cb(rep.ok() ? Status(rep->status) : rep.status());
         });
}

template <typename Callback>
void SednaClient::submit_read(ReadRequest req, const char* op, Callback cb) {
  submit(
      std::move(req), op,
      [this, cb = std::move(cb)](const Result<ReadReply>& rep) {
        if (rep.ok() && rep->stale) {
          stale_reads_->add(1);
          // The coordinator's staleness bound rides the reply when auditing
          // is on; a stale read *without* one is exactly the
          // unlabeled-staleness hole the auditor exists to close, so count
          // the two cases apart.
          if (rep->staleness_us > 0) {
            staleness_bound_->record(rep->staleness_us);
          } else {
            stale_unbounded_->add(1);
          }
        }
        cb(rep);
      });
}

WriteRequest SednaClient::make_write(WriteMode mode, const std::string& key,
                                     const std::string& value) {
  WriteRequest req;
  req.mode = mode;
  req.key = key;
  req.value = value;
  req.ts = next_ts();
  req.source = id();
  return req;
}

void SednaClient::put_causal(const std::string& key, const std::string& value,
                             const store::VersionVector& ctx,
                             PutCausalCallback cb) {
  WriteRequest req = make_write(WriteMode::kLatest, key, value);
  req.causal_tag = WriteRequest::kCausalCtx;
  req.ctx = ctx;
  submit(
      std::move(req), "client.put_causal",
      [cb = std::move(cb)](const Result<WriteReply>& rep) {
        if (!rep.ok()) {
          cb(rep.status(), {});
          return;
        }
        cb(Status(rep->status),
           rep->has_ctx ? rep->ctx : store::VersionVector{});
      });
}

void SednaClient::get_causal(const std::string& key, GetCausalCallback cb) {
  ReadRequest req;
  req.mode = ReadMode::kLatest;
  req.key = key;
  req.causal = true;
  submit_read(
      std::move(req), "client.get_causal",
      [this, cb = std::move(cb)](const Result<ReadReply>& rep) {
        if (!rep.ok()) {
          cb(rep.status());
          return;
        }
        if (rep->status != StatusCode::kOk || !rep->has_causal) {
          cb(Status(rep->status == StatusCode::kOk ? StatusCode::kNotFound
                                                   : rep->status));
          return;
        }
        CausalRead out;
        out.siblings = rep->causal.siblings;
        out.ctx = rep->causal.clock;
        out.stale = rep->stale;
        if (out.siblings.size() > 1) {
          sibling_reads_->add(1);
        }
        cb(out);
      });
}

store::Sibling SednaClient::resolve(const CausalRead& read) {
  if (read.siblings.empty()) return {};
  if (read.siblings.size() > 1) {
    conflicts_resolved_->add(1);
  }
  store::CausalRecord rec;
  rec.siblings = read.siblings;
  const store::Sibling* w = rec.winner();
  return w != nullptr ? *w : store::Sibling{};
}

void SednaClient::write_latest(const std::string& key,
                               const std::string& value, WriteCallback cb) {
  submit_write(make_write(WriteMode::kLatest, key, value),
               "client.write_latest", std::move(cb));
}

void SednaClient::write_latest_ttl(const std::string& key,
                                   const std::string& value,
                                   std::uint64_t ttl_us, WriteCallback cb) {
  WriteRequest req = make_write(WriteMode::kLatest, key, value);
  req.ttl = ttl_us;
  submit_write(std::move(req), "client.write_latest_ttl", std::move(cb));
}

void SednaClient::scan(const std::string& prefix, ScanCallback cb,
                       std::uint32_t per_node_limit) {
  const auto nodes = metadata_.table().nodes();
  if (nodes.empty()) {
    cb(Status::Unavailable("no data nodes"));
    return;
  }
  ScanRequest req;
  req.prefix = prefix;
  req.limit = per_node_limit;
  const std::string payload = req.encode();

  auto result = std::make_shared<ScanResult>();
  auto failures = std::make_shared<std::size_t>(0);
  auto scan_node = [&](std::size_t i, GatherDone done) {
    call<ScanReply>(
        nodes[i], kMsgScan, payload,
        [result, failures, done](const Result<ScanReply>& rep) {
          if (rep.ok() && rep->status == StatusCode::kOk) {
            result->keys.insert(result->keys.end(), rep->keys.begin(),
                                rep->keys.end());
            result->truncated |= rep->truncated;
          } else {
            ++*failures;
          }
          done();
        });
  };
  run_bounded(nodes.size(), kNoLimit, scan_node,
              [result, failures, total = nodes.size(), cb = std::move(cb)] {
                if (*failures == total) {
                  cb(Status::Unavailable("scan reached no node"));
                  return;
                }
                std::sort(result->keys.begin(), result->keys.end());
                cb(*result);
              });
}

void SednaClient::write_all(const std::string& key, const std::string& value,
                            WriteCallback cb) {
  submit_write(make_write(WriteMode::kAll, key, value), "client.write_all",
               std::move(cb));
}

void SednaClient::write_latest_batch(
    const std::vector<std::pair<std::string, std::string>>& entries,
    BatchWriteCallback cb) {
  auto results = std::make_shared<std::vector<Status>>(entries.size());
  auto write = [this, &entries, results](std::size_t i, GatherDone done) {
    write_latest(entries[i].first, entries[i].second,
                 [results, i, done](const Status& st) {
                   (*results)[i] = st;
                   done();
                 });
  };
  run_bounded(entries.size(), kNoLimit, write,
              [results, cb = std::move(cb)] { cb(*results); });
}

void SednaClient::read_latest_batch(const std::vector<std::string>& keys,
                                    BatchReadCallback cb) {
  auto results = std::make_shared<std::vector<Result<store::VersionedValue>>>(
      keys.size(), Status::Unavailable("pending"));
  auto read = [this, &keys, results](std::size_t i, GatherDone done) {
    read_latest(keys[i],
                [results, i, done](const Result<store::VersionedValue>& r) {
                  (*results)[i] = r;
                  done();
                });
  };
  run_bounded(keys.size(), kNoLimit, read,
              [results, cb = std::move(cb)] { cb(*results); });
}

void SednaClient::read_latest(const std::string& key, ReadLatestCallback cb) {
  ReadRequest req;
  req.mode = ReadMode::kLatest;
  req.key = key;
  submit_read(std::move(req), "client.read_latest",
              [cb = std::move(cb)](const Result<ReadReply>& rep) {
                if (!rep.ok()) {
                  cb(rep.status());
                  return;
                }
                if (rep->status != StatusCode::kOk || !rep->has_latest) {
                  cb(Status(rep->status == StatusCode::kOk
                                ? StatusCode::kNotFound
                                : rep->status));
                  return;
                }
                cb(rep->latest);
              });
}

void SednaClient::read_all(const std::string& key, ReadAllCallback cb) {
  ReadRequest req;
  req.mode = ReadMode::kAll;
  req.key = key;
  submit_read(std::move(req), "client.read_all",
              [cb = std::move(cb)](const Result<ReadReply>& rep) {
                if (!rep.ok()) {
                  cb(rep.status());
                  return;
                }
                if (rep->status != StatusCode::kOk &&
                    rep->value_list.empty()) {
                  cb(Status(rep->status));
                  return;
                }
                cb(rep->value_list);
              });
}

}  // namespace sedna::cluster
