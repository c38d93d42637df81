#include "cluster/sedna_client.h"

#include <algorithm>

namespace sedna::cluster {

SednaClient::SednaClient(sim::Network& net, NodeId id,
                         SednaClientConfig config)
    : sim::Host(net, id, config.host),
      config_(std::move(config)),
      zk_(*this,
          [this] {
            auto zc = config_.zk_client;
            zc.ensemble = config_.zk_ensemble;
            return zc;
          }()),
      metadata_(zk_, *this) {
  retry_tokens_ = config_.retry_budget_capacity;
}

bool SednaClient::spend_retry_token() {
  if (config_.retry_budget_capacity <= 0) return true;  // budget disabled
  if (retry_tokens_ < 1.0) {
    // Exhausted: this retry would have exceeded the allowed fraction of
    // fresh traffic. Counted under the shed family — it is load the
    // budget refused to send.
    metrics_.counter("node.shed.retry_budget").add(1);
    return false;
  }
  retry_tokens_ -= 1.0;
  return true;
}

void SednaClient::refill_retry_budget() {
  if (config_.retry_budget_capacity <= 0) return;
  retry_tokens_ = std::min(config_.retry_budget_capacity,
                           retry_tokens_ + config_.retry_budget_refill);
}

Timestamp SednaClient::next_ts() {
  const auto seq = static_cast<std::uint16_t>(
      ((id() & 0xff) << 8) | (write_seq_++ & 0xff));
  return make_timestamp(now(), seq);
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

std::string SednaClient::rpc_span_name(sim::MessageType type) const {
  switch (type) {
    case kMsgClientWrite: return "rpc.client_write";
    case kMsgClientRead: return "rpc.client_read";
    case kMsgScan: return "rpc.scan";
    case zk::kMsgClientRequest: return "rpc.zk_request";
    case zk::kMsgSessionPing: return "rpc.zk_ping";
    default: return sim::Host::rpc_span_name(type);
  }
}

TraceStage SednaClient::rpc_span_stage(sim::MessageType type) const {
  switch (type) {
    // The client-to-coordinator hop is the one true "network" stage of a
    // request: the coordinator decomposes its own share into queue /
    // service / replica waits under this span.
    case kMsgClientWrite:
    case kMsgClientRead:
    case kMsgScan:
      return TraceStage::kNet;
    case zk::kMsgClientRequest:
    case zk::kMsgSessionPing:
      return TraceStage::kZk;
    default:
      return sim::Host::rpc_span_stage(type);
  }
}

SpanId SednaClient::attempt_span(const char* prefix, int attempt) {
  if (!tracer().enabled()) return 0;
  return begin_span(prefix + std::to_string(attempt), TraceStage::kService);
}

SimDuration SednaClient::retry_backoff(int next_attempt) {
  if (config_.retry_backoff_initial_us == 0) return 0;
  SimDuration base = config_.retry_backoff_initial_us;
  for (int i = 1; i < next_attempt && base < config_.retry_backoff_max_us;
       ++i) {
    base *= 2;
  }
  base = std::min(base, config_.retry_backoff_max_us);
  const double spread =
      1.0 + config_.retry_backoff_jitter *
                (2.0 * sim().rng().next_double() - 1.0);
  auto wait = static_cast<SimDuration>(static_cast<double>(base) * spread);
  if (wait == 0) wait = 1;
  metrics_.histogram("client.retry_backoff_us").record(wait);
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
/// (explicit shed) are retryable. A write's timestamp is pinned at the
/// first attempt, so a replayed write is idempotent under LWW (and a causal
/// replay re-sends the same context — the coordinator mints a fresh dot,
/// but the earlier attempt's ack never reached the client, so the extra
/// sibling is pruned by the client's next contextual put).
bool retryable(StatusCode code) {
  return code == StatusCode::kUnavailable || code == StatusCode::kFailure ||
         code == StatusCode::kOverloaded;
}

}  // namespace

const SednaClient::AttemptKind SednaClient::kWriteKind{
    kMsgClientWrite,         "client.write.attempt#",
    "write attempts exhausted", "client.write_retries",
    "client.write_failures", &SednaClient::writes_,
    &SednaClient::write_latency_};
const SednaClient::AttemptKind SednaClient::kReadKind{
    kMsgClientRead,         "client.read.attempt#",
    "read attempts exhausted", "client.read_retries",
    "client.read_failures", &SednaClient::reads_,
    &SednaClient::read_latency_};

template <typename Rep, typename Req>
void SednaClient::run_attempt(Req req, int attempt, SimTime deadline,
                              ReplyCallback<Rep> cb) {
  const AttemptKind& kind = kind_of(req);
  const NodeId coordinator = coordinator_for(req.key, attempt);
  if (coordinator == kInvalidNode) {
    cb(Status::Unavailable("no replicas for key"));
    return;
  }
  // The whole-op deadline may have lapsed during a backoff sleep; give up
  // here rather than launch an attempt whose answer nobody wants.
  if (deadline != 0 && now() >= deadline) {
    metrics_.counter(kind.failures).add(1);
    cb(Status::Timeout("op deadline exceeded"));
    return;
  }
  // Attempt span: one per coordinator tried. Siblings under the op root,
  // so a retried op reads as attempt#0 (timeout) then attempt#1 (ok).
  const SpanId span = attempt_span(kind.span_prefix, attempt);
  const TraceContext parent = enter_span(span);
  // Encode before the lambda capture moves `req` (argument evaluation
  // order is unspecified).
  std::string payload = req.encode();
  call_with_timeout(
      coordinator, kind.type, std::move(payload), attempt_timeout(deadline),
      [this, &kind, req = std::move(req), attempt, deadline, span, parent,
       cb = std::move(cb)](const Status& st,
                           const std::string& body) mutable {
         Result<Rep> final = Status::Failure(kind.exhausted);
         if (st.ok()) {
           auto rep = Rep::decode(body);
           if (rep.ok() && !retryable(rep->status)) {
             (this->*kind.successes)->add(1);
             refill_retry_budget();
             end_span(span, to_string(rep->status));
             cb(std::move(rep));
             return;
           }
           if (rep.ok()) final = Status(rep->status);
         }
         if (attempt + 1 >= config_.max_attempts) {
           metrics_.counter(kind.failures).add(1);
           end_span(span, "failure");
           cb(final);
           return;
         }
         if (!spend_retry_token()) {
           metrics_.counter(kind.failures).add(1);
           end_span(span, "overloaded");
           cb(Status::Overloaded("retry budget exhausted"));
           return;
         }
         // Refresh routing state, wait out the jittered backoff, then
         // retry via the next replica.
         metrics_.counter(kind.retries).add(1);
         end_span(span, st.ok() ? "retry" : "timeout");
         const SimDuration backoff = retry_backoff(attempt + 1);
         // The metadata re-sync + backoff sleep before the next attempt
         // is real client-visible latency — span it as retry time.
         const SpanId wait = tracer().begin(parent, "client.retry_wait", id(),
                                            now(), TraceStage::kRetry);
         metadata_.sync_now([this, req = std::move(req), attempt, deadline,
                             parent, backoff, wait,
                             cb = std::move(cb)]() mutable {
           sim().schedule(backoff, [this, req = std::move(req), attempt,
                                    deadline, parent, wait,
                                    cb = std::move(cb)]() mutable {
             tracer().end(wait, now());
             set_trace_context(parent);
             run_attempt<Rep>(std::move(req), attempt + 1, deadline,
                              std::move(cb));
           });
         });
       },
      deadline);
  set_trace_context(parent);
}

template <typename Rep, typename Req, typename Callback>
void SednaClient::submit(Req req, const char* op, Callback cb) {
  const TraceContext root = begin_trace(op, TraceStage::kService);
  const SimTime started = now();
  const auto latency = kind_of(req).latency;
  run_attempt<Rep>(
      std::move(req), 0, op_deadline(),
      [this, root, started, latency,
       cb = std::move(cb)](const Result<Rep>& rep) {
        (this->*latency)->record(now() - started, root.trace_id);
        end_span(root.span_id,
                 to_string(rep.ok() ? rep->status : rep.status().code()));
        cb(rep);
      });
}

void SednaClient::submit_write(WriteRequest req, const char* op,
                               WriteCallback cb) {
  submit<WriteReply>(std::move(req), op,
                     [cb = std::move(cb)](const Result<WriteReply>& rep) {
                       cb(rep.ok() ? Status(rep->status) : rep.status());
                     });
}

template <typename Callback>
void SednaClient::submit_read(ReadRequest req, const char* op, Callback cb) {
  submit<ReadReply>(
      std::move(req), op,
      [this, cb = std::move(cb)](const Result<ReadReply>& rep) {
        if (rep.ok() && rep->stale) {
          metrics_.counter("client.stale_reads").add(1);
          // The coordinator's staleness bound rides the reply when auditing
          // is on; a stale read *without* one is exactly the
          // unlabeled-staleness hole the auditor exists to close, so count
          // the two cases apart.
          if (rep->staleness_us > 0) {
            metrics_.histogram("client.staleness_bound_us")
                .record(rep->staleness_us);
          } else {
            metrics_.counter("client.stale_unbounded").add(1);
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
  submit<WriteReply>(
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
          metrics_.counter("client.sibling_reads").add(1);
        }
        cb(out);
      });
}

store::Sibling SednaClient::resolve(const CausalRead& read) {
  if (read.siblings.empty()) return {};
  if (read.siblings.size() > 1) {
    metrics_.counter("client.conflicts_resolved").add(1);
    if (resolver_) {
      const std::size_t idx = resolver_(read.siblings);
      return read.siblings[idx % read.siblings.size()];
    }
  }
  // Default LWW resolver: the record's deterministic winner.
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
  auto remaining = std::make_shared<std::size_t>(nodes.size());
  auto failures = std::make_shared<std::size_t>(0);
  auto shared_cb = std::make_shared<ScanCallback>(std::move(cb));
  for (NodeId node : nodes) {
    call(node, kMsgScan, payload,
         [result, remaining, failures, shared_cb, total = nodes.size()](
             const Status& st, const std::string& body) {
           if (st.ok()) {
             auto rep = ScanReply::decode(body);
             if (rep.ok() && rep->status == StatusCode::kOk) {
               result->keys.insert(result->keys.end(), rep->keys.begin(),
                                   rep->keys.end());
               result->truncated |= rep->truncated;
             } else {
               ++*failures;
             }
           } else {
             ++*failures;
           }
           if (--*remaining != 0) return;
           if (*failures == total) {
             (*shared_cb)(Status::Unavailable("scan reached no node"));
             return;
           }
           std::sort(result->keys.begin(), result->keys.end());
           (*shared_cb)(*result);
         });
  }
}

void SednaClient::write_all(const std::string& key, const std::string& value,
                            WriteCallback cb) {
  submit_write(make_write(WriteMode::kAll, key, value), "client.write_all",
               std::move(cb));
}

void SednaClient::write_latest_batch(
    const std::vector<std::pair<std::string, std::string>>& entries,
    BatchWriteCallback cb) {
  if (entries.empty()) {
    cb({});
    return;
  }
  auto results = std::make_shared<std::vector<Status>>(entries.size());
  auto remaining = std::make_shared<std::size_t>(entries.size());
  auto shared_cb = std::make_shared<BatchWriteCallback>(std::move(cb));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    write_latest(entries[i].first, entries[i].second,
                 [results, remaining, shared_cb, i](const Status& st) {
                   (*results)[i] = st;
                   if (--*remaining == 0) (*shared_cb)(*results);
                 });
  }
}

void SednaClient::read_latest_batch(const std::vector<std::string>& keys,
                                    BatchReadCallback cb) {
  if (keys.empty()) {
    cb({});
    return;
  }
  auto results =
      std::make_shared<std::vector<Result<store::VersionedValue>>>();
  results->resize(keys.size(), Status::Unavailable("pending"));
  auto remaining = std::make_shared<std::size_t>(keys.size());
  auto shared_cb = std::make_shared<BatchReadCallback>(std::move(cb));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    read_latest(keys[i],
                [results, remaining, shared_cb,
                 i](const Result<store::VersionedValue>& r) {
                  (*results)[i] = r;
                  if (--*remaining == 0) (*shared_cb)(*results);
                });
  }
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
