#include "zk/zk_client.h"

#include <algorithm>

namespace sedna::zk {

namespace {

const char* zk_op_span_name(ClientRequest::Op op) {
  switch (op) {
    case ClientRequest::Op::kConnect: return "zk.connect";
    case ClientRequest::Op::kCreate: return "zk.create";
    case ClientRequest::Op::kGet: return "zk.get";
    case ClientRequest::Op::kSet: return "zk.set";
    case ClientRequest::Op::kDelete: return "zk.delete";
    case ClientRequest::Op::kExists: return "zk.exists";
    case ClientRequest::Op::kChildren: return "zk.children";
    default: return "zk.op";
  }
}

/// Ensemble members an operation tries (rotating on failure) before it
/// fails with kUnavailable.
constexpr int kMaxRetries = 4;
/// Changes per sync period at which the adaptive lease halves.
constexpr std::size_t kBusyThreshold = 1;

// What each operation's callback gets from a kOk reply.
std::string payload_of(const ClientReply& rep) { return rep.payload; }
std::pair<std::string, ZnodeStat> data_of(const ClientReply& rep) {
  return {rep.payload, rep.stat};
}
ZnodeStat stat_of(const ClientReply& rep) { return rep.stat; }
std::vector<std::string> children_of(const ClientReply& rep) {
  return rep.children;
}
Status ok_of(const ClientReply&) { return Status::Ok(); }

}  // namespace

ClientRequest ZkClient::request_for(ClientRequest::Op op,
                                    const std::string& path,
                                    WatchCallback on_event) {
  ClientRequest req;
  req.op = op;
  req.path = path;
  req.session_id = session_id_;
  if (on_event) {
    req.watch = true;
    req.watch_id = next_watch_id_++;
    watch_callbacks_[req.watch_id] = std::move(on_event);
  }
  return req;
}

template <typename Callback, typename Value>
void ZkClient::request(ClientRequest req, Callback cb, Value value) {
  const bool invalidates = req.op == ClientRequest::Op::kSet ||
                           req.op == ClientRequest::Op::kDelete;
  std::string path = invalidates ? req.path : std::string{};
  submit(std::move(req), 0,
         [this, invalidates, path = std::move(path), cb = std::move(cb),
          value = std::move(value)](const Result<ClientReply>& rep) {
           // Our own write makes the path's cached copy stale, whatever
           // the outcome.
           if (invalidates) cache_.erase(path);
           if (rep.ok()) {
             cb(value(*rep));
           } else {
             cb(rep.status());
           }
         });
}

void ZkClient::submit(ClientRequest req, int attempt,
                      std::function<void(const Result<ClientReply>&)> done) {
  if (config_.ensemble.empty()) {
    done(Status::Unavailable("no ensemble members"));
    return;
  }
  // Span over the whole logical operation (member failover included);
  // the per-attempt RPC spans opened by host_.call nest underneath.
  TraceContext op_ctx_restore = host_.trace_context();
  bool restore = false;
  if (attempt == 0) {
    if (const SpanId span =
            host_.begin_span(zk_op_span_name(req.op), TraceStage::kZk)) {
      op_ctx_restore = host_.enter_span(span);
      restore = true;
      done = [this, span, inner = std::move(done)](
                 const Result<ClientReply>& rep) {
        host_.end_span(span, rep.ok() ? "ok" : "error");
        inner(rep);
      };
    }
  }
  const NodeId member =
      config_.ensemble[member_cursor_ % config_.ensemble.size()];
  ++requests_;
  host_.call<ClientReply>(
      member, kMsgClientRequest, req.encode(),
      [this, req, attempt,
       done = std::move(done)](Result<ClientReply> rep) mutable {
        if (rep.ok() && rep->status != StatusCode::kUnavailable &&
            rep->status != StatusCode::kRefused) {
          done(rep->status == StatusCode::kOk
                   ? std::move(rep)
                   : Result<ClientReply>(Status(rep->status)));
          return;
        }
        // Timeout, decode failure, or member-side unavailability: rotate
        // to the next member and retry.
        ++member_cursor_;
        if (attempt + 1 >= kMaxRetries) {
          done(Status::Unavailable("zk retries exhausted"));
          return;
        }
        submit(std::move(req), attempt + 1, std::move(done));
      });
  if (restore) host_.set_trace_context(op_ctx_restore);
}

void ZkClient::connect(ConnectCallback cb) {
  ClientRequest req;
  req.op = ClientRequest::Op::kConnect;
  req.session_timeout_us = config_.session_timeout;
  request(std::move(req), std::move(cb), [this](const ClientReply& rep) {
    session_id_ = rep.session_id;
    start_pings();
    return Status::Ok();
  });
}

void ZkClient::start_pings() {
  ping_timer_.cancel();
  ping_timer_ = host_.sim().schedule_periodic(
      config_.ping_interval, [this] {
        if (session_id_ == 0 || !host_.alive()) return;
        // Heartbeats are background work: never attribute them to
        // whatever trace the host last dispatched.
        host_.set_trace_context({});
        const NodeId member =
            config_.ensemble[member_cursor_ % config_.ensemble.size()];
        // Heartbeats are acknowledged so the client notices a dead member
        // and fails over before its own session lapses.
        host_.call(member, kMsgSessionPing, SessionPing{session_id_}.encode(),
                   [this](const Status& st, const std::string&) {
                     if (!st.ok()) ++member_cursor_;
                   });
      });
}

void ZkClient::create(const std::string& path, const std::string& data,
                      CreateMode mode, CreateCallback cb) {
  ClientRequest req = request_for(ClientRequest::Op::kCreate, path);
  req.data = data;
  req.mode = static_cast<std::uint8_t>(mode);
  request(std::move(req), std::move(cb), payload_of);
}

void ZkClient::get(const std::string& path, GetCallback cb) {
  request(request_for(ClientRequest::Op::kGet, path), std::move(cb),
          data_of);
}

void ZkClient::set(const std::string& path, const std::string& data,
                   std::int64_t expected_version, SetCallback cb) {
  ClientRequest req = request_for(ClientRequest::Op::kSet, path);
  req.data = data;
  req.expected_version = expected_version;
  request(std::move(req), std::move(cb), stat_of);
}

void ZkClient::remove(const std::string& path, std::int64_t expected_version,
                      StatusCallback cb) {
  ClientRequest req = request_for(ClientRequest::Op::kDelete, path);
  req.expected_version = expected_version;
  request(std::move(req), std::move(cb), ok_of);
}

void ZkClient::exists(const std::string& path, SetCallback cb) {
  request(request_for(ClientRequest::Op::kExists, path), std::move(cb),
          stat_of);
}

void ZkClient::children(const std::string& path, ChildrenCallback cb) {
  request(request_for(ClientRequest::Op::kChildren, path), std::move(cb),
          children_of);
}

void ZkClient::get_and_watch(const std::string& path, GetCallback cb,
                             WatchCallback on_event) {
  request(request_for(ClientRequest::Op::kGet, path, std::move(on_event)),
          std::move(cb), data_of);
}

void ZkClient::children_and_watch(const std::string& path,
                                  ChildrenCallback cb,
                                  WatchCallback on_event) {
  request(
      request_for(ClientRequest::Op::kChildren, path, std::move(on_event)),
      std::move(cb), children_of);
}

void ZkClient::cached_get(const std::string& path, GetCallback cb) {
  const auto it = cache_.find(path);
  if (it != cache_.end() &&
      host_.sim().now() - it->second.fetched_at <= lease_) {
    ++cache_hits_;
    cb(it->second.value);
    return;
  }
  get(path, [this, path, cb = std::move(cb)](
                const Result<std::pair<std::string, ZnodeStat>>& got) {
    if (got.ok()) cache_[path] = CacheEntry{got.value(), host_.sim().now()};
    cb(got);
  });
}

void ZkClient::note_sync_changes(std::size_t changed) {
  // Paper III.E: "lease time will reduce to half if there are lots of
  // changes in ZooKeeper in last lease time, and grow to double if no
  // change in last lease time."
  if (changed >= kBusyThreshold) {
    lease_ = std::max(config_.lease_min, lease_ / 2);
  } else if (changed == 0) {
    lease_ = std::min(config_.lease_max, lease_ * 2);
  }
}

void ZkClient::on_watch_event(const std::string& payload) {
  auto ev = WatchEventMsg::decode(payload);
  if (!ev.ok()) return;
  const auto it = watch_callbacks_.find(ev->watch_id);
  if (it == watch_callbacks_.end()) return;
  WatchCallback cb = std::move(it->second);
  watch_callbacks_.erase(it);  // one-shot, like ZooKeeper
  cb(ev.value());
}

}  // namespace sedna::zk
