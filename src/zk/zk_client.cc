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

}  // namespace

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
        host_.end_span(span, rep.ok() && rep->status == StatusCode::kOk
                                 ? "ok"
                                 : "error");
        inner(rep);
      };
    }
  }
  const NodeId member =
      config_.ensemble[member_cursor_ % config_.ensemble.size()];
  ++requests_;
  host_.call(
      member, kMsgClientRequest, req.encode(),
      [this, req, attempt, done = std::move(done)](
          const Status& st, const std::string& payload) mutable {
        if (st.ok()) {
          auto rep = ClientReply::decode(payload);
          if (rep.ok() && rep->status != StatusCode::kUnavailable &&
              rep->status != StatusCode::kRefused) {
            done(std::move(rep));
            return;
          }
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
  submit(std::move(req), 0,
         [this, cb = std::move(cb)](const Result<ClientReply>& rep) {
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           if (rep->status != StatusCode::kOk) {
             cb(Status(rep->status));
             return;
           }
           session_id_ = rep->session_id;
           start_pings();
           cb(Status::Ok());
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
  ClientRequest req;
  req.op = ClientRequest::Op::kCreate;
  req.path = path;
  req.data = data;
  req.mode = static_cast<std::uint8_t>(mode);
  req.session_id = session_id_;
  submit(std::move(req), 0,
         [cb = std::move(cb)](const Result<ClientReply>& rep) {
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           if (rep->status != StatusCode::kOk) {
             cb(Status(rep->status));
             return;
           }
           cb(rep->payload);
         });
}

void ZkClient::get(const std::string& path, GetCallback cb) {
  ClientRequest req;
  req.op = ClientRequest::Op::kGet;
  req.path = path;
  req.session_id = session_id_;
  submit(std::move(req), 0,
         [this, path, cb = std::move(cb)](const Result<ClientReply>& rep) {
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           if (rep->status != StatusCode::kOk) {
             cb(Status(rep->status));
             return;
           }
           cache_[path] = CacheEntry{rep->payload, rep->stat,
                                     host_.sim().now()};
           cb(std::make_pair(rep->payload, rep->stat));
         });
}

void ZkClient::set(const std::string& path, const std::string& data,
                   std::int64_t expected_version, SetCallback cb) {
  ClientRequest req;
  req.op = ClientRequest::Op::kSet;
  req.path = path;
  req.data = data;
  req.expected_version = expected_version;
  req.session_id = session_id_;
  submit(std::move(req), 0,
         [this, path, cb = std::move(cb)](const Result<ClientReply>& rep) {
           cache_.erase(path);  // our own write invalidates the cache
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           if (rep->status != StatusCode::kOk) {
             cb(Status(rep->status));
             return;
           }
           cb(rep->stat);
         });
}

void ZkClient::remove(const std::string& path, std::int64_t expected_version,
                      StatusCallback cb) {
  ClientRequest req;
  req.op = ClientRequest::Op::kDelete;
  req.path = path;
  req.expected_version = expected_version;
  req.session_id = session_id_;
  submit(std::move(req), 0,
         [this, path, cb = std::move(cb)](const Result<ClientReply>& rep) {
           cache_.erase(path);
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           cb(Status(rep->status));
         });
}

void ZkClient::exists(const std::string& path, SetCallback cb) {
  ClientRequest req;
  req.op = ClientRequest::Op::kExists;
  req.path = path;
  req.session_id = session_id_;
  submit(std::move(req), 0,
         [cb = std::move(cb)](const Result<ClientReply>& rep) {
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           if (rep->status != StatusCode::kOk) {
             cb(Status(rep->status));
             return;
           }
           cb(rep->stat);
         });
}

void ZkClient::children(const std::string& path, ChildrenCallback cb) {
  ClientRequest req;
  req.op = ClientRequest::Op::kChildren;
  req.path = path;
  req.session_id = session_id_;
  submit(std::move(req), 0,
         [cb = std::move(cb)](const Result<ClientReply>& rep) {
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           if (rep->status != StatusCode::kOk) {
             cb(Status(rep->status));
             return;
           }
           cb(rep->children);
         });
}

void ZkClient::get_and_watch(const std::string& path, GetCallback cb,
                             WatchCallback on_event) {
  const std::uint64_t wid = next_watch_id_++;
  watch_callbacks_[wid] = std::move(on_event);
  ClientRequest req;
  req.op = ClientRequest::Op::kGet;
  req.path = path;
  req.session_id = session_id_;
  req.watch = true;
  req.watch_id = wid;
  submit(std::move(req), 0,
         [cb = std::move(cb)](const Result<ClientReply>& rep) {
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           if (rep->status != StatusCode::kOk) {
             cb(Status(rep->status));
             return;
           }
           cb(std::make_pair(rep->payload, rep->stat));
         });
}

void ZkClient::children_and_watch(const std::string& path,
                                  ChildrenCallback cb,
                                  WatchCallback on_event) {
  const std::uint64_t wid = next_watch_id_++;
  watch_callbacks_[wid] = std::move(on_event);
  ClientRequest req;
  req.op = ClientRequest::Op::kChildren;
  req.path = path;
  req.session_id = session_id_;
  req.watch = true;
  req.watch_id = wid;
  submit(std::move(req), 0,
         [cb = std::move(cb)](const Result<ClientReply>& rep) {
           if (!rep.ok()) {
             cb(rep.status());
             return;
           }
           if (rep->status != StatusCode::kOk) {
             cb(Status(rep->status));
             return;
           }
           cb(rep->children);
         });
}

void ZkClient::cached_get(const std::string& path, GetCallback cb) {
  const auto it = cache_.find(path);
  if (it != cache_.end() &&
      host_.sim().now() - it->second.fetched_at <= lease_) {
    ++cache_hits_;
    cb(std::make_pair(it->second.data, it->second.stat));
    return;
  }
  get(path, std::move(cb));
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
