#include "baseline/memcache.h"

#include <algorithm>

namespace sedna::baseline {

void MemcacheNode::on_message(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgMcSet: {
      const auto req = McSetRequest::decode(msg.payload);
      if (req.ok()) store_.set(req->key, req->value);
      reply(msg, McStatusReply{req.ok() ? StatusCode::kOk
                                        : StatusCode::kInvalidArgument}
                     .encode());
      break;
    }
    case kMsgMcGet: {
      const auto req = McKeyRequest::decode(msg.payload);
      McGetReply rep{StatusCode::kInvalidArgument, {}};
      if (req.ok()) {
        auto got = store_.read_latest(req->key);
        rep.status = got.ok() ? StatusCode::kOk : StatusCode::kNotFound;
        if (got.ok()) rep.value = std::move(got->value);
      }
      reply(msg, rep.encode());
      break;
    }
    case kMsgMcDelete: {
      const auto req = McKeyRequest::decode(msg.payload);
      reply(msg, McStatusReply{req.ok() ? store_.del(req->key).code()
                                        : StatusCode::kInvalidArgument}
                     .encode());
      break;
    }
    default:
      break;
  }
}

NodeId KetamaRing::server_for(std::string_view key,
                              std::uint32_t replica) const {
  if (points_.empty()) return kInvalidNode;
  auto it = points_.lower_bound(ring_hash(key));
  std::vector<NodeId> seen;
  // Walk clockwise collecting distinct servers until we reach `replica`.
  for (std::size_t hops = 0; hops < points_.size() * 2; ++hops) {
    if (it == points_.end()) it = points_.begin();
    if (std::find(seen.begin(), seen.end(), it->second) == seen.end()) {
      if (seen.size() == replica) return it->second;
      seen.push_back(it->second);
    }
    ++it;
  }
  return points_.begin()->second;  // fewer distinct servers than replica
}

void MemcacheClient::set(const std::string& key, const std::string& value,
                         SetCallback cb) {
  set_chain(key, value, 1, 0, std::move(cb));
}

void MemcacheClient::get(const std::string& key, GetCallback cb) {
  get_chain(key, 1, 0, std::move(cb));
}

void MemcacheClient::set_n(const std::string& key, const std::string& value,
                           std::uint32_t copies, SetCallback cb) {
  set_chain(key, value, copies, 0, std::move(cb));
}

void MemcacheClient::get_n(const std::string& key, std::uint32_t copies,
                           GetCallback cb) {
  get_chain(key, copies, 0, std::move(cb));
}

void MemcacheClient::set_chain(const std::string& key,
                               const std::string& value,
                               std::uint32_t copies, std::uint32_t idx,
                               SetCallback cb) {
  const NodeId server = ring_.server_for(key, idx);
  if (server == kInvalidNode) {
    cb(Status::Unavailable("no memcached servers"));
    return;
  }
  call<McStatusReply>(
      server, kMsgMcSet, McSetRequest{key, value}.encode(),
      [this, key, value, copies, idx, cb = std::move(cb)](
          const Result<McStatusReply>& rep) mutable {
         metrics_.counter("mc.sets").add(1);
         const Status st = rep.ok() ? Status(rep->status) : rep.status();
         if (!st.ok()) {
           cb(st);
           return;
         }
         if (idx + 1 >= copies) {
           cb(Status::Ok());
           return;
         }
         // Next copy only after this one acknowledged: sequential, the
         // defining property of the Fig. 7a Memcached configuration.
         set_chain(key, value, copies, idx + 1, std::move(cb));
       });
}

void MemcacheClient::get_chain(const std::string& key, std::uint32_t copies,
                               std::uint32_t idx, GetCallback cb) {
  const NodeId server = ring_.server_for(key, idx);
  if (server == kInvalidNode) {
    cb(Status::Unavailable("no memcached servers"));
    return;
  }
  call<McGetReply>(
      server, kMsgMcGet, McKeyRequest{key}.encode(),
      [this, key, copies, idx, cb = std::move(cb)](
          Result<McGetReply> rep) mutable {
         metrics_.counter("mc.gets").add(1);
         Result<std::string> result = rep.status();
         if (rep.ok()) {
           if (rep->status == StatusCode::kOk) {
             result = std::move(rep->value);
           } else {
             result = Status(rep->status);
           }
         }
         if (idx + 1 >= copies) {
           cb(result);
           return;
         }
         get_chain(key, copies, idx + 1, std::move(cb));
       });
}

}  // namespace sedna::baseline
