// Memcached baseline (paper Section VI): a plain distributed cache with
// client-side ketama-style consistent hashing and NO server-side
// replication or coordination — the comparison system of Fig. 7(a)/(b).
//
// Two client modes mirror the paper's two experiments:
//   * x1: each set/get touches exactly one server (Fig. 7b);
//   * xN sequential: the client writes/reads the same key to N distinct
//     servers one after another — "in Memcached these reads and writes
//     requests were issued sequentially" (Fig. 7a).
//
// Message types 300–399.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "sim/host.h"
#include "store/local_store.h"

namespace sedna::baseline {

constexpr sim::MessageType kMsgMcSet = 300;
constexpr sim::MessageType kMsgMcGet = 301;
constexpr sim::MessageType kMsgMcDelete = 302;

/// A memcached server: just a LocalStore behind the simulated NIC.
class MemcacheNode : public sim::Host {
 public:
  MemcacheNode(sim::Network& net, NodeId id,
               store::LocalStoreConfig store_config = {},
               sim::HostConfig host_config = {})
      : sim::Host(net, id, host_config),
        store_(store_config, [this] { return sim().now(); }) {}

  [[nodiscard]] store::LocalStore& local_store() { return store_; }

 protected:
  void on_message(const sim::Message& msg) override {
    BinaryReader r(msg.payload);
    const std::string key = r.get_string();
    switch (msg.type) {
      case kMsgMcSet: {
        const std::string value = r.get_string();
        BinaryWriter w;
        if (r.failed()) {
          w.put_u8(static_cast<std::uint8_t>(StatusCode::kInvalidArgument));
        } else {
          store_.set(key, value);
          w.put_u8(static_cast<std::uint8_t>(StatusCode::kOk));
        }
        reply(msg, std::move(w).take());
        break;
      }
      case kMsgMcGet: {
        BinaryWriter w;
        auto got = store_.read_latest(key);
        if (got.ok()) {
          w.put_u8(static_cast<std::uint8_t>(StatusCode::kOk));
          w.put_string(got->value);
        } else {
          w.put_u8(static_cast<std::uint8_t>(StatusCode::kNotFound));
          w.put_string("");
        }
        reply(msg, std::move(w).take());
        break;
      }
      case kMsgMcDelete: {
        BinaryWriter w;
        w.put_u8(static_cast<std::uint8_t>(store_.del(key).code()));
        reply(msg, std::move(w).take());
        break;
      }
      default:
        break;
    }
  }

 private:
  store::LocalStore store_;
};

/// Client-side ketama-ish ring: each server contributes kPointsPerServer
/// hash points; a key maps to the first point clockwise.
class KetamaRing {
 public:
  explicit KetamaRing(const std::vector<NodeId>& servers) {
    for (NodeId server : servers) {
      for (std::uint32_t p = 0; p < kPointsPerServer; ++p) {
        const std::string token =
            std::to_string(server) + "#" + std::to_string(p);
        points_[ring_hash(token)] = server;
      }
    }
  }

  /// The server owning `key`; `replica` > 0 selects the next distinct
  /// servers clockwise (used by the xN sequential mode).
  [[nodiscard]] NodeId server_for(std::string_view key,
                                  std::uint32_t replica = 0) const;

 private:
  static constexpr std::uint32_t kPointsPerServer = 128;

  std::map<std::uint64_t, NodeId> points_;
};

struct MemcacheClientConfig {
  std::vector<NodeId> servers;
  sim::HostConfig host;
};

class MemcacheClient : public sim::Host {
 public:
  using SetCallback = std::function<void(const Status&)>;
  using GetCallback = std::function<void(const Result<std::string>&)>;

  MemcacheClient(sim::Network& net, NodeId id, MemcacheClientConfig config)
      : sim::Host(net, id, config.host),
        config_(std::move(config)),
        ring_(config_.servers) {}

  /// Single set/get — the ordinary memcached client (Fig. 7b mode).
  void set(const std::string& key, const std::string& value, SetCallback cb);
  void get(const std::string& key, GetCallback cb);

  /// Writes/reads the key on `copies` distinct servers *sequentially* —
  /// the Fig. 7a comparison mode. The callback fires after the last hop.
  void set_n(const std::string& key, const std::string& value,
             std::uint32_t copies, SetCallback cb);
  void get_n(const std::string& key, std::uint32_t copies, GetCallback cb);

  [[nodiscard]] const KetamaRing& ring() const { return ring_; }
  [[nodiscard]] MetricRegistry& metrics() { return metrics_; }

 protected:
  void on_message(const sim::Message&) override {}

 private:
  void set_chain(const std::string& key, const std::string& value,
                 std::uint32_t copies, std::uint32_t idx, SetCallback cb);
  /// Reads copy `idx`, then the next; the last copy's result is the
  /// answer.
  void get_chain(const std::string& key, std::uint32_t copies,
                 std::uint32_t idx, GetCallback cb);

  MemcacheClientConfig config_;
  KetamaRing ring_;
  MetricRegistry metrics_;
};

}  // namespace sedna::baseline
