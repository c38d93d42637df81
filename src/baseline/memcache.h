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
// Message types 300–399. Each request and reply is a field-list record
// (common/codec.h): the server refuses a request that does not decode with
// kInvalidArgument, and a reply that does not decode reaches the client's
// callback as kCorruption.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
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

struct McSetRequest {
  std::string key;
  std::string value;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) { io(m.key, m.value); }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<McSetRequest> decode(std::string_view bytes) {
    return codec::decode<McSetRequest>(bytes, "bad memcache set");
  }
};

/// A get or a delete.
struct McKeyRequest {
  std::string key;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) { io(m.key); }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<McKeyRequest> decode(std::string_view bytes) {
    return codec::decode<McKeyRequest>(bytes, "bad memcache key request");
  }
};

/// The answer to a set or a delete.
struct McStatusReply {
  StatusCode status = StatusCode::kOk;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) { io(m.status); }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<McStatusReply> decode(std::string_view bytes) {
    return codec::decode<McStatusReply>(bytes, "bad memcache status reply");
  }
};

/// The answer to a get; a miss carries an empty value.
struct McGetReply {
  StatusCode status = StatusCode::kOk;
  std::string value;

  template <typename M, typename IO>
  static void wire(M& m, IO& io) { io(m.status, m.value); }
  [[nodiscard]] std::string encode() const { return codec::encode(*this); }
  static Result<McGetReply> decode(std::string_view bytes) {
    return codec::decode<McGetReply>(bytes, "bad memcache get reply");
  }
};

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
  /// A request that does not decode is answered kInvalidArgument and
  /// leaves the store untouched.
  void on_message(const sim::Message& msg) override;

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
