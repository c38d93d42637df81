// ZkClient: the embedded client each Sedna node uses to talk to the
// ensemble (paper Section III.D/III.E). Every operation goes through one
// request/reply step that fails over to the next member on timeout or
// refusal and hands the callback a Status for any failure.
//
// Two read aids from Section III.E ride on top:
//   * cached_get, a lease-cached read. Only cached_get fills the cache and
//     only it reads the cache; set() and remove() drop the path's entry.
//     The lease halves after a period with changes and doubles after a
//     quiet one (strategy #2), clamped to [min,max]; callers report the
//     changes through note_sync_changes().
//   * one-shot watches (get_and_watch, children_and_watch).
// Sedna's own paths use neither: they read with get() and children(),
// paced by current_lease(), and the paper rules watches out ("an
// uncontrollable network storm"). bench/ablation_zk_lease measures both.
//
// The client is a component of a sim::Host (it borrows the host's RPC
// machinery); the host must route kMsgWatchEvent messages to
// on_watch_event().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/host.h"
#include "zk/protocol.h"

namespace sedna::zk {

struct ZkClientConfig {
  std::vector<NodeId> ensemble;
  SimDuration session_timeout = sim_sec(2);
  SimDuration ping_interval = sim_ms(500);
  // Adaptive lease parameters (paper III.E).
  SimDuration lease_initial = sim_sec(1);
  SimDuration lease_min = sim_ms(125);
  SimDuration lease_max = sim_sec(8);
};

class ZkClient {
 public:
  using ConnectCallback = std::function<void(const Status&)>;
  using CreateCallback = std::function<void(const Result<std::string>&)>;
  using GetCallback =
      std::function<void(const Result<std::pair<std::string, ZnodeStat>>&)>;
  using SetCallback = std::function<void(const Result<ZnodeStat>&)>;
  using StatusCallback = std::function<void(const Status&)>;
  using ChildrenCallback =
      std::function<void(const Result<std::vector<std::string>>&)>;
  using WatchCallback = std::function<void(const WatchEventMsg&)>;

  ZkClient(sim::Host& host, ZkClientConfig config)
      : host_(host), config_(std::move(config)), lease_(config_.lease_initial) {}
  ~ZkClient() { ping_timer_.cancel(); }

  ZkClient(const ZkClient&) = delete;
  ZkClient& operator=(const ZkClient&) = delete;

  /// Establishes a session and starts heartbeats.
  void connect(ConnectCallback cb);
  [[nodiscard]] bool connected() const { return session_id_ != 0; }
  [[nodiscard]] std::uint64_t session_id() const { return session_id_; }

  void create(const std::string& path, const std::string& data,
              CreateMode mode, CreateCallback cb);
  void get(const std::string& path, GetCallback cb);
  void set(const std::string& path, const std::string& data,
           std::int64_t expected_version, SetCallback cb);
  void remove(const std::string& path, std::int64_t expected_version,
              StatusCallback cb);
  void exists(const std::string& path, SetCallback cb);
  void children(const std::string& path, ChildrenCallback cb);

  /// get() with a one-shot watch; `on_event` fires when the node changes.
  void get_and_watch(const std::string& path, GetCallback cb,
                     WatchCallback on_event);
  void children_and_watch(const std::string& path, ChildrenCallback cb,
                          WatchCallback on_event);

  /// Lease-cached read: serves from the local cache while the entry is
  /// younger than the current lease, otherwise refetches and caches the
  /// answer.
  void cached_get(const std::string& path, GetCallback cb);

  /// Feeds the adaptive-lease controller: callers report how many changed
  /// znodes the last sync period observed.
  void note_sync_changes(std::size_t changed);
  [[nodiscard]] SimDuration current_lease() const { return lease_; }

  /// Host hook: deliver a kMsgWatchEvent payload.
  void on_watch_event(const std::string& payload);

  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t requests_sent() const { return requests_; }

 private:
  struct CacheEntry {
    std::pair<std::string, ZnodeStat> value;
    SimTime fetched_at = 0;
  };

  /// A request for `op` on `path` under this client's session; a
  /// non-empty `on_event` sets a one-shot watch it runs when that fires.
  ClientRequest request_for(ClientRequest::Op op, const std::string& path,
                            WatchCallback on_event = {});

  /// The one request/reply step: sends `req` and calls `cb` with
  /// `value(reply)` on a kOk reply, otherwise with the failure's Status.
  template <typename Callback, typename Value>
  void request(ClientRequest req, Callback cb, Value value);

  /// Sends `req` to the current member, rotating members on failure.
  /// `done` gets the kOk reply or the error (a non-kOk reply included).
  void submit(ClientRequest req, int attempt,
              std::function<void(const Result<ClientReply>&)> done);

  void start_pings();

  sim::Host& host_;
  ZkClientConfig config_;
  std::uint64_t session_id_ = 0;
  std::size_t member_cursor_ = 0;
  std::uint64_t next_watch_id_ = 1;
  std::map<std::uint64_t, WatchCallback> watch_callbacks_;
  std::map<std::string, CacheEntry> cache_;
  SimDuration lease_;
  sim::TimerHandle ping_timer_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace sedna::zk
