// Store statistics, memcached "stats"-style plus Sedna extensions.
#pragma once

#include <cstdint>

namespace sedna::store {

struct StoreStats {
  std::uint64_t get_hits = 0;
  std::uint64_t get_misses = 0;
  std::uint64_t sets = 0;
  std::uint64_t set_outdated = 0;  // write rejected by timestamp LWW
  std::uint64_t deletes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expired = 0;
  std::uint64_t curr_items = 0;
  std::uint64_t total_items = 0;
  std::uint64_t bytes = 0;          // resident payload bytes
  std::uint64_t dirty_events = 0;   // change-capture records produced
  std::uint64_t siblings = 0;       // concurrent values retained (gauge)
  std::uint64_t dvv_merges = 0;     // causal record joins that changed state

  StoreStats& operator+=(const StoreStats& o) {
    get_hits += o.get_hits;
    get_misses += o.get_misses;
    sets += o.sets;
    set_outdated += o.set_outdated;
    deletes += o.deletes;
    evictions += o.evictions;
    expired += o.expired;
    curr_items += o.curr_items;
    total_items += o.total_items;
    bytes += o.bytes;
    dirty_events += o.dirty_events;
    siblings += o.siblings;
    dvv_merges += o.dvv_merges;
    return *this;
  }
};

}  // namespace sedna::store
