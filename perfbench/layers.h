// Standalone layer replays: the store, ring and codec timed on their own
// over one workload's keys, values and op stream, outside any cluster.
#pragma once

#include <cstdint>

#include "workloads.h"

namespace perfbench {

/// Median wall-clock cost per call, from several replays each.
struct LayerTimes {
  double store_write_latest_ns = 0;
  double store_read_latest_ns = 0;
  double store_vnode_scan_ms = 0;
  double ring_lookup_ns = 0;
  double codec_write_request_ns = 0;
  double codec_read_reply_ns = 0;
};

/// `items_per_node` sizes the vnode-scan store (one node's share of the
/// workload's items, as measured in the cluster trial).
LayerTimes replay_layers(const Inputs& in, std::uint64_t items_per_node);

}  // namespace perfbench
