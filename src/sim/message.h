// Wire message for the simulated network.
#pragma once

#include <cstdint>
#include <string>

#include "common/trace.h"
#include "common/types.h"

namespace sedna::sim {

/// Message type tags. Each subsystem owns a numeric range so a single
/// dispatch switch per host stays readable:
///   100–199  ZooKeeper-lite client protocol and ensemble internals
///   200–299  Sedna data path (replica read/write, recovery transfer)
///   300–399  Memcached baseline protocol
///   400–499  Trigger runtime control
/// Tests may use 900+ freely.
using MessageType = std::uint32_t;

/// How a host's protocol treats one message type: the name and stage of
/// the span around an outgoing RPC, and the ingress priority class of an
/// incoming request (0 = served first).
struct MessageTraits {
  /// nullptr: "rpc.t<type>".
  const char* span = nullptr;
  TraceStage stage = TraceStage::kNet;
  std::size_t priority = 0;
};

struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  MessageType type = 0;
  /// Matches a response to its request; 0 for one-way messages.
  std::uint64_t rpc_id = 0;
  bool is_response = false;
  /// Serialized payload: a field-list record (common/codec.h).
  std::string payload;
  /// Distributed-tracing context: the sender's trace and the span this
  /// message descends from (for a request, the caller's RPC span). Zero
  /// when tracing is off or the sender holds no active trace. The 16
  /// bytes ride inside the modeled fixed header below, so carrying a
  /// trace changes no timing.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  /// Absolute request deadline (virtual µs); 0 = none. Stamped by the
  /// client on fresh ops and propagated verbatim through every hop the
  /// coordinator fans out on the request's behalf, so any host on the
  /// path can shed work that can no longer finish in time. Rides inside
  /// the modeled fixed header, like the trace context.
  SimTime deadline = 0;

  /// Copy of every field but the payload: enough to reply() to a request.
  [[nodiscard]] Message header() const {
    return Message{from,     to,      type,    rpc_id, is_response, {},
                   trace_id, span_id, deadline};
  }

  [[nodiscard]] std::size_t wire_size() const {
    // Headers modeled as a fixed 32-byte cost, roughly an Ethernet+IP+TCP
    // header share plus framing, matching the 1 GbE testbed assumption.
    return payload.size() + 32;
  }
};

}  // namespace sedna::sim
