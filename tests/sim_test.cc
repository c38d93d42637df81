// Tests for the discrete-event substrate: event ordering, timers,
// network delivery model, failure injection, host CPU serialization and
// the RPC layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/host.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace sedna::sim {
namespace {

// ---- Simulation core --------------------------------------------------------

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulation, SameTimeEventsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  auto handle = sim.schedule(10, [&] { ran = true; });
  handle.cancel();
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(handle.active());
}

TEST(Simulation, PeriodicFiresRepeatedlyUntilCancelled) {
  Simulation sim;
  int fires = 0;
  auto handle = sim.schedule_periodic(100, [&] { ++fires; });
  sim.run_until(450);
  EXPECT_EQ(fires, 4);
  handle.cancel();
  sim.run_until(1000);
  EXPECT_EQ(fires, 4);
}

TEST(Simulation, StaleHandleNeverCancelsAReusedSlot) {
  Simulation sim;
  bool cancelled_ran = false;
  bool fresh_ran = false;
  auto stale = sim.schedule(10, [&] { cancelled_ran = true; });
  stale.cancel();  // releases the slot at once
  auto fresh = sim.schedule(20, [&] { fresh_ran = true; });  // reuses it
  stale.cancel();
  EXPECT_FALSE(stale.active());
  EXPECT_TRUE(fresh.active());
  sim.run();
  EXPECT_FALSE(cancelled_ran);
  EXPECT_TRUE(fresh_ran);

  // Same for the handle of an event that already fired.
  bool next_ran = false;
  auto next = sim.schedule(5, [&] { next_ran = true; });
  fresh.cancel();
  EXPECT_TRUE(next.active());
  sim.run();
  EXPECT_TRUE(next_ran);
}

TEST(Simulation, PeriodicCancelledInsideItsCallbackStops) {
  Simulation sim;
  int fires = 0;
  TimerHandle handle;
  handle = sim.schedule_periodic(100, [&] {
    if (++fires == 3) handle.cancel();
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(handle.active());
  // The re-arm entry is still pushed, as a stale entry: it pops at 400.
  EXPECT_EQ(sim.now(), 400u);
}

TEST(Simulation, OneShotHandleInactiveOnceFired) {
  Simulation sim;
  bool active_in_callback = true;
  TimerHandle handle;
  handle = sim.schedule(10, [&] { active_in_callback = handle.active(); });
  EXPECT_TRUE(handle.active());
  sim.run();
  EXPECT_FALSE(active_in_callback);
  EXPECT_FALSE(handle.active());
}

TEST(Simulation, CancelledEventsStayQueuedAndAdvanceTheClock) {
  Simulation sim;
  bool ran = false;
  auto late = sim.schedule(50, [] {});
  sim.schedule(10, [&] { ran = true; });
  late.cancel();
  EXPECT_EQ(sim.pending_events(), 1u);  // only live events count
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());  // pops the cancelled entry, runs nothing
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, RunUntilAdvancesClockEvenWhenIdle) {
  Simulation sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulation, RunUntilDoesNotExecuteLaterEvents) {
  Simulation sim;
  bool ran = false;
  sim.schedule(100, [&] { ran = true; });
  sim.run_until(99);
  EXPECT_FALSE(ran);
  sim.run_until(100);
  EXPECT_TRUE(ran);
}

TEST(Simulation, NestedSchedulingWorks) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(10, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Simulation, RunReturnsEventCountAndHonoursCap) {
  Simulation sim;
  // Self-perpetuating event chain.
  std::function<void()> chain = [&] { sim.schedule(1, chain); };
  sim.schedule(1, chain);
  EXPECT_EQ(sim.run(100), 100u);
}

TEST(Simulation, SeededRngIsDeterministic) {
  Simulation a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.rng().next(), b.rng().next());
  }
}

// ---- Randomized kernel check -------------------------------------------------

/// Drives a Simulation and a naive reference model with the same random
/// mix of schedule, cancel, periodic timers, run_until, step and run, and
/// compares the firing order, the clock, every handle's liveness and the
/// live event count after each call. The model keeps a flat list of
/// (at, seq) entries and pops the minimum by linear scan; a cancelled
/// event's entry stays listed, so popping it still moves the clock, which
/// is where a drained queue leaves it. seq is taken at every arm and at
/// every periodic re-arm, after the callback (a self-cancelled periodic
/// still takes one, for a dead entry).
class KernelFuzz {
 public:
  explicit KernelFuzz(std::uint64_t seed) : rng_(seed) {}

  void run(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      random_op();
      check();
    }
    drain();
    check();
  }

 private:
  enum class Kind { kPlain, kSpawn, kCancelOther, kPeriodic };
  struct Event {
    Kind kind = Kind::kPlain;
    SimDuration delay = 0;  // first delay, or the period
    int child = -1;         // kSpawn: pre-allocated child armed on firing
    int target = -1;        // kCancelOther: event cancelled on firing
    int limit = 0;          // kPeriodic: cancels itself on this firing (0 = never)
    TimerHandle handle;
    int fires = 0;
    bool model_live = false;
    int model_fires = 0;
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    int id;
  };

  int add_event(Kind kind, SimDuration delay) {
    Event ev;
    ev.kind = kind;
    ev.delay = delay;
    events_.push_back(ev);
    return static_cast<int>(events_.size()) - 1;
  }

  void arm(int id) {
    Event& ev = events_[id];
    auto fn = [this, id] { fire(id, /*model=*/false); };
    ev.handle = ev.kind == Kind::kPeriodic
                    ? sim_.schedule_periodic(ev.delay, fn)
                    : sim_.schedule(ev.delay, fn);
    model_arm(id, ev.delay);
  }

  /// The event's callback, on either side.
  void fire(int id, bool model) {
    Event& ev = events_[id];
    (model ? model_log_ : log_).push_back(id);
    int& fires = model ? ev.model_fires : ev.fires;
    ++fires;
    switch (ev.kind) {
      case Kind::kPlain:
        break;
      case Kind::kSpawn:
        if (model) {
          model_arm(ev.child, events_[ev.child].delay);
        } else {
          const int child = ev.child;
          events_[child].handle = sim_.schedule(
              events_[child].delay, [this, child] { fire(child, false); });
        }
        break;
      case Kind::kCancelOther:
        cancel(ev.target, model);
        break;
      case Kind::kPeriodic:
        if (ev.limit != 0 && fires == ev.limit) cancel(id, model);
        break;
    }
  }

  void cancel(int id, bool model) {
    if (model) {
      events_[id].model_live = false;
    } else {
      events_[id].handle.cancel();
    }
  }

  void model_arm(int id, SimDuration delay) {
    events_[id].model_live = true;
    model_queue_.push_back(Entry{model_now_ + delay, model_seq_++, id});
  }

  /// Pops the (at, seq) minimum and runs it if live, as the kernel does.
  /// Returns whether it fired; false also when the list is empty.
  bool model_pop_and_fire() {
    auto min = std::min_element(
        model_queue_.begin(), model_queue_.end(),
        [](const Entry& a, const Entry& b) {
          return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
    const Entry entry = *min;
    model_queue_.erase(min);
    model_now_ = entry.at;
    Event& ev = events_[entry.id];
    if (!ev.model_live) return false;
    if (ev.kind != Kind::kPeriodic) {
      ev.model_live = false;
      fire(entry.id, /*model=*/true);
      return true;
    }
    fire(entry.id, /*model=*/true);
    // Re-armed after the callback; dead if the callback cancelled it.
    model_queue_.push_back(
        Entry{model_now_ + ev.delay, model_seq_++, entry.id});
    return true;
  }

  bool model_step() {
    while (!model_queue_.empty()) {
      if (model_pop_and_fire()) return true;
    }
    return false;
  }

  void model_run_until(SimTime deadline) {
    for (;;) {
      bool due = false;
      for (const Entry& e : model_queue_) due |= e.at <= deadline;
      if (!due) break;
      model_pop_and_fire();
    }
    model_now_ = std::max(model_now_, deadline);
  }

  std::uint64_t model_run(std::uint64_t max_events) {
    std::uint64_t n = 0;
    while (n < max_events && model_step()) ++n;
    return n;
  }

  void random_op() {
    const std::uint64_t roll = rng_.next_below(100);
    if (roll < 30) {
      // One-shot with a short delay, so same-time ties are common.
      const auto kind = static_cast<Kind>(rng_.next_below(3));
      const int id = add_event(kind, rng_.next_below(21));
      if (kind == Kind::kSpawn) {
        events_[id].child = add_event(Kind::kPlain, rng_.next_below(21));
      } else if (kind == Kind::kCancelOther) {
        events_[id].target =
            static_cast<int>(rng_.next_below(events_.size()));
      }
      arm(id);
    } else if (roll < 38) {
      const int id = add_event(Kind::kPeriodic, 1 + rng_.next_below(30));
      // Half of them cancel themselves from their own callback.
      if (rng_.next_below(2) == 0) {
        events_[id].limit = 1 + static_cast<int>(rng_.next_below(4));
      }
      arm(id);
    } else if (roll < 63) {
      // Any event, fired, cancelled or never armed included.
      const int id = static_cast<int>(rng_.next_below(events_.size() + 1));
      if (id < static_cast<int>(events_.size())) {
        cancel(id, false);
        cancel(id, true);
      }
    } else if (roll < 78) {
      const SimTime deadline = sim_.now() + rng_.next_below(61);
      sim_.run_until(deadline);
      model_run_until(deadline);
    } else if (roll < 90) {
      for (std::uint64_t i = 1 + rng_.next_below(5); i > 0; --i) {
        const bool fired = sim_.step();
        EXPECT_EQ(fired, model_step());
      }
    } else if (roll < 97) {
      const std::uint64_t cap = 1 + rng_.next_below(20);
      EXPECT_EQ(sim_.run(cap), model_run(cap));
    } else {
      drain();
    }
  }

  /// Stops every periodic timer, then steps until the queue drains: the
  /// clock must land on the last entry's time even when that entry was
  /// cancelled.
  void drain() {
    for (std::size_t id = 0; id < events_.size(); ++id) {
      if (events_[id].kind != Kind::kPeriodic) continue;
      cancel(static_cast<int>(id), false);
      cancel(static_cast<int>(id), true);
    }
    for (int guard = 0; guard < 100000; ++guard) {
      const bool fired = sim_.step();
      const bool model_fired = model_step();
      ASSERT_EQ(fired, model_fired);
      if (!fired) break;
    }
    EXPECT_TRUE(model_queue_.empty());
    EXPECT_FALSE(sim_.step());
  }

  void check() {
    ASSERT_EQ(log_, model_log_);
    ASSERT_EQ(sim_.now(), model_now_);
    std::size_t live = 0;
    for (std::size_t id = 0; id < events_.size(); ++id) {
      ASSERT_EQ(events_[id].handle.active(), events_[id].model_live)
          << "event " << id;
      live += events_[id].model_live ? 1 : 0;
    }
    ASSERT_EQ(sim_.pending_events(), live);
  }

  Rng rng_;
  Simulation sim_;
  std::vector<Event> events_;
  std::vector<int> log_;
  std::vector<int> model_log_;
  std::vector<Entry> model_queue_;
  SimTime model_now_ = 0;
  std::uint64_t model_seq_ = 0;
};

TEST(Simulation, RandomizedScheduleCancelMatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    KernelFuzz(seed).run(400);
    if (HasFailure()) return;
  }
}

// ---- Network model ------------------------------------------------------------

/// Minimal host that records incoming messages.
class SinkHost : public Host {
 public:
  using Host::Host;
  std::vector<Message> received;
  std::vector<SimTime> arrival_times;

 protected:
  void on_message(const Message& msg) override {
    received.push_back(msg);
    arrival_times.push_back(now());
  }
};

struct NetFixture {
  NetworkConfig make_quiet() {
    NetworkConfig cfg;
    cfg.jitter_frac = 0.0;  // deterministic latency for assertions
    return cfg;
  }
};

TEST(Network, DeliveryLatencyIsBasePlusTransmit) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.base_latency_us = 100;
  cfg.bandwidth_bytes_per_us = 100.0;
  cfg.jitter_frac = 0.0;
  Network net(sim, cfg);
  SinkHost a(net, 1), b(net, 2);
  // wire_size = payload + 32 header bytes = 132 → transmit 1.32 us.
  a.send_oneway(2, 900, std::string(100, 'x'));
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  // arrival = delivery(101) + service time; delivery happened at 101.
  EXPECT_GE(b.arrival_times[0], 101u);
  EXPECT_LT(b.arrival_times[0], 101u + 20u);
}

TEST(Network, LargerMessagesTakeLonger) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.jitter_frac = 0.0;
  Network net(sim, cfg);
  SinkHost a(net, 1), b(net, 2);
  a.send_oneway(2, 900, std::string(100000, 'x'));  // 800 us transmit
  a.send_oneway(2, 901, "tiny");
  sim.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].type, 901u);  // the small one arrives first
}

TEST(Network, CrashedReceiverDropsMessages) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  b.crash();
  a.send_oneway(2, 900, "hello");
  sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, CrashMidFlightDropsAtDelivery) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  a.send_oneway(2, 900, "hello");
  sim.schedule(1, [&] { b.crash(); });  // crash before ~120 us delivery
  sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(Network, RestartResumesDelivery) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  b.crash();
  b.restart();
  a.send_oneway(2, 900, "hello");
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, PartitionBlocksBothDirections) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  net.partition(1, 2);
  a.send_oneway(2, 900, "x");
  b.send_oneway(1, 900, "y");
  sim.run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  net.heal(1, 2);
  a.send_oneway(2, 900, "x");
  sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(Network, LossDropsFraction) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.loss_prob = 0.5;
  Network net(sim, cfg);
  SinkHost a(net, 1), b(net, 2);
  for (int i = 0; i < 1000; ++i) a.send_oneway(2, 900, "x");
  sim.run();
  EXPECT_GT(b.received.size(), 350u);
  EXPECT_LT(b.received.size(), 650u);
}

TEST(Network, LoopbackAlwaysDelivers) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.loss_prob = 1.0;  // the wire drops everything...
  Network net(sim, cfg);
  SinkHost a(net, 1);
  a.send_oneway(1, 900, "self");  // ...but loopback bypasses it
  sim.run();
  EXPECT_EQ(a.received.size(), 1u);
}

TEST(Network, CountsBytesAndMessages) {
  Simulation sim;
  Network net(sim);
  SinkHost a(net, 1), b(net, 2);
  a.send_oneway(2, 900, "0123456789");
  sim.run();
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.bytes_sent(), 42u);  // 10 payload + 32 header
}

// ---- Host CPU + RPC --------------------------------------------------------------

TEST(Host, CpuSerializesBackToBackMessages) {
  Simulation sim;
  NetworkConfig ncfg;
  ncfg.jitter_frac = 0.0;
  Network net(sim, ncfg);
  HostConfig hcfg;
  hcfg.base_service_us = 100;
  hcfg.service_jitter_frac = 0.0;
  SinkHost a(net, 1);
  SinkHost b(net, 2, hcfg);
  a.send_oneway(2, 900, "first");
  a.send_oneway(2, 901, "second");
  sim.run();
  ASSERT_EQ(b.arrival_times.size(), 2u);
  // Both arrive on the wire ~together, but processing is serialized by
  // the 100 us CPU cost.
  EXPECT_GE(b.arrival_times[1], b.arrival_times[0] + 100);
}

/// Echo server for RPC tests.
class EchoHost : public Host {
 public:
  using Host::Host;
  bool mute = false;

 protected:
  void on_message(const Message& msg) override {
    if (!mute) reply(msg, "echo:" + msg.payload);
  }
};

TEST(Rpc, RequestResponseRoundTrip) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  std::optional<std::string> response;
  client.call(1, 900, "ping",
              [&](const Status& st, const std::string& body) {
                ASSERT_TRUE(st.ok());
                response = body;
              });
  sim.run();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, "echo:ping");
  EXPECT_EQ(client.pending_rpcs(), 0u);
}

TEST(Rpc, TimeoutFiresWhenServerSilent) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  server.mute = true;
  SinkHost client(net, 2);
  std::optional<Status> result;
  client.call_with_timeout(1, 900, "ping", 1000,
                           [&](const Status& st, const std::string&) {
                             result = st;
                           });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->is(StatusCode::kTimeout));
}

TEST(Rpc, TimeoutFiresWhenServerCrashed) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  server.crash();
  SinkHost client(net, 2);
  std::optional<Status> result;
  client.call_with_timeout(1, 900, "ping", 1000,
                           [&](const Status& st, const std::string&) {
                             result = st;
                           });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->is(StatusCode::kTimeout));
}

TEST(Rpc, LateResponseAfterTimeoutIsIgnored) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.base_latency_us = 2000;  // slower than the rpc timeout
  cfg.jitter_frac = 0.0;
  Network net(sim, cfg);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  int callbacks = 0;
  client.call_with_timeout(1, 900, "ping", 1000,
                           [&](const Status& st, const std::string&) {
                             ++callbacks;
                             EXPECT_TRUE(st.is(StatusCode::kTimeout));
                           });
  sim.run();
  EXPECT_EQ(callbacks, 1);  // the late echo must not double-invoke
}

/// Reply record for the typed-call test: only the body "echo:ok" decodes.
struct EchoReply {
  StatusCode status = StatusCode::kOk;
  static Result<EchoReply> decode(std::string_view body) {
    if (body != "echo:ok") return Status::Corruption("not an echo of ok");
    return EchoReply{};
  }
};

TEST(Rpc, TypedCallDecodesTheReplyOrSaysWhyNot) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  std::vector<StatusCode> got;
  auto record = [&got](const Result<EchoReply>& rep) {
    got.push_back(rep.ok() ? rep->status : rep.status().code());
  };
  client.call<EchoReply>(1, 900, "ok", record);
  sim.run();
  client.call<EchoReply>(1, 900, "garbage", record);  // body will not decode
  sim.run();
  server.mute = true;  // the reply never comes
  client.call<EchoReply>(1, 900, "ok", /*timeout=*/1000, record);
  sim.run();
  EXPECT_EQ(got, (std::vector<StatusCode>{StatusCode::kOk,
                                          StatusCode::kCorruption,
                                          StatusCode::kTimeout}));
  EXPECT_EQ(client.pending_rpcs(), 0u);
}

TEST(Rpc, ConcurrentCallsMatchTheRightResponses) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  std::map<int, std::string> responses;
  for (int i = 0; i < 20; ++i) {
    client.call(1, 900, "m" + std::to_string(i),
                [&, i](const Status& st, const std::string& body) {
                  ASSERT_TRUE(st.ok());
                  responses[i] = body;
                });
  }
  sim.run();
  ASSERT_EQ(responses.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(responses[i], "echo:m" + std::to_string(i));
  }
}

TEST(Rpc, CrashClearsPendingCallbacks) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  server.mute = true;
  SinkHost client(net, 2);
  bool fired = false;
  client.call(1, 900, "ping",
              [&](const Status&, const std::string&) { fired = true; });
  client.crash();
  sim.run();
  EXPECT_FALSE(fired);  // the whole host died; no stray callback
}

/// Echo server that remembers the rpc_id of every request it answers.
class RecordingEchoHost : public Host {
 public:
  using Host::Host;
  std::vector<std::uint64_t> rpc_ids;

 protected:
  void on_message(const Message& msg) override {
    rpc_ids.push_back(msg.rpc_id);
    reply(msg, "echo:" + msg.payload);
  }
};

TEST(Rpc, LateReplyToAReusedSlotIsDropped) {
  Simulation sim;
  NetworkConfig cfg;
  cfg.base_latency_us = 2000;  // each way; slower than the first timeout
  cfg.jitter_frac = 0.0;
  Network net(sim, cfg);
  RecordingEchoHost server(net, 1);
  SinkHost client(net, 2);
  std::vector<std::string> first;
  std::vector<std::string> second;
  client.call_with_timeout(1, 900, "first", 1000,
                           [&](const Status& st, const std::string& body) {
                             first.push_back(st.ok() ? body : "timeout");
                           });
  // After the first call timed out, a second call takes its slot; the
  // first call's echo lands while the second is still open.
  sim.schedule(1500, [&] {
    client.call_with_timeout(1, 900, "second", 10000,
                             [&](const Status& st, const std::string& body) {
                               second.push_back(st.ok() ? body : "timeout");
                             });
  });
  sim.run();
  EXPECT_EQ(first, (std::vector<std::string>{"timeout"}));
  EXPECT_EQ(second, (std::vector<std::string>{"echo:second"}));
  EXPECT_EQ(client.pending_rpcs(), 0u);
  ASSERT_EQ(server.rpc_ids.size(), 2u);
  // Same slot (low half), new generation (high half).
  EXPECT_EQ(server.rpc_ids[0] & 0xffffffffu, server.rpc_ids[1] & 0xffffffffu);
  EXPECT_NE(server.rpc_ids[0], server.rpc_ids[1]);
}

TEST(Rpc, CrashEndsEveryOpenRpcSpanAsCrashed) {
  Simulation sim;
  sim.tracer().set_enabled(true);
  Network net(sim);
  EchoHost server(net, 1);
  server.mute = true;
  SinkHost client(net, 2);
  client.begin_trace("op");
  int callbacks = 0;
  for (int i = 0; i < 5; ++i) {
    client.call(1, 900, "ping",
                [&](const Status&, const std::string&) { ++callbacks; });
  }
  EXPECT_EQ(client.pending_rpcs(), 5u);
  client.crash();
  EXPECT_EQ(client.pending_rpcs(), 0u);
  sim.run();
  EXPECT_EQ(callbacks, 0);
  int rpc_spans = 0;
  for (const Span& span : sim.tracer().spans()) {
    if (span.name != "rpc.t900") continue;
    ++rpc_spans;
    EXPECT_EQ(span.status, "crashed");
  }
  EXPECT_EQ(rpc_spans, 5);
}

TEST(Rpc, CallbacksIssueCallsWhileTheTableGrows) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  SinkHost client(net, 2);
  std::vector<std::string> replies;
  // Each reply fans out into more calls than are open, so the table grows
  // from inside a callback, three levels deep.
  std::function<void(int, const std::string&)> issue =
      [&](int depth, const std::string& tag) {
        client.call(1, 900, tag,
                    [&, depth, tag](const Status& st, const std::string& body) {
                      ASSERT_TRUE(st.ok());
                      EXPECT_EQ(body, "echo:" + tag);
                      replies.push_back(body);
                      if (depth == 3) return;
                      for (int i = 0; i < 6; ++i) {
                        issue(depth + 1, tag + "." + std::to_string(i));
                      }
                    });
      };
  issue(0, "root");
  sim.run();
  EXPECT_EQ(replies.size(), 1u + 6u + 36u + 216u);
  EXPECT_EQ(client.pending_rpcs(), 0u);
}

/// Host that counts the requests it handles into an outside counter, so
/// the count survives the host.
class CountingHost : public Host {
 public:
  CountingHost(Network& net, NodeId id, HostConfig cfg, int* handled)
      : Host(net, id, cfg), handled_(handled) {}

 protected:
  void on_message(const Message&) override { ++*handled_; }

 private:
  int* handled_;
};

HostConfig slow_cpu() {
  HostConfig cfg;
  cfg.base_service_us = 1000;
  cfg.service_jitter_frac = 0.0;
  return cfg;
}

TEST(Rpc, DestroyedHostNeverTouchedBySim) {
  Simulation sim;
  Network net(sim);
  EchoHost server(net, 1);
  int handled = 0;
  {
    CountingHost client(net, 2, slow_cpu(), &handled);
    client.call(1, 900, "ping", [](const Status&, const std::string&) {
      FAIL() << "callback on a destroyed host";
    });
    server.send_oneway(2, 901, "work");
    // The one-way message lands at ~120 us and holds the CPU for 1 ms;
    // the echo lands behind it.
    sim.run_until(500);
    EXPECT_EQ(client.queue_depth(), 1u);
    EXPECT_EQ(client.pending_rpcs(), 1u);
  }  // destroyed with a message in service, one queued and an RPC pending
  sim.run();  // must not crash, dispatch, or fire the callback
  EXPECT_EQ(handled, 0);
}

TEST(Host, CrashDropsTheMessageInService) {
  Simulation sim;
  Network net(sim);
  SinkHost sender(net, 1);
  int handled = 0;
  CountingHost host(net, 2, slow_cpu(), &handled);
  sender.send_oneway(2, 901, "work");
  sim.run_until(500);  // in service until ~1120 us
  host.crash();
  host.restart();
  sim.run();
  EXPECT_EQ(handled, 0);  // the old incarnation's work never completes
  sender.send_oneway(2, 901, "again");
  sim.run();
  EXPECT_EQ(handled, 1);  // the restarted host serves normally
}

}  // namespace
}  // namespace sedna::sim
