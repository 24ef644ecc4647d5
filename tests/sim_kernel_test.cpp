// Hot-path kernel overhaul tests: timer-arena edge cases, zero-allocation
// steady state, copy-on-write payload semantics, flood fan-out allocations
// and record lifetime, and a determinism replay proof (and pin) over a
// seeded mesh scenario.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/uid_set.hpp"
#include "sim/scheduler.hpp"

// The replacement operator new/delete intentionally pair ::new with
// std::malloc/std::free; GCC's heuristic cannot see that they match.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace excovery {
namespace {

using net::Address;
using net::NodeId;
using net::Packet;
using sim::Scheduler;
using sim::SimDuration;
using sim::SimTime;
using sim::TimerHandle;

// ---- scheduler arena edge cases --------------------------------------------

TEST(SchedulerArena, CancelInsideCallbackPreventsSameTimePeer) {
  Scheduler scheduler;
  bool second_ran = false;
  TimerHandle second;
  scheduler.schedule(SimDuration::from_millis(5),
                     [&] { scheduler.cancel(second); });
  second = scheduler.schedule(SimDuration::from_millis(5),
                              [&] { second_ran = true; });
  scheduler.run();
  EXPECT_FALSE(second_ran);
  EXPECT_TRUE(scheduler.idle());
}

TEST(SchedulerArena, CancelOwnHandleInsideCallbackIsNoop) {
  Scheduler scheduler;
  int runs = 0;
  TimerHandle self;
  self = scheduler.schedule(SimDuration::from_millis(1), [&] {
    ++runs;
    scheduler.cancel(self);  // already executing: must be a no-op
  });
  scheduler.run();
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(scheduler.idle());
}

TEST(SchedulerArena, StaleHandleCannotCancelSlotReuse) {
  Scheduler scheduler;
  bool second_ran = false;
  TimerHandle first = scheduler.schedule(SimDuration::zero(), [] {});
  scheduler.run();
  // The slot of `first` is free again; the next schedule reuses it.
  TimerHandle second = scheduler.schedule(SimDuration::from_millis(1),
                                          [&] { second_ran = true; });
  scheduler.cancel(first);  // stale generation: must not touch `second`
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.run();
  EXPECT_TRUE(second_ran);
  (void)second;
}

TEST(SchedulerArena, DoubleCancelIsNoop) {
  Scheduler scheduler;
  bool ran = false;
  TimerHandle handle =
      scheduler.schedule(SimDuration::from_millis(1), [&] { ran = true; });
  TimerHandle keeper =
      scheduler.schedule(SimDuration::from_millis(2), [] {});
  scheduler.cancel(handle);
  scheduler.cancel(handle);  // second cancel must not free another slot
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.run();
  EXPECT_FALSE(ran);
  (void)keeper;
}

TEST(SchedulerArena, GenerationReuseOverManyCycles) {
  Scheduler scheduler;
  std::vector<TimerHandle> stale;
  int executions = 0;
  for (int cycle = 0; cycle < 1000; ++cycle) {
    TimerHandle h = scheduler.schedule(SimDuration::from_micros(cycle),
                                       [&] { ++executions; });
    if (cycle % 2 == 0) {
      scheduler.cancel(h);
    }
    stale.push_back(h);
    scheduler.run();
    // Stale handles from every earlier cycle must stay inert.
    for (const TimerHandle& old : stale) scheduler.cancel(old);
  }
  EXPECT_EQ(executions, 500);
  // The arena recycles a handful of slots instead of growing per timer.
  EXPECT_LE(scheduler.arena_size(), 8u);
}

TEST(SchedulerArena, RescheduleInsideCallbackReusesSlots) {
  Scheduler scheduler;
  int hops = 0;
  std::function<void()> chain = [&] {
    if (++hops < 100) scheduler.schedule(SimDuration::from_micros(1), chain);
  };
  scheduler.schedule(SimDuration::zero(), chain);
  scheduler.run();
  EXPECT_EQ(hops, 100);
  EXPECT_LE(scheduler.arena_size(), 4u);
}

TEST(SchedulerArena, RunUntilSkipsCancelledHeadsWithoutAdvancingTime) {
  Scheduler scheduler;
  int count = 0;
  TimerHandle early =
      scheduler.schedule(SimDuration::from_millis(1), [&] { ++count; });
  scheduler.schedule(SimDuration::from_millis(50), [&] { ++count; });
  scheduler.cancel(early);
  EXPECT_EQ(scheduler.run_until(SimTime::from_millis(10)), 0u);
  EXPECT_EQ(scheduler.now(), SimTime::from_millis(10));
  scheduler.run();
  EXPECT_EQ(count, 1);
}

TEST(SchedulerArena, OversizedCallbackStillRuns) {
  // Callables beyond the inline buffer take the heap fallback path.
  Scheduler scheduler;
  std::array<std::uint64_t, 64> big{};
  big[0] = 41;
  std::uint64_t result = 0;
  scheduler.schedule(SimDuration::zero(), [big, &result] { result = big[0] + 1; });
  scheduler.run();
  EXPECT_EQ(result, 42u);
}

// ---- zero steady-state allocation ------------------------------------------

TEST(SchedulerArena, ZeroSteadyStateAllocationsForInlineCallbacks) {
  Scheduler scheduler;
  std::uint64_t sink = 0;
  constexpr std::size_t kBatch = 256;
  // Warm-up: grow the arena, free list and heap to working size.
  for (std::size_t i = 0; i < kBatch; ++i) {
    scheduler.schedule(SimDuration(static_cast<std::int64_t>(i)),
                       [&sink, i] { sink += i; });
  }
  scheduler.run();

  std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      scheduler.schedule(SimDuration(static_cast<std::int64_t>(i % 32)),
                         [&sink, i] { sink += i; });
    }
    scheduler.run();
  }
  std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "schedule→execute churn must not allocate";
  EXPECT_GT(sink, 0u);
}

// ---- determinism replay ----------------------------------------------------

/// One delivery observation: (global time ns, node, packet uid).
using DeliveryTrace = std::vector<std::tuple<std::int64_t, NodeId, std::uint64_t>>;

struct ReplayResult {
  DeliveryTrace deliveries;
  std::uint64_t events_executed = 0;
  std::uint64_t uids_sent = 0;
  net::NetworkStats stats;
  /// Every capture, node by node: (local time ns, capture_to_wire bytes).
  std::vector<std::pair<std::int64_t, Bytes>> captures;
};

/// A seeded mesh scenario exercising flood fan-out, unicast chains, filter
/// delays, link loss, timer cancel/reschedule — everything that feeds the
/// (when, seq) execution order.  Must produce a bit-identical trace on
/// every invocation (the platform property §IV-A depends on; parallel
/// execution promises bit-identical results on top of it).
/// `rewrite_at_relay` adds a transmit-side filter at node 6, which only
/// relays, that rewrites the first payload byte of everything it forwards.
ReplayResult run_replay_scenario(bool rewrite_at_relay = false) {
  ReplayResult result;
  Scheduler scheduler;
  net::LinkModel lossy;
  lossy.loss = 0.1;
  lossy.jitter_frac = 0.2;
  net::Topology topology = net::Topology::grid(4, 4, lossy);
  net::Network network(scheduler, std::move(topology), /*seed=*/20140519);

  const Address group = Address::sd_multicast();
  for (NodeId n = 0; n < network.node_count(); ++n) {
    network.join_group(n, group);
    network.bind(n, net::kSdPort, [&result, &scheduler](NodeId at,
                                                        const Packet& p) {
      result.deliveries.emplace_back(scheduler.now().nanos(), at, p.uid);
    });
  }
  // A filter that delays every 3rd packet at node 5 (rx side).
  int counter = 0;
  network.add_filter(
      {net::NodeId{5}, net::Direction::kReceive},
      [&counter](NodeId, net::Direction, Packet&) {
        if (++counter % 3 == 0) {
          return net::FilterVerdict::delayed(SimDuration::from_micros(37));
        }
        return net::FilterVerdict::pass();
      });
  if (rewrite_at_relay) {
    network.add_filter({net::NodeId{6}, net::Direction::kTransmit},
                       [](NodeId, net::Direction, Packet& packet) {
                         if (!packet.payload.empty()) packet.payload[0] ^= 0xFF;
                         return net::FilterVerdict::pass();
                       });
  }

  // Staggered multicast floods from three corners plus unicast cross
  // traffic, with some timers cancelled mid-flight.
  std::vector<TimerHandle> cancels;
  for (int wave = 0; wave < 5; ++wave) {
    scheduler.schedule(
        SimDuration::from_millis(wave * 7), [&network, &result, wave] {
          Packet packet;
          packet.dst = Address::sd_multicast();
          packet.dst_port = net::kSdPort;
          packet.ttl = 8;
          packet.payload.assign(64 + static_cast<std::size_t>(wave), 0x3C);
          auto uid = network.send(static_cast<NodeId>((wave * 5) % 16),
                                  std::move(packet));
          if (uid.ok()) ++result.uids_sent;
        });
    scheduler.schedule(
        SimDuration::from_millis(wave * 7 + 3), [&network, &result, wave] {
          Packet packet;
          packet.dst = Address::for_node(15);
          packet.dst_port = net::kSdPort;
          packet.payload.assign(32, 0x7E);
          auto uid =
              network.send(static_cast<NodeId>(wave % 4), std::move(packet));
          if (uid.ok()) ++result.uids_sent;
        });
    cancels.push_back(scheduler.schedule(
        SimDuration::from_millis(wave * 7 + 5), [] { ADD_FAILURE(); }));
  }
  scheduler.schedule(SimDuration::from_millis(2), [&scheduler, &cancels] {
    for (TimerHandle& h : cancels) scheduler.cancel(h);
  });
  scheduler.run();
  result.events_executed = scheduler.executed();
  result.stats = network.stats();
  for (NodeId n = 0; n < network.node_count(); ++n) {
    for (const net::CapturedPacket& captured : network.captures(n)) {
      result.captures.emplace_back(captured.local_time.nanos(),
                                   net::capture_to_wire(captured));
    }
  }
  return result;
}

/// SHA-256 over everything a replay observes: the delivery trace, the
/// network counters, the executed-event count and every capture.
std::string replay_digest(const ReplayResult& result) {
  Sha256 hash;
  for (const auto& [when, node, uid] : result.deliveries) {
    hash.update_u64(static_cast<std::uint64_t>(when)).update_u32(node)
        .update_u64(uid);
  }
  const net::NetworkStats& s = result.stats;
  for (std::uint64_t counter :
       {s.sent, s.delivered, s.forwarded, s.dropped_loss, s.dropped_interface,
        s.dropped_filter, s.dropped_ttl, s.dropped_no_route,
        s.dropped_no_handler, s.dropped_queue, s.dropped_link_down,
        s.duplicated, s.bytes_sent}) {
    hash.update_u64(counter);
  }
  hash.update_u64(result.events_executed);
  for (const auto& [when, wire] : result.captures) {
    hash.update_u64(static_cast<std::uint64_t>(when))
        .update_u64(wire.size())
        .update(wire.data(), wire.size());
  }
  return hash.finish_hex();
}

TEST(DeterminismReplay, IdenticalSeededRunsProduceIdenticalTraces) {
  ReplayResult a = run_replay_scenario();
  ReplayResult b = run_replay_scenario();
  EXPECT_GT(a.deliveries.size(), 0u);
  EXPECT_GT(a.uids_sent, 0u);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.stats.delivered, b.stats.delivered);
  EXPECT_EQ(a.stats.forwarded, b.stats.forwarded);
  EXPECT_EQ(a.stats.dropped_loss, b.stats.dropped_loss);
  EXPECT_EQ(a.stats.dropped_queue, b.stats.dropped_queue);
  EXPECT_EQ(a.stats.bytes_sent, b.stats.bytes_sent);
}

// The replay pinned across kernel rewrites: event order, RNG draw order,
// counters and captured bytes must not move.  The rewriting variant pins
// that a relay's content change reaches only the copies that relay sends
// on, not its upstream's other branches.
TEST(DeterminismReplay, TracePinned) {
  const ReplayResult plain = run_replay_scenario();
  const ReplayResult rewritten = run_replay_scenario(/*rewrite_at_relay=*/true);
  EXPECT_GT(plain.captures.size(), 0u);
  EXPECT_EQ(replay_digest(plain),
            "9bb8514c3ca179cdbebc930f46397f792c8f6df1e7badd924401b2635a0abbd4");
  EXPECT_EQ(replay_digest(rewritten),
            "738c4cb7e9d0610d7e42d04453b20bf3f56f875b78b716bb228163277197468f");
}

TEST(DeterminismReplay, SameTimeEventsExecuteInScheduleOrder) {
  // The (when, seq) tie-break the seed kernel guaranteed, preserved by the
  // arena + 4-ary heap: equal timestamps run in schedule-call order.
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    scheduler.schedule(SimDuration::from_millis(i % 3),
                       [&order, i] { order.push_back(i); });
  }
  scheduler.run();
  std::vector<int> expected;
  for (int when = 0; when < 3; ++when) {
    for (int i = when; i < 100; i += 3) expected.push_back(i);
  }
  // Events sort by (when, seq): all delay-0 in schedule order, then
  // delay-1, then delay-2.
  std::vector<int> expected_sorted;
  for (int when = 0; when < 3; ++when) {
    for (int i = 0; i < 100; ++i) {
      if (i % 3 == when) expected_sorted.push_back(i);
    }
  }
  EXPECT_EQ(order, expected_sorted);
}

// ---- copy-on-write payload -------------------------------------------------

TEST(PayloadBuffer, DuplicatesShareUntilMutation) {
  net::PayloadBuffer original{Bytes{1, 2, 3, 4}};
  net::PayloadBuffer copy = original;
  EXPECT_EQ(original.use_count(), 2);
  EXPECT_EQ(copy.bytes(), (Bytes{1, 2, 3, 4}));

  copy[0] = 9;  // detach
  EXPECT_EQ(original.use_count(), 1);
  EXPECT_EQ(copy.use_count(), 1);
  EXPECT_EQ(original.bytes(), (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(copy.bytes(), (Bytes{9, 2, 3, 4}));
}

TEST(PayloadBuffer, AssignAndEquality) {
  net::PayloadBuffer buffer;
  EXPECT_TRUE(buffer.empty());
  buffer.assign(3, 0xAB);
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer, (Bytes{0xAB, 0xAB, 0xAB}));
  buffer = Bytes{7};
  EXPECT_EQ(buffer.bytes(), Bytes{7});
  net::PayloadBuffer other{Bytes{7}};
  EXPECT_EQ(buffer, other);  // value equality across distinct buffers
}

TEST(PayloadBuffer, FloodSharesOnePayloadAcrossDuplicates) {
  Scheduler scheduler;
  net::LinkModel ideal = net::LinkModel::ideal();
  net::Network network(scheduler, net::Topology::grid(3, 3, ideal),
                       /*seed=*/3);
  const Address group = Address::sd_multicast();
  long max_sharers = 0;
  for (NodeId n = 0; n < network.node_count(); ++n) {
    network.join_group(n, group);
    network.bind(n, net::kSdPort,
                 [&max_sharers](NodeId, const Packet& p) {
                   max_sharers = std::max(max_sharers, p.payload.use_count());
                 });
  }
  Packet packet;
  packet.dst = group;
  packet.dst_port = net::kSdPort;
  packet.payload.assign(128, 0x11);
  ASSERT_TRUE(network.send(0, std::move(packet)).ok());
  scheduler.run();
  // Duplicates in flight + captures alias one buffer instead of deep
  // copies: at least a handful of sharers must be observable at once.
  EXPECT_GT(max_sharers, 3);
}

// ---- flood fan-out ---------------------------------------------------------

TEST(Network, FloodAllocatesPerRelayNotPerHop) {
  // The kernel bench's BM_FloodGrid/8 world: lossless 8x8 grid, every node
  // a bound group member, capture off.
  Scheduler scheduler;
  net::LinkModel lossless = net::LinkModel::ideal();
  lossless.jitter_frac = 0.0;
  net::Network network(scheduler, net::Topology::grid(8, 8, lossless),
                       /*seed=*/7);
  network.set_capture_enabled(false);
  const Address group = Address::sd_multicast();
  std::uint64_t delivered = 0;
  for (NodeId n = 0; n < network.node_count(); ++n) {
    network.join_group(n, group);
    network.bind(n, net::kSdPort,
                 [&delivered](NodeId, const Packet&) { ++delivered; });
  }
  auto flood = [&] {
    Packet packet;
    packet.dst = group;
    packet.dst_port = net::kSdPort;
    packet.payload.assign(512, 0x6B);
    ASSERT_TRUE(network.send(0, std::move(packet)).ok());
    scheduler.run();
    network.reset_run_state();
  };
  flood();  // warm the timer arena, the heap and the dedup sets
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  flood();
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delivered, 2 * network.node_count());
  // Per node: its one fan-out record, its own packet's route and the copy
  // handed to its handler.  A per-neighbour packet copy would add two
  // allocations per hop, and a grid node has up to four neighbours.
  EXPECT_LE(allocs, 3 * network.node_count());
}

TEST(Network, PendingHopsOutliveTheNetwork) {
  // SimPlatform declares its scheduler before its network, so the network
  // is destroyed first and the queued hops after it, with the scheduler.
  // Destroying a hop must therefore not touch the network.
  auto scheduler = std::make_unique<Scheduler>();
  auto network = std::make_unique<net::Network>(
      *scheduler, net::Topology::grid(4, 4, net::LinkModel::ideal()),
      /*seed=*/5);
  const Address group = Address::sd_multicast();
  for (NodeId n = 0; n < network->node_count(); ++n) {
    network->join_group(n, group);
    network->bind(n, net::kSdPort, [](NodeId, const Packet&) {});
  }
  // A receive-side delay at node 1 leaves a delayed handoff queued too.
  network->add_filter({NodeId{1}, net::Direction::kReceive},
                      [](NodeId, net::Direction, Packet&) {
                        return net::FilterVerdict::delayed(
                            SimDuration::from_seconds(1));
                      });
  Packet flood;
  flood.dst = group;
  flood.dst_port = net::kSdPort;
  flood.payload.assign(64, 0x21);
  ASSERT_TRUE(network->send(0, std::move(flood)).ok());
  Packet unicast;
  unicast.dst = network->topology().node(15).address;
  unicast.dst_port = net::kSdPort;
  unicast.payload.assign(64, 0x22);
  ASSERT_TRUE(network->send(0, std::move(unicast)).ok());
  scheduler->run(8);  // relays have fanned out; their hops are queued
  ASSERT_GT(scheduler->pending(), 0u);
  network.reset();
  scheduler.reset();
}

TEST(UidSet, InsertContainsClear) {
  net::UidSet set;
  EXPECT_TRUE(set.insert(1));
  EXPECT_FALSE(set.insert(1));
  for (std::uint64_t uid = 2; uid <= 500; ++uid) EXPECT_TRUE(set.insert(uid));
  EXPECT_EQ(set.size(), 500u);
  EXPECT_TRUE(set.contains(250));
  EXPECT_FALSE(set.contains(501));
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.contains(1));
  EXPECT_TRUE(set.insert(1));
}

}  // namespace
}  // namespace excovery
