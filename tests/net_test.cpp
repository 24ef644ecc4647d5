// Unit tests for the network simulator: addressing, topology, routing,
// delivery, connection control, capture, tagging and per-link counts.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/lineage.hpp"
#include "sim/scheduler.hpp"

namespace excovery::net {
namespace {

Packet make_packet(Address dst, Port port = 5000,
                   std::size_t payload_size = 10) {
  Packet packet;
  packet.dst = dst;
  packet.src_port = port;
  packet.dst_port = port;
  packet.payload.assign(payload_size, 0x42);
  return packet;
}

// ---- Address -----------------------------------------------------------------

TEST(Address, FormattingAndParsing) {
  Address a(10, 0, 1, 2);
  EXPECT_EQ(a.to_string(), "10.0.1.2");
  Result<Address> parsed = Address::parse("10.0.1.2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), a);
  EXPECT_FALSE(Address::parse("10.0.1").ok());
  EXPECT_FALSE(Address::parse("10.0.1.999").ok());
  EXPECT_FALSE(Address::parse("a.b.c.d").ok());
}

TEST(Address, Classification) {
  EXPECT_TRUE(Address::sd_multicast().is_multicast());
  EXPECT_TRUE(Address(239, 255, 255, 253).is_multicast());
  EXPECT_FALSE(Address(10, 0, 0, 1).is_multicast());
  EXPECT_TRUE(Address::broadcast().is_broadcast());
  EXPECT_TRUE(Address().is_unspecified());
}

TEST(Address, NodeAddressesAreUnique) {
  EXPECT_NE(Address::for_node(1), Address::for_node(2));
  EXPECT_EQ(Address::for_node(257).to_string(), "10.0.1.1");
}

// ---- Topology -------------------------------------------------------------------

TEST(Topology, GeneratorsProduceExpectedShape) {
  Topology chain = Topology::chain(5);
  EXPECT_EQ(chain.node_count(), 5u);
  EXPECT_EQ(chain.link_count(), 4u);
  EXPECT_TRUE(chain.connected());

  Topology grid = Topology::grid(3, 4);
  EXPECT_EQ(grid.node_count(), 12u);
  EXPECT_EQ(grid.link_count(), 3u * 3u + 2u * 4u);  // 17
  EXPECT_TRUE(grid.connected());

  Topology mesh = Topology::full_mesh(6);
  EXPECT_EQ(mesh.link_count(), 15u);
  EXPECT_TRUE(mesh.connected());
}

TEST(Topology, RandomGeometricIsConnectedAndDeterministic) {
  Result<Topology> a = Topology::random_geometric(20, 0.4, 7);
  Result<Topology> b = Topology::random_geometric(20, 0.4, 7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.value().connected());
  EXPECT_EQ(a.value().link_count(), b.value().link_count());
  // Unconnectable parameters fail cleanly.
  EXPECT_FALSE(Topology::random_geometric(50, 0.01, 7).ok());
}

TEST(Topology, RejectsBadLinks) {
  Topology topo = Topology::chain(3);
  EXPECT_FALSE(topo.connect(0, 0).ok());    // self link
  EXPECT_FALSE(topo.connect(0, 1).ok());    // duplicate
  EXPECT_FALSE(topo.connect(0, 99).ok());   // out of range
}

TEST(Topology, LookupByNameAndAddress) {
  Topology topo = Topology::chain(3);
  Result<NodeId> found = topo.find("n1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 1u);
  EXPECT_FALSE(topo.find("nope").ok());
  Result<NodeId> by_addr = topo.find(topo.node(2).address);
  ASSERT_TRUE(by_addr.ok());
  EXPECT_EQ(by_addr.value(), 2u);
}

TEST(Topology, DisconnectedDetected) {
  Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  EXPECT_FALSE(topo.connected());
}

// ---- LinkSet ---------------------------------------------------------------------

TEST(LinkSet, InsertEraseContainsNormaliseEndpoints) {
  LinkSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(3, 1));
  EXPECT_FALSE(set.insert(1, 3));  // same undirected link
  EXPECT_TRUE(set.contains(1, 3));
  EXPECT_TRUE(set.contains(3, 1));
  EXPECT_FALSE(set.contains(1, 2));
  EXPECT_TRUE(set.insert(0, 2));
  EXPECT_EQ(set.size(), 2u);
  // Iteration yields packed keys in ascending (a, b) order.
  std::vector<PackedLink> keys(set.begin(), set.end());
  EXPECT_EQ(keys, (std::vector<PackedLink>{pack_link(0, 2), pack_link(1, 3)}));
  EXPECT_TRUE(set.erase(3, 1));
  EXPECT_FALSE(set.erase(3, 1));
  EXPECT_FALSE(set.contains(1, 3));
  set.clear();
  EXPECT_TRUE(set.empty());
}

// ---- Routing ---------------------------------------------------------------------

TEST(Routing, HopCountsOnChain) {
  Topology chain = Topology::chain(6);
  RoutingTable routing(chain);
  EXPECT_EQ(routing.hop_count(0, 5), 5);
  EXPECT_EQ(routing.hop_count(0, 0), 0);
  EXPECT_EQ(routing.hop_count(2, 4), 2);
  EXPECT_EQ(routing.next_hop(0, 5), 1u);
  std::vector<NodeId> path = routing.path(0, 3);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Routing, GridUsesShortestPaths) {
  Topology grid = Topology::grid(4, 4);
  RoutingTable routing(grid);
  // Corner to corner: manhattan distance 6.
  EXPECT_EQ(routing.hop_count(0, 15), 6);
}

TEST(Routing, OutOfRangeNodeIdsAreRejectedNotUndefined) {
  Topology chain = Topology::chain(4);
  RoutingTable routing(chain);
  // Every query entry point must reject ids beyond the topology (including
  // kInvalidNode itself) instead of indexing out of bounds.
  for (NodeId bad : {NodeId{4}, NodeId{100}, kInvalidNode}) {
    EXPECT_EQ(routing.next_hop(bad, 1), kInvalidNode);
    EXPECT_EQ(routing.next_hop(1, bad), kInvalidNode);
    EXPECT_EQ(routing.next_hop(bad, bad), kInvalidNode);
    EXPECT_EQ(routing.hop_count(bad, 1), -1);
    EXPECT_EQ(routing.hop_count(1, bad), -1);
    EXPECT_TRUE(routing.path(bad, 1).empty());
    EXPECT_TRUE(routing.path(1, bad).empty());
  }
  // Out-of-range link toggles are ignored, valid queries still work.
  routing.set_link_enabled(99, 1, false);
  routing.set_link_enabled(1, kInvalidNode, false);
  routing.set_link_enabled(2, 2, false);
  EXPECT_EQ(routing.hop_count(0, 3), 3);
}

TEST(Routing, LazyRowCacheIsBoundedAndInvisible) {
  Topology grid = Topology::grid(6, 6);
  RoutingTable routing(grid);
  routing.set_row_cache_capacity(4);
  EXPECT_EQ(routing.row_cache_capacity(), 4u);
  // Query from more sources than the cache holds; answers must match a
  // fresh unbounded table.
  RoutingTable reference(grid);
  for (NodeId from = 0; from < 36; ++from) {
    for (NodeId to = 0; to < 36; to += 5) {
      ASSERT_EQ(routing.hop_count(from, to), reference.hop_count(from, to));
      ASSERT_EQ(routing.next_hop(from, to), reference.next_hop(from, to));
    }
    EXPECT_LE(routing.cached_row_count(), 4u);
  }
  // Shrinking a warm cache evicts immediately.
  reference.set_row_cache_capacity(2);
  EXPECT_LE(reference.cached_row_count(), 2u);
  EXPECT_EQ(reference.hop_count(0, 35), routing.hop_count(0, 35));
}

TEST(Routing, SetLinkEnabledIgnoresLinksOutsideTheTopology) {
  Topology chain = Topology::chain(4);
  RoutingTable routing(chain);
  EXPECT_EQ(routing.hop_count(0, 3), 3);
  // 0-2 is not a topology link: disabling it must be a no-op, and a later
  // "enable" of it must not invent an edge.
  routing.set_link_enabled(0, 2, false);
  EXPECT_EQ(routing.hop_count(0, 3), 3);
  routing.set_link_enabled(0, 2, true);
  EXPECT_EQ(routing.hop_count(0, 2), 2);
}

TEST(Routing, UnreachableIsSignalled) {
  Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  RoutingTable routing(topo);
  EXPECT_EQ(routing.hop_count(0, 1), -1);
  EXPECT_EQ(routing.next_hop(0, 1), kInvalidNode);
  EXPECT_TRUE(routing.path(0, 1).empty());
}

// ---- Network: unicast ----------------------------------------------------------------

TEST(Network, UnicastDeliversAcrossHops) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(4), 1);
  std::vector<Packet> received;
  network.bind(3, 5000, [&](NodeId, const Packet& p) { received.push_back(p); });

  Result<std::uint64_t> uid =
      network.send(0, make_packet(network.topology().node(3).address));
  ASSERT_TRUE(uid.ok());
  scheduler.run();

  ASSERT_EQ(received.size(), 1u);
  // Route tracking: every hop recorded (§IV-A3).
  EXPECT_EQ(received[0].route, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(network.stats().delivered, 1u);
  EXPECT_EQ(network.stats().forwarded, 2u);
}

TEST(Network, DeliveryTakesPositiveTime) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(3), 1);
  sim::SimTime arrival;
  network.bind(2, 5000,
               [&](NodeId, const Packet&) { arrival = scheduler.now(); });
  (void)network.send(0, make_packet(network.topology().node(2).address));
  scheduler.run();
  EXPECT_GT(arrival, sim::SimTime::zero());
  // Two hops of >= 500us base delay each.
  EXPECT_GE(arrival.nanos(), 2 * 500'000);
}

TEST(Network, SourceAddressEnforced) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  Packet packet = make_packet(network.topology().node(1).address);
  packet.src = network.topology().node(1).address;  // wrong: not node 0's
  EXPECT_FALSE(network.send(0, std::move(packet)).ok());
}

TEST(Network, UnknownDestinationCounted) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  (void)network.send(0, make_packet(Address(10, 9, 9, 9)));
  scheduler.run();
  EXPECT_EQ(network.stats().dropped_no_route, 1u);
}

TEST(Network, NoHandlerCounted) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_EQ(network.stats().dropped_no_handler, 1u);
}

TEST(Network, LossyLinkDropsFraction) {
  sim::Scheduler scheduler;
  LinkModel lossy;
  lossy.loss = 0.5;
  Network network(scheduler, Topology::chain(2, lossy), 3);
  int received = 0;
  network.bind(1, 5000, [&](NodeId, const Packet&) { ++received; });
  for (int i = 0; i < 400; ++i) {
    (void)network.send(0, make_packet(network.topology().node(1).address));
  }
  scheduler.run();
  EXPECT_NEAR(received, 200, 50);
  EXPECT_EQ(network.stats().dropped_loss + network.stats().delivered, 400u);
}

// ---- Network: multicast -----------------------------------------------------------------

TEST(Network, MulticastFloodsToMembers) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::grid(3, 3), 1);
  Address group = Address::sd_multicast();
  std::vector<NodeId> receivers;
  for (NodeId id : {2u, 4u, 8u}) {
    network.join_group(id, group);
    network.bind(id, 5353, [&receivers](NodeId node, const Packet&) {
      receivers.push_back(node);
    });
  }
  // Non-member with handler must NOT receive.
  bool nonmember_got = false;
  network.bind(5, 5353,
               [&](NodeId, const Packet&) { nonmember_got = true; });

  (void)network.send(0, make_packet(group, 5353));
  scheduler.run();

  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{2, 4, 8}));
  EXPECT_FALSE(nonmember_got);
}

TEST(Network, MulticastLoopback) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  Address group = Address::sd_multicast();
  network.join_group(0, group);
  int self_received = 0;
  network.bind(0, 5353, [&](NodeId, const Packet&) { ++self_received; });
  (void)network.send(0, make_packet(group, 5353));
  scheduler.run();
  EXPECT_EQ(self_received, 1);
}

TEST(Network, MulticastDuplicateSuppression) {
  sim::Scheduler scheduler;
  // Dense mesh: many redundant paths, each member must deliver once.
  Network network(scheduler, Topology::full_mesh(6), 1);
  Address group = Address::sd_multicast();
  std::map<NodeId, int> deliveries;
  for (NodeId id = 1; id < 6; ++id) {
    network.join_group(id, group);
    network.bind(id, 5353, [&deliveries](NodeId node, const Packet&) {
      deliveries[node]++;
    });
  }
  (void)network.send(0, make_packet(group, 5353));
  scheduler.run();
  ASSERT_EQ(deliveries.size(), 5u);
  for (const auto& [node, count] : deliveries) EXPECT_EQ(count, 1);
}

// An aborted attempt leaves hops queued.  The retry's first packet gets
// uid 1 again, so a stale first arrival would be delivered and captured in
// the new run and would suppress the new packet at that node.  The run
// executor's sequence — restart the scheduler from an empty queue, then
// begin_run — leaves none of them.
TEST(Network, RestartThenBeginRunLeavesNoStaleHops) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::grid(6, 6), 1);
  const Address group = Address::sd_multicast();
  std::vector<std::pair<NodeId, std::uint8_t>> deliveries;  // (node, byte 0)
  for (NodeId id = 0; id < network.node_count(); ++id) {
    network.join_group(id, group);
    network.bind(id, 5353, [&deliveries](NodeId node, const Packet& p) {
      deliveries.emplace_back(node, p.payload[0]);
    });
  }
  Packet stale = make_packet(group, 5353);
  stale.payload.assign(10, 0xAA);
  ASSERT_EQ(network.send(0, std::move(stale)).value(), 1u);
  scheduler.run(20);  // partway through the flood
  ASSERT_GT(scheduler.pending(), 0u);

  // What RunExecutor does for the next attempt: restart, begin_run, then
  // prepare_run's reset_run_state.
  scheduler.restart_at(scheduler.now());
  EXPECT_TRUE(scheduler.idle());
  network.begin_run(2);
  network.reset_run_state();
  network.reset_stats();
  deliveries.clear();
  Packet fresh = make_packet(group, 5353);
  fresh.payload.assign(10, 0xBB);
  ASSERT_EQ(network.send(0, std::move(fresh)).value(), 1u);
  scheduler.run();

  std::map<NodeId, int> received;
  for (const auto& [node, byte] : deliveries) {
    EXPECT_EQ(byte, 0xBB) << "node " << node << " got the stale packet";
    received[node]++;
  }
  EXPECT_EQ(received.size(), network.node_count());
  for (const auto& [node, count] : received) {
    EXPECT_EQ(count, 1) << "node " << node;
  }
  for (NodeId id = 0; id < network.node_count(); ++id) {
    for (const CapturedPacket& captured : network.captures(id)) {
      EXPECT_EQ(captured.packet.payload[0], 0xBB) << "capture at " << id;
    }
  }
  EXPECT_EQ(network.stats().delivered, network.node_count());
}

TEST(Network, MulticastTtlLimitsReach) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(6), 1);
  Address group = Address::sd_multicast();
  std::vector<NodeId> receivers;
  for (NodeId id = 1; id < 6; ++id) {
    network.join_group(id, group);
    network.bind(id, 5353, [&receivers](NodeId node, const Packet&) {
      receivers.push_back(node);
    });
  }
  Packet packet = make_packet(group, 5353);
  packet.ttl = 2;  // reaches nodes 1 and 2 only
  (void)network.send(0, std::move(packet));
  scheduler.run();
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{1, 2}));
}

TEST(Network, BroadcastReachesEveryHandler) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::grid(2, 3), 1);
  int received = 0;
  for (NodeId id = 1; id < 6; ++id) {
    network.bind(id, 9, [&](NodeId, const Packet&) { ++received; });
  }
  (void)network.send(0, make_packet(Address::broadcast(), 9));
  scheduler.run();
  EXPECT_EQ(received, 5);
}

// ---- Connection control (§IV-A2) -----------------------------------------------------

TEST(Network, InterfaceDownBlocksTransmit) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  int received = 0;
  network.bind(1, 5000, [&](NodeId, const Packet&) { ++received; });
  network.set_interface_up(0, Direction::kTransmit, false);
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().dropped_interface, 1u);

  network.set_interface_up(0, Direction::kTransmit, true);
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, InterfaceDownBlocksReceive) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  int received = 0;
  network.bind(1, 5000, [&](NodeId, const Packet&) { ++received; });
  network.set_interface_up(1, Direction::kReceive, false);
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_EQ(received, 0);
}

TEST(Network, DownedRelayBreaksForwarding) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(3), 1);
  int received = 0;
  network.bind(2, 5000, [&](NodeId, const Packet&) { ++received; });
  network.set_interface_up(1, Direction::kReceive, false);
  (void)network.send(0, make_packet(network.topology().node(2).address));
  scheduler.run();
  EXPECT_EQ(received, 0);
}

TEST(Network, FilterDrop) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  int received = 0;
  network.bind(1, 5000, [&](NodeId, const Packet&) { ++received; });
  FilterHandle handle = network.add_filter(
      FilterScope{NodeId{0}, Direction::kTransmit},
      [](NodeId, Direction, Packet&) { return FilterVerdict::drop(); });
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().dropped_filter, 1u);

  network.remove_filter(handle);
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, FilterDelayPostponesDelivery) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  sim::SimTime normal_arrival;
  sim::SimTime delayed_arrival;
  network.bind(1, 5000, [&](NodeId, const Packet&) {
    if (normal_arrival == sim::SimTime::zero()) {
      normal_arrival = scheduler.now();
    } else {
      delayed_arrival = scheduler.now();
    }
  });
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();

  network.add_filter(
      FilterScope{NodeId{1}, Direction::kReceive},
      [](NodeId, Direction, Packet&) {
        return FilterVerdict::delayed(sim::SimDuration::from_millis(100));
      });
  sim::SimTime send_time = scheduler.now();
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_GE((delayed_arrival - send_time).nanos(),
            sim::SimDuration::from_millis(100).nanos());
}

TEST(Network, FilterCanModifyContent) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  Bytes seen;
  network.bind(1, 5000,
               [&](NodeId, const Packet& p) { seen = p.payload; });
  network.add_filter(FilterScope{std::nullopt, Direction::kTransmit},
                     [](NodeId, Direction, Packet& packet) {
                       if (!packet.payload.empty()) packet.payload[0] = 0xFF;
                       return FilterVerdict::pass();
                     });
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen[0], 0xFF);
}

// ---- Measurement (§IV-A3, §IV-B2) ------------------------------------------------------

TEST(Network, CapturesAtBothEndpoints) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  network.bind(1, 5000, [](NodeId, const Packet&) {});
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  ASSERT_EQ(network.captures(0).size(), 1u);
  ASSERT_EQ(network.captures(1).size(), 1u);
  EXPECT_EQ(network.captures(0)[0].direction, Direction::kTransmit);
  EXPECT_EQ(network.captures(1)[0].direction, Direction::kReceive);
  // Unaltered content.
  EXPECT_EQ(network.captures(1)[0].packet.payload,
            network.captures(0)[0].packet.payload);
}

TEST(Network, CaptureUsesLocalClock) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  sim::ClockModel model;
  model.offset = sim::SimDuration::from_seconds(100);
  network.set_clock_model(1, model);
  network.bind(1, 5000, [](NodeId, const Packet&) {});
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  ASSERT_EQ(network.captures(1).size(), 1u);
  EXPECT_GT(network.captures(1)[0].local_time,
            sim::SimTime::from_seconds(99));
}

TEST(Network, TaggerIncrementsPerSender) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  network.set_capture_enabled(true);
  for (int i = 0; i < 3; ++i) {
    (void)network.send(0, make_packet(network.topology().node(1).address));
  }
  scheduler.run();
  const auto& captures = network.captures(0);
  ASSERT_EQ(captures.size(), 3u);
  EXPECT_EQ(captures[0].packet.tag, 1);
  EXPECT_EQ(captures[1].packet.tag, 2);
  EXPECT_EQ(captures[2].packet.tag, 3);
}

TEST(Network, UidsAreGloballyUnique) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(3), 1);
  std::set<std::uint64_t> uids;
  for (NodeId sender : {0u, 1u, 2u}) {
    for (int i = 0; i < 5; ++i) {
      Packet p = make_packet(network.topology().node(0).address);
      Result<std::uint64_t> uid = network.send(sender, std::move(p));
      ASSERT_TRUE(uid.ok());
      uids.insert(uid.value());
    }
  }
  EXPECT_EQ(uids.size(), 15u);
}

TEST(Network, CaptureDisableAndDrain) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  network.set_capture_enabled(false);
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_TRUE(network.captures(0).empty());

  network.set_capture_enabled(true);
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  std::vector<CapturedPacket> drained = network.take_captures(0);
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_TRUE(network.captures(0).empty());
}

TEST(Network, WireImageRoundTrip) {
  CapturedPacket captured;
  captured.direction = Direction::kTransmit;
  captured.packet = make_packet(Address(10, 0, 0, 2), 5353, 32);
  captured.packet.src = Address(10, 0, 0, 1);
  captured.packet.tag = 77;
  captured.packet.uid = 123456789;
  captured.packet.route = {0, 3, 5};
  Bytes wire = capture_to_wire(captured);
  Result<WireImage> back = capture_from_wire(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().direction, Direction::kTransmit);
  EXPECT_EQ(back.value().packet.uid, 123456789u);
  EXPECT_EQ(back.value().packet.tag, 77);
  EXPECT_EQ(back.value().packet.route, (std::vector<NodeId>{0, 3, 5}));
  EXPECT_EQ(back.value().packet.payload, captured.packet.payload);
}

TEST(Network, RunStateResetClearsDedupAndCaptures) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::full_mesh(3), 1);
  Address group = Address::sd_multicast();
  network.join_group(1, group);
  int received = 0;
  network.bind(1, 5353, [&](NodeId, const Packet&) { ++received; });
  (void)network.send(0, make_packet(group, 5353));
  scheduler.run();
  EXPECT_EQ(received, 1);
  network.reset_run_state();
  EXPECT_TRUE(network.captures(0).empty());
  (void)network.send(0, make_packet(group, 5353));
  scheduler.run();
  EXPECT_EQ(received, 2);
}

TEST(Network, LinkDegradationAtRuntime) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2), 1);
  LinkModel broken;
  broken.loss = 1.0;
  ASSERT_TRUE(network.set_link_model(0, 1, broken).ok());
  int received = 0;
  network.bind(1, 5000, [&](NodeId, const Packet&) { ++received; });
  (void)network.send(0, make_packet(network.topology().node(1).address));
  scheduler.run();
  EXPECT_EQ(received, 0);
  EXPECT_FALSE(network.set_link_model(0, 0, broken).ok());
}

TEST(Network, HopCountMeasurement) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(5), 1);
  EXPECT_EQ(network.hop_count(0, 4), 4);
  EXPECT_EQ(network.hop_count(1, 1), 0);
}

// ---- per-link counts from the lineage graph (DESIGN.md §16) -------------------

TEST(Network, LinkCountsWalkTheLineageGraph) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(3), 1);
  sim::LineageLog log;
  log.set_graph_enabled(true);
  log.begin_run(1, 1);
  network.set_lineage(&log);
  EXPECT_TRUE(network.link_counts().empty());

  // Events as the data plane records them: the node where it happened,
  // the other end of the hop as peer, the site as label.
  auto record = [&](sim::LineageKind kind, std::uint64_t uid, NodeId node,
                    NodeId peer, std::string_view site) {
    log.record(kind, 0, uid, scheduler.now(), network.lineage_node_label(node),
               network.lineage_node_label(peer), log.intern(site));
  };
  using K = sim::LineageKind;
  // Sent: arrivals at the receiver, from the peer.
  record(K::kHop, 1, 1, 0, "hop");
  record(K::kHop, 2, 1, 0, "hop");
  record(K::kDup, 3, 2, 1, "dup");
  // Dropped at the sender, toward the peer.
  record(K::kDrop, 4, 0, 1, "loss");
  record(K::kDrop, 5, 1, 2, "queue");
  record(K::kDrop, 6, 2, 1, "link_down");
  // Both: recorded at the downed receiver, keyed peer -> node.
  record(K::kDrop, 7, 2, 1, "rx_down");
  // Counted nowhere.
  log.record(K::kDup, 0, 0, scheduler.now(), network.lineage_node_label(1), 0,
             log.intern("hybrid_dedup"));
  record(K::kDrop, 8, 0, 1, "fault:message_loss");
  record(K::kDrop, 9, 1, 2, "tx_down");
  record(K::kDrop, 10, 0, 2, "no_route");
  record(K::kDrop, 11, 1, 0, "ttl");
  record(K::kDrop, 12, 2, 1, "no_handler");
  record(K::kSend, 13, 0, 1, "send");
  record(K::kDeliver, 1, 1, 0, "deliver");

  const std::vector<LinkCount> counts = network.link_counts();
  ASSERT_EQ(counts.size(), 3u);
  auto expect = [&counts](std::size_t i, NodeId from, NodeId to,
                          std::uint64_t sent, std::uint64_t dropped) {
    EXPECT_EQ(counts[i].from, from) << i;
    EXPECT_EQ(counts[i].to, to) << i;
    EXPECT_EQ(counts[i].sent, sent) << i;
    EXPECT_EQ(counts[i].dropped, dropped) << i;
  };
  expect(0, 0, 1, /*sent=*/2, /*dropped=*/1);  // two hops, one loss
  expect(1, 1, 2, 2, 2);  // dup + rx_down sent; queue + rx_down dropped
  expect(2, 2, 1, 0, 1);  // link_down

  // A new run starts from an empty graph.
  log.begin_run(2, 1);
  EXPECT_TRUE(network.link_counts().empty());
}

}  // namespace
}  // namespace excovery::net
