// Unit tests for fault injection and environment manipulation (§IV-D),
// plus the dynamic-world fault processes (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/hash.hpp"
#include "faults/injector.hpp"
#include "faults/traffic.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace excovery::faults {
namespace {

constexpr net::Port kPort = net::kSdPort;

struct Fixture {
  sim::Scheduler scheduler;
  net::Network network;
  FaultInjector injector;
  int received = 0;

  explicit Fixture(net::Topology topology = net::Topology::chain(3))
      : network(scheduler, std::move(topology), 1),
        injector(network, kPort) {}

  void bind_counter(net::NodeId node) {
    network.bind(node, kPort, [this](net::NodeId, const net::Packet&) {
      ++received;
    });
  }

  void send_sd(net::NodeId from, net::NodeId to) {
    net::Packet packet;
    packet.dst = network.topology().node(to).address;
    packet.src_port = kPort;
    packet.dst_port = kPort;
    packet.payload.assign(8, 0x01);
    (void)network.send(from, std::move(packet));
  }

  void send_other(net::NodeId from, net::NodeId to) {
    net::Packet packet;
    packet.dst = network.topology().node(to).address;
    packet.src_port = 7777;
    packet.dst_port = 7777;
    packet.payload.assign(8, 0x02);
    (void)network.send(from, std::move(packet));
  }
};

// ---- direction parsing -----------------------------------------------------

TEST(FaultDirection, Parsing) {
  EXPECT_EQ(parse_fault_direction("receive").value(), FaultDirection::kReceive);
  EXPECT_EQ(parse_fault_direction("rx").value(), FaultDirection::kReceive);
  EXPECT_EQ(parse_fault_direction("TRANSMIT").value(),
            FaultDirection::kTransmit);
  EXPECT_EQ(parse_fault_direction("both").value(), FaultDirection::kBoth);
  EXPECT_EQ(parse_fault_direction("\"random\"").value(),
            FaultDirection::kRandom);
  EXPECT_FALSE(parse_fault_direction("sideways").ok());
}

// ---- interface fault ---------------------------------------------------------

TEST(FaultInjection, InterfaceFaultBlocksUntilStopped) {
  Fixture fx;
  fx.bind_counter(2);
  Result<FaultHandle> fault =
      fx.injector.interface_fault(0, FaultDirection::kTransmit);
  ASSERT_TRUE(fault.ok());
  EXPECT_TRUE(fault.value()->active());

  fx.send_sd(0, 2);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 0);

  fault.value()->stop();
  EXPECT_FALSE(fault.value()->active());
  fx.send_sd(0, 2);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);
}

TEST(FaultInjection, InterfaceFaultBothDirections) {
  Fixture fx;
  fx.bind_counter(0);
  Result<FaultHandle> fault =
      fx.injector.interface_fault(0, FaultDirection::kBoth);
  ASSERT_TRUE(fault.ok());
  fx.send_sd(2, 0);  // toward the faulted node: rx blocked
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 0);
}

TEST(FaultInjection, RandomDirectionIsDeterministicInSeed) {
  Fixture fx1;
  Fixture fx2;
  TemporalSpec temporal;
  temporal.randomseed = 77;
  Result<FaultHandle> f1 =
      fx1.injector.interface_fault(0, FaultDirection::kRandom, temporal);
  Result<FaultHandle> f2 =
      fx2.injector.interface_fault(0, FaultDirection::kRandom, temporal);
  ASSERT_TRUE(f1.ok());
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(fx1.network.interface_up(0, net::Direction::kTransmit),
            fx2.network.interface_up(0, net::Direction::kTransmit));
  EXPECT_EQ(fx1.network.interface_up(0, net::Direction::kReceive),
            fx2.network.interface_up(0, net::Direction::kReceive));
}

TEST(FaultInjection, UnknownNodeRejected) {
  Fixture fx;
  EXPECT_FALSE(fx.injector.interface_fault(99, FaultDirection::kBoth).ok());
  EXPECT_FALSE(fx.injector.message_loss(99, 0.5, FaultDirection::kBoth).ok());
}

// ---- message loss ---------------------------------------------------------------

TEST(FaultInjection, MessageLossDropsFraction) {
  Fixture fx(net::Topology::chain(2));
  fx.bind_counter(1);
  Result<FaultHandle> fault =
      fx.injector.message_loss(0, 0.5, FaultDirection::kTransmit);
  ASSERT_TRUE(fault.ok());
  for (int i = 0; i < 400; ++i) fx.send_sd(0, 1);
  fx.scheduler.run();
  EXPECT_GT(fx.received, 120);
  EXPECT_LT(fx.received, 280);
}

TEST(FaultInjection, MessageLossFullProbabilityDropsEverything) {
  Fixture fx(net::Topology::chain(2));
  fx.bind_counter(1);
  Result<FaultHandle> fault =
      fx.injector.message_loss(0, 1.0, FaultDirection::kBoth);
  ASSERT_TRUE(fault.ok());
  for (int i = 0; i < 20; ++i) fx.send_sd(0, 1);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 0);
}

TEST(FaultInjection, MessageLossSparesNonExperimentTraffic) {
  Fixture fx(net::Topology::chain(2));
  int other_received = 0;
  fx.network.bind(1, 7777, [&](net::NodeId, const net::Packet&) {
    ++other_received;
  });
  Result<FaultHandle> fault =
      fx.injector.message_loss(0, 1.0, FaultDirection::kBoth);
  ASSERT_TRUE(fault.ok());
  for (int i = 0; i < 10; ++i) fx.send_other(0, 1);
  fx.scheduler.run();
  // "Whenever the term packet is used, it refers to packets belonging to
  // the experiment process" (§IV-D1).
  EXPECT_EQ(other_received, 10);
}

TEST(FaultInjection, ProbabilityRangeValidated) {
  Fixture fx;
  EXPECT_FALSE(fx.injector.message_loss(0, -0.1, FaultDirection::kBoth).ok());
  EXPECT_FALSE(fx.injector.message_loss(0, 1.1, FaultDirection::kBoth).ok());
  EXPECT_FALSE(fx.injector.path_loss(0, 1, 2.0).ok());
}

// ---- message delay -----------------------------------------------------------------

TEST(FaultInjection, MessageDelayAddsConstantDelay) {
  Fixture fx(net::Topology::chain(2));
  sim::SimTime arrival;
  fx.network.bind(1, kPort, [&](net::NodeId, const net::Packet&) {
    arrival = fx.scheduler.now();
  });
  // Baseline.
  fx.send_sd(0, 1);
  fx.scheduler.run();
  sim::SimTime baseline = arrival;

  Result<FaultHandle> fault = fx.injector.message_delay(
      1, sim::SimDuration::from_millis(250));
  ASSERT_TRUE(fault.ok());
  sim::SimTime send_time = fx.scheduler.now();
  fx.send_sd(0, 1);
  fx.scheduler.run();
  EXPECT_GE((arrival - send_time).nanos(),
            sim::SimDuration::from_millis(250).nanos());
  (void)baseline;
}

// ---- path faults ----------------------------------------------------------------------

TEST(FaultInjection, PathLossAffectsOnlyGivenPeer) {
  Fixture fx(net::Topology::full_mesh(3));
  fx.bind_counter(0);
  // Node 0 loses everything from/to node 1 but keeps node 2 traffic.
  Result<FaultHandle> fault = fx.injector.path_loss(0, 1, 1.0);
  ASSERT_TRUE(fault.ok());
  fx.send_sd(1, 0);
  fx.send_sd(2, 0);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);
}

TEST(FaultInjection, PathDelayAffectsOnlyGivenPeer) {
  Fixture fx(net::Topology::full_mesh(3));
  std::map<std::string, sim::SimTime> arrivals;
  fx.network.bind(0, kPort, [&](net::NodeId, const net::Packet& p) {
    arrivals[p.src.to_string()] = fx.scheduler.now();
  });
  Result<FaultHandle> fault =
      fx.injector.path_delay(0, 1, sim::SimDuration::from_millis(500));
  ASSERT_TRUE(fault.ok());
  sim::SimTime start = fx.scheduler.now();
  fx.send_sd(1, 0);
  fx.send_sd(2, 0);
  fx.scheduler.run();
  std::string peer1 = fx.network.topology().node(1).address.to_string();
  std::string peer2 = fx.network.topology().node(2).address.to_string();
  ASSERT_TRUE(arrivals.count(peer1) == 1 && arrivals.count(peer2) == 1);
  EXPECT_GE((arrivals[peer1] - start).nanos(), 500'000'000);
  EXPECT_LT((arrivals[peer2] - start).nanos(), 100'000'000);
}

// ---- drop all --------------------------------------------------------------------------

TEST(FaultInjection, DropAllBlocksExperimentTrafficEverywhere) {
  Fixture fx(net::Topology::chain(3));
  fx.bind_counter(2);
  int other_received = 0;
  fx.network.bind(2, 7777, [&](net::NodeId, const net::Packet&) {
    ++other_received;
  });
  Result<FaultHandle> fault = fx.injector.drop_all_packets();
  ASSERT_TRUE(fault.ok());
  fx.send_sd(0, 2);
  fx.send_other(0, 2);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 0);
  EXPECT_EQ(other_received, 1);

  fault.value()->stop();
  fx.send_sd(0, 2);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);
}

// ---- temporal behaviour (duration/rate/randomseed) --------------------------------------

TEST(FaultTemporal, WindowedFaultActivatesWithinDuration) {
  Fixture fx(net::Topology::chain(2));
  TemporalSpec temporal;
  temporal.duration = sim::SimDuration::from_seconds(10);
  temporal.rate = 0.3;
  temporal.randomseed = 5;
  Result<FaultHandle> fault =
      fx.injector.interface_fault(0, FaultDirection::kTransmit, temporal);
  ASSERT_TRUE(fault.ok());
  // Not yet active (activation is scheduled).
  EXPECT_FALSE(fault.value()->active());

  // Sample interface state over the window: must be down ~30% of it.
  int down_samples = 0;
  int total_samples = 0;
  for (double t = 0.05; t < 10.0; t += 0.1) {
    fx.scheduler.run_until(sim::SimTime::from_seconds(t));
    ++total_samples;
    if (!fx.network.interface_up(0, net::Direction::kTransmit)) {
      ++down_samples;
    }
  }
  fx.scheduler.run();
  double fraction =
      static_cast<double>(down_samples) / static_cast<double>(total_samples);
  EXPECT_NEAR(fraction, 0.3, 0.05);
  // Auto-stopped at window end.
  EXPECT_FALSE(fault.value()->active());
  EXPECT_TRUE(fx.network.interface_up(0, net::Direction::kTransmit));
}

TEST(FaultTemporal, ActiveBlockIsContinuous) {
  Fixture fx(net::Topology::chain(2));
  TemporalSpec temporal;
  temporal.duration = sim::SimDuration::from_seconds(4);
  temporal.rate = 0.5;
  temporal.randomseed = 11;
  Result<FaultHandle> fault =
      fx.injector.interface_fault(0, FaultDirection::kTransmit, temporal);
  ASSERT_TRUE(fault.ok());
  // The fault must transition up->down->up exactly once ("active in one
  // continuous block", §IV-D).
  int transitions = 0;
  bool last_up = true;
  for (double t = 0.01; t < 4.2; t += 0.01) {
    fx.scheduler.run_until(sim::SimTime::from_seconds(t));
    bool up = fx.network.interface_up(0, net::Direction::kTransmit);
    if (up != last_up) ++transitions;
    last_up = up;
  }
  EXPECT_EQ(transitions, 2);
}

TEST(FaultTemporal, SeedPlacesWindowDeterministically) {
  auto window_start = [](std::uint64_t seed) {
    Fixture fx(net::Topology::chain(2));
    TemporalSpec temporal;
    temporal.duration = sim::SimDuration::from_seconds(10);
    temporal.rate = 0.2;
    temporal.randomseed = seed;
    Result<FaultHandle> fault =
        fx.injector.interface_fault(0, FaultDirection::kTransmit, temporal);
    EXPECT_TRUE(fault.ok());
    for (double t = 0.01; t < 10.0; t += 0.01) {
      fx.scheduler.run_until(sim::SimTime::from_seconds(t));
      if (!fx.network.interface_up(0, net::Direction::kTransmit)) return t;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(window_start(3), window_start(3));
  EXPECT_NE(window_start(3), window_start(4));
}

TEST(FaultInjection, EventsEmittedOnStartAndStop) {
  Fixture fx(net::Topology::chain(2));
  std::vector<std::string> events;
  fx.injector.set_event_sink([&](const std::string& node,
                                 const std::string& event, const Value&) {
    events.push_back(node + ":" + event);
  });
  Result<FaultHandle> fault =
      fx.injector.interface_fault(0, FaultDirection::kBoth);
  ASSERT_TRUE(fault.ok());
  fault.value()->stop();
  fault.value()->stop();  // idempotent
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "n0:fault_interface_start");
  EXPECT_EQ(events[1], "n0:fault_interface_stop");
}

TEST(FaultInjection, ResetStopsEverything) {
  Fixture fx(net::Topology::full_mesh(3));
  (void)fx.injector.interface_fault(0, FaultDirection::kBoth);
  (void)fx.injector.message_loss(1, 0.5, FaultDirection::kBoth);
  (void)fx.injector.drop_all_packets();
  EXPECT_EQ(fx.injector.active_count(), 3u);
  fx.injector.reset();
  EXPECT_EQ(fx.injector.active_count(), 0u);
  EXPECT_TRUE(fx.network.interface_up(0, net::Direction::kReceive));
  EXPECT_EQ(fx.network.filter_count(), 0u);
}

// ---- temporal spec validation -----------------------------------------------

TEST(FaultTemporal, MalformedSpecsRejected) {
  Fixture fx(net::Topology::chain(2));
  TemporalSpec spec;
  spec.rate = 0.0;
  EXPECT_FALSE(validate(spec).ok());
  EXPECT_FALSE(
      fx.injector.message_loss(0, 0.5, FaultDirection::kBoth, spec).ok());
  spec.rate = -0.5;
  EXPECT_FALSE(validate(spec).ok());
  spec.rate = 1.5;
  EXPECT_FALSE(validate(spec).ok());
  EXPECT_FALSE(fx.injector.interface_fault(0, FaultDirection::kBoth, spec).ok());

  spec.rate = 1.0;
  spec.duration = sim::SimDuration(0);
  EXPECT_FALSE(validate(spec).ok());
  EXPECT_FALSE(fx.injector.drop_all_packets(spec).ok());
  spec.duration = sim::SimDuration::from_seconds(-2);
  EXPECT_FALSE(validate(spec).ok());
  EXPECT_FALSE(
      fx.injector.message_delay(0, sim::SimDuration::from_millis(1), spec)
          .ok());

  spec.duration = sim::SimDuration::from_seconds(2);
  EXPECT_TRUE(validate(spec).ok());
  spec.duration.reset();
  EXPECT_TRUE(validate(spec).ok());
}

// ---- Gilbert-Elliott bursty loss --------------------------------------------

TEST(GilbertElliott, ParametersValidated) {
  Fixture fx;
  GilbertElliott bad;
  bad.p_enter_bad = 1.5;
  EXPECT_FALSE(fx.injector.ge_loss(0, bad, FaultDirection::kBoth).ok());
  GilbertElliott bad2;
  bad2.loss_bad = -0.1;
  EXPECT_FALSE(fx.injector.ge_path_loss(0, 1, bad2).ok());
  GilbertElliott good;
  EXPECT_TRUE(fx.injector.ge_loss(0, good, FaultDirection::kBoth).ok());
}

TEST(GilbertElliott, AbsorbingBadStateDropsEverythingAfterFirstPacket) {
  Fixture fx(net::Topology::chain(2));
  fx.bind_counter(1);
  GilbertElliott model;
  model.p_enter_bad = 1.0;  // falls into the bad state after the first packet
  model.p_exit_bad = 0.0;   // ... and never recovers
  model.loss_good = 0.0;
  model.loss_bad = 1.0;
  TemporalSpec temporal;
  temporal.randomseed = 3;
  ASSERT_TRUE(
      fx.injector.ge_loss(0, model, FaultDirection::kTransmit, temporal).ok());
  for (int i = 0; i < 50; ++i) fx.send_sd(0, 1);
  fx.scheduler.run();
  // The loss draw happens in the CURRENT state before the transition draw,
  // so exactly the first packet (good state) survives.
  EXPECT_EQ(fx.received, 1);
}

TEST(GilbertElliott, DegeneratesToBernoulliDropSequence) {
  // With p_enter_bad == 0 the chain never leaves the good state; the drop
  // decisions must be bit-identical to Bernoulli message_loss on the same
  // randomseed (both derive the same "message-loss" stream).
  auto deliveries = [](bool use_ge) {
    Fixture fx(net::Topology::chain(2));
    std::vector<int> sequence;
    fx.network.bind(1, kPort, [&](net::NodeId, const net::Packet& p) {
      sequence.push_back(static_cast<int>(p.payload[0]));
    });
    TemporalSpec temporal;
    temporal.randomseed = 42;
    if (use_ge) {
      GilbertElliott model;
      model.p_enter_bad = 0.0;
      model.loss_good = 0.4;
      model.loss_bad = 1.0;
      EXPECT_TRUE(
          fx.injector.ge_loss(0, model, FaultDirection::kTransmit, temporal)
              .ok());
    } else {
      EXPECT_TRUE(fx.injector
                      .message_loss(0, 0.4, FaultDirection::kTransmit, temporal)
                      .ok());
    }
    for (int i = 0; i < 200; ++i) {
      net::Packet packet;
      packet.dst = fx.network.topology().node(1).address;
      packet.src_port = kPort;
      packet.dst_port = kPort;
      packet.payload.assign(1, static_cast<std::uint8_t>(i));
      (void)fx.network.send(0, std::move(packet));
    }
    fx.scheduler.run();
    return sequence;
  };
  std::vector<int> ge = deliveries(true);
  std::vector<int> bernoulli = deliveries(false);
  EXPECT_FALSE(ge.empty());
  EXPECT_LT(ge.size(), 200u);
  EXPECT_EQ(ge, bernoulli);
}

// ---- duplication and reordering ---------------------------------------------

TEST(FaultInjection, MessageDuplicateInjectsCopies) {
  Fixture fx(net::Topology::chain(2));
  fx.bind_counter(1);
  Result<FaultHandle> fault = fx.injector.message_duplicate(
      0, 1.0, 2, sim::SimDuration::from_millis(1));
  ASSERT_TRUE(fault.ok());
  fx.send_sd(0, 1);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 3);  // original + 2 copies

  fault.value()->stop();
  fx.received = 0;
  fx.send_sd(0, 1);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);
}

TEST(FaultInjection, MessageDuplicateSparesRelayedPackets) {
  Fixture fx(net::Topology::chain(3));
  fx.bind_counter(2);
  // Duplication armed on the relay must not clone forwarded packets: only
  // originated sends (route length 1 at tx filter time) are duplicated.
  Result<FaultHandle> fault = fx.injector.message_duplicate(
      1, 1.0, 3, sim::SimDuration::from_millis(1));
  ASSERT_TRUE(fault.ok());
  fx.send_sd(0, 2);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);
}

TEST(FaultInjection, MessageDuplicateValidatesCopies) {
  Fixture fx;
  EXPECT_FALSE(
      fx.injector.message_duplicate(0, 0.5, 0, sim::SimDuration::from_millis(1))
          .ok());
  EXPECT_FALSE(
      fx.injector.message_duplicate(0, 1.5, 1, sim::SimDuration::from_millis(1))
          .ok());
}

TEST(FaultInjection, MessageReorderLetsLaterPacketsOvertake) {
  Fixture fx(net::Topology::chain(2));
  std::vector<int> order;
  fx.network.bind(1, kPort, [&](net::NodeId, const net::Packet& p) {
    order.push_back(static_cast<int>(p.payload[0]));
  });
  TemporalSpec temporal;
  temporal.randomseed = 11;
  Result<FaultHandle> fault = fx.injector.message_reorder(
      0, 0.5, sim::SimDuration::from_millis(50), temporal);
  ASSERT_TRUE(fault.ok());
  for (int i = 0; i < 40; ++i) {
    net::Packet packet;
    packet.dst = fx.network.topology().node(1).address;
    packet.src_port = kPort;
    packet.dst_port = kPort;
    packet.payload.assign(1, static_cast<std::uint8_t>(i));
    (void)fx.network.send(0, std::move(packet));
  }
  fx.scheduler.run();
  ASSERT_EQ(order.size(), 40u);  // reordering never loses packets
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

// ---- link control and rerouting ---------------------------------------------

TEST(LinkControl, DownedLinkDropsAndHealRestores) {
  Fixture fx(net::Topology::chain(2));
  fx.bind_counter(1);
  ASSERT_TRUE(fx.network.set_link_up(0, 1, false).ok());
  EXPECT_FALSE(fx.network.link_up(0, 1));
  fx.send_sd(0, 1);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 0);

  ASSERT_TRUE(fx.network.set_link_up(0, 1, true).ok());
  EXPECT_TRUE(fx.network.link_up(0, 1));
  fx.send_sd(0, 1);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);
}

TEST(LinkControl, ReroutesAroundDownedLink) {
  // 2x2 grid: links 0-1, 0-2, 1-3, 2-3.  With 0-1 down node 0 still
  // reaches 3 via 2; cutting 0-2 as well isolates node 0.
  Fixture fx(net::Topology::grid(2, 2));
  fx.bind_counter(3);
  EXPECT_EQ(fx.network.hop_count(0, 3), 2);
  ASSERT_TRUE(fx.network.set_link_up(0, 1, false).ok());
  fx.send_sd(0, 3);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);
  EXPECT_EQ(fx.network.hop_count(0, 3), 2);

  ASSERT_TRUE(fx.network.set_link_up(0, 2, false).ok());
  fx.send_sd(0, 3);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);  // unchanged: no route
  EXPECT_LT(fx.network.hop_count(0, 3), 0);
}

TEST(LinkControl, UnknownLinkRejected) {
  Fixture fx(net::Topology::chain(3));
  EXPECT_FALSE(fx.network.set_link_up(0, 2, false).ok());  // not adjacent
  EXPECT_FALSE(fx.network.set_link_up(0, 9, false).ok());
}

// ---- dynamic-world processes (DESIGN.md §12) -------------------------------

TEST(ScheduleEngine, ChurnSpecValidated) {
  ChurnSpec bad;
  bad.mean_uptime = sim::SimDuration(0);
  bad.mean_downtime = sim::SimDuration::from_seconds(1);
  EXPECT_FALSE(validate(bad).ok());
  ChurnSpec good;
  good.mean_uptime = sim::SimDuration::from_seconds(1);
  good.mean_downtime = sim::SimDuration::from_seconds(1);
  EXPECT_TRUE(validate(good).ok());
}

TEST(ScheduleEngine, NodeCrashTogglesInterfacesForWindow) {
  Fixture fx(net::Topology::chain(2));
  TemporalSpec temporal;
  temporal.duration = sim::SimDuration::from_seconds(2);
  Result<FaultHandle> fault = fx.injector.node_crash(0, temporal);
  ASSERT_TRUE(fault.ok());
  // rate 1.0 -> the active block covers the whole window, starting at 0.
  fx.scheduler.run_until(fx.scheduler.now() +
                         sim::SimDuration::from_seconds(1));
  EXPECT_FALSE(fx.network.interface_up(0, net::Direction::kTransmit));
  EXPECT_FALSE(fx.network.interface_up(0, net::Direction::kReceive));
  fx.scheduler.run();
  EXPECT_TRUE(fx.network.interface_up(0, net::Direction::kTransmit));
  EXPECT_TRUE(fx.network.interface_up(0, net::Direction::kReceive));
  EXPECT_FALSE(fault.value()->active());
}

TEST(ScheduleEngine, NodeChurnAlternatesAndEmitsEvents) {
  Fixture fx(net::Topology::chain(2));
  std::vector<std::string> events;
  fx.injector.set_event_sink([&](const std::string& node,
                                 const std::string& event, const Value&) {
    events.push_back(node + ":" + event);
  });
  ChurnSpec spec;
  spec.mean_uptime = sim::SimDuration::from_seconds(1);
  spec.mean_downtime = sim::SimDuration::from_seconds(1);
  spec.exponential = false;
  TemporalSpec temporal;
  temporal.duration = sim::SimDuration::from_seconds(10);
  temporal.randomseed = 9;
  Result<FaultHandle> fault = fx.injector.node_churn(0, spec, temporal);
  ASSERT_TRUE(fault.ok());
  fx.scheduler.run();
  // Fixed 1 s holding times in a 10 s window: several full cycles.
  auto count = [&](const std::string& needle) {
    return std::count(events.begin(), events.end(), needle);
  };
  EXPECT_GE(count("n0:fault_node_down"), 3);
  EXPECT_EQ(count("n0:fault_node_down"), count("n0:fault_node_up"));
  EXPECT_EQ(count("n0:fault_node_churn_start"), 1);
  EXPECT_EQ(count("n0:fault_node_churn_stop"), 1);
  // The stop handler restored the node.
  EXPECT_TRUE(fx.network.interface_up(0, net::Direction::kTransmit));
}

TEST(ScheduleEngine, ChurnScheduleIsDeterministicInSeed) {
  auto trace = [](std::uint64_t seed) {
    Fixture fx(net::Topology::chain(2));
      std::vector<std::string> events;
    fx.injector.set_event_sink([&](const std::string&,
                                   const std::string& event, const Value&) {
      events.push_back(event + "@" +
                       std::to_string(fx.scheduler.now().nanos()));
    });
    ChurnSpec spec;
    spec.mean_uptime = sim::SimDuration::from_seconds(2);
    spec.mean_downtime = sim::SimDuration::from_millis(500);
    TemporalSpec temporal;
    temporal.duration = sim::SimDuration::from_seconds(20);
    temporal.randomseed = seed;
    EXPECT_TRUE(fx.injector.node_churn(0, spec, temporal).ok());
    fx.scheduler.run();
    return events;
  };
  EXPECT_EQ(trace(5), trace(5));
  EXPECT_NE(trace(5), trace(6));
}

TEST(ScheduleEngine, LifecycleHooksPreferredOverInterfaceToggles) {
  Fixture fx(net::Topology::chain(2));
  std::vector<std::string> calls;
  fx.injector.set_lifecycle_hooks(
      [&](const std::string& node) { calls.push_back("crash:" + node); },
      [&](const std::string& node) { calls.push_back("restore:" + node); });
  TemporalSpec temporal;
  temporal.duration = sim::SimDuration::from_seconds(1);
  ASSERT_TRUE(fx.injector.node_crash(0, temporal).ok());
  fx.scheduler.run();
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], "crash:n0");
  EXPECT_EQ(calls[1], "restore:n0");
  // Hooks replace the default interface toggling entirely.
  EXPECT_TRUE(fx.network.interface_up(0, net::Direction::kTransmit));
}

TEST(ScheduleEngine, LinkFlapRequiresAdjacency) {
  Fixture fx(net::Topology::chain(3));
  ChurnSpec spec;
  spec.mean_uptime = sim::SimDuration::from_seconds(1);
  spec.mean_downtime = sim::SimDuration::from_seconds(1);
  EXPECT_FALSE(fx.injector.link_flap(0, 2, spec, {}).ok());  // not adjacent
  EXPECT_TRUE(fx.injector.link_flap(0, 1, spec, {}).ok());
}

TEST(ScheduleEngine, LinkFlapTogglesLinkAndHealsOnStop) {
  Fixture fx(net::Topology::chain(2));
  ChurnSpec spec;
  spec.mean_uptime = sim::SimDuration::from_seconds(1);
  spec.mean_downtime = sim::SimDuration::from_seconds(1);
  spec.exponential = false;
  TemporalSpec temporal;
  temporal.duration = sim::SimDuration::from_seconds(5);
  Result<FaultHandle> fault = fx.injector.link_flap(0, 1, spec, temporal);
  ASSERT_TRUE(fault.ok());
  fx.scheduler.run_until(fx.scheduler.now() +
                         sim::SimDuration::from_millis(1500));
  EXPECT_FALSE(fx.network.link_up(0, 1));  // first down phase at t=1s
  fx.scheduler.run();
  EXPECT_TRUE(fx.network.link_up(0, 1));  // healed by the stop handler
}

TEST(ScheduleEngine, PartitionCutsCrossingLinksAndHeals) {
  Fixture fx(net::Topology::full_mesh(4));
  fx.bind_counter(3);
  Result<FaultHandle> fault = fx.injector.partition({0, 1});
  ASSERT_TRUE(fault.ok());
  EXPECT_FALSE(fx.network.link_up(0, 2));
  EXPECT_FALSE(fx.network.link_up(0, 3));
  EXPECT_FALSE(fx.network.link_up(1, 2));
  EXPECT_FALSE(fx.network.link_up(1, 3));
  EXPECT_TRUE(fx.network.link_up(0, 1));  // intra-side links stay up
  EXPECT_TRUE(fx.network.link_up(2, 3));
  fx.send_sd(0, 3);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 0);

  fault.value()->stop();
  fx.send_sd(0, 3);
  fx.scheduler.run();
  EXPECT_EQ(fx.received, 1);
}

TEST(ScheduleEngine, InjectorResetStopsEngineFaults) {
  Fixture fx(net::Topology::full_mesh(3));
  ASSERT_TRUE(fx.injector.partition({0}).ok());
  EXPECT_EQ(fx.network.disabled_link_count(), 2u);
  fx.injector.reset();
  EXPECT_EQ(fx.network.disabled_link_count(), 0u);
  EXPECT_EQ(fx.injector.active_count(), 0u);
}

TEST(FaultKindStats, CountersTrackPerKind) {
  Fixture fx(net::Topology::chain(2));
  fx.bind_counter(1);
  Result<FaultHandle> loss =
      fx.injector.message_loss(0, 1.0, FaultDirection::kTransmit);
  ASSERT_TRUE(loss.ok());
  for (int i = 0; i < 5; ++i) fx.send_sd(0, 1);
  fx.scheduler.run();
  loss.value()->stop();

  Result<FaultHandle> dup = fx.injector.message_duplicate(
      0, 1.0, 2, sim::SimDuration::from_millis(1));
  ASSERT_TRUE(dup.ok());
  fx.send_sd(0, 1);
  fx.scheduler.run();
  dup.value()->stop();

  const auto& stats = fx.injector.kind_stats();
  auto it = stats.find("message_loss");
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.activations, 1u);
  EXPECT_EQ(it->second.deactivations, 1u);
  EXPECT_EQ(it->second.packets_dropped, 5u);
  auto dup_it = stats.find("message_duplicate");
  ASSERT_NE(dup_it, stats.end());
  EXPECT_EQ(dup_it->second.packets_duplicated, 2u);

  // reset() is the attempt boundary: the counters restart, the entries
  // (which installed filters reference) stay.
  fx.injector.reset();
  EXPECT_EQ(stats.size(), 2u);
  EXPECT_EQ(it->second.activations, 0u);
  EXPECT_EQ(it->second.packets_dropped, 0u);
  EXPECT_EQ(dup_it->second.packets_duplicated, 0u);
}

// ---- every-kind pin ------------------------------------------------------------

/// SHA-256 over everything a seeded 3x3 grid world observes while every
/// fault entry point is armed in a temporal window: each delivery (time,
/// node, port, payload tag), each fault event in sink order, the final
/// per-kind counters and the network's drop and duplicate counts.
/// `with_hooks` routes node_crash and node_churn through lifecycle hooks
/// (which take only the receive side down) instead of the interface
/// toggles.
std::string every_kind_digest(bool with_hooks) {
  Fixture fx(net::Topology::grid(3, 3));
  Sha256 digest;
  auto note = [&](const std::string& line) { digest.update_sized(line); };
  auto now = [&] { return std::to_string(fx.scheduler.now().nanos()); };

  for (net::NodeId n = 0; n < fx.network.node_count(); ++n) {
    fx.network.join_group(n, net::Address::sd_multicast());
    for (net::Port port : {kPort, net::Port{7777}}) {
      fx.network.bind(n, port, [&, n, port](net::NodeId, const net::Packet& p) {
        note("rx " + now() + " " + std::to_string(n) + " " +
             std::to_string(port) + " " +
             std::to_string(p.payload[0] | (p.payload[1] << 8)));
      });
    }
  }
  fx.injector.set_event_sink([&](const std::string& node,
                                 const std::string& event, const Value&) {
    note("ev " + now() + " " + node + " " + event);
  });
  if (with_hooks) {
    auto toggle = [&](const std::string& node, bool up) {
      note((up ? "restore " : "crash ") + now() + " " + node);
      fx.network.set_interface_up(
          fx.network.topology().find(node).value(), net::Direction::kReceive,
          up);
    };
    fx.injector.set_lifecycle_hooks(
        [toggle](const std::string& node) { toggle(node, false); },
        [toggle](const std::string& node) { toggle(node, true); });
  }

  // Traffic: one send every 20 ms for 10 s, rotating over the senders and
  // over experiment/other unicast and multicast.
  for (int k = 0; k < 500; ++k) {
    fx.scheduler.schedule(sim::SimDuration::from_millis(20 * k), [&fx, k] {
      const auto nodes = static_cast<int>(fx.network.node_count());
      auto from = static_cast<net::NodeId>(k % nodes);
      auto to = static_cast<net::NodeId>((k * 5 + 1) % nodes);
      if (to == from) to = static_cast<net::NodeId>((to + 1) % nodes);
      net::Packet packet;
      packet.dst = k % 2 == 0 ? fx.network.topology().node(to).address
                              : net::Address::sd_multicast();
      packet.src_port = packet.dst_port = (k / 2) % 2 == 0 ? kPort : 7777;
      packet.payload.assign(2, 0);
      packet.payload[0] = static_cast<std::uint8_t>(k & 0xFF);
      packet.payload[1] = static_cast<std::uint8_t>(k >> 8);
      (void)fx.network.send(from, std::move(packet));
    });
  }

  auto window = [](double rate, std::uint64_t seed) {
    TemporalSpec temporal;
    temporal.duration = sim::SimDuration::from_seconds(10);
    temporal.rate = rate;
    temporal.randomseed = seed;
    return temporal;
  };
  GilbertElliott ge;
  ge.p_enter_bad = 0.2;
  ge.p_exit_bad = 0.3;
  ge.loss_good = 0.05;
  ge.loss_bad = 0.8;
  ChurnSpec exponential;
  exponential.mean_uptime = sim::SimDuration::from_seconds(1);
  exponential.mean_downtime = sim::SimDuration::from_millis(300);
  ChurnSpec fixed = exponential;
  fixed.mean_uptime = sim::SimDuration::from_millis(800);
  fixed.mean_downtime = sim::SimDuration::from_millis(400);
  fixed.exponential = false;

  auto ms = [](int n) { return sim::SimDuration::from_millis(n); };
  std::vector<Result<FaultHandle>> armed;
  armed.push_back(
      fx.injector.interface_fault(1, FaultDirection::kRandom, window(0.2, 3)));
  armed.push_back(fx.injector.message_loss(2, 0.3, FaultDirection::kReceive,
                                           window(0.5, 4)));
  armed.push_back(fx.injector.message_loss(3, 0.3, FaultDirection::kTransmit,
                                           window(0.5, 5)));
  armed.push_back(fx.injector.message_delay(4, ms(20), window(0.4, 6)));
  armed.push_back(fx.injector.path_loss(5, 4, 0.5, window(0.6, 7)));
  armed.push_back(fx.injector.path_delay(6, 3, ms(15), window(0.6, 8)));
  armed.push_back(
      fx.injector.ge_loss(7, ge, FaultDirection::kBoth, window(0.7, 9)));
  armed.push_back(fx.injector.ge_path_loss(8, 5, ge, window(0.7, 10)));
  armed.push_back(fx.injector.message_duplicate(0, 0.3, 2, ms(1),
                                                window(0.5, 11)));
  armed.push_back(fx.injector.message_reorder(1, 0.4, ms(30), window(0.8, 12)));
  armed.push_back(fx.injector.drop_all_packets(window(0.05, 13)));
  armed.push_back(fx.injector.node_crash(2, window(0.15, 14)));
  armed.push_back(fx.injector.node_churn(3, exponential, window(0.6, 15)));
  armed.push_back(fx.injector.node_churn(5, fixed, window(0.6, 16)));
  armed.push_back(fx.injector.link_flap(0, 1, exponential, window(0.5, 17)));
  armed.push_back(fx.injector.partition({6, 7}, window(0.2, 18)));
  for (const Result<FaultHandle>& fault : armed) {
    EXPECT_TRUE(fault.ok());
    if (!fault.ok()) return {};
  }
  // One fault stopped before its window closes.
  FaultHandle reorder = armed[9].value();
  fx.scheduler.schedule(sim::SimDuration::from_seconds(6),
                        [reorder] { reorder->stop(); });
  fx.scheduler.run();

  for (const auto& [kind, s] : fx.injector.kind_stats()) {
    note("kind " + kind + " " + std::to_string(s.activations) + " " +
         std::to_string(s.deactivations) + " " +
         std::to_string(s.packets_dropped) + " " +
         std::to_string(s.packets_delayed) + " " +
         std::to_string(s.packets_duplicated) + " " +
         std::to_string(s.packets_reordered));
  }
  const net::NetworkStats& net = fx.network.stats();
  note("net " + std::to_string(net.sent) + " " + std::to_string(net.delivered) +
       " " + std::to_string(net.dropped_interface) + " " +
       std::to_string(net.dropped_filter) + " " +
       std::to_string(net.dropped_link_down) + " " +
       std::to_string(net.duplicated));
  return digest.finish_hex();
}

TEST(FaultInjection, EveryKindPinned) {
  EXPECT_EQ(every_kind_digest(false),
            "df584cea4b59fe62fdbda0aff62d1fc5275c9d9d08fb3511d1a7b7de97a276fb");
  EXPECT_EQ(every_kind_digest(true),
            "54706396076ee54a0abe1994ee6bad4b310503bc3a22383998525b7ae2990613");
}

// ---- traffic generation (§IV-D2) ----------------------------------------------------------

TEST(TrafficPairs, SelectionIsDeterministicAndDistinct) {
  std::vector<net::NodeId> candidates{0, 1, 2, 3, 4, 5};
  Result<std::vector<NodePair>> a = select_pairs(candidates, 4, 9);
  Result<std::vector<NodePair>> b = select_pairs(candidates, 4, 9);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  // All pairs distinct.
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_LT(a.value()[i].a, a.value()[i].b);
    for (std::size_t j = i + 1; j < a.value().size(); ++j) {
      EXPECT_FALSE(a.value()[i] == a.value()[j]);
    }
  }
}

TEST(TrafficPairs, OverflowRejected) {
  std::vector<net::NodeId> candidates{0, 1, 2};
  EXPECT_TRUE(select_pairs(candidates, 3, 1).ok());   // C(3,2) = 3
  EXPECT_FALSE(select_pairs(candidates, 4, 1).ok());
  EXPECT_FALSE(select_pairs(candidates, -1, 1).ok());
  EXPECT_TRUE(select_pairs(candidates, 0, 1).value().empty());
}

TEST(TrafficPairs, SwitchingReplacesExactlyRequestedAmount) {
  std::vector<net::NodeId> candidates{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<NodePair> base = select_pairs(candidates, 3, 1).value();
  std::vector<NodePair> switched = switch_pairs(base, candidates, 1, 2, 0);
  int differing = 0;
  for (const NodePair& pair : switched) {
    bool in_base = false;
    for (const NodePair& original : base) {
      if (pair == original) in_base = true;
    }
    if (!in_base) ++differing;
  }
  EXPECT_EQ(differing, 1);
  // Same seeds and run -> same switch.
  EXPECT_EQ(switch_pairs(base, candidates, 1, 2, 0), switched);
  // Different run index -> (almost surely) different selection.
  EXPECT_NE(switch_pairs(base, candidates, 1, 2, 1), switched);
}

TEST(TrafficGenerator, GeneratesBidirectionalLoad) {
  Fixture fx(net::Topology::full_mesh(4));
  TrafficGenerator traffic(fx.network);
  TrafficConfig config;
  config.rate_kbps = 100.0;
  config.pairs = 1;
  config.choice = PairChoice::kAll;
  ASSERT_TRUE(traffic.start(config, {0, 1}, {2, 3}, 0).ok());
  EXPECT_TRUE(traffic.running());
  ASSERT_EQ(traffic.active_pairs().size(), 1u);

  fx.scheduler.run_until(sim::SimTime::from_seconds(2));
  traffic.stop();
  EXPECT_FALSE(traffic.running());
  // 100 kbit/s / (512*8 bit) ~ 24.4 pkt/s per direction, 2 s, 2 directions.
  EXPECT_NEAR(static_cast<double>(traffic.packets_offered()), 97.0, 10.0);
  EXPECT_GT(traffic.packets_delivered(), 0u);
  EXPECT_LE(traffic.packets_delivered(), traffic.packets_offered());

  // After stop, no further packets.
  std::uint64_t offered = traffic.packets_offered();
  fx.scheduler.run_until(sim::SimTime::from_seconds(3));
  EXPECT_EQ(traffic.packets_offered(), offered);
}

TEST(TrafficGenerator, ChoiceSelectsCandidateSet) {
  Fixture fx(net::Topology::full_mesh(6));
  TrafficGenerator traffic(fx.network);
  TrafficConfig config;
  config.pairs = 1;
  config.choice = PairChoice::kNonActing;
  ASSERT_TRUE(traffic.start(config, {0, 1}, {2, 3, 4, 5}, 0).ok());
  for (const NodePair& pair : traffic.active_pairs()) {
    EXPECT_GE(pair.a, 2u);
    EXPECT_GE(pair.b, 2u);
  }
  traffic.stop();
}

TEST(TrafficGenerator, DoubleStartRejected) {
  Fixture fx(net::Topology::full_mesh(4));
  TrafficGenerator traffic(fx.network);
  TrafficConfig config;
  config.pairs = 1;
  config.choice = PairChoice::kAll;
  ASSERT_TRUE(traffic.start(config, {0, 1}, {2, 3}, 0).ok());
  EXPECT_FALSE(traffic.start(config, {0, 1}, {2, 3}, 0).ok());
  traffic.stop();
}

TEST(TrafficGenerator, PairChoiceParsing) {
  EXPECT_EQ(parse_pair_choice("0").value(), PairChoice::kActing);
  EXPECT_EQ(parse_pair_choice("\"1\"").value(), PairChoice::kNonActing);
  EXPECT_EQ(parse_pair_choice("all").value(), PairChoice::kAll);
  EXPECT_FALSE(parse_pair_choice("7").ok());
}

}  // namespace
}  // namespace excovery::faults
