// Unit tests for the shared-medium contention model: per-node transmit
// serialisation and bounded-queue tail drop (what makes background load
// degrade discovery in a mesh, case study [26]).
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/scheduler.hpp"

namespace excovery::net {
namespace {

Packet big_packet(Address dst, std::size_t payload = 1000) {
  Packet packet;
  packet.dst = dst;
  packet.src_port = 5000;
  packet.dst_port = 5000;
  packet.payload.assign(payload, 0x55);
  return packet;
}

LinkModel narrow_link() {
  LinkModel model;
  model.base_delay = sim::SimDuration::from_micros(100);
  model.jitter_frac = 0.0;
  model.bandwidth_bps = 1e6;  // 1 Mbit/s: a 1032-byte packet takes ~8.3 ms
  return model;
}

TEST(Contention, BackToBackSendsSerialise) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2, narrow_link()), 1);
  std::vector<sim::SimTime> arrivals;
  network.bind(1, 5000, [&](NodeId, const Packet&) {
    arrivals.push_back(scheduler.now());
  });
  Address dst = network.topology().node(1).address;
  for (int i = 0; i < 3; ++i) (void)network.send(0, big_packet(dst));
  scheduler.run();

  ASSERT_EQ(arrivals.size(), 3u);
  // Each packet needs ~8.26 ms of airtime; arrivals must be spaced by at
  // least that, because the single radio serialises them.
  double airtime_s = 1032.0 * 8.0 / 1e6;
  EXPECT_GE((arrivals[1] - arrivals[0]).seconds(), airtime_s * 0.99);
  EXPECT_GE((arrivals[2] - arrivals[1]).seconds(), airtime_s * 0.99);
}

TEST(Contention, QueueOverflowDropsAreCounted) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2, narrow_link()), 1);
  network.set_queue_limit(sim::SimDuration::from_millis(20));
  int received = 0;
  network.bind(1, 5000, [&](NodeId, const Packet&) { ++received; });
  Address dst = network.topology().node(1).address;
  // 20 ms of queue at ~8.3 ms/packet holds ~3 packets; flood 20.
  for (int i = 0; i < 20; ++i) (void)network.send(0, big_packet(dst));
  scheduler.run();

  EXPECT_GT(network.stats().dropped_queue, 0u);
  EXPECT_LT(received, 20);
  EXPECT_EQ(static_cast<std::uint64_t>(received) +
                network.stats().dropped_queue,
            20u);
}

TEST(Contention, ZeroLimitDisablesModel) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2, narrow_link()), 1);
  network.set_queue_limit(sim::SimDuration::zero());
  std::vector<sim::SimTime> arrivals;
  network.bind(1, 5000, [&](NodeId, const Packet&) {
    arrivals.push_back(scheduler.now());
  });
  Address dst = network.topology().node(1).address;
  for (int i = 0; i < 5; ++i) (void)network.send(0, big_packet(dst));
  scheduler.run();

  ASSERT_EQ(arrivals.size(), 5u);
  EXPECT_EQ(network.stats().dropped_queue, 0u);
  // Without contention every packet sees the same hop delay: simultaneous
  // sends arrive simultaneously.
  EXPECT_EQ(arrivals.front(), arrivals.back());
}

TEST(Contention, IdleGapsDoNotAccumulateDebt) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2, narrow_link()), 1);
  sim::SimTime arrival;
  network.bind(1, 5000,
               [&](NodeId, const Packet&) { arrival = scheduler.now(); });
  Address dst = network.topology().node(1).address;
  (void)network.send(0, big_packet(dst));
  scheduler.run();

  // A send long after the radio went idle pays no queueing delay.
  scheduler.run_until(scheduler.now() + sim::SimDuration::from_seconds(1));
  sim::SimTime start = scheduler.now();
  (void)network.send(0, big_packet(dst));
  scheduler.run();
  double airtime_s = 1032.0 * 8.0 / 1e6;
  EXPECT_LT((arrival - start).seconds(), airtime_s + 0.001);
}

TEST(Contention, AttemptBoundaryClearsRadioBacklog) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::chain(2, narrow_link()), 1);
  std::vector<sim::SimTime> arrivals;
  network.bind(1, 5000, [&](NodeId, const Packet&) {
    arrivals.push_back(scheduler.now());
  });
  Address dst = network.topology().node(1).address;
  // An attempt queues ~83 ms of airtime and is aborted 1 ms in.
  for (int i = 0; i < 10; ++i) (void)network.send(0, big_packet(dst));
  scheduler.run_until(scheduler.now() + sim::SimDuration::from_millis(1));

  // The run executor's attempt boundary: an empty queue, run-scoped
  // streams, per-run state reset.  The dropped packets' airtime must not
  // delay the retry's first send.
  scheduler.restart_at(scheduler.now());
  network.begin_run(2);
  network.reset_run_state();
  arrivals.clear();
  sim::SimTime start = scheduler.now();
  (void)network.send(0, big_packet(dst));
  scheduler.run();
  ASSERT_EQ(arrivals.size(), 1u);
  double airtime_s = 1032.0 * 8.0 / 1e6;
  EXPECT_LT((arrivals[0] - start).seconds(), airtime_s + 0.001);
}

TEST(Contention, IndependentSendersDoNotBlockEachOther) {
  sim::Scheduler scheduler;
  Network network(scheduler, Topology::full_mesh(3, narrow_link()), 1);
  std::map<std::string, sim::SimTime> arrivals;
  network.bind(2, 5000, [&](NodeId, const Packet& p) {
    arrivals[p.src.to_string()] = scheduler.now();
  });
  Address dst = network.topology().node(2).address;
  // Nodes 0 and 1 each send once at t=0: separate radios, no mutual
  // queueing (the model is per-sender, not a global medium).
  (void)network.send(0, big_packet(dst));
  (void)network.send(1, big_packet(dst));
  scheduler.run();
  ASSERT_EQ(arrivals.size(), 2u);
  double spread = std::abs(
      (arrivals.begin()->second - arrivals.rbegin()->second).seconds());
  EXPECT_LT(spread, 0.001);
}

}  // namespace
}  // namespace excovery::net
