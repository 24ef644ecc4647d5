// Unit tests for descriptive statistics and the SD analysis functions.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "net/packet.hpp"
#include "sd/message.hpp"
#include "stats/analysis.hpp"
#include "stats/metrics.hpp"

namespace excovery::stats {
namespace {

// ---- metrics ---------------------------------------------------------------

TEST(Metrics, MeanStddevMinMax) {
  std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_NEAR(stddev(values), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(min_of(values), 2.0);
  EXPECT_DOUBLE_EQ(max_of(values), 9.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Metrics, Percentiles) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_NEAR(percentile(values, 50), 50.5, 1e-9);
  EXPECT_NEAR(percentile(values, 0), 1.0, 1e-9);
  EXPECT_NEAR(percentile(values, 100), 100.0, 1e-9);
  EXPECT_NEAR(percentile(values, 95), 95.05, 0.01);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Metrics, WilsonInterval) {
  Proportion p = wilson(90, 100);
  EXPECT_DOUBLE_EQ(p.estimate, 0.9);
  EXPECT_LT(p.lower, 0.9);
  EXPECT_GT(p.upper, 0.9);
  EXPECT_NEAR(p.lower, 0.825, 0.01);
  EXPECT_NEAR(p.upper, 0.944, 0.01);

  // Degenerate cases stay within [0, 1].
  Proportion all = wilson(50, 50);
  EXPECT_DOUBLE_EQ(all.estimate, 1.0);
  EXPECT_LE(all.upper, 1.0);
  EXPECT_LT(all.lower, 1.0);  // still uncertain
  Proportion none = wilson(0, 50);
  EXPECT_GE(none.lower, 0.0);
  EXPECT_GT(none.upper, 0.0);
  Proportion empty = wilson(0, 0);
  EXPECT_EQ(empty.trials, 0u);
  EXPECT_DOUBLE_EQ(empty.estimate, 0.0);
}

TEST(Metrics, WilsonNarrowsWithSamples) {
  Proportion small = wilson(9, 10);
  Proportion large = wilson(900, 1000);
  EXPECT_LT(large.upper - large.lower, small.upper - small.lower);
}

TEST(Metrics, HistogramBinning) {
  Histogram histogram(0.0, 10.0, 10);
  for (double v : {0.5, 1.5, 1.6, 9.9, -1.0, 10.0, 25.0}) histogram.add(v);
  EXPECT_EQ(histogram.count(), 7u);
  EXPECT_EQ(histogram.bin_count(0), 1u);
  EXPECT_EQ(histogram.bin_count(1), 2u);
  EXPECT_EQ(histogram.bin_count(9), 1u);
  EXPECT_DOUBLE_EQ(histogram.bin_lower(1), 1.0);
  std::string text = histogram.format();
  EXPECT_NE(text.find("underflow: 1"), std::string::npos);
  EXPECT_NE(text.find("overflow:  2"), std::string::npos);
}

TEST(Metrics, PercentileEdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN samples are dropped before ranking, not sorted somewhere arbitrary.
  EXPECT_DOUBLE_EQ(percentile({nan, 1.0, nan, 3.0}, 50), 2.0);
  // All-NaN behaves like empty input.
  EXPECT_DOUBLE_EQ(percentile({nan, nan}, 50), 0.0);
  // A NaN rank is propagated, not silently clamped into the range.
  EXPECT_TRUE(std::isnan(percentile({1.0, 2.0}, nan)));
  // Out-of-range p clamps to the extremes.
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, -10), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 400), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 100), 3.0);
}

TEST(Metrics, HistogramEdgeCases) {
  // Reversed bounds describe the same range and are normalised.
  Histogram reversed(10.0, 0.0, 10);
  reversed.add(9.5);
  EXPECT_EQ(reversed.bin_count(9), 1u);
  EXPECT_EQ(reversed.underflow(), 0u);
  EXPECT_EQ(reversed.overflow(), 0u);

  // Width-zero range: the single representable value lands in bin 0.
  Histogram degenerate(5.0, 5.0, 4);
  degenerate.add(5.0);
  degenerate.add(6.0);
  degenerate.add(4.0);
  EXPECT_EQ(degenerate.bin_count(0), 1u);
  EXPECT_EQ(degenerate.overflow(), 1u);
  EXPECT_EQ(degenerate.underflow(), 1u);
  EXPECT_EQ(degenerate.count(), 3u);

  // NaN samples go to a dedicated bucket (they belong to no bin) and are
  // reported by format().
  Histogram with_nan(0.0, 1.0, 2);
  with_nan.add(std::numeric_limits<double>::quiet_NaN());
  with_nan.add(0.5);
  EXPECT_EQ(with_nan.count(), 2u);
  EXPECT_EQ(with_nan.nan_count(), 1u);
  EXPECT_EQ(with_nan.bin_count(1), 1u);
  EXPECT_NE(with_nan.format().find("nan:       1"), std::string::npos);

  // Zero requested bins still yields a usable single-bin histogram.
  Histogram zero_bins(0.0, 1.0, 0);
  EXPECT_EQ(zero_bins.bins(), 1u);
  zero_bins.add(0.5);
  EXPECT_EQ(zero_bins.bin_count(0), 1u);
}

// ---- analysis over synthetic packages -------------------------------------------

storage::ExperimentPackage synthetic_package() {
  storage::ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", "synthetic", "");
  // Run 1: SU0 searches at t=1, finds SM0 at 1.4 and SM1 at 3.0.
  (void)package.add_run_info({1, "SU0", 0.0, 0.0});
  (void)package.add_event({1, "SU0", 1.0, "sd_start_search", "_t"});
  (void)package.add_event({1, "SU0", 1.4, "sd_service_add", "SM0"});
  (void)package.add_event({1, "SU0", 3.0, "sd_service_add", "SM1"});
  // Run 2: finds only SM0 at 2.5, then times out.
  (void)package.add_run_info({2, "SU0", 10.0, 0.0});
  (void)package.add_event({2, "SU0", 11.0, "sd_start_search", "_t"});
  (void)package.add_event({2, "SU0", 13.5, "sd_service_add", "SM0"});
  (void)package.add_event({2, "SU0", 41.0, "wait_timeout", "sd_service_add"});
  // Run 3: finds nothing.
  (void)package.add_run_info({3, "SU0", 50.0, 0.0});
  (void)package.add_event({3, "SU0", 51.0, "sd_start_search", "_t"});
  (void)package.add_event({3, "SU0", 81.0, "wait_timeout", "sd_service_add"});
  return package;
}

TEST(Analysis, DiscoveriesExtractLatenciesPerRun) {
  storage::ExperimentPackage package = synthetic_package();
  Result<std::vector<RunDiscovery>> runs = discoveries(package);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs.value().size(), 3u);

  const RunDiscovery& first = runs.value()[0];
  EXPECT_EQ(first.run_id, 1);
  EXPECT_EQ(first.searcher, "SU0");
  ASSERT_EQ(first.latencies.size(), 2u);
  EXPECT_NEAR(first.latencies.at("SM0"), 0.4, 1e-9);
  EXPECT_NEAR(first.latencies.at("SM1"), 2.0, 1e-9);
  EXPECT_FALSE(first.timed_out);

  const RunDiscovery& second = runs.value()[1];
  EXPECT_NEAR(second.latencies.at("SM0"), 2.5, 1e-9);
  EXPECT_TRUE(second.timed_out);

  EXPECT_TRUE(runs.value()[2].latencies.empty());
}

TEST(Analysis, DiscoveriesOrderSearchersByNameWithinRun) {
  storage::ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", "order", "");
  // Run 2 is recorded first; the output still lists run 1 first.
  (void)package.add_run_info({2, "SU0", 10.0, 0.0});
  (void)package.add_event({2, "SU0", 11.0, "sd_start_search", "_t"});
  (void)package.add_event({2, "SU0", 11.2, "sd_service_add", "SM0"});
  (void)package.add_run_info({1, "SU0", 0.0, 0.0});
  // SU1 searches first, but SU0 sorts first by name.
  (void)package.add_event({1, "SU1", 1.0, "sd_start_search", "_t"});
  (void)package.add_event({1, "SU1", 1.3, "sd_service_add", "SM0"});
  (void)package.add_event({1, "SU1", 9.0, "wait_timeout", "sd_service_add"});
  // A CommonTime tie at 2.0: SU0's add was recorded before its search, so
  // in stable time order it precedes the search and is ignored.  The add
  // at 2.5 is SU0's first discovery of SM0; the one at 2.7 comes too late.
  (void)package.add_event({1, "SU0", 2.5, "sd_service_add", "SM0"});
  (void)package.add_event({1, "SU0", 2.0, "sd_service_add", "SM0"});
  (void)package.add_event({1, "SU0", 2.0, "sd_start_search", "_t"});
  (void)package.add_event({1, "SU0", 2.7, "sd_service_add", "SM0"});

  Result<std::vector<RunDiscovery>> runs = discoveries(package);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs.value().size(), 3u);

  const RunDiscovery& su0 = runs.value()[0];
  EXPECT_EQ(su0.run_id, 1);
  EXPECT_EQ(su0.searcher, "SU0");
  EXPECT_DOUBLE_EQ(su0.search_start, 2.0);
  ASSERT_EQ(su0.latencies.size(), 1u);
  EXPECT_DOUBLE_EQ(su0.latencies.at("SM0"), 0.5);
  EXPECT_FALSE(su0.timed_out);

  const RunDiscovery& su1 = runs.value()[1];
  EXPECT_EQ(su1.run_id, 1);
  EXPECT_EQ(su1.searcher, "SU1");
  EXPECT_DOUBLE_EQ(su1.search_start, 1.0);
  ASSERT_EQ(su1.latencies.size(), 1u);
  EXPECT_NEAR(su1.latencies.at("SM0"), 0.3, 1e-9);
  EXPECT_TRUE(su1.timed_out);

  const RunDiscovery& later = runs.value()[2];
  EXPECT_EQ(later.run_id, 2);
  EXPECT_EQ(later.searcher, "SU0");
  EXPECT_NEAR(later.latencies.at("SM0"), 0.2, 1e-9);
}

TEST(Analysis, ResponsivenessCountsDeadlineHits) {
  storage::ExperimentPackage package = synthetic_package();
  // Deadline 3 s, 1 provider required: runs 1 and 2 succeed.
  Result<Proportion> r1 = responsiveness(package, 3.0, 1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().successes, 2u);
  EXPECT_EQ(r1.value().trials, 3u);
  // 2 providers within 3 s: only run 1.
  Result<Proportion> r2 = responsiveness(package, 3.0, 2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().successes, 1u);
  // Tight deadline 0.3 s: nobody (fastest discovery took 0.4 s).
  Result<Proportion> r3 = responsiveness(package, 0.3, 1);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value().successes, 0u);
}

TEST(Analysis, ResponsivenessMonotoneInDeadline) {
  storage::ExperimentPackage package = synthetic_package();
  double previous = 0.0;
  for (double deadline : {0.1, 0.5, 1.0, 2.0, 2.6, 3.0, 10.0}) {
    Result<Proportion> r = responsiveness(package, deadline, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().estimate, previous);
    previous = r.value().estimate;
  }
}

TEST(Analysis, LatencyCollections) {
  storage::ExperimentPackage package = synthetic_package();
  Result<std::vector<double>> all = discovery_latencies(package);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 3u);
  Result<std::vector<double>> first = first_latencies(package);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().size(), 2u);  // runs with at least one discovery
  EXPECT_NEAR(min_of(first.value()), 0.4, 1e-9);
}

TEST(Analysis, ServiceAddBeforeSearchIgnored) {
  storage::ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", "x", "");
  (void)package.add_run_info({1, "SU0", 0.0, 0.0});
  // Add arrives before any search started (cache artifact): no crash, no
  // discovery attributed.
  (void)package.add_event({1, "SU0", 0.5, "sd_service_add", "SM0"});
  (void)package.add_event({1, "SU0", 1.0, "sd_start_search", "_t"});
  Result<std::vector<RunDiscovery>> runs = discoveries(package);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs.value().size(), 1u);
  EXPECT_TRUE(runs.value()[0].latencies.empty());
}

// ---- packet-level analysis ----------------------------------------------------------

storage::PacketRow make_capture(std::int64_t run, const std::string& node,
                                double time, net::Direction direction,
                                const sd::SdMessage& message,
                                const std::string& src_node) {
  net::CapturedPacket captured;
  captured.direction = direction;
  captured.packet.src = net::Address(10, 0, 0, 1);
  captured.packet.dst = net::Address::sd_multicast();
  captured.packet.src_port = net::kSdPort;
  captured.packet.dst_port = net::kSdPort;
  captured.packet.payload = sd::encode(message);
  captured.packet.route = {0};
  storage::PacketRow row;
  row.run_id = run;
  row.node_id = node;
  row.common_time = time;
  row.src_node_id = src_node;
  row.data = net::capture_to_wire(captured);
  return row;
}

TEST(Analysis, PairRequestsMatchesTxnIds) {
  storage::ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", "x", "");
  (void)package.add_run_info({1, "SU0", 0.0, 0.0});

  sd::SdMessage query;
  query.kind = sd::MessageKind::kQuery;
  query.txn_id = 42;
  query.service_type = "_t";
  query.sender_name = "SU0";
  sd::SdMessage response;
  response.kind = sd::MessageKind::kResponse;
  response.txn_id = 42;
  response.service_type = "_t";
  response.sender_name = "SM0";
  sd::SdMessage unsolicited = response;
  unsolicited.txn_id = 999;  // no matching query

  (void)package.add_packet(make_capture(
      1, "SU0", 1.0, net::Direction::kTransmit, query, "SU0"));
  (void)package.add_packet(make_capture(
      1, "SU0", 1.2, net::Direction::kReceive, response, "SM0"));
  (void)package.add_packet(make_capture(
      1, "SU0", 1.3, net::Direction::kReceive, unsolicited, "SM0"));

  Result<std::vector<RequestResponsePair>> pairs = pair_requests(package);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs.value().size(), 1u);
  EXPECT_EQ(pairs.value()[0].txn_id, 42u);
  EXPECT_EQ(pairs.value()[0].requester, "SU0");
  EXPECT_EQ(pairs.value()[0].responder, "SM0");
  EXPECT_NEAR(pairs.value()[0].rtt(), 0.2, 1e-9);
}

TEST(Analysis, FirstResponseWinsForDuplicates) {
  storage::ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", "x", "");
  (void)package.add_run_info({1, "SU0", 0.0, 0.0});
  sd::SdMessage query;
  query.kind = sd::MessageKind::kQuery;
  query.txn_id = 7;
  query.sender_name = "SU0";
  sd::SdMessage response = query;
  response.kind = sd::MessageKind::kResponse;
  response.sender_name = "SM0";
  (void)package.add_packet(make_capture(
      1, "SU0", 1.0, net::Direction::kTransmit, query, "SU0"));
  (void)package.add_packet(make_capture(
      1, "SU0", 1.1, net::Direction::kReceive, response, "SM0"));
  (void)package.add_packet(make_capture(
      1, "SU0", 1.5, net::Direction::kReceive, response, "SM0"));
  Result<std::vector<RequestResponsePair>> pairs = pair_requests(package);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs.value().size(), 1u);
  EXPECT_NEAR(pairs.value()[0].rtt(), 0.1, 1e-9);
}

TEST(Analysis, CausalViolationsDetected) {
  storage::ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", "x", "");
  (void)package.add_run_info({1, "SU0", 0.0, 0.0});
  sd::SdMessage query;
  query.kind = sd::MessageKind::kQuery;
  query.txn_id = 9;
  query.sender_name = "SU0";
  sd::SdMessage response = query;
  response.kind = sd::MessageKind::kResponse;
  response.sender_name = "SM0";
  // Response "arrives" before the request was sent: a conditioning bug or
  // an uncorrected clock offset.
  (void)package.add_packet(make_capture(
      1, "SU0", 2.0, net::Direction::kTransmit, query, "SU0"));
  (void)package.add_packet(make_capture(
      1, "SU0", 1.5, net::Direction::kReceive, response, "SM0"));
  // Pairing is order-independent, so the skew is visible: one pair with a
  // negative RTT, i.e. one causal violation.
  Result<std::vector<RequestResponsePair>> pairs = pair_requests(package);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(pairs.value().size(), 1u);
  EXPECT_LT(pairs.value()[0].rtt(), 0.0);
  Result<std::size_t> violations = causal_violations(package);
  ASSERT_TRUE(violations.ok());
  EXPECT_EQ(violations.value(), 1u);
}

TEST(Analysis, PacketStatsClassifyTraffic) {
  storage::ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", "x", "");
  (void)package.add_run_info({1, "SU0", 0.0, 0.0});
  sd::SdMessage query;
  query.kind = sd::MessageKind::kQuery;
  query.sender_name = "SU0";
  (void)package.add_packet(make_capture(
      1, "SU0", 1.0, net::Direction::kTransmit, query, "SU0"));
  // A non-SD packet.
  net::CapturedPacket raw;
  raw.direction = net::Direction::kReceive;
  raw.packet.payload = {0x01, 0x02};
  storage::PacketRow other;
  other.run_id = 1;
  other.node_id = "SU0";
  other.common_time = 2.0;
  other.src_node_id = "ENV0";
  other.data = net::capture_to_wire(raw);
  (void)package.add_packet(std::move(other));

  Result<std::vector<PacketStats>> stats = packet_stats(package);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 1u);
  EXPECT_EQ(stats.value()[0].captured, 2u);
  EXPECT_EQ(stats.value()[0].transmitted, 1u);
  EXPECT_EQ(stats.value()[0].received, 1u);
  EXPECT_EQ(stats.value()[0].sd_messages, 1u);
  EXPECT_GT(stats.value()[0].bytes, 0.0);
}

}  // namespace
}  // namespace excovery::stats
