// Tests for the extension features: timeline visualisation, the
// dimensional warehouse (§IV-F future work), packet-route analysis,
// detailed topology recording (§IV-B4 future work), plugin measurements
// (§IV-B), and the NodeManager's RPC surface exercised directly over the
// control channel.
#include <gtest/gtest.h>

#include "core/master.hpp"
#include "core/node_manager.hpp"
#include "core/scenario.hpp"
#include "stats/analysis.hpp"
#include "stats/timeline.hpp"
#include "storage/warehouse.hpp"

namespace excovery {
namespace {

struct Rig {
  core::ExperimentDescription description;
  std::unique_ptr<core::SimPlatform> platform;
};

Result<Rig> make_rig(core::scenario::TwoPartyOptions options,
                     std::uint64_t seed = 42) {
  EXC_ASSIGN_OR_RETURN(core::ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description, {}));
  core::SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = seed;
  EXC_ASSIGN_OR_RETURN(std::unique_ptr<core::SimPlatform> platform,
                       core::SimPlatform::create(description,
                                                 std::move(config)));
  return Rig{std::move(description), std::move(platform)};
}

Result<storage::ExperimentPackage> run_rig(Rig& rig) {
  core::ExperiMaster master(rig.description, *rig.platform);
  return master.execute();
}

// ---- timeline visualisation ---------------------------------------------------

TEST(Timeline, RendersLanesAndLegend) {
  core::scenario::TwoPartyOptions options;
  options.replications = 1;
  Result<Rig> rig = make_rig(options);
  ASSERT_TRUE(rig.ok());
  Result<storage::ExperimentPackage> package = run_rig(rig.value());
  ASSERT_TRUE(package.ok());

  Result<std::string> timeline = stats::render_timeline(package.value(), 1);
  ASSERT_TRUE(timeline.ok()) << timeline.error().to_string();
  const std::string& text = timeline.value();
  // One lane per node that produced events.
  EXPECT_NE(text.find("SM0"), std::string::npos);
  EXPECT_NE(text.find("SU0"), std::string::npos);
  // Phase annotations per Fig. 11.
  EXPECT_NE(text.find("<execute"), std::string::npos);
  EXPECT_NE(text.find("<clean-up"), std::string::npos);
  // Legend lists the discovery event.
  EXPECT_NE(text.find("sd_service_add"), std::string::npos);
  // Lane rows contain markers.
  EXPECT_NE(text.find('*'), std::string::npos);
}

TEST(Timeline, MarkerFilterRestrictsLegend) {
  core::scenario::TwoPartyOptions options;
  options.replications = 1;
  Result<Rig> rig = make_rig(options);
  ASSERT_TRUE(rig.ok());
  Result<storage::ExperimentPackage> package = run_rig(rig.value());
  ASSERT_TRUE(package.ok());

  stats::TimelineOptions timeline_options;
  timeline_options.marker_events = {"sd_service_add"};
  Result<std::string> timeline =
      stats::render_timeline(package.value(), 1, timeline_options);
  ASSERT_TRUE(timeline.ok());
  EXPECT_NE(timeline.value().find("sd_service_add"), std::string::npos);
  EXPECT_EQ(timeline.value().find("run_exit"), std::string::npos);
}

TEST(Timeline, UnknownRunIsError) {
  storage::ExperimentPackage package;
  EXPECT_FALSE(stats::render_timeline(package, 99).ok());
}

// ---- dimensional warehouse -----------------------------------------------------

TEST(Warehouse, StarSchemaFromPackages) {
  core::scenario::TwoPartyOptions options;
  options.replications = 2;
  Result<Rig> rig_a = make_rig(options, 1);
  Result<Rig> rig_b = make_rig(options, 2);
  ASSERT_TRUE(rig_a.ok());
  ASSERT_TRUE(rig_b.ok());
  Result<storage::ExperimentPackage> package_a = run_rig(rig_a.value());
  Result<storage::ExperimentPackage> package_b = run_rig(rig_b.value());
  ASSERT_TRUE(package_a.ok());
  ASSERT_TRUE(package_b.ok());

  storage::Warehouse warehouse;
  ASSERT_TRUE(warehouse.add("exp-a", package_a.value()).ok());
  ASSERT_TRUE(warehouse.add("exp-b", package_b.value()).ok());
  EXPECT_FALSE(warehouse.add("exp-a", package_a.value()).ok());

  EXPECT_EQ(warehouse.experiment_count(), 2u);
  EXPECT_EQ(warehouse.fact_count(), package_a.value().event_count() +
                                        package_b.value().event_count());

  // Star schema tables exist with surrogate keys.
  for (const char* table : {"DimExperiment", "DimRun", "DimNode",
                            "DimEventType", "FactEvent"}) {
    ASSERT_NE(warehouse.database().table(table), nullptr) << table;
  }
  EXPECT_EQ(warehouse.database().table("DimExperiment")->row_count(), 2u);
  // Shared dimensions are reused, not duplicated: node set is identical.
  EXPECT_EQ(warehouse.database().table("DimNode")->row_count(),
            6u);  // SM0, SU0, ENV0..ENV3 — shared across both experiments

  // Roll-up query covers both experiments.
  std::string rollup = warehouse.rollup_by_type();
  EXPECT_NE(rollup.find("exp-a sd_service_add"), std::string::npos);
  EXPECT_NE(rollup.find("exp-b sd_service_add"), std::string::npos);
}

TEST(Warehouse, MeanIntervalComputesTr) {
  core::scenario::TwoPartyOptions options;
  options.replications = 3;
  Result<Rig> rig = make_rig(options);
  ASSERT_TRUE(rig.ok());
  Result<storage::ExperimentPackage> package = run_rig(rig.value());
  ASSERT_TRUE(package.ok());

  storage::Warehouse warehouse;
  ASSERT_TRUE(warehouse.add("exp", package.value()).ok());
  Result<double> t_r =
      warehouse.mean_interval("exp", "sd_start_search", "sd_service_add");
  ASSERT_TRUE(t_r.ok()) << t_r.error().to_string();
  // Cross-check against the operation-level analysis.
  Result<std::vector<double>> latencies =
      stats::first_latencies(package.value());
  ASSERT_TRUE(latencies.ok());
  EXPECT_NEAR(t_r.value(), stats::mean(latencies.value()), 1e-6);

  EXPECT_FALSE(warehouse.mean_interval("nope", "a", "b").ok());
  EXPECT_FALSE(
      warehouse.mean_interval("exp", "sd_start_search", "never_happens").ok());
}

// ---- packet route analysis -------------------------------------------------------

TEST(RouteStats, MultiHopRoutesVisible) {
  core::scenario::TwoPartyOptions options;
  options.replications = 1;
  options.environment_count = 0;
  Result<core::ExperimentDescription> description =
      core::scenario::two_party_sd(options);
  ASSERT_TRUE(description.ok());
  core::scenario::TopologyOptions topology;
  topology.kind = core::scenario::TopologyKind::kChain;
  topology.chain_spacing = 3;  // SM0 and SU0 are 3 hops apart
  Result<net::Topology> topo =
      core::scenario::topology_for(description.value(), topology);
  ASSERT_TRUE(topo.ok());
  core::SimPlatformConfig config;
  config.topology = std::move(topo).value();
  config.seed = 5;
  Result<std::unique_ptr<core::SimPlatform>> platform =
      core::SimPlatform::create(description.value(), std::move(config));
  ASSERT_TRUE(platform.ok());
  core::ExperiMaster master(description.value(), *platform.value());
  Result<storage::ExperimentPackage> package = master.execute();
  ASSERT_TRUE(package.ok());

  Result<stats::RouteStats> routes = stats::route_stats(package.value());
  ASSERT_TRUE(routes.ok());
  EXPECT_GT(routes.value().receptions, 0u);
  EXPECT_GE(routes.value().max_hops, 3);
  EXPECT_GT(routes.value().mean_hops, 0.9);
  // The distribution sums to the reception count.
  std::size_t sum = 0;
  for (const auto& [hops, count] : routes.value().distribution) sum += count;
  EXPECT_EQ(sum, routes.value().receptions);
}

// ---- detailed topology recording -------------------------------------------------------

TEST(DetailedTopology, ListsNodesAndLinkQuality) {
  core::scenario::TwoPartyOptions options;
  options.replications = 1;
  Result<Rig> rig = make_rig(options);
  ASSERT_TRUE(rig.ok());
  std::string detail = rig.value().platform->measure_topology_detailed();
  EXPECT_NE(detail.find("nodes:"), std::string::npos);
  EXPECT_NE(detail.find("links:"), std::string::npos);
  EXPECT_NE(detail.find("SM0"), std::string::npos);
  EXPECT_NE(detail.find("loss="), std::string::npos);
  EXPECT_NE(detail.find("bw="), std::string::npos);
}

// ---- plugin measurements (§IV-B) ----------------------------------------------------------

TEST(Plugins, MeasurementsLandInExtraRunMeasurements) {
  core::scenario::TwoPartyOptions options;
  options.replications = 2;
  Result<Rig> rig = make_rig(options);
  ASSERT_TRUE(rig.ok());
  // Custom measurement: network delivery count at run exit.
  net::Network* network = &rig.value().platform->network();
  rig.value().platform->manager("SU0").register_plugin(
      "netstats", "delivered", [network](std::int64_t) {
        return std::to_string(network->stats().delivered);
      });
  Result<storage::ExperimentPackage> package = run_rig(rig.value());
  ASSERT_TRUE(package.ok());

  const storage::Table* extra =
      package.value().database().table("ExtraRunMeasurements");
  ASSERT_EQ(extra->row_count(), 2u);  // one per run
  for (std::size_t r = 0; r < extra->row_count(); ++r) {
    storage::RowView row = extra->row(r);
    EXPECT_EQ(row.as_string(1), "SU0");
    EXPECT_EQ(row.as_string(2), "netstats/delivered");
    EXPECT_FALSE(row.as_string(3).empty());
  }
}

// ---- NodeManager RPC surface ---------------------------------------------------------------

TEST(NodeManagerRpc, SdActionsOverControlChannel) {
  core::scenario::TwoPartyOptions options;
  options.replications = 1;
  Result<Rig> rig = make_rig(options);
  ASSERT_TRUE(rig.ok());
  core::SimPlatform& platform = *rig.value().platform;
  rpc::RpcClient sm = platform.client("SM0");
  rpc::RpcClient su = platform.client("SU0");

  auto call = [](rpc::RpcClient& client, const std::string& method,
                 ValueMap params) {
    return client.call(method, {Value{std::move(params)}});
  };

  // Lifecycle + discovery over the wire protocol, driving the scheduler
  // manually.
  ASSERT_TRUE(call(sm, "run_init", {{"run_id", Value{1}}}).ok());
  ASSERT_TRUE(call(su, "run_init", {{"run_id", Value{1}}}).ok());
  ASSERT_TRUE(call(sm, "sd_init", {{"role", Value{"SM"}}}).ok());
  ASSERT_TRUE(call(su, "sd_init", {{"role", Value{"SU"}}}).ok());
  platform.scheduler().run_until(platform.scheduler().now() +
                                 sim::SimDuration::from_seconds(1));
  ASSERT_TRUE(call(sm, "sd_start_publish", {{"type", Value{"_x._udp"}}}).ok());
  ASSERT_TRUE(call(su, "sd_start_search", {{"type", Value{"_x._udp"}}}).ok());
  platform.scheduler().run_until(platform.scheduler().now() +
                                 sim::SimDuration::from_seconds(5));

  // clock_read returns the node's local nanoseconds.
  Result<Value> clock = call(su, "clock_read", {});
  ASSERT_TRUE(clock.ok());
  EXPECT_GT(clock.value().as_int(), 0);

  // The SU's agent discovered the instance.
  sd::SdAgent* agent = platform.manager("SU0").agent();
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(agent->discovered("_x._udp").size(), 1u);

  // Unknown method and invalid parameters surface as RPC faults.
  EXPECT_FALSE(call(su, "no_such_method", {}).ok());
  EXPECT_FALSE(
      call(su, "fault_message_loss_start", {{"probability", Value{2.0}}})
          .ok());
  // Double fault start rejected.
  ASSERT_TRUE(call(su, "fault_message_loss_start",
                   {{"probability", Value{0.5}}})
                  .ok());
  EXPECT_FALSE(call(su, "fault_message_loss_start",
                    {{"probability", Value{0.5}}})
                   .ok());
  ASSERT_TRUE(call(su, "fault_message_loss_stop", {}).ok());
  EXPECT_FALSE(call(su, "fault_message_loss_stop", {}).ok());

  // event_flag records through the shared recorder.
  ASSERT_TRUE(
      call(su, "event_flag", {{"value", Value{"custom_marker"}}}).ok());
  bool found = false;
  for (const core::RunEvent& event : platform.recorder().history()) {
    if (event.name == "custom_marker" && event.node == "SU0") found = true;
  }
  EXPECT_TRUE(found);

  ASSERT_TRUE(call(su, "run_exit", {{"run_id", Value{1}}}).ok());
  ASSERT_TRUE(call(sm, "run_exit", {{"run_id", Value{1}}}).ok());
}

// A malformed temporal parameter is an error naming the key, never a
// silently ignored one: `duration="10s"` must not arm an unbounded fault.
TEST(NodeManagerRpc, MalformedTemporalParametersRejected) {
  core::scenario::TwoPartyOptions options;
  options.replications = 1;
  Result<Rig> rig = make_rig(options);
  ASSERT_TRUE(rig.ok());
  core::SimPlatform& platform = *rig.value().platform;
  rpc::RpcClient su = platform.client("SU0");
  auto start_loss = [&su](const std::string& key, const std::string& text) {
    ValueMap params{{"probability", Value{0.5}}, {key, Value{text}}};
    return su.call("fault_message_loss_start", {Value{std::move(params)}});
  };

  for (const std::string key : {"rate", "duration", "randomseed"}) {
    Result<Value> started = start_loss(key, "abc");
    ASSERT_FALSE(started.ok()) << key;
    EXPECT_NE(started.error().message().find(key), std::string::npos)
        << started.error().message();
    EXPECT_EQ(platform.injector().active_count(), 0u) << key;
    EXPECT_FALSE(su.call("fault_message_loss_stop", {}).ok()) << key;
  }

  ASSERT_TRUE(start_loss("rate", "0.5").ok());
  EXPECT_EQ(platform.injector().active_count(), 1u);
  ASSERT_TRUE(su.call("fault_message_loss_stop", {}).ok());
}

}  // namespace
}  // namespace excovery
