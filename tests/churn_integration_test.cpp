// Dynamic-world integration tests (DESIGN.md §12): crash/restart churn with
// graceful SD degradation, hybrid fallback when the SCM is partitioned away,
// and per-kind fault counters flowing into the level-3 Metrics table.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/master.hpp"
#include "core/scenario.hpp"
#include "faults/injector.hpp"
#include "obs/obs.hpp"
#include "sd/hybrid.hpp"
#include "stats/analysis.hpp"

namespace excovery {
namespace {

Result<storage::ExperimentPackage> execute_options(
    const core::scenario::TwoPartyOptions& options, std::uint64_t seed,
    core::MasterOptions master_options = {}) {
  EXC_ASSIGN_OR_RETURN(core::ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description, {}));
  core::SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = seed;
  EXC_ASSIGN_OR_RETURN(
      std::unique_ptr<core::SimPlatform> platform,
      core::SimPlatform::create(description, std::move(config)));
  core::ExperiMaster master(description, *platform,
                            std::move(master_options));
  return master.execute();
}

// Acceptance: a crash-restarted SM loses its announcements and caches, yet
// re-registers through the normal protocol machinery on restart and is
// re-discovered by an SU that started searching while the SM was down.
TEST(ChurnIntegration, CrashedSmReRegistersAndIsRediscovered) {
  core::scenario::TwoPartyOptions options;
  options.replications = 1;
  options.environment_count = 0;
  options.deadline_s = 12.0;
  // Fixed churn: SM up [0,2), down [2,4), up [4,6), ...  The SU starts its
  // search ~2.5 s after the publish completes, i.e. inside the first down
  // window, so any discovery must come from the restarted SM.
  options.su_start_delay_s = 2.5;
  options.dynamic.sm_churn = true;
  options.dynamic.churn_distribution = "fixed";
  options.dynamic.churn_mean_uptime_s = 2.0;
  options.dynamic.churn_mean_downtime_s = 2.0;

  Result<storage::ExperimentPackage> package = execute_options(options, 5);
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  ASSERT_EQ(package.value().run_ids().size(), 1u);

  Result<std::vector<storage::EventRow>> events = package.value().events(1);
  ASSERT_TRUE(events.ok());
  int downs = 0;
  int ups = 0;
  double first_up = -1.0;
  for (const storage::EventRow& event : events.value()) {
    if (event.node_id != "SM0") continue;
    if (event.event_type == "fault_node_down") ++downs;
    if (event.event_type == "fault_node_up") {
      ++ups;
      if (first_up < 0.0) first_up = event.common_time;
    }
  }
  EXPECT_GE(downs, 1);
  EXPECT_GE(ups, 1);
  ASSERT_GT(first_up, 0.0);

  // The SU discovered the service, and only after the SM came back: the
  // restart replayed sd_init + sd_start_publish, whose announcements reach
  // the already-searching SU.
  bool discovered_after_restart = false;
  for (const storage::EventRow& event : events.value()) {
    if (event.node_id == "SU0" && event.event_type == "sd_service_add") {
      EXPECT_GT(event.common_time, first_up);
      discovered_after_restart = true;
    }
  }
  EXPECT_TRUE(discovered_after_restart);

  Result<std::vector<stats::RunDiscovery>> discoveries =
      stats::discoveries(package.value());
  ASSERT_TRUE(discoveries.ok());
  ASSERT_EQ(discoveries.value().size(), 1u);
  EXPECT_EQ(discoveries.value()[0].latencies.size(), 1u);
}

// Acceptance: the hybrid SDP degrades gracefully when its SCM is cut off by
// an injector-driven partition — the watchdog leaves directed mode and
// discovery proceeds over multicast; healing the partition restores
// directed operation.
TEST(ChurnIntegration, HybridFallsBackWhenScmPartitionedAway) {
  sim::Scheduler scheduler;
  net::Network network(scheduler, net::Topology::full_mesh(3), 1);
  faults::FaultInjector injector(network, 5353);

  std::vector<std::pair<std::string, std::string>> events;
  std::vector<std::unique_ptr<sd::HybridAgent>> agents;
  for (net::NodeId i = 0; i < 3; ++i) {
    agents.push_back(std::make_unique<sd::HybridAgent>(
        network, i, sd::HybridConfig{}));
    std::string name = network.topology().node(i).name;
    agents.back()->set_event_sink(
        [&events, name](std::string_view event, const Value& param) {
          events.emplace_back(name,
                              std::string(event) + ":" + param.to_text());
        });
  }
  auto count_event = [&](const std::string& node, const std::string& tagged) {
    int n = 0;
    for (const auto& [en, ev] : events) {
      if (en == node && ev == tagged) ++n;
    }
    return n;
  };
  auto run_for = [&](double seconds) {
    scheduler.run_until(scheduler.now() +
                        sim::SimDuration::from_seconds(seconds));
  };

  ASSERT_TRUE(agents[0]->init(sd::SdRole::kServiceManager, {}).ok());
  ASSERT_TRUE(agents[1]->init(sd::SdRole::kServiceUser, {}).ok());
  ASSERT_TRUE(agents[2]->init(sd::SdRole::kServiceCacheManager, {}).ok());
  run_for(3.0);
  ASSERT_TRUE(agents[1]->start_search("_t._udp").ok());
  run_for(1.0);
  ASSERT_TRUE(agents[1]->directed_mode());

  // Partition the SCM away.  No adverts get through; after scm_timeout
  // (12 s) + the 2 s watchdog tick the SU must leave directed mode.
  Result<faults::FaultHandle> partition = injector.partition({2});
  ASSERT_TRUE(partition.ok());
  run_for(16.0);
  EXPECT_FALSE(agents[1]->directed_mode());

  // Multicast discovery works while the partition is still up: a service
  // published mid-partition is found via the re-enabled mDNS search.
  sd::ServiceInstance late;
  late.instance_name = "late";
  late.type = "_t._udp";
  late.port = 80;
  ASSERT_TRUE(agents[0]->start_publish(late).ok());
  run_for(5.0);
  EXPECT_EQ(count_event("n1", "sd_service_add:late"), 1);

  // Heal: SCM adverts resume, the SU re-enters directed mode.
  partition.value()->stop();
  run_for(10.0);
  EXPECT_TRUE(agents[1]->directed_mode());
  EXPECT_GE(count_event("n1", "scm_found:n2"), 2);
}

// Satellite: deterministic per-kind fault counters surface as
// `faults.<kind>.<counter>` ledger rows in the level-3 Metrics table.
TEST(ChurnIntegration, FaultCountersReachMetricsTable) {
  core::scenario::TwoPartyOptions options;
  options.replications = 1;
  options.environment_count = 1;
  options.deadline_s = 8.0;
  options.dynamic.sm_churn = true;
  options.dynamic.churn_mean_uptime_s = 2.0;
  options.dynamic.churn_mean_downtime_s = 0.5;
  options.dynamic.ge_loss = true;
  options.dynamic.partition_nodes = {"ENV0"};
  options.dynamic.partition_start_s = 1.0;
  options.dynamic.partition_duration_s = 3.0;

  obs::ObsContext obs;
  core::MasterOptions master_options;
  master_options.obs = &obs;
  Result<storage::ExperimentPackage> package =
      execute_options(options, 13, std::move(master_options));
  ASSERT_TRUE(package.ok()) << package.error().to_string();
  ASSERT_TRUE(obs.export_metrics(package.value()).ok());

  std::vector<storage::MetricRow> rows = package.value().metrics();
  auto has_row = [&](const std::string& name) {
    return std::any_of(rows.begin(), rows.end(),
                       [&](const storage::MetricRow& row) {
                         return row.name == name && row.value >= 1.0;
                       });
  };
  EXPECT_TRUE(has_row("faults.activations"));
  EXPECT_TRUE(has_row("faults.node_churn.activations"));
  EXPECT_TRUE(has_row("faults.ge_loss.activations"));
  EXPECT_TRUE(has_row("faults.partition.activations"));
}

}  // namespace
}  // namespace excovery
