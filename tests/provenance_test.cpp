// Causal provenance tracing (DESIGN.md §16): lineage log retention modes,
// critical-path extraction, flight-recorder dumps, and the end-to-end
// determinism contracts — provenance rows are bit-identical across worker
// counts and forced retries, and the conditioned package never changes.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/value.hpp"
#include "core/master.hpp"
#include "core/scenario.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "obs/recorder.hpp"
#include "sd/mdns.hpp"
#include "sim/lineage.hpp"
#include "storage/package.hpp"

namespace excovery::obs {
namespace {

using core::ExperimentDescription;
using core::MasterOptions;
using core::SimPlatform;
using core::SimPlatformConfig;
using core::scenario::TwoPartyOptions;

// ---- lineage log ------------------------------------------------------------

TEST(LineageLog, RingIsBoundedWhileRecordedKeepsCounting) {
  sim::LineageLog log(4);
  log.set_graph_enabled(true);
  log.begin_run(9, 2);
  EXPECT_EQ(log.run_id(), 9u);
  EXPECT_EQ(log.attempt(), 2u);
  const std::uint16_t node = log.intern("n0");
  for (int i = 0; i < 10; ++i) {
    log.record(sim::LineageKind::kSend, 0, 0,
               sim::SimTime(i * 1000), node, 0, 0);
  }
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.recent_count(), 4u);
  // Ring keeps the most recent events, oldest first.
  std::vector<std::uint64_t> ids;
  log.for_each_recent(
      [&](const sim::LineageEvent& event) { ids.push_back(event.id); });
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{7, 8, 9, 10}));
  // The graph, unlike the ring, retained everything: events()[i].id == i+1.
  ASSERT_EQ(log.events().size(), 10u);
  for (std::size_t i = 0; i < log.events().size(); ++i) {
    EXPECT_EQ(log.events()[i].id, i + 1);
  }
}

TEST(LineageLog, BeginRunResetsIdsRingAndGraph) {
  sim::LineageLog log(8);
  log.set_graph_enabled(true);
  log.begin_run(1, 1);
  log.record(sim::LineageKind::kRoot, 0, 0, sim::SimTime(0), 0, 0, 0);
  log.record(sim::LineageKind::kSend, 1, 0, sim::SimTime(1), 0, 0, 0);
  EXPECT_EQ(log.events().size(), 2u);
  log.begin_run(2, 1);
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.recent_count(), 0u);
  EXPECT_EQ(log.recorded(), 0u);
  // Ids restart at 1 so parent links stay valid indices into the new graph.
  EXPECT_EQ(log.record(sim::LineageKind::kRoot, 0, 0, sim::SimTime(0), 0, 0, 0),
            1u);
}

TEST(LineageLog, InternerIsStableAcrossRuns) {
  sim::LineageLog log(4);
  const std::uint16_t alpha = log.intern("alpha");
  const std::uint16_t beta = log.intern("beta");
  EXPECT_NE(alpha, 0);
  EXPECT_NE(alpha, beta);
  EXPECT_EQ(log.intern("alpha"), alpha);
  EXPECT_EQ(log.name(alpha), "alpha");
  EXPECT_EQ(log.name(0), "");
  EXPECT_EQ(log.intern(""), 0);  // reserved "no label" id
  log.begin_run(5, 1);  // interner survives run resets
  EXPECT_EQ(log.intern("alpha"), alpha);
  EXPECT_EQ(log.name(beta), "beta");
}

TEST(LineageLog, GraphLatchAppliesFromNextBeginRun) {
  sim::LineageLog log(4);
  log.begin_run(1, 1);
  log.set_graph_enabled(true);  // mid-run: must not start retaining
  log.record(sim::LineageKind::kSend, 0, 0, sim::SimTime(0), 0, 0, 0);
  EXPECT_TRUE(log.events().empty());
  log.begin_run(1, 2);
  log.record(sim::LineageKind::kSend, 0, 0, sim::SimTime(0), 0, 0, 0);
  EXPECT_EQ(log.events().size(), 1u);
  log.set_graph_enabled(false);
  log.record(sim::LineageKind::kSend, 0, 0, sim::SimTime(1), 0, 0, 0);
  EXPECT_EQ(log.events().size(), 2u);  // still latched on for this run
  log.begin_run(1, 3);
  log.record(sim::LineageKind::kSend, 0, 0, sim::SimTime(0), 0, 0, 0);
  EXPECT_TRUE(log.events().empty());
}

// ---- critical-path extraction ----------------------------------------------

/// Hand-built graph: root -> query -> send -> deliver -> sd_service_add.
struct HandBuiltLog {
  sim::LineageLog log{64};
  std::uint16_t n0, n1, type, svc, add;

  HandBuiltLog() {
    log.set_graph_enabled(true);
    log.begin_run(1, 1);
    n0 = log.intern("n0");
    n1 = log.intern("n1");
    type = log.intern("_t._udp");
    svc = log.intern("svc");
    add = log.intern("sd_service_add");
  }

  std::uint64_t event(sim::LineageKind kind, std::uint64_t parent,
                      std::uint64_t uid, std::int64_t t_ns, std::uint16_t node,
                      std::uint16_t peer, std::uint16_t label) {
    return log.record(kind, parent, uid, sim::SimTime(t_ns), node, peer, label);
  }
};

TEST(Provenance, ExtractionWalksChainToRootWithPerEdgeLatency) {
  HandBuiltLog h;
  std::uint64_t root =
      h.event(sim::LineageKind::kRoot, 0, 0, 0, h.n1, 0, h.type);
  std::uint64_t query =
      h.event(sim::LineageKind::kQuery, root, 1, 100, h.n1, 0, h.type);
  std::uint64_t send =
      h.event(sim::LineageKind::kSend, query, 7, 150, h.n1, 0, 0);
  std::uint64_t deliver =
      h.event(sim::LineageKind::kDeliver, send, 7, 400, h.n0, 0, 0);
  h.event(sim::LineageKind::kSdEvent, deliver, 0, 1000, h.n1, h.svc, h.add);

  std::vector<CriticalPath> paths = extract_critical_paths(h.log);
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  EXPECT_EQ(path.node, "n1");
  EXPECT_EQ(path.instance, "svc");
  EXPECT_EQ(path.found_ns, 1000);
  EXPECT_EQ(path.total_ns, 1000);
  ASSERT_EQ(path.steps.size(), 5u);
  EXPECT_EQ(path.steps[0].kind, "root");
  EXPECT_EQ(path.steps[1].kind, "query");
  EXPECT_EQ(path.steps[1].detail, "_t._udp round 1");
  EXPECT_EQ(path.steps[2].kind, "send");
  EXPECT_EQ(path.steps[3].kind, "deliver");
  EXPECT_EQ(path.steps[4].kind, "sd_event");
  EXPECT_EQ(path.steps[4].detail, "sd_service_add svc");
  // Per-edge latency: elapsed simulated time since the previous step.
  EXPECT_EQ(path.steps[0].latency_ns, 0);
  EXPECT_EQ(path.steps[1].latency_ns, 100);
  EXPECT_EQ(path.steps[2].latency_ns, 50);
  EXPECT_EQ(path.steps[3].latency_ns, 250);
  EXPECT_EQ(path.steps[4].latency_ns, 600);
}

TEST(Provenance, OnlyFirstDiscoveryPerNodeInstanceIsAttributed) {
  HandBuiltLog h;
  std::uint64_t root =
      h.event(sim::LineageKind::kRoot, 0, 0, 0, h.n1, 0, h.type);
  h.event(sim::LineageKind::kSdEvent, root, 0, 500, h.n1, h.svc, h.add);
  // Re-report of the same (node, instance): not *the* discovery.
  h.event(sim::LineageKind::kSdEvent, root, 0, 900, h.n1, h.svc, h.add);
  // Same instance on another node: its own path.
  h.event(sim::LineageKind::kSdEvent, root, 0, 700, h.n0, h.svc, h.add);
  // A non-discovery sd event is ignored entirely.
  h.event(sim::LineageKind::kSdEvent, root, 0, 800, h.n1, 0,
          h.log.intern("sd_init_done"));

  std::vector<CriticalPath> paths = extract_critical_paths(h.log);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].node, "n1");
  EXPECT_EQ(paths[0].found_ns, 500);
  EXPECT_EQ(paths[1].node, "n0");
}

TEST(Provenance, MalformedParentLinksTerminateTheWalk) {
  HandBuiltLog h;
  // Forward/self parent references must not loop or walk out of bounds.
  h.event(sim::LineageKind::kSdEvent, 99, 0, 100, h.n1, h.svc, h.add);
  std::vector<CriticalPath> paths = extract_critical_paths(h.log);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].steps.size(), 1u);
  EXPECT_EQ(paths[0].steps[0].kind, "sd_event");
}

TEST(Provenance, LedgerSortsRowsByRunPathSeq) {
  ProvenanceLedger ledger;
  CriticalPath path;
  path.node = "n1";
  path.instance = "svc";
  ProvenanceStep step;
  step.kind = "root";
  path.steps.push_back(step);
  step.kind = "sd_event";
  step.latency_ns = 1500000000;
  path.steps.push_back(step);
  ledger.record_run(2, {path});
  ledger.record_run(1, {path, path});
  EXPECT_EQ(ledger.size(), 6u);
  std::vector<storage::ProvenanceRow> rows = ledger.sorted();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ(rows[0].run_id, 1);
  EXPECT_EQ(rows[0].path, 0);
  EXPECT_EQ(rows[0].seq, 0);
  EXPECT_EQ(rows[0].kind, "root");
  EXPECT_EQ(rows[1].seq, 1);
  EXPECT_DOUBLE_EQ(rows[1].latency, 1.5);
  EXPECT_EQ(rows[2].path, 1);
  EXPECT_EQ(rows[4].run_id, 2);
}

// ---- deterministic mDNS critical path --------------------------------------

/// A two-node mDNS rig with lineage retention: n0 publishes (SM), n1
/// searches (SU).  Probing and announcements are disabled so discovery is
/// driven purely by query rounds — the shape the attribution test pins down.
struct MdnsRig {
  sim::Scheduler scheduler;
  net::Network network;
  sim::LineageLog log;
  std::vector<std::pair<std::string, std::string>> events;
  std::vector<std::unique_ptr<sd::MdnsAgent>> agents;

  MdnsRig() : network(scheduler, net::Topology::full_mesh(2), 1) {
    network.set_lineage(&log);
    log.set_graph_enabled(true);
    log.begin_run(1, 1);
    sd::MdnsConfig config;
    config.probe_count = 0;
    config.announce_count = 0;
    for (net::NodeId i = 0; i < 2; ++i) {
      agents.push_back(std::make_unique<sd::MdnsAgent>(network, i, config));
      std::string name = network.topology().node(i).name;
      // Mirror what core::EventRecorder does when wired into a platform:
      // every recorded sd event becomes a lineage node whose parent is the
      // ambient causal context (the packet delivery that raised it).
      agents.back()->set_event_sink(
          [this, name](std::string_view event, const Value& param) {
            events.emplace_back(name,
                                std::string(event) + ":" + param.to_text());
            const std::uint16_t peer =
                param.is_string() ? log.intern(param.as_string()) : 0;
            log.record(sim::LineageKind::kSdEvent, scheduler.current_context(),
                       0, scheduler.now(), log.intern(name), peer,
                       log.intern(event));
          });
    }
  }

  sd::ServiceInstance instance(const std::string& name) {
    sd::ServiceInstance out;
    out.instance_name = name;
    out.type = "_t._udp";
    out.port = 80;
    return out;
  }

  int count_event(const std::string& node, const std::string& tagged) {
    int n = 0;
    for (const auto& [en, ev] : events) {
      if (en == node && ev == tagged) ++n;
    }
    return n;
  }

  void run_for(double seconds) {
    scheduler.run_until(scheduler.now() +
                        sim::SimDuration::from_seconds(seconds));
  }
};

std::vector<const ProvenanceStep*> steps_of_kind(const CriticalPath& path,
                                                 const std::string& kind) {
  std::vector<const ProvenanceStep*> out;
  for (const ProvenanceStep& step : path.steps) {
    if (step.kind == kind) out.push_back(&step);
  }
  return out;
}

TEST(Provenance, UndisturbedDiscoveryIsAttributedToRoundOne) {
  MdnsRig rig;
  ASSERT_TRUE(rig.agents[0]->init(sd::SdRole::kServiceManager, {}).ok());
  ASSERT_TRUE(rig.agents[1]->init(sd::SdRole::kServiceUser, {}).ok());
  rig.run_for(0.2);
  ASSERT_TRUE(rig.agents[0]->start_publish(rig.instance("svc")).ok());
  ASSERT_TRUE(rig.agents[1]->start_search("_t._udp").ok());
  rig.run_for(3.0);
  ASSERT_EQ(rig.count_event("n1", "sd_service_add:svc"), 1);

  std::vector<CriticalPath> paths = extract_critical_paths(rig.log);
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  EXPECT_EQ(path.node, "n1");
  EXPECT_EQ(path.instance, "svc");
  EXPECT_EQ(path.steps.front().kind, "root");
  std::vector<const ProvenanceStep*> queries = steps_of_kind(path, "query");
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_NE(queries[0]->detail.find("round 1"), std::string::npos)
      << queries[0]->detail;
  // First query fires 20-120 ms after start_search; no retransmission.
  EXPECT_LT(path.total_ns, 1000000000LL);
}

// The acceptance scenario: the first mDNS query round is lost, so the
// discovery can only close via the second-round retransmission — and the
// attributed critical path must say exactly that.
TEST(Provenance, LostFirstQueryRoundIsClosedBySecondRoundRetransmission) {
  MdnsRig rig;
  ASSERT_TRUE(rig.agents[0]->init(sd::SdRole::kServiceManager, {}).ok());
  ASSERT_TRUE(rig.agents[1]->init(sd::SdRole::kServiceUser, {}).ok());
  rig.run_for(0.2);
  ASSERT_TRUE(rig.agents[0]->start_publish(rig.instance("svc")).ok());

  // Drop the first packet the searcher transmits: the round-1 query.
  int outbound = 0;
  rig.network.add_filter(
      {net::NodeId(1), net::Direction::kTransmit},
      [&outbound](net::NodeId, net::Direction, net::Packet&) {
        return outbound++ == 0 ? net::FilterVerdict::drop("test:first-query")
                               : net::FilterVerdict::pass();
      });

  ASSERT_TRUE(rig.agents[1]->start_search("_t._udp").ok());
  rig.run_for(4.0);
  ASSERT_EQ(rig.count_event("n1", "sd_service_add:svc"), 1);

  std::vector<CriticalPath> paths = extract_critical_paths(rig.log);
  ASSERT_EQ(paths.size(), 1u);
  const CriticalPath& path = paths[0];
  EXPECT_EQ(path.node, "n1");
  EXPECT_EQ(path.instance, "svc");
  EXPECT_EQ(path.steps.front().kind, "root");
  EXPECT_EQ(path.steps.back().kind, "sd_event");
  EXPECT_EQ(path.steps.back().detail, "sd_service_add svc");

  // Both query rounds are on the path — the retry chains to the lost round
  // — and the closing retransmission is round 2.
  std::vector<const ProvenanceStep*> queries = steps_of_kind(path, "query");
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_NE(queries[0]->detail.find("round 1"), std::string::npos);
  EXPECT_NE(queries[1]->detail.find("round 2"), std::string::npos);
  // Round 2 fires one query_interval (1 s) after round 1.
  EXPECT_GE(queries[1]->latency_ns, 900000000LL);
  // The answer and its delivery sit between the closing query and the
  // discovery event.
  EXPECT_FALSE(steps_of_kind(path, "answer").empty());
  EXPECT_FALSE(steps_of_kind(path, "deliver").empty());
  // Attributed latency covers the lost round's back-off.
  EXPECT_GT(path.total_ns, 1000000000LL);
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RenderShowsRunHeaderAndRecentEvents) {
  HandBuiltLog h;
  std::uint64_t root =
      h.event(sim::LineageKind::kRoot, 0, 0, 0, h.n1, 0, h.type);
  h.event(sim::LineageKind::kQuery, root, 2, 1500000000, h.n1, 0, h.type);
  std::string dump = render_flight_dump(h.log, "watchdog expired");
  EXPECT_NE(dump.find("# ExCovery flight recorder"), std::string::npos);
  EXPECT_NE(dump.find("# run 1 attempt 1: watchdog expired"),
            std::string::npos);
  EXPECT_NE(dump.find("2 retained event(s) of 2 recorded"), std::string::npos);
  EXPECT_NE(dump.find("root"), std::string::npos);
  EXPECT_NE(dump.find("_t._udp round 2"), std::string::npos);
}

TEST(FlightRecorder, WriteDumpCreatesDirectoryAndNamedFile) {
  HandBuiltLog h;
  h.log.begin_run(7, 3);
  h.event(sim::LineageKind::kRoot, 0, 0, 0, h.n1, 0, h.type);
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "excovery-flight-unit")
          .string();
  std::filesystem::remove_all(dir);
  Result<std::string> path = write_flight_dump(h.log, dir, "forced abort");
  ASSERT_TRUE(path.ok()) << path.error().to_string();
  EXPECT_NE(path.value().find("flight-run7-attempt3.txt"), std::string::npos);
  std::ifstream file(path.value());
  ASSERT_TRUE(file.good());
  std::string line;
  std::getline(file, line);
  EXPECT_EQ(line, "# ExCovery flight recorder");
  std::filesystem::remove_all(dir);
}

// ---- end to end -------------------------------------------------------------

struct Rig {
  ExperimentDescription description;
  std::unique_ptr<SimPlatform> platform;
};

Result<Rig> make_rig(int replications) {
  TwoPartyOptions options;
  options.replications = replications;
  options.environment_count = 1;
  EXC_ASSIGN_OR_RETURN(ExperimentDescription description,
                       core::scenario::two_party_sd(options));
  EXC_ASSIGN_OR_RETURN(net::Topology topology,
                       core::scenario::topology_for(description, {}));
  SimPlatformConfig config;
  config.topology = std::move(topology);
  config.seed = 42;
  EXC_ASSIGN_OR_RETURN(std::unique_ptr<SimPlatform> platform,
                       SimPlatform::create(description, std::move(config)));
  return Rig{std::move(description), std::move(platform)};
}

Result<storage::ExperimentPackage> run_experiment(Rig& rig,
                                                  MasterOptions options) {
  core::ExperiMaster master(rig.description, *rig.platform,
                            std::move(options));
  return master.execute();
}

TEST(ProvenanceEndToEnd, RowsIdenticalAcrossWorkerCountsAndRetries) {
  std::vector<std::string> rendered;
  std::vector<Bytes> packages;
  // For a given retry pattern, sequential and sharded execution must
  // attribute the exact same critical paths: extraction is a pure function
  // of each run's deterministic lineage graph, and aborted attempts never
  // record.  (A retry legitimately shifts later absolute sim timestamps —
  // platform time never rewinds — so retry vs no-retry is not compared.)
  auto flaky_hook = [](std::int64_t run_id, int attempt) {
    return run_id == 2 && attempt == 1;  // first attempt of run 2 dies
  };
  struct Variant {
    std::size_t workers;
    bool flaky;
  };
  const Variant variants[] = {{1u, false}, {3u, false}, {1u, true},
                              {3u, true}};
  for (const Variant& variant : variants) {
    Result<Rig> rig = make_rig(3);
    ASSERT_TRUE(rig.ok());
    ObsContext obs;
    MasterOptions options;
    options.obs = &obs;
    options.run_workers = variant.workers;
    if (variant.flaky) options.abort_hook = flaky_hook;
    Result<storage::ExperimentPackage> package =
        run_experiment(rig.value(), std::move(options));
    ASSERT_TRUE(package.ok()) << package.error().to_string();
    packages.push_back(package.value().database().serialize());
    rendered.push_back(obs.provenance_json());
    EXPECT_GT(obs.provenance().size(), 0u);
    // Exactly one path set per run: the retried run did not double-record.
    std::vector<storage::ProvenanceRow> rows = obs.provenance().sorted();
    for (std::size_t i = 1; i < rows.size(); ++i) {
      const storage::ProvenanceRow& a = rows[i - 1];
      const storage::ProvenanceRow& b = rows[i];
      EXPECT_FALSE(a.run_id == b.run_id && a.path == b.path &&
                   a.seq == b.seq);
    }
  }
  EXPECT_EQ(rendered[0], rendered[1]) << rendered[0];
  EXPECT_EQ(packages[0], packages[1]);
  EXPECT_EQ(rendered[2], rendered[3]) << rendered[2];
  EXPECT_EQ(packages[2], packages[3]);
}

TEST(ProvenanceEndToEnd, ExportIsExplicitAndFillsProvenanceTable) {
  Result<Rig> rig = make_rig(3);
  ASSERT_TRUE(rig.ok());
  ObsContext obs;
  MasterOptions options;
  options.obs = &obs;
  Result<storage::ExperimentPackage> package =
      run_experiment(rig.value(), std::move(options));
  ASSERT_TRUE(package.ok()) << package.error().to_string();

  // Attaching obs never writes rows by itself — export is explicit, so the
  // package stays byte-identical whether or not provenance was collected.
  EXPECT_TRUE(package.value().provenance().empty());
  ASSERT_TRUE(obs.export_provenance(package.value()).ok());
  std::vector<storage::ProvenanceRow> rows = package.value().provenance();
  ASSERT_FALSE(rows.empty());
  // Every path starts at its topmost causal ancestor with zero latency; in
  // the two-party scenario the discovery descends from the SM's init event
  // (the announcement chain), so the first step is that ambient sd_event.
  EXPECT_EQ(rows[0].run_id, 1);
  EXPECT_EQ(rows[0].path, 0);
  EXPECT_EQ(rows[0].seq, 0);
  EXPECT_DOUBLE_EQ(rows[0].latency, 0.0);
  bool saw_discovery = false;
  for (const storage::ProvenanceRow& row : rows) {
    if (row.kind == "sd_event" &&
        row.detail.find("sd_service_add") != std::string::npos) {
      saw_discovery = true;
    }
  }
  EXPECT_TRUE(saw_discovery);
  EXPECT_EQ(rows.size(), obs.provenance().size());
}

TEST(ProvenanceEndToEnd, FailedAttemptDumpsFlightRecorder) {
  Result<Rig> rig = make_rig(3);
  ASSERT_TRUE(rig.ok());
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "excovery-flight-e2e")
          .string();
  std::filesystem::remove_all(dir);
  MasterOptions options;
  options.flight_dir = dir;
  options.abort_hook = [](std::int64_t run_id, int attempt) {
    return run_id == 2 && attempt == 1;
  };
  Result<storage::ExperimentPackage> package =
      run_experiment(rig.value(), std::move(options));
  ASSERT_TRUE(package.ok()) << package.error().to_string();

  const std::string dump =
      (std::filesystem::path(dir) / "flight-run2-attempt1.txt").string();
  // Exactly the failed attempt dumped; successful attempts never do.
  ASSERT_TRUE(std::filesystem::exists(dump));
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
  std::ifstream file(dump);
  std::string line;
  std::getline(file, line);
  EXPECT_EQ(line, "# ExCovery flight recorder");
  std::getline(file, line);
  EXPECT_NE(line.find("# run 2 attempt 1"), std::string::npos) << line;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace excovery::obs
