// Tests for the process interpreter's flow-control semantics (§IV-C2):
// wait_for_time, wait_for_event (from/param dependencies, timeout),
// wait_marker and event_flag — exercised through complete mini-experiments
// so the semantics are verified against the conditioned event record.
#include <gtest/gtest.h>

#include "core/master.hpp"
#include "core/scenario.hpp"

namespace excovery::core {
namespace {

ProcessAction make_action(std::string name,
                          std::vector<std::pair<std::string, ParamValue>>
                              params = {}) {
  ProcessAction action;
  action.name = std::move(name);
  action.params = std::move(params);
  return action;
}

ParamValue lit(const std::string& text) {
  return ParamValue::lit(Value{text});
}

/// Description with `node_count` abstract nodes ("N0", "N1", ...), each
/// mapped to an identically named actor ("actorI") running the given
/// process; one replication.
ExperimentDescription harness(
    std::vector<std::vector<ProcessAction>> processes,
    std::vector<EnvProcess> env = {}) {
  ExperimentDescription description;
  description.name = "interpreter-test";
  description.seed = 5;
  description.replications = 1;
  description.replication_factor_id = "rep";
  description.node_factor_id = "fact_nodes";

  Factor nodes;
  nodes.id = "fact_nodes";
  nodes.type = "actor_node_map";
  nodes.usage = FactorUsage::kBlocking;
  ValueMap map;
  for (std::size_t i = 0; i < processes.size(); ++i) {
    std::string node = "N" + std::to_string(i);
    description.abstract_nodes.push_back(node);
    description.platform.actor_nodes.push_back(
        PlatformNode{node, node, ""});
    map.emplace("actor" + std::to_string(i),
                Value{ValueArray{Value{node}}});
    ActorProcess process;
    process.actor_id = "actor" + std::to_string(i);
    process.name = "P" + std::to_string(i);
    process.actions = std::move(processes[i]);
    description.actor_processes.push_back(std::move(process));
  }
  nodes.levels.push_back(Value{std::move(map)});
  description.factors.push_back(std::move(nodes));
  description.env_processes = std::move(env);
  return description;
}

struct Outcome {
  Status status = Status::ok_status();
  std::vector<storage::EventRow> events;

  /// Common time of the first event of a type on a node; -1 if absent.
  double time_of(const std::string& node, const std::string& type) const {
    for (const storage::EventRow& event : events) {
      if (event.node_id == node && event.event_type == type) {
        return event.common_time;
      }
    }
    return -1.0;
  }
  int count_of(const std::string& type) const {
    int n = 0;
    for (const storage::EventRow& event : events) {
      if (event.event_type == type) ++n;
    }
    return n;
  }
};

Outcome run(const ExperimentDescription& description,
            MasterOptions options = {}) {
  Outcome outcome;
  Result<net::Topology> topology =
      scenario::topology_for(description, {});
  if (!topology.ok()) {
    outcome.status = topology.error();
    return outcome;
  }
  SimPlatformConfig config;
  config.topology = std::move(topology).value();
  config.seed = description.seed;
  // Ideal clocks keep the assertions on absolute times exact, and a
  // symmetric control channel makes the offset estimate error-free.
  config.max_clock_offset = sim::SimDuration::zero();
  config.max_drift_ppm = 0.0;
  config.clock_read_jitter = sim::SimDuration::zero();
  config.control_delay_min = sim::SimDuration::from_micros(100);
  config.control_delay_max = sim::SimDuration::from_micros(100);
  Result<std::unique_ptr<SimPlatform>> platform =
      SimPlatform::create(description, std::move(config));
  if (!platform.ok()) {
    outcome.status = platform.error();
    return outcome;
  }
  ExperiMaster master(description, *platform.value(), std::move(options));
  Result<storage::ExperimentPackage> package = master.execute();
  if (!package.ok()) {
    outcome.status = package.error();
    return outcome;
  }
  Result<std::vector<storage::EventRow>> events = package.value().events(1);
  if (events.ok()) outcome.events = std::move(events).value();
  return outcome;
}

// ---- wait_for_time --------------------------------------------------------------

TEST(Interpreter, WaitForTimeDelaysNextAction) {
  Outcome outcome = run(harness({{
      make_action("event_flag", {{"value", lit("begin")}}),
      make_action("wait_for_time", {{"time", lit("2.5")}}),
      make_action("event_flag", {{"value", lit("end")}}),
  }}));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.error().to_string();
  double begin = outcome.time_of("N0", "begin");
  double end = outcome.time_of("N0", "end");
  ASSERT_GE(begin, 0.0);
  ASSERT_GE(end, 0.0);
  EXPECT_NEAR(end - begin, 2.5, 1e-6);
}

TEST(Interpreter, WaitForTimeAcceptsValueAlias) {
  Outcome outcome = run(harness({{
      make_action("wait_for_time", {{"value", lit("0.5")}}),
      make_action("event_flag", {{"value", lit("end")}}),
  }}));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_GE(outcome.time_of("N0", "end"), 0.5);
}

TEST(Interpreter, NegativeWaitRejected) {
  MasterOptions options;
  options.max_attempts_per_run = 1;
  Outcome outcome = run(harness({{
                             make_action("wait_for_time",
                                         {{"time", lit("-1")}}),
                         }}),
                        std::move(options));
  EXPECT_FALSE(outcome.status.ok());
}

// ---- event_flag ------------------------------------------------------------------

TEST(Interpreter, EventFlagCarriesParameter) {
  Outcome outcome = run(harness({{
      make_action("event_flag",
                  {{"value", lit("custom")}, {"parameter", lit("payload")}}),
  }}));
  ASSERT_TRUE(outcome.status.ok());
  for (const storage::EventRow& event : outcome.events) {
    if (event.event_type == "custom") {
      EXPECT_EQ(event.parameter, "payload");
      return;
    }
  }
  FAIL() << "custom event not recorded";
}

TEST(Interpreter, EnvEventFlagRecordsOnEnvironmentNode) {
  EnvProcess env;
  env.actions.push_back(
      make_action("event_flag", {{"value", lit("ready_to_init")}}));
  Outcome outcome = run(harness({{
                                    make_action("wait_for_event",
                                                {{"event_dependency",
                                                  lit("ready_to_init")}}),
                                    make_action("event_flag",
                                                {{"value", lit("done")}}),
                                }},
                                {std::move(env)}));
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.error().to_string();
  EXPECT_GE(outcome.time_of(kEnvironmentNode, "ready_to_init"), 0.0);
  EXPECT_GE(outcome.time_of("N0", "done"), 0.0);
}

// ---- wait_for_event: basic and origin/parameter constraints -----------------------

TEST(Interpreter, WaitForEventReleasesOnMatch) {
  Outcome outcome = run(harness({
      {
          // P0 flags "go" after 1 s.
          make_action("wait_for_time", {{"time", lit("1")}}),
          make_action("event_flag", {{"value", lit("go")}}),
      },
      {
          // P1 waits for it, then flags "done".
          make_action("wait_for_event", {{"event_dependency", lit("go")}}),
          make_action("event_flag", {{"value", lit("done")}}),
      },
  }));
  ASSERT_TRUE(outcome.status.ok());
  double go = outcome.time_of("N0", "go");
  double done = outcome.time_of("N1", "done");
  ASSERT_GE(done, 0.0);
  EXPECT_GE(done, go);
  EXPECT_NEAR(done, go, 1e-3);
}

TEST(Interpreter, FromDependencyAllRequiresEveryNode) {
  // actor0 has two instances; the waiter needs the flag from BOTH.
  ExperimentDescription description;
  description.name = "from-all";
  description.seed = 5;
  description.replications = 1;
  description.replication_factor_id = "rep";
  description.node_factor_id = "fact_nodes";
  description.abstract_nodes = {"N0", "N1", "N2"};
  for (const std::string& node : description.abstract_nodes) {
    description.platform.actor_nodes.push_back(
        PlatformNode{node, node, ""});
  }
  Factor nodes;
  nodes.id = "fact_nodes";
  nodes.type = "actor_node_map";
  nodes.usage = FactorUsage::kBlocking;
  ValueMap map;
  map.emplace("actor0", Value{ValueArray{Value{"N0"}, Value{"N1"}}});
  map.emplace("actor1", Value{ValueArray{Value{"N2"}}});
  nodes.levels.push_back(Value{std::move(map)});
  description.factors.push_back(std::move(nodes));

  ActorProcess flagger;
  flagger.actor_id = "actor0";
  flagger.name = "flagger";
  // Instance-dependent delay is impossible in a shared actor description,
  // so both flag after 1 s; the waiter still needs both events.
  flagger.actions.push_back(
      make_action("wait_for_time", {{"time", lit("1")}}));
  flagger.actions.push_back(
      make_action("event_flag", {{"value", lit("published")}}));
  description.actor_processes.push_back(std::move(flagger));

  ActorProcess waiter;
  waiter.actor_id = "actor1";
  waiter.name = "waiter";
  waiter.actions.push_back(make_action(
      "wait_for_event",
      {{"event_dependency", lit("published")},
       {"from_dependency", ParamValue::nodes(NodeSetRef{"actor0", "all"})}}));
  waiter.actions.push_back(
      make_action("event_flag", {{"value", lit("done")}}));
  description.actor_processes.push_back(std::move(waiter));

  Outcome outcome = run(description);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.error().to_string();
  EXPECT_EQ(outcome.count_of("published"), 2);
  EXPECT_GE(outcome.time_of("N2", "done"), 1.0);
}

TEST(Interpreter, FromDependencyInstanceIndexSelectsOneNode) {
  MasterOptions options;
  options.max_attempts_per_run = 1;
  options.run_watchdog = sim::SimDuration::from_seconds(5);
  // Waiter listens only to instance 1 of actor0 but only instance 0 ever
  // flags: the run must abort on the watchdog (wait can never complete...
  // except via deadlock detection, which fires first).
  ExperimentDescription description = harness({
      {
          make_action("event_flag", {{"value", lit("only_n0")}}),
      },
      {
          make_action("wait_for_event",
                      {{"event_dependency", lit("only_n0")},
                       {"from_dependency",
                        ParamValue::nodes(NodeSetRef{"actor0", "0"})}}),
      },
  });
  // Sanity: instance 0 matches and completes.
  Outcome good = run(description);
  EXPECT_TRUE(good.status.ok());

  // Out-of-range instance errors out.
  ExperimentDescription broken = description;
  broken.actor_processes[1].actions[0] = make_action(
      "wait_for_event",
      {{"event_dependency", lit("only_n0")},
       {"from_dependency", ParamValue::nodes(NodeSetRef{"actor0", "5"})}});
  Outcome bad = run(broken, std::move(options));
  EXPECT_FALSE(bad.status.ok());
}

TEST(Interpreter, ParamDependencyFiltersOnValue) {
  Outcome outcome = run(harness({
      {
          make_action("event_flag",
                      {{"value", lit("tick")}, {"parameter", lit("wrong")}}),
          make_action("wait_for_time", {{"time", lit("1")}}),
          make_action("event_flag",
                      {{"value", lit("tick")}, {"parameter", lit("right")}}),
      },
      {
          make_action("wait_for_event",
                      {{"event_dependency", lit("tick")},
                       {"param_dependency", lit("right")}}),
          make_action("event_flag", {{"value", lit("done")}}),
      },
  }));
  ASSERT_TRUE(outcome.status.ok());
  // Released by the second tick only.
  EXPECT_GE(outcome.time_of("N1", "done"), 1.0);
}

// ---- wait_for_event: marker and timeout ---------------------------------------------

TEST(Interpreter, WithoutMarkerAllRunEventsCount) {
  Outcome outcome = run(harness({
      {
          make_action("event_flag", {{"value", lit("early")}}),
      },
      {
          make_action("wait_for_time", {{"time", lit("1")}}),
          // "early" happened at ~0 s; without a marker, every event
          // registered during the run counts (Fig. 7/10 rely on this), so
          // the wait releases immediately.
          make_action("wait_for_event",
                      {{"event_dependency", lit("early")},
                       {"timeout", lit("2")}}),
          make_action("event_flag", {{"value", lit("done")}}),
      },
  }));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.count_of("wait_timeout"), 0);
  double done = outcome.time_of("N1", "done");
  EXPECT_GE(done, 1.0);
  EXPECT_LT(done, 1.5);
}

TEST(Interpreter, MarkerExcludesEarlierEvents) {
  Outcome outcome = run(harness({
      {
          make_action("wait_for_time", {{"time", lit("0.2")}}),
          make_action("event_flag", {{"value", lit("early")}}),
      },
      {
          make_action("wait_for_time", {{"time", lit("1")}}),
          make_action("wait_marker"),
          // The only "early" fired at 0.2 s, before the 1 s marker: the
          // wait must NOT match it and times out at +2 s.
          make_action("wait_for_event",
                      {{"event_dependency", lit("early")},
                       {"timeout", lit("2")}}),
          make_action("event_flag", {{"value", lit("done")}}),
      },
  }));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.count_of("wait_timeout"), 1);
  EXPECT_GE(outcome.time_of("N1", "done"), 3.0);
}

TEST(Interpreter, MarkerMakesInterveningEventsVisible) {
  Outcome outcome = run(harness({
      {
          make_action("wait_for_time", {{"time", lit("0.5")}}),
          make_action("event_flag", {{"value", lit("early")}}),
      },
      {
          make_action("wait_marker"),
          make_action("wait_for_time", {{"time", lit("1")}}),
          // The event fired at 0.5 s, after the marker (t~0) but before the
          // wait starts (t~1): the marker makes it count (§IV-C2).
          make_action("wait_for_event",
                      {{"event_dependency", lit("early")},
                       {"timeout", lit("5")}}),
          make_action("event_flag", {{"value", lit("done")}}),
      },
  }));
  ASSERT_TRUE(outcome.status.ok());
  EXPECT_EQ(outcome.count_of("wait_timeout"), 0);
  double done = outcome.time_of("N1", "done");
  EXPECT_GE(done, 1.0);
  EXPECT_LT(done, 1.5);  // released immediately at wait start, not at 6 s
}

TEST(Interpreter, TimeoutRecordsEventAndContinues) {
  Outcome outcome = run(harness({{
      make_action("wait_for_event", {{"event_dependency", lit("never")},
                                     {"timeout", lit("1.5")}}),
      make_action("event_flag", {{"value", lit("done")}}),
  }}));
  ASSERT_TRUE(outcome.status.ok());
  ASSERT_EQ(outcome.count_of("wait_timeout"), 1);
  double done = outcome.time_of("N0", "done");
  EXPECT_NEAR(done, 1.5 + outcome.time_of("N0", "run_init") + 0.0, 0.2);
  // The recorded timeout carries the awaited event name.
  for (const storage::EventRow& event : outcome.events) {
    if (event.event_type == "wait_timeout") {
      EXPECT_EQ(event.parameter, "never");
    }
  }
}

TEST(Interpreter, MissingEventDependencyFailsValidation) {
  MasterOptions options;
  options.max_attempts_per_run = 1;
  Outcome outcome = run(harness({{
                             make_action("wait_for_event", {}),
                         }}),
                        std::move(options));
  EXPECT_FALSE(outcome.status.ok());
}

// ---- deadlock & dispatch errors ----------------------------------------------------

TEST(Interpreter, DeadlockedRunAborts) {
  MasterOptions options;
  options.max_attempts_per_run = 2;
  Outcome outcome = run(harness({{
                             make_action("wait_for_event",
                                         {{"event_dependency",
                                           lit("never_happens")}}),
                         }}),
                        std::move(options));
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_EQ(outcome.status.error().code(), ErrorCode::kAborted);
}

TEST(Interpreter, UnknownActionAbortsRun) {
  MasterOptions options;
  options.max_attempts_per_run = 1;
  Outcome outcome = run(harness({{
                             make_action("no_such_action"),
                         }}),
                        std::move(options));
  ASSERT_FALSE(outcome.status.ok());
}

TEST(Interpreter, FactorRefResolvesInActionParams) {
  ExperimentDescription description = harness({{
      make_action("wait_for_time",
                  {{"time", ParamValue::factor("fact_delay")}}),
      make_action("event_flag", {{"value", lit("done")}}),
  }});
  Factor delay;
  delay.id = "fact_delay";
  delay.type = "double";
  delay.usage = FactorUsage::kConstant;
  delay.levels.emplace_back("2");
  description.factors.push_back(std::move(delay));

  Outcome outcome = run(description);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.error().to_string();
  double run_init = outcome.time_of("N0", "run_init");
  EXPECT_GE(outcome.time_of("N0", "done") - run_init, 2.0);
}

// ---- recorder watches ------------------------------------------------------

/// A bare recorder on reference time, as the interpreter's waits see it.
struct WatchRig {
  sim::Scheduler scheduler;
  storage::Level2Store level2;
  EventRecorder recorder{scheduler, level2, nullptr};
};

TEST(RecorderWatch, DeliversToNameWatches) {
  WatchRig rig;
  EventRecorder& recorder = rig.recorder;
  int hits = 0;
  recorder.watch("boom", [&](const RunEvent&) { ++hits; });
  recorder.record("n", "boom");
  recorder.record("n", "other");
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.watch_calls(), 1u);
}

TEST(RecorderWatch, OfferedEventCarriesPayload) {
  WatchRig rig;
  EventRecorder& recorder = rig.recorder;
  recorder.begin_run(1);
  RunEvent seen;
  recorder.watch("sd_service_add", [&](const RunEvent& e) { seen = e; });
  rig.scheduler.run_until(sim::SimTime::from_seconds(1));
  recorder.record("SU0", "sd_service_add", Value{"SM0"});
  EXPECT_EQ(seen.node, "SU0");
  EXPECT_EQ(seen.name, "sd_service_add");
  EXPECT_EQ(seen.parameter.as_string(), "SM0");
  EXPECT_EQ(seen.time, sim::SimTime::from_seconds(1));
  // The offered entry is the history entry; level 2 holds it once too.
  ASSERT_EQ(recorder.history().size(), 1u);
  EXPECT_EQ(recorder.history().back().node, "SU0");
  EXPECT_EQ(rig.level2.node("SU0").events().size(), 1u);
}

TEST(RecorderWatch, OffersExactNameMatchesInRegistrationOrder) {
  WatchRig rig;
  EventRecorder& recorder = rig.recorder;
  std::vector<std::string> order;
  for (int i = 0; i < 50; ++i) {
    recorder.watch("x_" + std::to_string(i),
                   [&](const RunEvent&) { order.push_back("other"); });
  }
  recorder.watch("x", [&](const RunEvent&) { order.push_back("first"); });
  recorder.watch("y", [&](const RunEvent&) { order.push_back("y"); });
  recorder.watch("x", [&](const RunEvent&) { order.push_back("second"); });
  recorder.record("n", "x");
  recorder.record("n", "unwatched");
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.watch_calls(), 2u);
  ASSERT_EQ(recorder.history().size(), 2u);
  EXPECT_EQ(recorder.history().back().name, "unwatched");
}

TEST(RecorderWatch, WatchAddedMidOfferSeesOnlyLaterEvents) {
  WatchRig rig;
  EventRecorder& recorder = rig.recorder;
  int inner_hits = 0;
  bool added = false;
  recorder.watch("x", [&](const RunEvent&) {
    if (added) return;
    added = true;
    recorder.watch("x", [&](const RunEvent&) { ++inner_hits; });
  });
  recorder.record("n", "x");
  EXPECT_EQ(inner_hits, 0);
  recorder.record("n", "x");
  EXPECT_EQ(inner_hits, 1);
}

TEST(RecorderWatch, UnwatchStopsDelivery) {
  WatchRig rig;
  EventRecorder& recorder = rig.recorder;
  int hits = 0;
  const std::uint64_t id =
      recorder.watch("x", [&](const RunEvent&) { ++hits; });
  recorder.record("n", "x");
  recorder.unwatch(id);
  recorder.record("n", "x");
  EXPECT_EQ(hits, 1);
}

TEST(RecorderWatch, UnwatchDuringOfferIsSafe) {
  WatchRig rig;
  EventRecorder& recorder = rig.recorder;
  int hits_a = 0;
  int hits_b = 0;
  std::uint64_t b_id = 0;
  recorder.watch("x", [&](const RunEvent&) {
    ++hits_a;
    recorder.unwatch(b_id);
  });
  b_id = recorder.watch("x", [&](const RunEvent&) { ++hits_b; });
  recorder.record("n", "x");
  recorder.record("n", "x");
  EXPECT_EQ(hits_a, 2);
  EXPECT_EQ(hits_b, 0);  // removed before its first offer
}

TEST(RecorderWatch, RemovalDuringNestedRecordNeverFiresAgain) {
  WatchRig rig;
  EventRecorder& recorder = rig.recorder;
  int victim_hits = 0;
  int outer_rounds = 0;
  std::uint64_t victim = 0;
  // The first "x" watch records a nested "y" on its first round; the "y"
  // watch removes the victim while the outer offer of "x" is mid-way.
  recorder.watch("x", [&](const RunEvent& e) {
    if (++outer_rounds == 1) recorder.record("n", "y");
    EXPECT_EQ(e.name, "x");  // the nested append moved nothing
  });
  recorder.watch("y", [&](const RunEvent&) { recorder.unwatch(victim); });
  victim = recorder.watch("x", [&](const RunEvent&) { ++victim_hits; });
  recorder.record("n", "x");
  EXPECT_EQ(victim_hits, 0);
  recorder.record("n", "x");
  EXPECT_EQ(victim_hits, 0);
  EXPECT_EQ(recorder.history().size(), 3u);
  EXPECT_EQ(recorder.watch_calls(), 3u);

  // The victim was erased when the outermost offer returned, so removing
  // it again is a no-op and the other watches keep their places.
  recorder.unwatch(victim);
  recorder.record("n", "x");
  EXPECT_EQ(outer_rounds, 3);
  EXPECT_EQ(victim_hits, 0);
}

TEST(RecorderWatch, UnwatchOutsideOfferTakesEffectImmediately) {
  WatchRig rig;
  EventRecorder& recorder = rig.recorder;
  int hits = 0;
  const std::uint64_t id =
      recorder.watch("x", [&](const RunEvent&) { ++hits; });
  EXPECT_NE(id, 0u);
  recorder.unwatch(id);
  recorder.unwatch(id);  // repeating it is a no-op
  recorder.unwatch(0);   // so is the never-issued id 0
  recorder.record("n", "x");
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(recorder.watch_calls(), 0u);
  // A later watch still gets its events.
  recorder.watch("x", [&](const RunEvent&) { ++hits; });
  recorder.record("n", "x");
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace excovery::core
