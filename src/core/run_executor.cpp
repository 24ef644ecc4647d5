#include "core/run_executor.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/master.hpp"
#include "obs/recorder.hpp"

namespace excovery::core {

RunExecutor::RunExecutor(const ExperimentDescription& description,
                         SimPlatform& platform, const MasterOptions& options)
    : description_(description), platform_(platform), options_(options) {}

sim::SimTime RunExecutor::run_epoch(std::int64_t run_id) const noexcept {
  // Worst case per attempt: the full watchdog plus the settle drain; one
  // extra second absorbs preparation/clean-up time.  Sizing the slot for
  // every allowed attempt keeps a retried run inside its own slot, so the
  // *next* run still starts exactly at its epoch.
  std::int64_t attempt_ns = options_.run_watchdog.nanos() +
                            options_.settle.nanos() +
                            sim::SimDuration::from_seconds(1).nanos();
  std::int64_t stride = attempt_ns * options_.max_attempts_per_run;
  return sim::SimTime((run_id - 1) * stride);
}

Status RunExecutor::execute_run(const RunSpec& run, int attempt) {
  // Start from an empty queue at the run's canonical epoch (a retry keeps
  // its later clock): whatever an earlier run or an aborted attempt left
  // queued is dropped unrun, so nothing of it reaches this attempt.
  platform_.scheduler().restart_at(run_epoch(run.run_id));
  platform_.begin_run(run.run_id, attempt);

  KernelSample before;
  std::int64_t sim_start_ns = 0;
  std::int64_t wall_start_ns = 0;
  obs::WallSpan wall_span;
  obs::SimSpan sim_span;
  if (obs_ != nullptr) {
    before = sample_kernel();
    sim_start_ns = platform_.scheduler().now().nanos();
    wall_start_ns = obs_->trace().wall_now_ns();
    if (obs_->trace().enabled()) {
      // Label construction is gated too: in metrics-only mode the spans are
      // inert and formatting per attempt would be pure overhead.
      std::string label =
          strings::format("run %lld attempt %d",
                          static_cast<long long>(run.run_id), attempt);
      std::string args =
          strings::format("{\"run\":%lld,\"attempt\":%d}",
                          static_cast<long long>(run.run_id), attempt);
      wall_span = obs::WallSpan(&obs_->trace(), label, "run", args);
      sim_span = obs::SimSpan(
          &obs_->trace(), 0, std::move(label), "run",
          [this] { return platform_.scheduler().now().nanos(); },
          std::move(args));
    }
  }

  current_run_ = &run;
  Status status = prepare_run(run);
  if (status.ok()) status = run_processes(run, attempt);
  // Clean-up happens even after a failed execution phase.
  Status cleanup = cleanup_run(run);
  current_run_ = nullptr;

  const Status& outcome = !status.ok() ? status : cleanup;
  if (obs_ != nullptr) {
    record_attempt_obs(run, outcome, before, sim_start_ns, wall_start_ns);
    if (outcome.ok()) {
      // Only the successful attempt contributes critical paths (the same
      // rule as the metrics ledger): an aborted attempt's graph is partial
      // and its rows would duplicate the retry's.
      obs_->provenance().record_run(
          run.run_id, obs::extract_critical_paths(platform_.lineage()));
    }
    // The packet track shows every attempt, aborted ones included.
    if (obs_->config().trace && obs_->config().packet_trace) {
      obs::render_packet_track(platform_.lineage(), obs_->trace());
    }
  }
  if (!outcome.ok()) dump_flight_recorder(outcome);

  if (!status.ok()) return status;
  if (!cleanup.ok()) return cleanup;
  platform_.level2().mark_run_complete(run.run_id);
  return {};
}

void RunExecutor::attach_obs(obs::ObsContext& context,
                             obs::MetricsShard& shard) {
  obs_ = &context;
  obs_shard_ = &shard;
  // The flight-recorder ring is always on; an attached context also keeps
  // the whole graph, which provenance, the packet track and the per-link
  // counts read.  Takes effect at the next begin_run.
  platform_.lineage().set_graph_enabled(true);
}

RunExecutor::KernelSample RunExecutor::sample_kernel() const {
  KernelSample sample;
  sample.executed = platform_.scheduler().executed();
  sample.cancelled = platform_.scheduler().cancelled();
  sample.published = platform_.recorder().recorded();
  sample.dispatched = platform_.recorder().watch_calls();
  return sample;
}

void RunExecutor::record_attempt_obs(const RunSpec& run, const Status& status,
                                     const KernelSample& before,
                                     std::int64_t sim_start_ns,
                                     std::int64_t wall_start_ns) {
  const obs::MetricIds& ids = obs_->ids();
  obs::MetricsShard& shard = *obs_shard_;
  auto add = [&shard](obs::MetricId id, std::uint64_t n) {
    if (n != 0) shard.add(id, n);
  };

  const KernelSample after = sample_kernel();
  // Network stats and fault counters were reset by prepare_run
  // (reset_run_state), so the end-of-attempt values are per-attempt
  // absolutes.
  const net::NetworkStats& net = platform_.network().stats();
  const std::uint64_t net_dropped =
      net.dropped_loss + net.dropped_interface + net.dropped_filter +
      net.dropped_ttl + net.dropped_no_route + net.dropped_no_handler +
      net.dropped_queue + net.dropped_link_down;
  const std::map<std::string, faults::FaultKindStats>& fault_kinds =
      platform_.injector().kind_stats();
  faults::FaultKindStats fault_total;
  for (const auto& [kind, stats] : fault_kinds) {
    fault_total.activations += stats.activations;
    fault_total.deactivations += stats.deactivations;
    fault_total.packets_dropped += stats.packets_dropped;
    fault_total.packets_delayed += stats.packets_delayed;
    fault_total.packets_duplicated += stats.packets_duplicated;
    fault_total.packets_reordered += stats.packets_reordered;
  }
  const double sim_seconds =
      static_cast<double>(platform_.scheduler().now().nanos() - sim_start_ns) /
      1e9;

  // Counters accumulate over every attempt: the attempt sequence of a run
  // is itself deterministic, so these sums are partition-invariant.
  add(ids.runs_attempts, 1);
  if (status.ok()) {
    add(ids.runs_completed, 1);
  } else {
    const std::string& message = status.error().message();
    if (message.find("watchdog") != std::string::npos) {
      add(ids.runs_watchdog_aborts, 1);
    } else if (message.find("deadlock") != std::string::npos) {
      add(ids.runs_deadlock_aborts, 1);
    }
  }
  add(ids.bus_published, after.published - before.published);
  add(ids.bus_dispatched, after.dispatched - before.dispatched);
  add(ids.net_sent, net.sent);
  add(ids.net_delivered, net.delivered);
  add(ids.net_forwarded, net.forwarded);
  add(ids.net_dropped, net_dropped);
  add(ids.net_bytes_sent, net.bytes_sent);
  add(ids.fault_activations, fault_total.activations);
  add(ids.fault_deactivations, fault_total.deactivations);
  add(ids.fault_packets_dropped, fault_total.packets_dropped);
  add(ids.fault_packets_delayed, fault_total.packets_delayed);
  add(ids.fault_packets_duplicated, fault_total.packets_duplicated);
  add(ids.fault_packets_reordered, fault_total.packets_reordered);
  shard.observe(ids.run_sim_seconds, sim_seconds);

  // Best-effort/wall domain: the gauges depend on instance history.  The
  // scheduler counters stay here too: moving them into the deterministic
  // set would change its pinned rendering.
  add(ids.sched_events_executed, after.executed - before.executed);
  add(ids.sched_timers_cancelled, after.cancelled - before.cancelled);
  shard.set_gauge(ids.sched_max_pending,
                  static_cast<std::int64_t>(platform_.scheduler().max_pending()));
  shard.set_gauge(ids.sched_arena_slots,
                  static_cast<std::int64_t>(platform_.scheduler().arena_size()));
  shard.observe(ids.run_wall_ns,
                static_cast<double>(obs_->trace().wall_now_ns() - wall_start_ns));

  // The ledger holds deterministic per-run values, so only the successful
  // attempt contributes: a retried run would otherwise produce duplicate
  // (run, name) keys whose order depends on scheduling.
  if (!status.ok()) return;
  obs::RunMetricsLedger& ledger = obs_->ledger();
  auto led = [&](std::string_view name, double value) {
    ledger.record(run.run_id, name, value);
  };
  led("bus.published", static_cast<double>(after.published - before.published));
  led("bus.dispatched",
      static_cast<double>(after.dispatched - before.dispatched));
  led("net.sent", static_cast<double>(net.sent));
  led("net.delivered", static_cast<double>(net.delivered));
  led("net.forwarded", static_cast<double>(net.forwarded));
  led("net.dropped", static_cast<double>(net_dropped));
  led("net.bytes_sent", static_cast<double>(net.bytes_sent));
  led("faults.activations", static_cast<double>(fault_total.activations));
  // Per-kind breakdown for runs where the kind actually did something, so
  // dynamic-world treatments are analysable from the level-3 Metrics table.
  for (const auto& [kind, d] : fault_kinds) {
    auto led_kind = [&](const char* counter, std::uint64_t value) {
      if (value == 0) return;
      led(strings::format("faults.%s.%s", kind.c_str(), counter),
          static_cast<double>(value));
    };
    led_kind("activations", d.activations);
    led_kind("deactivations", d.deactivations);
    led_kind("packets_dropped", d.packets_dropped);
    led_kind("packets_delayed", d.packets_delayed);
    led_kind("packets_duplicated", d.packets_duplicated);
    led_kind("packets_reordered", d.packets_reordered);
  }
  led("sim.duration_s", sim_seconds);
  const net::Topology& topology = platform_.network().topology();
  for (const net::LinkCount& link : platform_.network().link_counts()) {
    const char* a = topology.node(link.from).name.c_str();
    const char* b = topology.node(link.to).name.c_str();
    if (link.sent != 0) {
      led(strings::format("net.link.%s->%s.sent", a, b),
          static_cast<double>(link.sent));
    }
    if (link.dropped != 0) {
      led(strings::format("net.link.%s->%s.dropped", a, b),
          static_cast<double>(link.dropped));
    }
  }
}

void RunExecutor::dump_flight_recorder(const Status& failure) {
  if (options_.flight_dir.empty()) return;
  Result<std::string> written = obs::write_flight_dump(
      platform_.lineage(), options_.flight_dir,
      failure.ok() ? std::string_view("unknown failure")
                   : std::string_view(failure.error().message()));
  if (written.ok()) {
    EXC_LOG_WARN("core.run", "flight recorder dumped to " << written.value());
  } else {
    EXC_LOG_WARN("core.run", "flight recorder dump failed: "
                                 << written.error().to_string());
  }
}

Status RunExecutor::prepare_run(const RunSpec& run) {
  // "During preparation, the whole environment of the experiment process
  // must be reset to a defined initial working condition ... network
  // packets generated in previous runs must be dropped on all
  // participants."
  platform_.reset_run_state();
  platform_.recorder().begin_run(run.run_id);

  sim::SimTime run_start = platform_.scheduler().now();
  for (const std::string& node : platform_.node_names()) {
    ValueMap args;
    args["run_id"] = Value{run.run_id};
    EXC_TRY(node_action(node, "run_init", args));

    // "Preliminary measurements ... such as clock offsets for all
    // participants" (§IV-C1); stored on the master (§IV-B5).
    storage::SyncMeasurement sync;
    sync.run_id = run.run_id;
    sync.node = node;
    sync.offset_ns = platform_.measure_offset(node);
    sync.run_start_ns = run_start.nanos();
    platform_.level2().add_sync(sync);
  }
  return {};
}

Status RunExecutor::run_processes(const RunSpec& run, int attempt) {
  // Build interpreters: one per (actor process, mapped node), one per
  // manipulation process, one per environment process.
  std::vector<std::unique_ptr<ProcessInterpreter>> interpreters;

  for (const ActorProcess& process : description_.actor_processes) {
    auto it = run.actor_map.find(process.actor_id);
    if (it == run.actor_map.end()) continue;  // actor unmapped in this run
    for (const std::string& abstract : it->second) {
      EXC_ASSIGN_OR_RETURN(std::string concrete,
                           platform_.concrete_name(abstract));
      interpreters.push_back(std::make_unique<ProcessInterpreter>(
          platform_, description_, run, *this, ProcessInterpreter::Kind::kActor,
          concrete, process.actions,
          process.name + "@" + concrete));
    }
  }
  for (const ManipulationProcess& process :
       description_.manipulation_processes) {
    EXC_ASSIGN_OR_RETURN(std::string concrete,
                         platform_.concrete_name(process.node_id));
    interpreters.push_back(std::make_unique<ProcessInterpreter>(
        platform_, description_, run, *this,
        ProcessInterpreter::Kind::kManipulation, concrete, process.actions,
        "manipulation@" + concrete));
  }
  for (const EnvProcess& process : description_.env_processes) {
    interpreters.push_back(std::make_unique<ProcessInterpreter>(
        platform_, description_, run, *this,
        ProcessInterpreter::Kind::kEnvironment, "", process.actions, "env"));
  }

  std::size_t open = interpreters.size();
  std::optional<Error> first_error;
  for (auto& interpreter : interpreters) {
    interpreter->start([&open, &first_error](const ProcessInterpreter& done) {
      --open;
      if (done.state() == ProcessInterpreter::State::kFailed &&
          !first_error) {
        first_error = done.error();
      }
    });
  }

  // Test hook: simulate a mid-run platform failure.
  bool forced_abort = false;
  if (options_.abort_hook && options_.abort_hook(run.run_id, attempt)) {
    platform_.scheduler().schedule(
        sim::SimDuration::from_millis(10),
        [&forced_abort] { forced_abort = true; });
  }

  // Drive the simulation until all processes finish or the watchdog fires.
  sim::SimTime deadline = platform_.scheduler().now() + options_.run_watchdog;
  while (open > 0 && !forced_abort) {
    if (platform_.scheduler().now() >= deadline) break;
    if (platform_.scheduler().idle()) {
      // No pending events but processes still open: a wait with no timeout
      // can never complete.  Abort rather than spin.
      return err_aborted(strings::format(
          "run %lld deadlocked: %zu process(es) waiting with no pending "
          "events",
          static_cast<long long>(run.run_id), open));
    }
    platform_.scheduler().step();
  }
  if (forced_abort) {
    return err_aborted("platform failure injected by abort hook");
  }
  if (open > 0) {
    return err_aborted(strings::format(
        "run %lld hit the %0.1fs watchdog with %zu process(es) unfinished",
        static_cast<long long>(run.run_id), options_.run_watchdog.seconds(),
        open));
  }
  if (first_error) return *first_error;

  // Let in-flight packets drain so captures are complete.
  platform_.scheduler().run_until(platform_.scheduler().now() +
                                  options_.settle);
  return {};
}

Status RunExecutor::cleanup_run(const RunSpec& run) {
  // Environment manipulations end with the run.
  platform_.traffic().stop();
  if (env_drop_all_) {
    env_drop_all_->stop();
    env_drop_all_.reset();
  }
  if (env_partition_) {
    env_partition_->stop();
    env_partition_.reset();
  }
  for (const std::string& node : platform_.node_names()) {
    ValueMap args;
    args["run_id"] = Value{run.run_id};
    EXC_TRY(node_action(node, "run_exit", args));
  }
  return {};
}

Status RunExecutor::node_action(const std::string& concrete_node,
                                const std::string& method, ValueMap params) {
  rpc::RpcClient client = platform_.client(concrete_node);
  Result<Value> outcome =
      client.call(method, ValueArray{Value{std::move(params)}});
  if (!outcome.ok()) return std::move(outcome).error();
  return {};
}

Status RunExecutor::env_action(const std::string& method, ValueMap params) {
  if (!current_run_) return err_state("environment action outside a run");
  const RunSpec& run = *current_run_;

  if (method == "env_traffic_start") {
    faults::TrafficConfig config;
    if (auto it = params.find("bw"); it != params.end()) {
      EXC_ASSIGN_OR_RETURN(config.rate_kbps, it->second.to_double());
    }
    if (auto it = params.find("random_pairs"); it != params.end()) {
      EXC_ASSIGN_OR_RETURN(std::int64_t pairs, it->second.to_int());
      config.pairs = static_cast<int>(pairs);
    }
    if (auto it = params.find("choice"); it != params.end()) {
      EXC_ASSIGN_OR_RETURN(config.choice,
                           faults::parse_pair_choice(it->second.to_text()));
    }
    if (auto it = params.find("random_seed"); it != params.end()) {
      EXC_ASSIGN_OR_RETURN(std::int64_t seed, it->second.to_int());
      config.pair_seed = static_cast<std::uint64_t>(seed);
    }
    if (auto it = params.find("random_switch_amount"); it != params.end()) {
      EXC_ASSIGN_OR_RETURN(std::int64_t amount, it->second.to_int());
      config.switch_amount = static_cast<int>(amount);
    }
    if (auto it = params.find("random_switch_seed"); it != params.end()) {
      EXC_ASSIGN_OR_RETURN(std::int64_t seed, it->second.to_int());
      config.switch_seed = static_cast<std::uint64_t>(seed);
    }

    // Acting nodes of this run (concrete), environment nodes from the
    // platform.
    std::vector<net::NodeId> acting;
    for (const std::string& abstract : run.acting_nodes()) {
      EXC_ASSIGN_OR_RETURN(std::string concrete,
                           platform_.concrete_name(abstract));
      EXC_ASSIGN_OR_RETURN(net::NodeId id, platform_.node_id(concrete));
      acting.push_back(id);
    }
    std::vector<net::NodeId> environment;
    for (const std::string& name : platform_.environment_node_names()) {
      EXC_ASSIGN_OR_RETURN(net::NodeId id, platform_.node_id(name));
      environment.push_back(id);
    }
    EXC_TRY(platform_.traffic().start(
        config, acting, environment,
        static_cast<std::uint64_t>(run.replication)));
    platform_.recorder().record(kEnvironmentNode, "env_traffic_start",
                                Value{static_cast<std::int64_t>(
                                    platform_.traffic().active_pairs().size())});
    return {};
  }
  if (method == "env_traffic_stop") {
    platform_.traffic().stop();
    platform_.recorder().record(kEnvironmentNode, "env_traffic_stop");
    return {};
  }
  if (method == "env_drop_all_start") {
    if (env_drop_all_) return err_state("drop_all already active");
    faults::TemporalSpec temporal;  // until stopped
    EXC_ASSIGN_OR_RETURN(env_drop_all_,
                         platform_.injector().drop_all_packets(temporal));
    return {};
  }
  if (method == "env_drop_all_stop") {
    if (!env_drop_all_) return err_state("drop_all not active");
    env_drop_all_->stop();
    env_drop_all_.reset();
    return {};
  }
  if (method == "env_partition_start") {
    if (env_partition_) return err_state("partition already active");
    // "nodes": comma-separated concrete node names forming one side of the
    // bipartition; every link crossing the cut goes down until _stop.
    std::string side_text;
    if (auto it = params.find("nodes"); it != params.end()) {
      side_text = strings::strip_quotes(it->second.to_text());
    }
    std::vector<net::NodeId> side;
    for (const std::string& name : strings::split(side_text, ',')) {
      std::string trimmed = strings::trim(name);
      if (trimmed.empty()) continue;
      EXC_ASSIGN_OR_RETURN(std::string concrete,
                           platform_.concrete_name(trimmed));
      EXC_ASSIGN_OR_RETURN(net::NodeId id, platform_.node_id(concrete));
      side.push_back(id);
    }
    faults::TemporalSpec temporal;  // until stopped
    EXC_ASSIGN_OR_RETURN(env_partition_,
                         platform_.injector().partition(side, temporal));
    return {};
  }
  if (method == "env_partition_stop") {
    if (!env_partition_) return err_state("partition not active");
    env_partition_->stop();
    env_partition_.reset();
    return {};
  }
  // Node-targeted fault actions prefixed env_ run on every node: not in the
  // default set; extensions land here.
  return err_unsupported("unknown environment action '" + method + "'");
}

}  // namespace excovery::core
