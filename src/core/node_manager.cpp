#include "core/node_manager.hpp"

#include "common/strings.hpp"
#include "core/platform.hpp"

namespace excovery::core {

namespace {

/// Parameter helpers over the single-struct RPC calling convention.
std::string param_text(const ValueMap& params, const std::string& key,
                       const std::string& fallback = "") {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  return strings::strip_quotes(it->second.to_text());
}

/// A parse failure names its parameter, so a typo in a description points
/// at its key.
template <typename T>
Result<T> named(const std::string& key, Result<T> parsed) {
  if (parsed.ok()) return parsed;
  return err_invalid("parameter '" + key + "': " + parsed.error().message());
}

Result<double> param_double(const ValueMap& params, const std::string& key,
                            double fallback) {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  return named(key, it->second.to_double());
}

Result<std::int64_t> param_int(const ValueMap& params, const std::string& key,
                               std::int64_t fallback) {
  auto it = params.find(key);
  if (it == params.end()) return fallback;
  return named(key, it->second.to_int());
}

/// The §IV-D temporal parameters of a fault start.  A malformed value is an
/// error: ignoring it would arm the fault with the default instead (a
/// mistyped duration would leave the fault armed until stopped).
Result<faults::TemporalSpec> temporal_from(const ValueMap& params) {
  faults::TemporalSpec spec;
  if (params.count("duration") != 0) {
    EXC_ASSIGN_OR_RETURN(double seconds, param_double(params, "duration", 0.0));
    spec.duration = sim::SimDuration::from_seconds(seconds);
  }
  EXC_ASSIGN_OR_RETURN(spec.rate, param_double(params, "rate", spec.rate));
  EXC_ASSIGN_OR_RETURN(std::int64_t seed, param_int(params, "randomseed", 0));
  spec.randomseed = static_cast<std::uint64_t>(seed);
  return spec;
}

/// The service instance an sd_start_publish / sd_update_publication call
/// describes; the instance name defaults to the node's.
Result<sd::ServiceInstance> instance_from(const ValueMap& params,
                                          const std::string& node) {
  sd::ServiceInstance instance;
  instance.instance_name = param_text(params, "instance", node);
  instance.type = param_text(params, "type", "_expservice._udp");
  EXC_ASSIGN_OR_RETURN(std::int64_t port, param_int(params, "port", 8080));
  instance.port = static_cast<net::Port>(port);
  if (auto it = params.find("attributes");
      it != params.end() && it->second.is_map()) {
    for (const auto& [key, value] : it->second.as_map()) {
      instance.attributes[key] = value.to_text();
    }
  }
  return instance;
}

/// The call's single struct parameter, by reference; an empty struct when
/// the call has no parameters.
Result<const ValueMap*> unwrap(const ValueArray& rpc_params) {
  static const ValueMap kNoParams;
  if (rpc_params.empty()) return &kNoParams;
  if (!rpc_params.front().is_map()) {
    return err_rpc("expected a single struct parameter");
  }
  return &rpc_params.front().as_map();
}

}  // namespace

NodeManager::NodeManager(SimPlatform& platform, std::string name,
                         net::NodeId node_id, AgentFactory agent_factory)
    : platform_(platform),
      name_(std::move(name)),
      node_id_(node_id),
      agent_factory_(std::move(agent_factory)),
      log_("node/" + name_) {
  register_methods();
}

NodeManager::~NodeManager() = default;

void NodeManager::register_methods() {
  auto wrap = [](auto handler) {
    return [handler](const ValueArray& rpc_params) -> Result<Value> {
      EXC_ASSIGN_OR_RETURN(const ValueMap* params, unwrap(rpc_params));
      return handler(*params);
    };
  };

  // ---- management -------------------------------------------------------
  server_.register_method(
      "experiment_init", wrap([this](const ValueMap&) -> Result<Value> {
        EXC_TRY(experiment_init());
        return Value{true};
      }));
  server_.register_method(
      "experiment_exit", wrap([this](const ValueMap&) -> Result<Value> {
        EXC_TRY(experiment_exit());
        return Value{true};
      }));
  server_.register_method(
      "run_init", wrap([this](const ValueMap& params) -> Result<Value> {
        EXC_ASSIGN_OR_RETURN(std::int64_t run, param_int(params, "run_id", 0));
        EXC_TRY(run_init(run));
        return Value{true};
      }));
  server_.register_method(
      "run_exit", wrap([this](const ValueMap& params) -> Result<Value> {
        EXC_ASSIGN_OR_RETURN(std::int64_t run, param_int(params, "run_id", 0));
        EXC_TRY(run_exit(run));
        return Value{true};
      }));
  server_.register_method(
      "clock_read", wrap([this](const ValueMap&) -> Result<Value> {
        return Value{platform_.network()
                         .clock(node_id_)
                         .read(platform_.scheduler().now())
                         .nanos()};
      }));
  server_.register_method(
      "event_flag", wrap([this](const ValueMap& params) -> Result<Value> {
        std::string value = param_text(params, "value");
        if (value.empty()) return err_invalid("event_flag needs a value");
        Value parameter;
        if (auto it = params.find("parameter"); it != params.end()) {
          parameter = it->second;
        }
        platform_.recorder().record(name_, value, parameter);
        return Value{true};
      }));

  // ---- SD process actions -----------------------------------------------
  for (const char* method :
       {"sd_init", "sd_exit", "sd_start_search", "sd_stop_search",
        "sd_start_publish", "sd_stop_publish", "sd_update_publication"}) {
    server_.register_method(
        method, wrap([this, method](const ValueMap& params) -> Result<Value> {
          return dispatch_sd(method, params);
        }));
  }

  // ---- fault injections ---------------------------------------------------
  for (const char* method :
       {"fault_interface_start", "fault_interface_stop",
        "fault_message_loss_start", "fault_message_loss_stop",
        "fault_message_delay_start", "fault_message_delay_stop",
        "fault_path_loss_start", "fault_path_loss_stop",
        "fault_path_delay_start", "fault_path_delay_stop",
        "fault_node_crash_start", "fault_node_crash_stop",
        "fault_node_churn_start", "fault_node_churn_stop",
        "fault_link_flap_start", "fault_link_flap_stop",
        "fault_ge_loss_start", "fault_ge_loss_stop",
        "fault_message_duplicate_start", "fault_message_duplicate_stop",
        "fault_message_reorder_start", "fault_message_reorder_stop"}) {
    server_.register_method(
        method, wrap([this, method](const ValueMap& params) -> Result<Value> {
          return dispatch_fault(method, params);
        }));
  }
}

Status NodeManager::ensure_agent() {
  if (agent_) return {};
  agent_ = agent_factory_();
  if (!agent_) return err_internal("agent factory returned null");
  agent_->set_event_sink(
      [this](std::string_view event, const Value& parameter) {
        platform_.recorder().record(name_, event, parameter);
      });
  return {};
}

Result<Value> NodeManager::dispatch_sd(const std::string& method,
                                       const ValueMap& params) {
  if (crashed_) {
    // The control channel stays reachable while the node's SD stack is down
    // (§IV-A1: management runs out of band), so experiment processes can
    // still issue SD actions against a crashed node.  Teardown degrades
    // gracefully — the crashed role's soft state is already gone — and
    // role-shaping actions are recorded for replay when the node restarts.
    if (method == "sd_exit") {
      sd_state_ = {};
      log_.info("sd_exit (crashed: role already gone)");
      platform_.recorder().record(name_, "sd_exit_done");
      return Value{true};
    }
    if (method == "sd_stop_publish") {
      sd_state_.publishes.erase(param_text(params, "instance", name_));
      return Value{true};
    }
    if (method == "sd_stop_search") {
      sd_state_.searches.erase(param_text(params, "type", "_expservice._udp"));
      return Value{true};
    }
    if (method == "sd_start_publish" || method == "sd_update_publication") {
      if (!sd_state_.initialized) {
        return err_state("sd action '" + method + "' before sd_init");
      }
      sd_state_.publishes[param_text(params, "instance", name_)] = params;
      return Value{true};
    }
    if (method == "sd_start_search") {
      if (!sd_state_.initialized) {
        return err_state("sd action '" + method + "' before sd_init");
      }
      sd_state_.searches[param_text(params, "type", "_expservice._udp")] =
          params;
      return Value{true};
    }
    return err_state("sd action '" + method + "' on crashed node");
  }
  if (method == "sd_init") {
    EXC_TRY(ensure_agent());
    std::string role_text = param_text(params, "role", "SU");
    EXC_ASSIGN_OR_RETURN(sd::SdRole role, sd::parse_role(role_text));
    // Remaining parameters pass through to the SDP implementation.
    ValueMap sdp_params = params;
    sdp_params.erase("role");
    log_.info("sd_init role=" + std::string(sd::to_string(role)));
    EXC_TRY(agent_->init(role, sdp_params));
    sd_state_.initialized = true;
    sd_state_.init_params = params;
    return Value{true};
  }
  if (!agent_) return err_state("sd action '" + method + "' before sd_init");

  if (method == "sd_exit") {
    log_.info("sd_exit");
    EXC_TRY(agent_->exit());
    agent_.reset();
    sd_state_ = {};
    return Value{true};
  }
  if (method == "sd_start_search") {
    std::string type = param_text(params, "type", "_expservice._udp");
    EXC_TRY(agent_->start_search(type));
    sd_state_.searches[type] = params;
    return Value{true};
  }
  if (method == "sd_stop_search") {
    std::string type = param_text(params, "type", "_expservice._udp");
    EXC_TRY(agent_->stop_search(type));
    sd_state_.searches.erase(type);
    return Value{true};
  }
  if (method == "sd_start_publish") {
    EXC_ASSIGN_OR_RETURN(sd::ServiceInstance instance,
                         instance_from(params, name_));
    EXC_TRY(agent_->start_publish(instance));
    sd_state_.publishes[instance.instance_name] = params;
    return Value{true};
  }
  if (method == "sd_stop_publish") {
    std::string instance = param_text(params, "instance", name_);
    EXC_TRY(agent_->stop_publish(instance));
    sd_state_.publishes.erase(instance);
    return Value{true};
  }
  if (method == "sd_update_publication") {
    EXC_ASSIGN_OR_RETURN(sd::ServiceInstance instance,
                         instance_from(params, name_));
    EXC_TRY(agent_->update_publication(instance));
    // Replay memory keeps the latest parameters per instance.
    sd_state_.publishes[instance.instance_name] = params;
    return Value{true};
  }
  return err_rpc("unknown sd method '" + method + "'");
}

Result<Value> NodeManager::dispatch_fault(const std::string& method,
                                          const ValueMap& params) {
  faults::FaultInjector& injector = platform_.injector();

  // Stop methods: tear down the active fault of that kind on this node.
  if (strings::ends_with(method, "_stop")) {
    std::string kind = method.substr(0, method.size() - 5);
    auto it = active_faults_.find(kind);
    if (it == active_faults_.end()) {
      return err_state("no active " + kind + " on node " + name_);
    }
    it->second->stop();
    active_faults_.erase(it);
    return Value{true};
  }

  std::string kind = method.substr(0, method.size() - 6);  // strip "_start"
  if (active_faults_.count(kind) != 0) {
    return err_state(kind + " already active on node " + name_);
  }
  EXC_ASSIGN_OR_RETURN(faults::TemporalSpec temporal, temporal_from(params));

  Result<faults::FaultHandle> handle = [&]() -> Result<faults::FaultHandle> {
    if (kind == "fault_interface") {
      EXC_ASSIGN_OR_RETURN(
          faults::FaultDirection direction,
          faults::parse_fault_direction(param_text(params, "direction",
                                                   "both")));
      return injector.interface_fault(node_id_, direction, temporal);
    }
    if (kind == "fault_message_loss") {
      EXC_ASSIGN_OR_RETURN(double probability,
                           param_double(params, "probability", 0.0));
      EXC_ASSIGN_OR_RETURN(
          faults::FaultDirection direction,
          faults::parse_fault_direction(param_text(params, "direction",
                                                   "both")));
      return injector.message_loss(node_id_, probability, direction, temporal);
    }
    if (kind == "fault_message_delay") {
      EXC_ASSIGN_OR_RETURN(double delay_ms,
                           param_double(params, "delay_ms", 0.0));
      return injector.message_delay(
          node_id_, sim::SimDuration::from_seconds(delay_ms / 1000.0),
          temporal);
    }
    if (kind == "fault_path_loss" || kind == "fault_path_delay") {
      std::string peer_name = param_text(params, "peer");
      if (peer_name.empty()) return err_invalid(kind + " needs a peer");
      EXC_ASSIGN_OR_RETURN(net::NodeId peer, platform_.node_id(peer_name));
      if (kind == "fault_path_loss") {
        EXC_ASSIGN_OR_RETURN(double probability,
                             param_double(params, "probability", 0.0));
        return injector.path_loss(node_id_, peer, probability, temporal);
      }
      EXC_ASSIGN_OR_RETURN(double delay_ms,
                           param_double(params, "delay_ms", 0.0));
      return injector.path_delay(
          node_id_, peer, sim::SimDuration::from_seconds(delay_ms / 1000.0),
          temporal);
    }
    if (kind == "fault_node_crash") {
      return injector.node_crash(node_id_, temporal);
    }
    if (kind == "fault_node_churn" || kind == "fault_link_flap") {
      EXC_ASSIGN_OR_RETURN(double up_s,
                           param_double(params, "mean_uptime_s", 2.0));
      EXC_ASSIGN_OR_RETURN(double down_s,
                           param_double(params, "mean_downtime_s", 1.0));
      faults::ChurnSpec spec;
      spec.mean_uptime = sim::SimDuration::from_seconds(up_s);
      spec.mean_downtime = sim::SimDuration::from_seconds(down_s);
      spec.exponential =
          param_text(params, "distribution", "exponential") != "fixed";
      if (kind == "fault_node_churn") {
        return injector.node_churn(node_id_, spec, temporal);
      }
      std::string peer_name = param_text(params, "peer");
      if (peer_name.empty()) return err_invalid(kind + " needs a peer");
      EXC_ASSIGN_OR_RETURN(net::NodeId peer, platform_.node_id(peer_name));
      return injector.link_flap(node_id_, peer, spec, temporal);
    }
    if (kind == "fault_ge_loss") {
      faults::GilbertElliott model;
      EXC_ASSIGN_OR_RETURN(model.loss_good,
                           param_double(params, "probability_good", 0.0));
      EXC_ASSIGN_OR_RETURN(model.loss_bad,
                           param_double(params, "probability_bad", 1.0));
      EXC_ASSIGN_OR_RETURN(model.p_enter_bad,
                           param_double(params, "p_enter_bad", 0.0));
      EXC_ASSIGN_OR_RETURN(model.p_exit_bad,
                           param_double(params, "p_exit_bad", 1.0));
      std::string peer_name = param_text(params, "peer");
      if (!peer_name.empty()) {
        EXC_ASSIGN_OR_RETURN(net::NodeId peer, platform_.node_id(peer_name));
        return injector.ge_path_loss(node_id_, peer, model, temporal);
      }
      EXC_ASSIGN_OR_RETURN(
          faults::FaultDirection direction,
          faults::parse_fault_direction(param_text(params, "direction",
                                                   "both")));
      return injector.ge_loss(node_id_, model, direction, temporal);
    }
    if (kind == "fault_message_duplicate") {
      EXC_ASSIGN_OR_RETURN(double probability,
                           param_double(params, "probability", 0.0));
      EXC_ASSIGN_OR_RETURN(std::int64_t copies,
                           param_int(params, "copies", 1));
      EXC_ASSIGN_OR_RETURN(double gap_ms, param_double(params, "gap_ms", 0.0));
      return injector.message_duplicate(
          node_id_, probability, static_cast<int>(copies),
          sim::SimDuration::from_seconds(gap_ms / 1000.0), temporal);
    }
    if (kind == "fault_message_reorder") {
      EXC_ASSIGN_OR_RETURN(double probability,
                           param_double(params, "probability", 0.0));
      EXC_ASSIGN_OR_RETURN(double max_delay_ms,
                           param_double(params, "max_delay_ms", 10.0));
      return injector.message_reorder(
          node_id_, probability,
          sim::SimDuration::from_seconds(max_delay_ms / 1000.0), temporal);
    }
    return err_rpc("unknown fault method '" + method + "'");
  }();
  if (!handle.ok()) return std::move(handle).error();
  active_faults_.emplace(kind, std::move(handle).value());
  return Value{true};
}

void NodeManager::crash() {
  if (crashed_) return;
  crashed_ = true;
  log_.info("node crash: SD soft state lost, interfaces down");
  if (agent_) {
    // Drop all soft state without goodbyes or deregistrations; peers keep
    // stale knowledge of this node until their caches/leases expire.
    agent_->crash();
    agent_.reset();
  }
  net::Network& network = platform_.network();
  network.set_interface_up(node_id_, net::Direction::kTransmit, false);
  network.set_interface_up(node_id_, net::Direction::kReceive, false);
}

void NodeManager::restore() {
  if (!crashed_) return;
  crashed_ = false;
  net::Network& network = platform_.network();
  network.set_interface_up(node_id_, net::Direction::kTransmit, true);
  network.set_interface_up(node_id_, net::Direction::kReceive, true);
  log_.info("node restart: replaying discovery role");
  if (!sd_state_.initialized) return;
  // Replay through the regular dispatch path so re-announcement and
  // re-registration use the protocol's normal startup machinery (probe /
  // announce backoff, SCM registration).  Iterate over copies: dispatch_sd
  // rewrites the replay memory as it goes.
  ValueMap init_params = sd_state_.init_params;
  auto publishes = sd_state_.publishes;
  auto searches = sd_state_.searches;
  sd_state_ = {};
  if (Result<Value> r = dispatch_sd("sd_init", init_params); !r.ok()) {
    log_.warn("restart replay: sd_init failed: " + r.error().message());
    return;
  }
  for (const auto& [instance, params] : publishes) {
    if (Result<Value> r = dispatch_sd("sd_start_publish", params); !r.ok()) {
      log_.warn("restart replay: publish '" + instance +
                "' failed: " + r.error().message());
    }
  }
  for (const auto& [type, params] : searches) {
    if (Result<Value> r = dispatch_sd("sd_start_search", params); !r.ok()) {
      log_.warn("restart replay: search '" + type +
                "' failed: " + r.error().message());
    }
  }
}

void NodeManager::register_plugin(const std::string& plugin,
                                  const std::string& name, PluginFn fn) {
  plugins_.push_back(Plugin{plugin, name, std::move(fn)});
}

Status NodeManager::experiment_init() {
  log_.info("experiment_init");
  platform_.recorder().record(name_, "experiment_init");
  return {};
}

Status NodeManager::experiment_exit() {
  log_.info("experiment_exit");
  platform_.recorder().record(name_, "experiment_exit");
  // The log was flushed run by run (run_exit); experiment-scope lines are
  // not persisted so the stored log is independent of which platform
  // instance (master or worker replica) executed each run.
  log_.clear();
  return {};
}

Status NodeManager::run_init(std::int64_t run_id) {
  current_run_ = run_id;
  sd_state_ = {};
  crashed_ = false;
  // Drop buffered experiment-scope lines so this run's log segment holds
  // exactly the lines logged between run_init and run_exit.
  log_.clear();
  log_.info(strings::format("run_init %lld", static_cast<long long>(run_id)));
  platform_.recorder().record(name_, "run_init", Value{run_id});
  return {};
}

Status NodeManager::run_exit(std::int64_t run_id) {
  // Stop faults still active on this node BEFORE tearing the agent down: a
  // churn fault's deactivation restores the node (recreating the agent),
  // which must happen inside the run so the final agent exit below sees it.
  for (auto& [kind, fault] : active_faults_) fault->stop();
  active_faults_.clear();
  // Safety net: a node left crashed by a one-shot crash fault comes back so
  // the next run starts from a defined state.
  if (crashed_) restore();
  // Terminate any SD role still active (clean-up phase must leave a
  // defined state for the next run).
  if (agent_ && agent_->initialized()) {
    (void)agent_->exit();
    agent_.reset();
  }
  sd_state_ = {};

  collect_captures(run_id);

  // Plugin measurements run at the end of every run (§IV-B, plugins have
  // "a separate storage location on the node").
  for (const Plugin& plugin : plugins_) {
    platform_.level2().node(name_).add_plugin_measurement(
        run_id, plugin.plugin, plugin.name, plugin.fn(run_id));
  }

  log_.info(strings::format("run_exit %lld", static_cast<long long>(run_id)));
  platform_.recorder().record(name_, "run_exit", Value{run_id});
  // Flush this run's log lines as a run-scoped segment: discard_run can
  // drop an aborted attempt's lines and the run-parallel merge can splice
  // the segment in at the right position.
  platform_.level2().node(name_).append_run_log(run_id, log_.take());
  return {};
}

void NodeManager::collect_captures(std::int64_t run_id) {
  std::vector<net::CapturedPacket> captures =
      platform_.network().take_captures(node_id_);
  storage::NodeStore& store = platform_.level2().node(name_);
  const net::Topology& topology = platform_.network().topology();
  for (const net::CapturedPacket& captured : captures) {
    storage::RawPacket raw;
    raw.run_id = run_id;
    raw.local_time_ns = captured.local_time.nanos();
    if (!captured.packet.route.empty()) {
      raw.src_node = topology.node(captured.packet.route.front()).name;
    }
    raw.data = net::capture_to_wire(captured);
    store.record_packet(std::move(raw));
  }
}

}  // namespace excovery::core
