#include "core/interpreter.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/platform.hpp"

namespace excovery::core {

namespace {
constexpr const char* kComponent = "core.interpreter";

/// Actions whose semantics are synchronous in the paper's model ("emitting
/// <event> upon completion", §V): the interpreter suspends until the
/// completion event from the same node arrives.
const char* completion_event_for(const std::string& action) {
  if (action == "sd_init") return "sd_init_done";
  if (action == "sd_exit") return "sd_exit_done";
  return nullptr;
}

/// Safety net for implicit completion waits: generous, but bounded so a
/// dead node aborts the run (and recovery retries) instead of hanging.
constexpr double kCompletionTimeoutSeconds = 60.0;

}  // namespace

ProcessInterpreter::ProcessInterpreter(
    SimPlatform& platform, const ExperimentDescription& description,
    const RunSpec& run, ActionDispatcher& dispatcher, Kind kind,
    std::string node, std::vector<ProcessAction> actions, std::string label)
    : platform_(platform),
      description_(description),
      run_(run),
      dispatcher_(dispatcher),
      kind_(kind),
      node_(std::move(node)),
      actions_(std::move(actions)),
      label_(std::move(label)) {}

ProcessInterpreter::~ProcessInterpreter() {
  if (wait_) {
    platform_.recorder().unwatch(wait_->watch);
    platform_.scheduler().cancel(wait_->timeout_timer);
  }
  generation_.bump();  // cancels the handle-less timers
}

void ProcessInterpreter::start(CompletionFn on_complete) {
  on_complete_ = std::move(on_complete);
  state_ = State::kRunning;
  // Defer the first step onto the scheduler so all processes of a run start
  // at the same instant but in deterministic creation order.
  platform_.scheduler().schedule(
      sim::SimDuration::zero(),
      [this, alive = generation_.token(), generation = generation_.value()] {
        if (*alive != generation) return;  // interpreter was destroyed
        if (state_ == State::kRunning) step();
      });
}

void ProcessInterpreter::step() {
  while (state_ == State::kRunning) {
    if (next_action_ >= actions_.size()) {
      complete({});
      return;
    }
    const ProcessAction& action = actions_[next_action_++];
    Status status = execute(action);
    if (!status.ok()) {
      complete(std::move(status).context(label_ + ": action '" + action.name +
                                         "'"));
      return;
    }
    if (state_ == State::kWaiting) return;  // suspended; resumed by events
  }
}

void ProcessInterpreter::complete(Status status) {
  if (finished()) return;
  if (status.ok()) {
    state_ = State::kDone;
  } else {
    state_ = State::kFailed;
    error_ = status.error();
    EXC_LOG_WARN(kComponent,
                 label_ << " failed: " << status.error().to_string());
  }
  if (on_complete_) on_complete_(*this);
}

Status ProcessInterpreter::execute(const ProcessAction& action) {
  if (action.name == "wait_for_time") return do_wait_for_time(action);
  if (action.name == "wait_for_event") return do_wait_for_event(action);
  if (action.name == "wait_marker") {
    marker_ = platform_.scheduler().now();
    return {};
  }
  if (action.name == "event_flag") return do_event_flag(action);

  EXC_ASSIGN_OR_RETURN(ValueMap params, resolve_params(action));
  if (kind_ == Kind::kEnvironment || strings::starts_with(action.name, "env_")) {
    return dispatcher_.env_action(action.name, std::move(params));
  }
  // Dispatch, then (for actions that complete asynchronously on the node)
  // suspend until the completion event.  The wait considers events from the
  // dispatch time on, so completions that fire synchronously still match.
  sim::SimTime dispatched_at = platform_.scheduler().now();
  EXC_TRY(dispatcher_.node_action(node_, action.name, std::move(params)));
  if (const char* completion = completion_event_for(action.name)) {
    auto wait = std::make_unique<WaitState>();
    wait->event_name = completion;
    wait->from.push_back(node_);
    wait->needed = 1;
    wait->consider_from = dispatched_at;
    wait->timeout_s = kCompletionTimeoutSeconds;
    wait->fail_on_timeout = true;
    return begin_wait(std::move(wait));
  }
  return {};
}

Status ProcessInterpreter::do_wait_for_time(const ProcessAction& action) {
  const ParamValue* time_param = action.param("time");
  if (!time_param) time_param = action.param("value");
  if (!time_param) return err_validation("wait_for_time needs a duration");
  EXC_ASSIGN_OR_RETURN(Value value, resolve(*time_param));
  EXC_ASSIGN_OR_RETURN(double seconds, value.to_double());
  if (seconds < 0) return err_validation("wait_for_time duration is negative");

  state_ = State::kWaiting;
  platform_.scheduler().schedule(
      sim::SimDuration::from_seconds(seconds),
      [this, alive = generation_.token(), generation = generation_.value()] {
        if (*alive != generation) return;  // interpreter was destroyed
        if (state_ != State::kWaiting) return;
        state_ = State::kRunning;
        step();
      });
  return {};
}

Status ProcessInterpreter::do_event_flag(const ProcessAction& action) {
  const ParamValue* value_param = action.param("value");
  if (!value_param) return err_validation("event_flag needs a value");
  EXC_ASSIGN_OR_RETURN(Value value, resolve(*value_param));
  std::string event_name = strings::strip_quotes(value.to_text());
  Value parameter;
  if (const ParamValue* extra = action.param("parameter")) {
    EXC_ASSIGN_OR_RETURN(parameter, resolve(*extra));
  }
  // Local events occur on the owning node; environment processes raise
  // them on the environment pseudo-node.
  const std::string& where =
      kind_ == Kind::kEnvironment ? kEnvironmentNode : node_;
  platform_.recorder().record(where, event_name, parameter);
  return {};
}

Status ProcessInterpreter::do_wait_for_event(const ProcessAction& action) {
  const ParamValue* event_param = action.param("event_dependency");
  if (!event_param) {
    return err_validation("wait_for_event needs an event_dependency");
  }
  auto wait = std::make_unique<WaitState>();
  EXC_ASSIGN_OR_RETURN(Value event_name, resolve(*event_param));
  wait->event_name = strings::strip_quotes(event_name.to_text());

  if (const ParamValue* from = action.param("from_dependency")) {
    if (from->kind != ParamValue::Kind::kNodeSet) {
      return err_validation("from_dependency must select nodes");
    }
    EXC_ASSIGN_OR_RETURN(wait->from, resolve_node_set(from->node_set));
  }
  if (const ParamValue* param = action.param("param_dependency")) {
    if (param->kind == ParamValue::Kind::kNodeSet) {
      EXC_ASSIGN_OR_RETURN(wait->params, resolve_node_set(param->node_set));
    } else {
      EXC_ASSIGN_OR_RETURN(Value value, resolve(*param));
      wait->params.push_back(strings::strip_quotes(value.to_text()));
    }
  }
  wait->needed = std::max<std::size_t>(1, wait->from.size()) *
                 std::max<std::size_t>(1, wait->params.size());

  // "wait_marker creates a time stamp that will be used by the next
  // wait_for_event call, which considers only events occurring after that
  // time stamp."  Without a marker, every event registered during the run
  // counts (the Fig. 7/10 interplay depends on this: ready_to_init is
  // flagged by the environment before the SU reaches its wait).
  wait->consider_from = marker_.value_or(sim::SimTime::zero());
  marker_.reset();

  if (const ParamValue* timeout = action.param("timeout")) {
    EXC_ASSIGN_OR_RETURN(Value value, resolve(*timeout));
    EXC_ASSIGN_OR_RETURN(double seconds, value.to_double());
    if (seconds > 0) wait->timeout_s = seconds;
  }
  return begin_wait(std::move(wait));
}

Status ProcessInterpreter::begin_wait(std::unique_ptr<WaitState> wait) {
  state_ = State::kWaiting;
  wait_ = std::move(wait);

  // Scan history for matches that already happened (>= consider_from).
  for (const RunEvent& event : platform_.recorder().history()) {
    if (event.time < wait_->consider_from) continue;
    if (event_matches(event, *wait_)) {
      finish_wait();
      return {};
    }
  }

  // Watch for live events.
  wait_->watch = platform_.recorder().watch(
      wait_->event_name, [this](const RunEvent& event) {
        if (state_ != State::kWaiting || !wait_) return;
        if (event.time < wait_->consider_from) return;
        if (event_matches(event, *wait_)) finish_wait();
      });

  if (wait_->timeout_s.has_value()) {
    wait_->timeout_timer = platform_.scheduler().schedule(
        sim::SimDuration::from_seconds(*wait_->timeout_s), [this] {
          if (state_ != State::kWaiting || !wait_) return;
          if (wait_->fail_on_timeout) {
            std::string event_name = wait_->event_name;
            platform_.recorder().unwatch(wait_->watch);
            wait_.reset();
            complete(err_timeout("completion event '" + event_name +
                                 "' never arrived"));
            return;
          }
          ++timeouts_;
          // Record the timeout so analyses can distinguish "discovered"
          // from "deadline missed".
          platform_.recorder().record(
              kind_ == Kind::kEnvironment ? kEnvironmentNode : node_,
              "wait_timeout", Value{wait_->event_name});
          finish_wait();
        });
  }
  return {};
}

bool ProcessInterpreter::event_matches(const RunEvent& event,
                                       WaitState& wait) {
  if (event.name != wait.event_name) return false;
  std::string from_key;
  if (!wait.from.empty()) {
    if (std::find(wait.from.begin(), wait.from.end(), event.node) ==
        wait.from.end()) {
      return false;
    }
    from_key = event.node;
  }
  std::string param_key;
  if (!wait.params.empty()) {
    std::string param_text = event.parameter.to_text();
    if (std::find(wait.params.begin(), wait.params.end(), param_text) ==
        wait.params.end()) {
      return false;
    }
    param_key = param_text;
  }
  wait.satisfied.emplace(std::move(from_key), std::move(param_key));
  return wait.satisfied.size() >= wait.needed;
}

void ProcessInterpreter::finish_wait() {
  platform_.recorder().unwatch(wait_->watch);
  platform_.scheduler().cancel(wait_->timeout_timer);
  wait_.reset();
  state_ = State::kRunning;
  // Resume on a fresh scheduler slot to avoid re-entrant publish chains.
  platform_.scheduler().schedule(
      sim::SimDuration::zero(),
      [this, alive = generation_.token(), generation = generation_.value()] {
        if (*alive != generation) return;  // interpreter was destroyed
        if (state_ == State::kRunning) step();
      });
}

Result<Value> ProcessInterpreter::resolve(const ParamValue& value) const {
  switch (value.kind) {
    case ParamValue::Kind::kLiteral:
      return value.literal;
    case ParamValue::Kind::kFactorRef:
      return run_.treatment.level(value.factor_id);
    case ParamValue::Kind::kNodeSet: {
      EXC_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           resolve_node_set(value.node_set));
      ValueArray array;
      for (std::string& name : names) array.emplace_back(std::move(name));
      return Value{std::move(array)};
    }
  }
  return err_internal("unhandled param kind");
}

Result<std::vector<std::string>> ProcessInterpreter::resolve_node_set(
    const NodeSetRef& ref) const {
  std::vector<std::string> abstract;
  if (ref.actor.empty()) {
    abstract = run_.acting_nodes();
  } else {
    auto it = run_.actor_map.find(ref.actor);
    if (it == run_.actor_map.end()) {
      return err_not_found("actor '" + ref.actor +
                           "' not present in the run's actor map");
    }
    abstract = it->second;
  }
  if (!ref.instance.empty() && ref.instance != "all") {
    EXC_ASSIGN_OR_RETURN(std::int64_t index, Value{ref.instance}.to_int());
    if (index < 0 || static_cast<std::size_t>(index) >= abstract.size()) {
      return err_invalid(strings::format(
          "instance %lld out of range for actor '%s' (%zu instances)",
          static_cast<long long>(index), ref.actor.c_str(), abstract.size()));
    }
    abstract = {abstract[static_cast<std::size_t>(index)]};
  }
  std::vector<std::string> concrete;
  concrete.reserve(abstract.size());
  for (const std::string& id : abstract) {
    EXC_ASSIGN_OR_RETURN(std::string name, platform_.concrete_name(id));
    concrete.push_back(std::move(name));
  }
  return concrete;
}

Result<ValueMap> ProcessInterpreter::resolve_params(
    const ProcessAction& action) const {
  ValueMap out;
  for (const auto& [name, value] : action.params) {
    EXC_ASSIGN_OR_RETURN(Value resolved, resolve(value));
    out[name] = std::move(resolved);
  }
  return out;
}

}  // namespace excovery::core
