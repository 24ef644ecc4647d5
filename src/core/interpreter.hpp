// Process interpreter: executes the action sequences of the description
// (§IV-C2) inside the discrete-event simulation.
//
// "Every process is described as a sequence of actions.  Processes run
// concurrently on the nodes ... ExCovery defines methods for
// synchronization of the execution to provide basic flow control":
//
//   wait_for_time   — fixed delay in seconds
//   wait_for_event  — until the specified event is registered on any
//                     participant; can constrain origin (from_dependency),
//                     parameter (param_dependency) and set a timeout
//   wait_marker     — time stamp considered by the NEXT wait_for_event
//   event_flag      — create a local event
//
// Dependency semantics with instance="all": a from-set requires the event
// from EVERY node in the set; a param-set requires an event carrying EVERY
// value in the set; when both are given, every (node, value) combination is
// required (e.g. Fig. 10: every SU has discovered every SM).
//
// All other action names are dispatched through an ActionDispatcher — to
// the node's NodeManager over XML-RPC for node processes, or to the
// environment manager for env processes.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/description.hpp"
#include "core/plan.hpp"
#include "core/recorder.hpp"
#include "sim/lifetime.hpp"
#include "sim/scheduler.hpp"

namespace excovery::core {

class SimPlatform;

/// Where an interpreter sends non-flow-control actions.
class ActionDispatcher {
 public:
  virtual ~ActionDispatcher() = default;
  /// Execute an action on a concrete node (over the control channel).
  virtual Status node_action(const std::string& concrete_node,
                             const std::string& method, ValueMap params) = 0;
  /// Execute an environment action (traffic generation, drop-all, ...).
  virtual Status env_action(const std::string& method, ValueMap params) = 0;
};

class ProcessInterpreter {
 public:
  enum class Kind { kActor, kManipulation, kEnvironment };
  enum class State { kIdle, kRunning, kWaiting, kDone, kFailed };

  /// `node` is the concrete node the process is bound to ("" for env
  /// processes).  `label` names the process in logs and error messages.
  ProcessInterpreter(SimPlatform& platform,
                     const ExperimentDescription& description,
                     const RunSpec& run, ActionDispatcher& dispatcher,
                     Kind kind, std::string node,
                     std::vector<ProcessAction> actions, std::string label);
  ~ProcessInterpreter();

  ProcessInterpreter(const ProcessInterpreter&) = delete;
  ProcessInterpreter& operator=(const ProcessInterpreter&) = delete;

  using CompletionFn = std::function<void(const ProcessInterpreter&)>;
  void start(CompletionFn on_complete);

  State state() const noexcept { return state_; }
  bool finished() const noexcept {
    return state_ == State::kDone || state_ == State::kFailed;
  }
  const std::optional<Error>& error() const noexcept { return error_; }
  const std::string& label() const noexcept { return label_; }
  const std::string& node() const noexcept { return node_; }

  /// Number of wait_for_event timeouts hit (informational).
  int timeouts() const noexcept { return timeouts_; }

 private:
  struct WaitState {
    std::string event_name;
    std::vector<std::string> from;    ///< concrete names; empty = any
    std::vector<std::string> params;  ///< required values; empty = any
    std::set<std::pair<std::string, std::string>> satisfied;
    std::size_t needed = 1;
    sim::SimTime consider_from;
    std::uint64_t watch = 0;  ///< recorder watch id (0 = none)
    sim::TimerHandle timeout_timer;
    std::optional<double> timeout_s;
    /// Implicit completion waits fail the process on timeout; explicit
    /// wait_for_event timeouts let the process continue (Fig. 10).
    bool fail_on_timeout = false;
  };

  /// Suspend on a wait (shared by wait_for_event and implicit completion
  /// waits after synchronous-by-contract actions like sd_init).
  Status begin_wait(std::unique_ptr<WaitState> wait);

  void step();
  void complete(Status status);

  Status execute(const ProcessAction& action);
  Status do_wait_for_time(const ProcessAction& action);
  Status do_wait_for_event(const ProcessAction& action);
  Status do_event_flag(const ProcessAction& action);

  /// Resolve a ParamValue against the treatment and actor map.
  Result<Value> resolve(const ParamValue& value) const;
  /// Resolve a node-set selector to concrete node names.
  Result<std::vector<std::string>> resolve_node_set(
      const NodeSetRef& ref) const;
  /// Resolve all action params to a flat ValueMap (node sets become
  /// arrays of concrete names).
  Result<ValueMap> resolve_params(const ProcessAction& action) const;

  bool event_matches(const RunEvent& event, WaitState& wait);
  void finish_wait();

  SimPlatform& platform_;
  const ExperimentDescription& description_;
  const RunSpec& run_;
  ActionDispatcher& dispatcher_;
  Kind kind_;
  std::string node_;
  std::vector<ProcessAction> actions_;
  std::string label_;

  State state_ = State::kIdle;
  std::size_t next_action_ = 0;
  std::optional<Error> error_;
  CompletionFn on_complete_;
  std::optional<sim::SimTime> marker_;
  std::unique_ptr<WaitState> wait_;
  int timeouts_ = 0;
  /// Invalidates handle-less timers (start deferral, wait_for_time) on
  /// destruction — the run loop can stop with them still queued, and until
  /// the next attempt starts from an empty queue they must not touch the
  /// destroyed interpreter.
  sim::GenerationGate generation_;
};

}  // namespace excovery::core
