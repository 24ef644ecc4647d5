// NodeManager: "the central component of the nodes participating in
// experiments.  It handles remote procedure calls coming from ExperiMaster.
// Basic procedures exposed via RPC are the actions for management, fault
// injection, environment manipulation and the experiment process actions"
// (§VI-A).
//
// The SD process actions delegate to an SdAgent (the prototype delegates to
// Avahi), fault actions to the platform's FaultInjector, and every
// component signals occurrences through the event generator (the recorder).
//
// Exposed RPC methods (all parameters travel as one XML-RPC struct):
//   management:  experiment_init, experiment_exit, run_init, run_exit,
//                clock_read, event_flag (registered plugins run at run_exit)
//   SD process:  sd_init, sd_exit, sd_start_search, sd_stop_search,
//                sd_start_publish, sd_stop_publish, sd_update_publication
//   faults:      fault_interface_start/stop, fault_message_loss_start/stop,
//                fault_message_delay_start/stop, fault_path_loss_start/stop,
//                fault_path_delay_start/stop
//   dynamic:     fault_node_crash_start/stop, fault_node_churn_start/stop,
//                fault_link_flap_start/stop, fault_ge_loss_start/stop,
//                fault_message_duplicate_start/stop,
//                fault_message_reorder_start/stop (DESIGN.md §12)
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/log.hpp"
#include "core/recorder.hpp"
#include "faults/injector.hpp"
#include "net/network.hpp"
#include "rpc/endpoint.hpp"
#include "sd/model.hpp"

namespace excovery::core {

class SimPlatform;

/// Factory creating the node's SD agent on demand (sd_init).
using AgentFactory = std::function<std::unique_ptr<sd::SdAgent>()>;

/// Plugin measurement hook: name -> producer of measurement content.
/// Realises the paper's plugin concept ("ExCovery has a plugin concept to
/// extend these data with custom measurements on demand", §IV-B).
using PluginFn = std::function<std::string(std::int64_t run_id)>;

class NodeManager {
 public:
  NodeManager(SimPlatform& platform, std::string name, net::NodeId node_id,
              AgentFactory agent_factory);
  ~NodeManager();

  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  const std::string& name() const noexcept { return name_; }
  net::NodeId node_id() const noexcept { return node_id_; }
  rpc::RpcServer& server() noexcept { return server_; }
  sd::SdAgent* agent() noexcept { return agent_.get(); }
  CapturingLog& log() noexcept { return log_; }

  /// Register a plugin measurement executed at every run_exit.
  void register_plugin(const std::string& plugin, const std::string& name,
                       PluginFn fn);

  /// Direct (non-RPC) lifecycle entry points, also reachable via RPC.
  Status experiment_init();
  Status experiment_exit();
  Status run_init(std::int64_t run_id);
  Status run_exit(std::int64_t run_id);

  /// Node crash (churn fault): the SD agent loses all soft state without
  /// goodbyes and both interfaces go down.  Idempotent.
  void crash();
  /// Restart after a crash: interfaces come back and the node's recorded
  /// discovery role (init, publications, searches) is replayed through the
  /// regular SD action path, so re-announcement/re-registration runs the
  /// protocol's normal startup machinery.  Idempotent.
  void restore();
  bool crashed() const noexcept { return crashed_; }

 private:
  void register_methods();
  Result<Value> dispatch_sd(const std::string& method, const ValueMap& params);
  Result<Value> dispatch_fault(const std::string& method,
                               const ValueMap& params);
  Status ensure_agent();
  /// Drain this node's packet captures into its level-2 store.
  void collect_captures(std::int64_t run_id);

  SimPlatform& platform_;
  std::string name_;
  net::NodeId node_id_;
  AgentFactory agent_factory_;
  std::unique_ptr<sd::SdAgent> agent_;
  rpc::RpcServer server_;
  CapturingLog log_;
  std::int64_t current_run_ = 0;
  std::map<std::string, faults::FaultHandle> active_faults_;
  /// Replay memory for crash-restart: the raw parameters of the SD actions
  /// that shaped the node's current discovery role.  Cleared at run_init
  /// and sd_exit; consumed by restore().
  struct SdSoftState {
    bool initialized = false;
    ValueMap init_params;                      ///< includes "role"
    std::map<std::string, ValueMap> publishes; ///< instance -> params
    std::map<std::string, ValueMap> searches;  ///< type -> params
  };
  SdSoftState sd_state_;
  bool crashed_ = false;
  struct Plugin {
    std::string plugin;
    std::string name;
    PluginFn fn;
  };
  std::vector<Plugin> plugins_;
};

}  // namespace excovery::core
