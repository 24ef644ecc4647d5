// The simulated platform: everything §IV-A requires a target platform to
// provide, implemented on the discrete-event network simulator.
//
//  * Experiment management (§IV-A1): a separate, reliable control channel
//    (in-process XML-RPC transport) with full privileged access to nodes.
//  * Connection control (§IV-A2): interface up/down and rule-based packet
//    manipulation (via net::Network and the fault injector).
//  * Measurement (§IV-A3): packet capture with local timestamps and
//    unaltered content, packet tagging/tracking, time synchronisation with
//    quantifiable error, hop-count topology probing.
//
// The platform maps the description's abstract/environment nodes onto
// simulator nodes by host name (Fig. 8) and owns one NodeManager (and RPC
// endpoint) per concrete node.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/description.hpp"
#include "core/recorder.hpp"
#include "faults/injector.hpp"
#include "faults/traffic.hpp"
#include "net/network.hpp"
#include "rpc/endpoint.hpp"
#include "sd/mdns.hpp"
#include "sd/model.hpp"
#include "sd/slp.hpp"
#include "sim/lineage.hpp"
#include "sim/scheduler.hpp"
#include "storage/level2.hpp"

namespace excovery::core {

class NodeManager;

/// Which SD protocol stack nodes run ("sd_protocol" informative parameter).
enum class SdProtocol { kMdns, kSlp, kHybrid };
Result<SdProtocol> parse_protocol(const std::string& text);
std::string_view to_string(SdProtocol protocol) noexcept;

struct SimPlatformConfig {
  net::Topology topology;  ///< must contain every platform node by name
  std::uint64_t seed = 1;
  SdProtocol protocol = SdProtocol::kMdns;

  // Local clock imperfection: per-node offset drawn uniform in
  // [-max_offset, +max_offset], drift uniform in [-max_drift_ppm, +...].
  sim::SimDuration max_clock_offset = sim::SimDuration::from_millis(50);
  double max_drift_ppm = 20.0;
  sim::SimDuration clock_read_jitter = sim::SimDuration::from_micros(10);

  // Control-channel characteristics used by the time-sync measurement:
  // one-way delays drawn uniform in [min, max] per exchange.
  sim::SimDuration control_delay_min = sim::SimDuration::from_micros(100);
  sim::SimDuration control_delay_max = sim::SimDuration::from_micros(800);
  int sync_samples = 8;  ///< exchanges averaged per offset estimate

  // Protocol knob bundles (per-node seeds are derived from `seed`).
  sd::MdnsConfig mdns;
  sd::SlpConfig slp;
};

class SimPlatform {
 public:
  /// Build the platform for a description.  Fails if a platform node has no
  /// counterpart (by name) in the topology.
  static Result<std::unique_ptr<SimPlatform>> create(
      const ExperimentDescription& description, SimPlatformConfig config);

  ~SimPlatform();
  SimPlatform(const SimPlatform&) = delete;
  SimPlatform& operator=(const SimPlatform&) = delete;

  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  net::Network& network() noexcept { return *network_; }
  EventRecorder& recorder() noexcept { return *recorder_; }
  storage::Level2Store& level2() noexcept { return level2_; }
  faults::FaultInjector& injector() noexcept { return *injector_; }
  faults::TrafficGenerator& traffic() noexcept { return *traffic_; }
  rpc::InProcessTransport& transport() noexcept { return transport_; }
  sim::LineageLog& lineage() noexcept { return lineage_; }
  const SimPlatformConfig& config() const noexcept { return config_; }

  /// Concrete node names in description order (actor nodes then env nodes).
  const std::vector<std::string>& node_names() const noexcept {
    return node_names_;
  }
  /// Concrete names of actor nodes / environment nodes.
  const std::vector<std::string>& actor_node_names() const noexcept {
    return actor_node_names_;
  }
  const std::vector<std::string>& environment_node_names() const noexcept {
    return environment_node_names_;
  }
  /// Concrete node name an abstract node maps to.
  Result<std::string> concrete_name(const std::string& abstract_id) const;

  Result<net::NodeId> node_id(const std::string& concrete_name) const;
  NodeManager& manager(const std::string& concrete_name);

  /// RPC client bound to a node's endpoint (the master's view of a node).
  rpc::RpcClient client(const std::string& concrete_name);

  // ---- platform measurements (§IV-A3) -----------------------------------
  /// NTP-style offset estimation over the control channel: returns the
  /// estimated (local - reference) offset in nanoseconds.  The estimate
  /// carries a bounded error from asymmetric control-channel delays, which
  /// is what §IV-A3's "quantification of the synchronization error"
  /// refers to.
  std::int64_t measure_offset(const std::string& concrete_name);

  /// Hop counts between all acting node pairs, rendered as one line per
  /// pair ("a b hops").  Taken before and after each experiment (§IV-B4).
  std::string measure_topology(const std::vector<std::string>& nodes);

  /// Advanced topology recording (§IV-B4 names this as future work): the
  /// full adjacency with per-link quality (loss, delay, bandwidth) and
  /// node positions, as a text block stored into ExperimentMeasurements.
  std::string measure_topology_detailed() const;

  /// Run preparation: drop leftover packets, clear capture buffers and
  /// multicast dedup state, stop stray faults and traffic (§IV-C1).
  void reset_run_state();

  /// Rebase every order-dependent random stream on a substream keyed by
  /// (experiment seed, run id, attempt): the time-sync exchange delays and
  /// the network's loss/jitter/clock-read streams.  After this call a run's
  /// randomness is independent of which runs executed before it on this
  /// platform instance, so runs can execute out of order or on worker
  /// replicas and still draw identical values (DESIGN.md §10).
  void begin_run(std::int64_t run_id, int attempt = 1);

  /// Cheap replica: a fresh platform with this platform's configuration
  /// (including any runtime link-model changes, since the topology is read
  /// back from the live network).  Replicas start with a zeroed scheduler
  /// clock and empty level-2 store; the run executor gives each worker its
  /// own replica so runs can execute concurrently.
  Result<std::unique_ptr<SimPlatform>> replicate(
      const ExperimentDescription& description) const;

 private:
  SimPlatform(const ExperimentDescription& description,
              SimPlatformConfig config);
  Status setup(const ExperimentDescription& description);

  SimPlatformConfig config_;
  sim::Scheduler scheduler_;
  sim::LineageLog lineage_;
  std::unique_ptr<net::Network> network_;
  storage::Level2Store level2_;
  std::unique_ptr<EventRecorder> recorder_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<faults::TrafficGenerator> traffic_;
  rpc::InProcessTransport transport_;

  std::vector<std::string> node_names_;
  std::vector<std::string> actor_node_names_;
  std::vector<std::string> environment_node_names_;
  std::map<std::string, std::string> abstract_to_concrete_;
  std::map<std::string, net::NodeId> name_to_id_;
  std::map<std::string, std::unique_ptr<NodeManager>> managers_;
  Pcg32 sync_rng_;
};

}  // namespace excovery::core
