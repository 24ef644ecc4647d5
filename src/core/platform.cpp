#include "core/platform.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "core/node_manager.hpp"
#include "sd/hybrid.hpp"
#include "sd/mdns.hpp"
#include "sd/slp.hpp"

namespace excovery::core {

Result<SdProtocol> parse_protocol(const std::string& text) {
  std::string t = strings::to_lower(strings::trim(text));
  if (t.empty() || t == "mdns" || t == "zeroconf" || t == "avahi") {
    return SdProtocol::kMdns;
  }
  if (t == "slp" || t == "three-party" || t == "directory") {
    return SdProtocol::kSlp;
  }
  if (t == "hybrid" || t == "adaptive") return SdProtocol::kHybrid;
  return err_validation("unknown sd protocol '" + text + "'");
}

std::string_view to_string(SdProtocol protocol) noexcept {
  switch (protocol) {
    case SdProtocol::kMdns: return "mdns";
    case SdProtocol::kSlp: return "slp";
    case SdProtocol::kHybrid: return "hybrid";
  }
  return "?";
}

SimPlatform::SimPlatform(const ExperimentDescription& description,
                         SimPlatformConfig config)
    : config_(std::move(config)),
      sync_rng_(RngFactory(config_.seed).stream("time-sync")) {
  (void)description;
}

SimPlatform::~SimPlatform() {
  for (const std::string& name : node_names_) transport_.detach(name);
}

Result<std::unique_ptr<SimPlatform>> SimPlatform::create(
    const ExperimentDescription& description, SimPlatformConfig config) {
  // Cannot use make_unique with a private constructor.
  std::unique_ptr<SimPlatform> platform(
      new SimPlatform(description, std::move(config)));
  EXC_TRY(platform->setup(description));
  return platform;
}

Status SimPlatform::setup(const ExperimentDescription& description) {
  network_ = std::make_unique<net::Network>(scheduler_,
                                            std::move(config_.topology),
                                            config_.seed);
  network_->set_lineage(&lineage_);

  recorder_ = std::make_unique<EventRecorder>(
      scheduler_, level2_, [this](const std::string& node) -> std::int64_t {
        auto it = name_to_id_.find(node);
        if (it == name_to_id_.end()) {
          // Environment pseudo-node and the master read the reference clock.
          return scheduler_.now().nanos();
        }
        return network_->clock(it->second).read(scheduler_.now()).nanos();
      });

  recorder_->set_lineage(&lineage_);

  injector_ = std::make_unique<faults::FaultInjector>(*network_,
                                                      net::kSdPort);
  injector_->set_event_sink([this](const std::string& node,
                                   const std::string& event,
                                   const Value& parameter) {
    recorder_->record(node.empty() ? kEnvironmentNode : node, event,
                      parameter);
  });
  injector_->set_lifecycle_hooks(
      [this](const std::string& node) {
        auto it = managers_.find(node);
        if (it != managers_.end()) it->second->crash();
      },
      [this](const std::string& node) {
        auto it = managers_.find(node);
        if (it != managers_.end()) it->second->restore();
      });
  traffic_ = std::make_unique<faults::TrafficGenerator>(*network_);

  // Resolve protocol from the description's informative parameters, if set.
  std::string protocol_text = description.info("sd_protocol");
  if (!protocol_text.empty()) {
    EXC_ASSIGN_OR_RETURN(config_.protocol, parse_protocol(protocol_text));
  }

  // Map description nodes to topology nodes by name and wire one
  // NodeManager + RPC endpoint per concrete node.
  auto add_node = [&](const PlatformNode& platform_node,
                      bool is_actor) -> Status {
    EXC_ASSIGN_OR_RETURN(net::NodeId id,
                         network_->topology().find(platform_node.id));
    if (!platform_node.address.empty()) {
      // Cross-check declared addresses against the simulator's.
      EXC_ASSIGN_OR_RETURN(net::Address declared,
                           net::Address::parse(platform_node.address));
      if (declared != network_->topology().node(id).address) {
        return err_validation(
            "platform node '" + platform_node.id + "' declares address " +
            platform_node.address + " but the topology assigns " +
            network_->topology().node(id).address.to_string());
      }
    }
    const std::string& name = platform_node.id;
    if (name_to_id_.count(name) != 0) {
      return err_validation("duplicate platform node '" + name + "'");
    }
    name_to_id_.emplace(name, id);
    node_names_.push_back(name);
    (is_actor ? actor_node_names_ : environment_node_names_).push_back(name);
    if (is_actor) {
      if (platform_node.abstract_id.empty()) {
        return err_validation("actor node '" + name + "' lacks mapping");
      }
      abstract_to_concrete_[platform_node.abstract_id] = name;
    }

    // Imperfect local clock, deterministic per (seed, node name).
    Pcg32 clock_rng =
        RngFactory(config_.seed).stream("clock-model/" + name);
    sim::ClockModel model;
    model.offset = sim::SimDuration(clock_rng.uniform_int(
        -config_.max_clock_offset.nanos(), config_.max_clock_offset.nanos()));
    model.drift_ppm =
        clock_rng.uniform(-config_.max_drift_ppm, config_.max_drift_ppm);
    model.read_jitter = config_.clock_read_jitter;
    network_->set_clock_model(id, model);

    // SD agent factory bound to the configured protocol.
    SdProtocol protocol = config_.protocol;
    SimPlatformConfig* cfg = &config_;
    net::Network* network = network_.get();
    AgentFactory factory = [protocol, cfg, network, id,
                            name]() -> std::unique_ptr<sd::SdAgent> {
      switch (protocol) {
        case SdProtocol::kMdns: {
          sd::MdnsConfig mdns = cfg->mdns;
          mdns.seed = cfg->seed ^ fnv1a64("agent/" + name);
          return std::make_unique<sd::MdnsAgent>(*network, id, mdns);
        }
        case SdProtocol::kSlp: {
          sd::SlpConfig slp = cfg->slp;
          slp.seed = cfg->seed ^ fnv1a64("agent/" + name);
          return std::make_unique<sd::SlpAgent>(*network, id, slp);
        }
        case SdProtocol::kHybrid: {
          sd::HybridConfig hybrid;
          hybrid.mdns = cfg->mdns;
          hybrid.slp = cfg->slp;
          hybrid.mdns.seed = cfg->seed ^ fnv1a64("agent-m/" + name);
          hybrid.slp.seed = cfg->seed ^ fnv1a64("agent-s/" + name);
          return std::make_unique<sd::HybridAgent>(*network, id, hybrid);
        }
      }
      return nullptr;
    };

    auto manager =
        std::make_unique<NodeManager>(*this, name, id, std::move(factory));
    transport_.attach(name, &manager->server());
    managers_.emplace(name, std::move(manager));
    return {};
  };

  for (const PlatformNode& node : description.platform.actor_nodes) {
    EXC_TRY(add_node(node, /*is_actor=*/true));
  }
  for (const PlatformNode& node : description.platform.environment_nodes) {
    EXC_TRY(add_node(node, /*is_actor=*/false));
  }

  if (!description.platform.actor_nodes.empty()) {
    for (const std::string& abstract : description.abstract_nodes) {
      if (abstract_to_concrete_.count(abstract) == 0) {
        return err_validation("abstract node '" + abstract +
                              "' not mapped by the platform specification");
      }
    }
  }
  return {};
}

Result<std::string> SimPlatform::concrete_name(
    const std::string& abstract_id) const {
  auto it = abstract_to_concrete_.find(abstract_id);
  if (it == abstract_to_concrete_.end()) {
    // Identity mapping fallback: descriptions may use the concrete names
    // directly (as the paper's Fig. 8 A->A mapping does).
    if (name_to_id_.count(abstract_id) != 0) return abstract_id;
    return err_not_found("abstract node '" + abstract_id + "' is not mapped");
  }
  return it->second;
}

Result<net::NodeId> SimPlatform::node_id(
    const std::string& concrete_name) const {
  auto it = name_to_id_.find(concrete_name);
  if (it == name_to_id_.end()) {
    return err_not_found("no platform node '" + concrete_name + "'");
  }
  return it->second;
}

NodeManager& SimPlatform::manager(const std::string& concrete_name) {
  return *managers_.at(concrete_name);
}

rpc::RpcClient SimPlatform::client(const std::string& concrete_name) {
  return rpc::RpcClient(transport_, concrete_name);
}

std::int64_t SimPlatform::measure_offset(const std::string& concrete_name) {
  auto it = name_to_id_.find(concrete_name);
  if (it == name_to_id_.end()) return 0;
  sim::LocalClock& clock = network_->clock(it->second);

  // NTP-style: t1 --d1--> node reads local --d2--> t4; the estimate
  //   offset = local - (t1 + t4) / 2
  // carries error (d2 - d1)/2 from path asymmetry.
  double total = 0.0;
  sim::SimTime now = scheduler_.now();
  for (int sample = 0; sample < config_.sync_samples; ++sample) {
    std::int64_t d1 = sync_rng_.uniform_int(config_.control_delay_min.nanos(),
                                            config_.control_delay_max.nanos());
    std::int64_t d2 = sync_rng_.uniform_int(config_.control_delay_min.nanos(),
                                            config_.control_delay_max.nanos());
    std::int64_t t1 = now.nanos();
    std::int64_t local = clock.read(sim::SimTime(t1 + d1)).nanos();
    std::int64_t t4 = t1 + d1 + d2;
    total += static_cast<double>(local) -
             (static_cast<double>(t1) + static_cast<double>(t4)) / 2.0;
  }
  return static_cast<std::int64_t>(total /
                                   static_cast<double>(config_.sync_samples));
}

std::string SimPlatform::measure_topology(
    const std::vector<std::string>& nodes) {
  std::string out;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      Result<net::NodeId> a = node_id(nodes[i]);
      Result<net::NodeId> b = node_id(nodes[j]);
      if (!a.ok() || !b.ok()) continue;
      out += strings::format("%s %s %d\n", nodes[i].c_str(), nodes[j].c_str(),
                             network_->hop_count(a.value(), b.value()));
    }
  }
  return out;
}

std::string SimPlatform::measure_topology_detailed() const {
  const net::Topology& topology = network_->topology();
  std::string out = "nodes:\n";
  for (const net::TopologyNode& node : topology.nodes()) {
    out += strings::format("  %-12s %-15s (%.3f, %.3f)\n", node.name.c_str(),
                           node.address.to_string().c_str(), node.x, node.y);
  }
  out += "links:\n";
  for (const net::Link& link : topology.links()) {
    out += strings::format(
        "  %-12s %-12s loss=%.3f delay=%.3fms bw=%.1fMbps\n",
        topology.node(link.a).name.c_str(),
        topology.node(link.b).name.c_str(), link.model.loss,
        link.model.base_delay.millis(), link.model.bandwidth_bps / 1e6);
  }
  return out;
}

void SimPlatform::reset_run_state() {
  traffic_->stop();
  injector_->reset();
  network_->reset_run_state();
  network_->reset_stats();
}

void SimPlatform::begin_run(std::int64_t run_id, int attempt) {
  // Folding the attempt in gives retries fresh randomness while attempt 1
  // stays a pure function of (seed, run id) across worker layouts.
  RngFactory rf = RngFactory(config_.seed)
                      .sub("run", static_cast<std::uint64_t>(run_id))
                      .sub("attempt", static_cast<std::uint64_t>(attempt));
  sync_rng_ = rf.stream("time-sync");
  network_->begin_run(rf.derive_seed("network"));
  lineage_.begin_run(static_cast<std::uint64_t>(run_id),
                     static_cast<std::uint32_t>(attempt));
}

Result<std::unique_ptr<SimPlatform>> SimPlatform::replicate(
    const ExperimentDescription& description) const {
  SimPlatformConfig config = config_;
  // setup() moved the topology into the network; read the live copy back so
  // replicas see runtime link-model changes made before replication.
  config.topology = network_->topology();
  return create(description, std::move(config));
}

}  // namespace excovery::core
