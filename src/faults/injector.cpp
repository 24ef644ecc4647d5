#include "faults/injector.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace excovery::faults {

Result<FaultDirection> parse_fault_direction(const std::string& text) {
  std::string t = strings::to_lower(strings::trim(strings::strip_quotes(text)));
  if (t == "receive" || t == "rx") return FaultDirection::kReceive;
  if (t == "transmit" || t == "tx") return FaultDirection::kTransmit;
  if (t == "both") return FaultDirection::kBoth;
  if (t == "random") return FaultDirection::kRandom;
  return err_invalid("unknown fault direction '" + text + "'");
}

std::string_view to_string(FaultDirection d) noexcept {
  switch (d) {
    case FaultDirection::kReceive: return "receive";
    case FaultDirection::kTransmit: return "transmit";
    case FaultDirection::kBoth: return "both";
    case FaultDirection::kRandom: return "random";
  }
  return "?";
}

bool is_experiment_packet(const net::Packet& packet,
                          net::Port port) noexcept {
  return packet.dst_port == port || packet.src_port == port;
}

Status validate(const TemporalSpec& temporal) {
  if (!(temporal.rate > 0.0) || temporal.rate > 1.0) {
    return err_invalid("temporal rate " + std::to_string(temporal.rate) +
                       " out of (0, 1]");
  }
  if (temporal.duration.has_value() && temporal.duration->nanos() <= 0) {
    return err_invalid("temporal duration must be positive, got " +
                       std::to_string(temporal.duration->nanos()) + "ns");
  }
  return {};
}

namespace {

/// Counter bump for the per-kind fault statistics.
inline void count_one(std::uint64_t& counter) noexcept {
  ++counter;
}

/// True only at the origin transmit of a packet (route holds just the
/// sender); relay transmits see the accumulated hop trace.
inline bool at_origin(const net::Packet& packet) noexcept {
  return packet.route.size() <= 1;
}

Status validate_ge(const GilbertElliott& model) {
  auto in_unit = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!in_unit(model.p_enter_bad) || !in_unit(model.p_exit_bad) ||
      !in_unit(model.loss_good) || !in_unit(model.loss_bad)) {
    return err_invalid("gilbert-elliott parameters out of [0,1]");
  }
  return {};
}

/// Generic fault whose activation installs state and whose deactivation
/// removes it, with lifecycle bookkeeping.
class GenericFault final : public ActiveFault {
 public:
  GenericFault(std::string kind, std::function<void()> activate,
               std::function<void()> deactivate)
      : kind_(std::move(kind)),
        activate_(std::move(activate)),
        deactivate_(std::move(deactivate)) {}

  ~GenericFault() override = default;

  void arm_immediately() {
    active_ = true;
    activate_();
  }

  /// Schedule activation window [start, start+length] on the scheduler.
  void arm_window(sim::Scheduler& scheduler, sim::SimDuration start,
                  sim::SimDuration length) {
    auto self = weak_self_.lock();
    scheduler.schedule(start, [this, self] {
      if (stopped_) return;
      active_ = true;
      activate_();
    });
    scheduler.schedule(start + length, [this, self] { stop(); });
  }

  void stop() override {
    if (stopped_) return;
    stopped_ = true;
    if (active_) {
      active_ = false;
      deactivate_();
    }
  }

  bool active() const override { return active_; }
  const std::string& kind() const override { return kind_; }

  /// GenericFault keeps itself alive across scheduled callbacks.
  void set_self(std::shared_ptr<GenericFault> self) { weak_self_ = self; }

 private:
  std::string kind_;
  std::function<void()> activate_;
  std::function<void()> deactivate_;
  bool active_ = false;
  bool stopped_ = false;
  std::weak_ptr<GenericFault> weak_self_;
};

}  // namespace

FaultInjector::FaultInjector(net::Network& network, net::Port experiment_port)
    : network_(network), experiment_port_(experiment_port) {}

void FaultInjector::emit(const std::string& node, const std::string& event,
                         const Value& parameter) {
  if (sink_) sink_(node, event, parameter);
}

FaultDirection FaultInjector::resolve_direction(FaultDirection dir,
                                                std::uint64_t seed) const {
  if (dir != FaultDirection::kRandom) return dir;
  std::uint64_t state = seed ^ 0xD1CEu;
  return (splitmix64(state) & 1) ? FaultDirection::kReceive
                                 : FaultDirection::kTransmit;
}

FaultHandle FaultInjector::schedule(std::string kind,
                                    const std::string& node_name,
                                    const TemporalSpec& temporal,
                                    std::function<void()> activate,
                                    std::function<void()> deactivate) {
  std::string start_event = "fault_" + kind + "_start";
  std::string stop_event = "fault_" + kind + "_stop";
  FaultKindStats& kind_stats = stats_for(kind);
  auto fault = std::make_shared<GenericFault>(
      std::move(kind),
      [this, node_name, start_event, &kind_stats,
       activate = std::move(activate)] {
        activate();
        ++activations_;
        count_one(kind_stats.activations);
        emit(node_name, start_event, Value{});
      },
      [this, node_name, stop_event, &kind_stats,
       deactivate = std::move(deactivate)] {
        deactivate();
        count_one(kind_stats.deactivations);
        emit(node_name, stop_event, Value{});
      });
  fault->set_self(fault);
  registered_.push_back(fault);

  if (!temporal.duration.has_value()) {
    // "Every fault injection ... is started only once and without a given
    // duration, needs to be explicitly stopped."
    fault->arm_immediately();
  } else {
    double rate = std::clamp(temporal.rate, 0.0, 1.0);
    auto window = static_cast<double>(temporal.duration->nanos());
    auto active_len = static_cast<std::int64_t>(window * rate);
    std::int64_t slack = temporal.duration->nanos() - active_len;
    Pcg32 rng = RngFactory(temporal.randomseed).stream("fault-window");
    std::int64_t start =
        slack > 0 ? rng.uniform_int(0, slack) : 0;
    fault->arm_window(network_.scheduler(), sim::SimDuration(start),
                      sim::SimDuration(active_len));
  }
  return fault;
}

Result<FaultHandle> FaultInjector::interface_fault(
    net::NodeId node, FaultDirection dir, const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("interface_fault: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate(temporal));
  FaultDirection resolved = resolve_direction(dir, temporal.randomseed);
  std::string name = network_.topology().node(node).name;
  bool affect_rx =
      resolved == FaultDirection::kReceive || resolved == FaultDirection::kBoth;
  bool affect_tx = resolved == FaultDirection::kTransmit ||
                   resolved == FaultDirection::kBoth;
  return schedule(
      "interface", name, temporal,
      [this, node, affect_rx, affect_tx] {
        if (affect_rx) {
          network_.set_interface_up(node, net::Direction::kReceive, false);
        }
        if (affect_tx) {
          network_.set_interface_up(node, net::Direction::kTransmit, false);
        }
      },
      [this, node, affect_rx, affect_tx] {
        if (affect_rx) {
          network_.set_interface_up(node, net::Direction::kReceive, true);
        }
        if (affect_tx) {
          network_.set_interface_up(node, net::Direction::kTransmit, true);
        }
      });
}

Result<FaultHandle> FaultInjector::message_loss(net::NodeId node,
                                                double probability,
                                                FaultDirection dir,
                                                const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("message_loss: unknown node " + std::to_string(node));
  }
  if (probability < 0.0 || probability > 1.0) {
    return err_invalid("message_loss: probability out of [0,1]");
  }
  EXC_TRY(validate(temporal));
  FaultDirection resolved = resolve_direction(dir, temporal.randomseed);
  std::string name = network_.topology().node(node).name;
  // Loss decisions draw from a dedicated deterministic stream.
  auto rng = std::make_shared<Pcg32>(
      RngFactory(temporal.randomseed ^ fnv1a64(name)).stream("message-loss"));
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("message_loss");
  return schedule(
      "message_loss", name, temporal,
      [this, node, resolved, probability, rng, handle, port, &ks] {
        std::optional<net::Direction> scope_dir;
        if (resolved == FaultDirection::kReceive) {
          scope_dir = net::Direction::kReceive;
        } else if (resolved == FaultDirection::kTransmit) {
          scope_dir = net::Direction::kTransmit;
        }
        *handle = network_.add_filter(
            net::FilterScope{node, scope_dir},
            [rng, probability, port, &ks](net::NodeId, net::Direction,
                                          net::Packet& packet) {
              if (!is_experiment_packet(packet, port)) {
                return net::FilterVerdict::pass();
              }
              if (rng->bernoulli(probability)) {
                count_one(ks.packets_dropped);
                return net::FilterVerdict::drop("fault:message_loss");
              }
              return net::FilterVerdict::pass();
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

Result<FaultHandle> FaultInjector::message_delay(net::NodeId node,
                                                 sim::SimDuration delay,
                                                 const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("message_delay: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate(temporal));
  std::string name = network_.topology().node(node).name;
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("message_delay");
  return schedule(
      "message_delay", name, temporal,
      [this, node, delay, handle, port, &ks] {
        *handle = network_.add_filter(
            net::FilterScope{node, std::nullopt},
            [delay, port, &ks](net::NodeId, net::Direction,
                               net::Packet& packet) {
              if (!is_experiment_packet(packet, port)) {
                return net::FilterVerdict::pass();
              }
              count_one(ks.packets_delayed);
              return net::FilterVerdict::delayed(delay);
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

Result<FaultHandle> FaultInjector::path_loss(net::NodeId node,
                                             net::NodeId peer,
                                             double probability,
                                             const TemporalSpec& temporal) {
  if (node >= network_.node_count() || peer >= network_.node_count()) {
    return err_invalid("path_loss: unknown node");
  }
  if (probability < 0.0 || probability > 1.0) {
    return err_invalid("path_loss: probability out of [0,1]");
  }
  EXC_TRY(validate(temporal));
  std::string name = network_.topology().node(node).name;
  net::Address peer_addr = network_.topology().node(peer).address;
  auto rng = std::make_shared<Pcg32>(
      RngFactory(temporal.randomseed ^ fnv1a64(name)).stream("path-loss"));
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("path_loss");
  return schedule(
      "path_loss", name, temporal,
      [this, node, peer_addr, probability, rng, handle, port, &ks] {
        *handle = network_.add_filter(
            net::FilterScope{node, std::nullopt},
            [rng, probability, peer_addr, port, &ks](
                net::NodeId, net::Direction, net::Packet& packet) {
              if (!is_experiment_packet(packet, port)) {
                return net::FilterVerdict::pass();
              }
              if (packet.src != peer_addr && packet.dst != peer_addr) {
                return net::FilterVerdict::pass();
              }
              if (rng->bernoulli(probability)) {
                count_one(ks.packets_dropped);
                return net::FilterVerdict::drop("fault:path_loss");
              }
              return net::FilterVerdict::pass();
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

Result<FaultHandle> FaultInjector::path_delay(net::NodeId node,
                                              net::NodeId peer,
                                              sim::SimDuration delay,
                                              const TemporalSpec& temporal) {
  if (node >= network_.node_count() || peer >= network_.node_count()) {
    return err_invalid("path_delay: unknown node");
  }
  EXC_TRY(validate(temporal));
  std::string name = network_.topology().node(node).name;
  net::Address peer_addr = network_.topology().node(peer).address;
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("path_delay");
  return schedule(
      "path_delay", name, temporal,
      [this, node, peer_addr, delay, handle, port, &ks] {
        *handle = network_.add_filter(
            net::FilterScope{node, std::nullopt},
            [delay, peer_addr, port, &ks](net::NodeId, net::Direction,
                                          net::Packet& packet) {
              if (!is_experiment_packet(packet, port)) {
                return net::FilterVerdict::pass();
              }
              if (packet.src != peer_addr && packet.dst != peer_addr) {
                return net::FilterVerdict::pass();
              }
              count_one(ks.packets_delayed);
              return net::FilterVerdict::delayed(delay);
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

Result<FaultHandle> FaultInjector::drop_all_packets(
    const TemporalSpec& temporal) {
  EXC_TRY(validate(temporal));
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("drop_all");
  return schedule(
      "drop_all", "", temporal,
      [this, handle, port, &ks] {
        // Scope: every node, both directions — including forwarding, since
        // transmit filters run on relays too.
        *handle = network_.add_filter(
            net::FilterScope{std::nullopt, std::nullopt},
            [port, &ks](net::NodeId, net::Direction, net::Packet& packet) {
              if (!is_experiment_packet(packet, port)) {
                return net::FilterVerdict::pass();
              }
              count_one(ks.packets_dropped);
              return net::FilterVerdict::drop("fault:drop_all");
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

Result<FaultHandle> FaultInjector::ge_loss(net::NodeId node,
                                           const GilbertElliott& model,
                                           FaultDirection dir,
                                           const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("ge_loss: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate_ge(model));
  EXC_TRY(validate(temporal));
  FaultDirection resolved = resolve_direction(dir, temporal.randomseed);
  std::string name = network_.topology().node(node).name;
  // The loss stream uses the exact derivation of message_loss so that a
  // chain pinned to the good state (p_enter_bad == 0) reproduces the
  // Bernoulli drop sequence bit for bit; state transitions draw from their
  // own stream and never advance the loss stream.
  auto loss_rng = std::make_shared<Pcg32>(
      RngFactory(temporal.randomseed ^ fnv1a64(name)).stream("message-loss"));
  auto state_rng = std::make_shared<Pcg32>(
      RngFactory(temporal.randomseed ^ fnv1a64(name)).stream("ge-state"));
  auto in_bad = std::make_shared<bool>(false);
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("ge_loss");
  return schedule(
      "ge_loss", name, temporal,
      [this, node, resolved, model, loss_rng, state_rng, in_bad, handle, port,
       &ks] {
        std::optional<net::Direction> scope_dir;
        if (resolved == FaultDirection::kReceive) {
          scope_dir = net::Direction::kReceive;
        } else if (resolved == FaultDirection::kTransmit) {
          scope_dir = net::Direction::kTransmit;
        }
        *in_bad = false;  // each activation starts in the good state
        *handle = network_.add_filter(
            net::FilterScope{node, scope_dir},
            [model, loss_rng, state_rng, in_bad, port, &ks](
                net::NodeId, net::Direction, net::Packet& packet) {
              if (!is_experiment_packet(packet, port)) {
                return net::FilterVerdict::pass();
              }
              const double p = *in_bad ? model.loss_bad : model.loss_good;
              const bool drop = loss_rng->bernoulli(p);
              // Transition after the loss draw.
              if (*in_bad) {
                if (state_rng->bernoulli(model.p_exit_bad)) *in_bad = false;
              } else if (state_rng->bernoulli(model.p_enter_bad)) {
                *in_bad = true;
              }
              if (drop) {
                count_one(ks.packets_dropped);
                return net::FilterVerdict::drop("fault:ge_loss");
              }
              return net::FilterVerdict::pass();
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

Result<FaultHandle> FaultInjector::ge_path_loss(net::NodeId node,
                                                net::NodeId peer,
                                                const GilbertElliott& model,
                                                const TemporalSpec& temporal) {
  if (node >= network_.node_count() || peer >= network_.node_count()) {
    return err_invalid("ge_path_loss: unknown node");
  }
  EXC_TRY(validate_ge(model));
  EXC_TRY(validate(temporal));
  std::string name = network_.topology().node(node).name;
  net::Address peer_addr = network_.topology().node(peer).address;
  auto loss_rng = std::make_shared<Pcg32>(
      RngFactory(temporal.randomseed ^ fnv1a64(name)).stream("path-loss"));
  auto state_rng = std::make_shared<Pcg32>(
      RngFactory(temporal.randomseed ^ fnv1a64(name)).stream("ge-state"));
  auto in_bad = std::make_shared<bool>(false);
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("ge_path_loss");
  return schedule(
      "ge_path_loss", name, temporal,
      [this, node, peer_addr, model, loss_rng, state_rng, in_bad, handle,
       port, &ks] {
        *in_bad = false;
        *handle = network_.add_filter(
            net::FilterScope{node, std::nullopt},
            [model, loss_rng, state_rng, in_bad, peer_addr, port, &ks](
                net::NodeId, net::Direction, net::Packet& packet) {
              if (!is_experiment_packet(packet, port)) {
                return net::FilterVerdict::pass();
              }
              if (packet.src != peer_addr && packet.dst != peer_addr) {
                return net::FilterVerdict::pass();
              }
              const double p = *in_bad ? model.loss_bad : model.loss_good;
              const bool drop = loss_rng->bernoulli(p);
              if (*in_bad) {
                if (state_rng->bernoulli(model.p_exit_bad)) *in_bad = false;
              } else if (state_rng->bernoulli(model.p_enter_bad)) {
                *in_bad = true;
              }
              if (drop) {
                count_one(ks.packets_dropped);
                return net::FilterVerdict::drop("fault:ge_path_loss");
              }
              return net::FilterVerdict::pass();
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

Result<FaultHandle> FaultInjector::message_duplicate(
    net::NodeId node, double probability, int copies, sim::SimDuration gap,
    const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("message_duplicate: unknown node " +
                       std::to_string(node));
  }
  if (probability < 0.0 || probability > 1.0) {
    return err_invalid("message_duplicate: probability out of [0,1]");
  }
  if (copies < 1) {
    return err_invalid("message_duplicate: copies must be >= 1");
  }
  EXC_TRY(validate(temporal));
  std::string name = network_.topology().node(node).name;
  auto rng = std::make_shared<Pcg32>(
      RngFactory(temporal.randomseed ^ fnv1a64(name))
          .stream("message-duplicate"));
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("message_duplicate");
  return schedule(
      "message_duplicate", name, temporal,
      [this, node, probability, copies, gap, rng, handle, port, &ks] {
        // Transmit scope: duplication is an origin-side fault; the network
        // honours duplicate verdicts only on the first transmission, and
        // the origin check keeps relay traversals from consuming draws.
        *handle = network_.add_filter(
            net::FilterScope{node, net::Direction::kTransmit},
            [rng, probability, copies, gap, port, &ks](
                net::NodeId, net::Direction, net::Packet& packet) {
              if (!is_experiment_packet(packet, port) || !at_origin(packet)) {
                return net::FilterVerdict::pass();
              }
              if (rng->bernoulli(probability)) {
                ks.packets_duplicated += static_cast<std::uint64_t>(copies);
                return net::FilterVerdict::duplicated(copies, gap);
              }
              return net::FilterVerdict::pass();
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

Result<FaultHandle> FaultInjector::message_reorder(
    net::NodeId node, double probability, sim::SimDuration max_extra,
    const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("message_reorder: unknown node " +
                       std::to_string(node));
  }
  if (probability < 0.0 || probability > 1.0) {
    return err_invalid("message_reorder: probability out of [0,1]");
  }
  if (max_extra.nanos() <= 0) {
    return err_invalid("message_reorder: max_extra must be positive");
  }
  EXC_TRY(validate(temporal));
  std::string name = network_.topology().node(node).name;
  auto rng = std::make_shared<Pcg32>(
      RngFactory(temporal.randomseed ^ fnv1a64(name))
          .stream("message-reorder"));
  auto handle = std::make_shared<net::FilterHandle>();
  net::Port port = experiment_port_;
  FaultKindStats& ks = stats_for("message_reorder");
  return schedule(
      "message_reorder", name, temporal,
      [this, node, probability, max_extra, rng, handle, port, &ks] {
        // Holding back a fraction of originated sends by a random extra
        // delay lets later packets overtake them — reordering without a
        // dedicated queue.
        *handle = network_.add_filter(
            net::FilterScope{node, net::Direction::kTransmit},
            [rng, probability, max_extra, port, &ks](
                net::NodeId, net::Direction, net::Packet& packet) {
              if (!is_experiment_packet(packet, port) || !at_origin(packet)) {
                return net::FilterVerdict::pass();
              }
              if (rng->bernoulli(probability)) {
                count_one(ks.packets_reordered);
                return net::FilterVerdict::delayed(sim::SimDuration(
                    rng->uniform_int(1, max_extra.nanos())));
              }
              return net::FilterVerdict::pass();
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

void FaultInjector::reset() {
  for (const FaultHandle& fault : registered_) fault->stop();
  registered_.clear();
}

std::size_t FaultInjector::active_count() const {
  std::size_t count = 0;
  for (const FaultHandle& fault : registered_) {
    if (fault->active()) ++count;
  }
  return count;
}

}  // namespace excovery::faults
