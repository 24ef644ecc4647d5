#include "faults/injector.hpp"

#include <algorithm>
#include <memory>
#include <utility>

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

Status validate(const ChurnSpec& spec) {
  if (spec.mean_uptime.nanos() <= 0 || spec.mean_downtime.nanos() <= 0) {
    return err_invalid("churn holding times must be positive");
  }
  return {};
}

namespace {

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

/// The one direction a fault acts on, or nullopt for both; kRandom
/// resolves to rx or tx by the temporal randomseed.
std::optional<net::Direction> resolve_direction(FaultDirection dir,
                                                std::uint64_t seed) {
  if (dir == FaultDirection::kRandom) {
    std::uint64_t state = seed ^ 0xD1CEu;
    return (splitmix64(state) & 1) ? net::Direction::kReceive
                                   : net::Direction::kTransmit;
  }
  if (dir == FaultDirection::kReceive) return net::Direction::kReceive;
  if (dir == FaultDirection::kTransmit) return net::Direction::kTransmit;
  return std::nullopt;
}

/// Bring a node's interfaces up or down: one direction, or both.
void set_interfaces(net::Network& network, net::NodeId node,
                    std::optional<net::Direction> only, bool up) {
  for (net::Direction dir :
       {net::Direction::kReceive, net::Direction::kTransmit}) {
    if (!only || *only == dir) network.set_interface_up(node, dir, up);
  }
}

/// A fault's deterministic substream, keyed by its randomseed and the
/// node (or link) it acts on.
Pcg32 fault_stream(const TemporalSpec& temporal, const std::string& key,
                   std::string_view stream) {
  return RngFactory(temporal.randomseed ^ fnv1a64(key)).stream(stream);
}

sim::SimDuration draw_holding(Pcg32& rng, const ChurnSpec& spec, bool down) {
  const sim::SimDuration mean = down ? spec.mean_downtime : spec.mean_uptime;
  if (!spec.exponential) return mean;
  const double mean_s = static_cast<double>(mean.nanos()) / 1e9;
  return sim::SimDuration::from_seconds(rng.exponential(1.0 / mean_s));
}

// ---- packet rules: one fault's decision for an experiment packet -----------

/// Drop with a fixed probability.
struct BernoulliDrop {
  Pcg32 rng;
  double probability;
  const char* cause;

  net::FilterVerdict operator()(net::Packet&, FaultKindStats& stats) {
    if (!rng.bernoulli(probability)) return net::FilterVerdict::pass();
    ++stats.packets_dropped;
    return net::FilterVerdict::drop(cause);
  }
};

/// Gilbert–Elliott drop.  The loss stream uses the exact derivation of the
/// Bernoulli fault, so a chain pinned to the good state (p_enter_bad == 0)
/// reproduces its drop sequence bit for bit; state transitions draw from
/// their own stream and never advance the loss stream.
struct GilbertElliottDrop {
  GilbertElliott model;
  Pcg32 loss_rng;
  Pcg32 state_rng;
  const char* cause;
  bool in_bad = false;  ///< the chain starts in the good state

  net::FilterVerdict operator()(net::Packet&, FaultKindStats& stats) {
    const bool drop =
        loss_rng.bernoulli(in_bad ? model.loss_bad : model.loss_good);
    // Transition after the loss draw.
    in_bad = in_bad ? !state_rng.bernoulli(model.p_exit_bad)
                    : state_rng.bernoulli(model.p_enter_bad);
    if (!drop) return net::FilterVerdict::pass();
    ++stats.packets_dropped;
    return net::FilterVerdict::drop(cause);
  }
};

/// Constant extra delay.
struct FixedDelay {
  sim::SimDuration delay;

  net::FilterVerdict operator()(net::Packet&, FaultKindStats& stats) const {
    ++stats.packets_delayed;
    return net::FilterVerdict::delayed(delay);
  }
};

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

FaultHandle FaultInjector::schedule(std::string kind,
                                    const std::string& node_name,
                                    const TemporalSpec& temporal,
                                    std::function<void()> activate,
                                    std::function<void()> deactivate) {
  std::string start_event = "fault_" + kind + "_start";
  std::string stop_event = "fault_" + kind + "_stop";
  FaultKindStats& stats = kind_stats_[kind];
  auto fault = std::make_shared<GenericFault>(
      std::move(kind),
      [this, node_name, start_event, &stats, activate = std::move(activate)] {
        activate();
        ++stats.activations;
        emit(node_name, start_event, Value{});
      },
      [this, node_name, stop_event, &stats,
       deactivate = std::move(deactivate)] {
        deactivate();
        ++stats.deactivations;
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

template <typename Rule>
FaultHandle FaultInjector::packet_fault(std::string kind,
                                        const std::string& node_name,
                                        net::FilterScope scope,
                                        std::optional<net::Address> peer,
                                        const TemporalSpec& temporal,
                                        Rule rule) {
  auto handle = std::make_shared<net::FilterHandle>();
  FaultKindStats& stats = kind_stats_[kind];
  const net::Port port = experiment_port_;
  // A fault activates at most once, so the filter takes the rule's state
  // by value; the rule is inlined into the one filter call per packet.
  return schedule(
      std::move(kind), node_name, temporal,
      [this, handle, scope, peer, port, &stats,
       rule = std::move(rule)]() mutable {
        *handle = network_.add_filter(
            scope, [peer, port, &stats, rule = std::move(rule)](
                       net::NodeId, net::Direction,
                       net::Packet& packet) mutable {
              if (!is_experiment_packet(packet, port)) {
                return net::FilterVerdict::pass();
              }
              if (peer && packet.src != *peer && packet.dst != *peer) {
                return net::FilterVerdict::pass();
              }
              return rule(packet, stats);
            });
      },
      [this, handle] { network_.remove_filter(*handle); });
}

FaultHandle FaultInjector::alternation(std::string kind,
                                       const std::string& node_name,
                                       const ChurnSpec& spec,
                                       const TemporalSpec& temporal, Pcg32 rng,
                                       std::function<void(bool)> set_down,
                                       const char* down_event,
                                       const char* up_event) {
  struct Loop {
    Pcg32 rng;
    std::function<void(bool)> set_down;
    bool running = false;
    bool down = false;
  };
  auto loop = std::make_shared<Loop>(Loop{rng, std::move(set_down)});
  sim::Scheduler& scheduler = network_.scheduler();
  auto flip = [this, loop, node_name, down_event, up_event] {
    loop->down = !loop->down;
    loop->set_down(loop->down);
    emit(node_name, loop->down ? down_event : up_event, Value{});
  };

  // Each step flips the target and schedules the next transition.
  // Recursion through a shared function object keeps one allocation per
  // process, not per transition.  The loop and its timers hold the
  // function object weakly — the only strong reference is the activation
  // closure the injector keeps while the fault is registered, so removing
  // the fault releases the loop instead of cycling on itself; timers that
  // outlive it fire as no-ops.
  auto step = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_step = step;
  auto fire = [weak_step] {
    if (auto locked = weak_step.lock()) (*locked)();
  };
  *step = [loop, spec, flip, fire, &scheduler] {
    if (!loop->running) return;
    flip();
    scheduler.schedule(draw_holding(loop->rng, spec, loop->down), fire);
  };

  return schedule(
      std::move(kind), node_name, temporal,
      [loop, spec, step, fire, &scheduler] {
        loop->running = true;
        scheduler.schedule(draw_holding(loop->rng, spec, false), fire);
      },
      [loop, flip] {
        loop->running = false;
        if (loop->down) flip();
      });
}

void FaultInjector::set_node_down(net::NodeId node, const std::string& name,
                                  bool down) {
  if (const LifecycleHook& hook = down ? crash_ : restore_) {
    hook(name);
    return;
  }
  set_interfaces(network_, node, std::nullopt, !down);
}

Result<FaultHandle> FaultInjector::interface_fault(
    net::NodeId node, FaultDirection dir, const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("interface_fault: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate(temporal));
  std::optional<net::Direction> only =
      resolve_direction(dir, temporal.randomseed);
  std::string name = network_.topology().node(node).name;
  return schedule(
      "interface", name, temporal,
      [this, node, only] { set_interfaces(network_, node, only, false); },
      [this, node, only] { set_interfaces(network_, node, only, true); });
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
  std::string name = network_.topology().node(node).name;
  return packet_fault(
      "message_loss", name,
      net::FilterScope{node, resolve_direction(dir, temporal.randomseed)},
      std::nullopt, temporal,
      BernoulliDrop{fault_stream(temporal, name, "message-loss"), probability,
                    "fault:message_loss"});
}

Result<FaultHandle> FaultInjector::message_delay(net::NodeId node,
                                                 sim::SimDuration delay,
                                                 const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("message_delay: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate(temporal));
  return packet_fault("message_delay", network_.topology().node(node).name,
                      net::FilterScope{node, std::nullopt}, std::nullopt,
                      temporal, FixedDelay{delay});
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
  return packet_fault(
      "path_loss", name, net::FilterScope{node, std::nullopt},
      network_.topology().node(peer).address, temporal,
      BernoulliDrop{fault_stream(temporal, name, "path-loss"), probability,
                    "fault:path_loss"});
}

Result<FaultHandle> FaultInjector::path_delay(net::NodeId node,
                                              net::NodeId peer,
                                              sim::SimDuration delay,
                                              const TemporalSpec& temporal) {
  if (node >= network_.node_count() || peer >= network_.node_count()) {
    return err_invalid("path_delay: unknown node");
  }
  EXC_TRY(validate(temporal));
  return packet_fault("path_delay", network_.topology().node(node).name,
                      net::FilterScope{node, std::nullopt},
                      network_.topology().node(peer).address, temporal,
                      FixedDelay{delay});
}

Result<FaultHandle> FaultInjector::drop_all_packets(
    const TemporalSpec& temporal) {
  EXC_TRY(validate(temporal));
  // Scope: every node, both directions — including forwarding, since
  // transmit filters run on relays too.
  return packet_fault(
      "drop_all", "", net::FilterScope{std::nullopt, std::nullopt},
      std::nullopt, temporal, [](net::Packet&, FaultKindStats& stats) {
        ++stats.packets_dropped;
        return net::FilterVerdict::drop("fault:drop_all");
      });
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
  std::string name = network_.topology().node(node).name;
  return packet_fault(
      "ge_loss", name,
      net::FilterScope{node, resolve_direction(dir, temporal.randomseed)},
      std::nullopt, temporal,
      GilbertElliottDrop{model, fault_stream(temporal, name, "message-loss"),
                         fault_stream(temporal, name, "ge-state"),
                         "fault:ge_loss"});
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
  return packet_fault(
      "ge_path_loss", name, net::FilterScope{node, std::nullopt},
      network_.topology().node(peer).address, temporal,
      GilbertElliottDrop{model, fault_stream(temporal, name, "path-loss"),
                         fault_stream(temporal, name, "ge-state"),
                         "fault:ge_path_loss"});
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
  // Transmit scope: duplication is an origin-side fault; the network
  // honours duplicate verdicts only on the first transmission, and the
  // origin check keeps relay traversals from consuming draws.
  return packet_fault(
      "message_duplicate", name,
      net::FilterScope{node, net::Direction::kTransmit}, std::nullopt,
      temporal,
      [rng = fault_stream(temporal, name, "message-duplicate"), probability,
       copies, gap](net::Packet& packet, FaultKindStats& stats) mutable {
        if (!at_origin(packet) || !rng.bernoulli(probability)) {
          return net::FilterVerdict::pass();
        }
        stats.packets_duplicated += static_cast<std::uint64_t>(copies);
        return net::FilterVerdict::duplicated(copies, gap);
      });
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
  // Holding back a fraction of originated sends by a random extra delay
  // lets later packets overtake them — reordering without a dedicated
  // queue.
  return packet_fault(
      "message_reorder", name,
      net::FilterScope{node, net::Direction::kTransmit}, std::nullopt,
      temporal,
      [rng = fault_stream(temporal, name, "message-reorder"), probability,
       max_extra](net::Packet& packet, FaultKindStats& stats) mutable {
        if (!at_origin(packet) || !rng.bernoulli(probability)) {
          return net::FilterVerdict::pass();
        }
        ++stats.packets_reordered;
        return net::FilterVerdict::delayed(
            sim::SimDuration(rng.uniform_int(1, max_extra.nanos())));
      });
}

Result<FaultHandle> FaultInjector::node_crash(net::NodeId node,
                                              const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("node_crash: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate(temporal));
  std::string name = network_.topology().node(node).name;
  return schedule(
      "node_crash", name, temporal,
      [this, node, name] { set_node_down(node, name, true); },
      [this, node, name] { set_node_down(node, name, false); });
}

Result<FaultHandle> FaultInjector::node_churn(net::NodeId node,
                                              const ChurnSpec& spec,
                                              const TemporalSpec& temporal) {
  if (node >= network_.node_count()) {
    return err_invalid("node_churn: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate(spec));
  EXC_TRY(validate(temporal));
  std::string name = network_.topology().node(node).name;
  return alternation(
      "node_churn", name, spec, temporal, fault_stream(temporal, name, "churn"),
      [this, node, name](bool down) { set_node_down(node, name, down); },
      "fault_node_down", "fault_node_up");
}

Result<FaultHandle> FaultInjector::link_flap(net::NodeId a, net::NodeId b,
                                             const ChurnSpec& spec,
                                             const TemporalSpec& temporal) {
  if (a >= network_.node_count() || b >= network_.node_count()) {
    return err_invalid("link_flap: unknown node");
  }
  EXC_TRY(validate(spec));
  EXC_TRY(validate(temporal));
  // Validate adjacency up front so a schedule over a non-existent link
  // fails at start time, not mid-run.
  if (network_.topology().link_between(a, b) == nullptr) {
    return err_not_found("link_flap: no link between nodes " +
                         std::to_string(a) + " and " + std::to_string(b));
  }
  std::string name = network_.topology().node(a).name;
  std::string link_name = name + "-" + network_.topology().node(b).name;
  return alternation(
      "link_flap", name, spec, temporal,
      fault_stream(temporal, link_name, "link-flap"),
      [this, a, b](bool down) { (void)network_.set_link_up(a, b, !down); },
      "fault_link_down", "fault_link_up");
}

Result<FaultHandle> FaultInjector::partition(
    const std::vector<net::NodeId>& side, const TemporalSpec& temporal) {
  if (side.empty()) {
    return err_invalid("partition: side must name at least one node");
  }
  for (net::NodeId node : side) {
    if (node >= network_.node_count()) {
      return err_invalid("partition: unknown node " + std::to_string(node));
    }
  }
  EXC_TRY(validate(temporal));
  std::vector<bool> in_side(network_.node_count(), false);
  for (net::NodeId node : side) in_side[node] = true;
  // Crossing links: exactly one endpoint inside the named side.
  auto crossing =
      std::make_shared<std::vector<std::pair<net::NodeId, net::NodeId>>>();
  for (const net::Link& link : network_.topology().links()) {
    if (in_side[link.a] != in_side[link.b]) {
      crossing->emplace_back(link.a, link.b);
    }
  }
  return schedule(
      "partition", "", temporal,
      [this, crossing] { (void)network_.set_links_up(*crossing, false); },
      [this, crossing] { (void)network_.set_links_up(*crossing, true); });
}

void FaultInjector::reset() {
  for (const FaultHandle& fault : registered_) fault->stop();
  registered_.clear();
  // Counters restart per attempt; the entries stay, since installed
  // filters hold references to them.
  for (auto& [kind, stats] : kind_stats_) stats = FaultKindStats{};
}

std::size_t FaultInjector::active_count() const {
  std::size_t count = 0;
  for (const FaultHandle& fault : registered_) {
    if (fault->active()) ++count;
  }
  return count;
}

}  // namespace excovery::faults
