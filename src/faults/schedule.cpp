#include "faults/schedule.hpp"

#include <memory>
#include <utility>

namespace excovery::faults {

Status validate(const ChurnSpec& spec) {
  if (spec.mean_uptime.nanos() <= 0 || spec.mean_downtime.nanos() <= 0) {
    return err_invalid("churn holding times must be positive");
  }
  return {};
}

namespace {

/// Shared state of one alternating up/down process.  Scheduled callbacks
/// hold the state by shared_ptr and check `running` first, so timers left
/// behind by a process stopped mid-run fire as no-ops.
struct FlapState {
  bool running = false;
  bool down = false;
  Pcg32 rng;
};

sim::SimDuration draw_holding(FlapState& state, const ChurnSpec& spec,
                              sim::SimDuration mean) {
  if (!spec.exponential) return mean;
  const double mean_s = static_cast<double>(mean.nanos()) / 1e9;
  return sim::SimDuration::from_seconds(state.rng.exponential(1.0 / mean_s));
}

}  // namespace

void FaultScheduleEngine::crash_node(net::NodeId node,
                                     const std::string& name) {
  if (crash_) {
    crash_(name);
    return;
  }
  injector_.network_.set_interface_up(node, net::Direction::kReceive, false);
  injector_.network_.set_interface_up(node, net::Direction::kTransmit, false);
}

void FaultScheduleEngine::restore_node(net::NodeId node,
                                       const std::string& name) {
  if (restore_) {
    restore_(name);
    return;
  }
  injector_.network_.set_interface_up(node, net::Direction::kReceive, true);
  injector_.network_.set_interface_up(node, net::Direction::kTransmit, true);
}

Result<FaultHandle> FaultScheduleEngine::node_crash(
    net::NodeId node, const TemporalSpec& temporal) {
  net::Network& network = injector_.network_;
  if (node >= network.node_count()) {
    return err_invalid("node_crash: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate(temporal));
  std::string name = network.topology().node(node).name;
  return injector_.schedule(
      "node_crash", name, temporal,
      [this, node, name] { crash_node(node, name); },
      [this, node, name] { restore_node(node, name); });
}

Result<FaultHandle> FaultScheduleEngine::node_churn(
    net::NodeId node, const ChurnSpec& spec, const TemporalSpec& temporal) {
  net::Network& network = injector_.network_;
  if (node >= network.node_count()) {
    return err_invalid("node_churn: unknown node " + std::to_string(node));
  }
  EXC_TRY(validate(spec));
  EXC_TRY(validate(temporal));
  std::string name = network.topology().node(node).name;
  auto state = std::make_shared<FlapState>();
  sim::Scheduler& scheduler = network.scheduler();

  // Alternating loop: each callback flips the node and schedules the next
  // transition.  Recursion through a shared function object keeps one
  // allocation per process, not per transition.  The loop and its timers
  // hold the function object weakly — the only strong reference is the
  // activation closure the injector keeps while the fault is registered,
  // so removing the fault releases the loop instead of cycling on itself;
  // timers that outlive it fire as no-ops.
  auto step = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_step = step;
  auto fire = [weak_step] {
    if (auto locked = weak_step.lock()) (*locked)();
  };
  *step = [this, node, name, spec, state, fire, &scheduler] {
    if (!state->running) return;
    if (!state->down) {
      state->down = true;
      crash_node(node, name);
      injector_.emit(name, "fault_node_down", Value{});
      scheduler.schedule(draw_holding(*state, spec, spec.mean_downtime),
                         fire);
    } else {
      state->down = false;
      restore_node(node, name);
      injector_.emit(name, "fault_node_up", Value{});
      scheduler.schedule(draw_holding(*state, spec, spec.mean_uptime), fire);
    }
  };

  return injector_.schedule(
      "node_churn", name, temporal,
      [spec, state, step, fire, name, &scheduler, temporal] {
        state->running = true;
        state->down = false;
        state->rng = RngFactory(temporal.randomseed ^ fnv1a64(name))
                         .stream("churn");
        scheduler.schedule(draw_holding(*state, spec, spec.mean_uptime),
                           fire);
      },
      [this, node, name, state] {
        state->running = false;
        if (state->down) {
          state->down = false;
          restore_node(node, name);
          injector_.emit(name, "fault_node_up", Value{});
        }
      });
}

Result<FaultHandle> FaultScheduleEngine::link_flap(
    net::NodeId a, net::NodeId b, const ChurnSpec& spec,
    const TemporalSpec& temporal) {
  net::Network& network = injector_.network_;
  if (a >= network.node_count() || b >= network.node_count()) {
    return err_invalid("link_flap: unknown node");
  }
  EXC_TRY(validate(spec));
  EXC_TRY(validate(temporal));
  // Validate adjacency up front so a schedule over a non-existent link
  // fails at start time, not mid-run.
  if (network.topology().link_between(a, b) == nullptr) {
    return err_not_found("link_flap: no link between nodes " +
                         std::to_string(a) + " and " + std::to_string(b));
  }
  std::string name = network.topology().node(a).name;
  auto state = std::make_shared<FlapState>();
  sim::Scheduler& scheduler = network.scheduler();

  // Same weak-loop ownership as node_churn: only the activation closure
  // holds the function object strongly.
  auto step = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_step = step;
  auto fire = [weak_step] {
    if (auto locked = weak_step.lock()) (*locked)();
  };
  *step = [this, a, b, name, spec, state, fire, &scheduler] {
    if (!state->running) return;
    net::Network& net_ref = injector_.network_;
    if (!state->down) {
      state->down = true;
      (void)net_ref.set_link_up(a, b, false);
      injector_.emit(name, "fault_link_down", Value{});
      scheduler.schedule(draw_holding(*state, spec, spec.mean_downtime),
                         fire);
    } else {
      state->down = false;
      (void)net_ref.set_link_up(a, b, true);
      injector_.emit(name, "fault_link_up", Value{});
      scheduler.schedule(draw_holding(*state, spec, spec.mean_uptime), fire);
    }
  };

  std::string link_name = name + "-" +
                          network.topology().node(b).name;
  return injector_.schedule(
      "link_flap", name, temporal,
      [spec, state, step, fire, name, link_name, temporal, &scheduler] {
        state->running = true;
        state->down = false;
        state->rng = RngFactory(temporal.randomseed ^ fnv1a64(link_name))
                         .stream("link-flap");
        scheduler.schedule(draw_holding(*state, spec, spec.mean_uptime),
                           fire);
      },
      [this, a, b, name, state] {
        state->running = false;
        if (state->down) {
          state->down = false;
          (void)injector_.network_.set_link_up(a, b, true);
          injector_.emit(name, "fault_link_up", Value{});
        }
      });
}

Result<FaultHandle> FaultScheduleEngine::partition(
    const std::vector<net::NodeId>& side, const TemporalSpec& temporal) {
  net::Network& network = injector_.network_;
  if (side.empty()) {
    return err_invalid("partition: side must name at least one node");
  }
  for (net::NodeId node : side) {
    if (node >= network.node_count()) {
      return err_invalid("partition: unknown node " + std::to_string(node));
    }
  }
  EXC_TRY(validate(temporal));
  std::vector<bool> in_side(network.node_count(), false);
  for (net::NodeId node : side) in_side[node] = true;
  // Crossing links: exactly one endpoint inside the named side.
  auto crossing =
      std::make_shared<std::vector<std::pair<net::NodeId, net::NodeId>>>();
  for (const net::Link& link : network.topology().links()) {
    if (in_side[link.a] != in_side[link.b]) {
      crossing->emplace_back(link.a, link.b);
    }
  }
  return injector_.schedule(
      "partition", "", temporal,
      [this, crossing] {
        (void)injector_.network_.set_links_up(*crossing, false);
      },
      [this, crossing] {
        (void)injector_.network_.set_links_up(*crossing, true);
      });
}

}  // namespace excovery::faults
