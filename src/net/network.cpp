#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace excovery::net {

/// The hops co-own the record through an intrusive, non-atomic count (a
/// platform's network runs on one thread).  It lives on the heap, not in a
/// pool of the Network: SimPlatform destroys the network before the
/// scheduler, so queued hops are destroyed after the network is gone.
struct Network::FloodFanout {
  Packet packet;
  std::uint32_t refs = 0;
};

/// 8 bytes with a noexcept move, so a flood hop closure {this, from, to,
/// ref} stays inline in the scheduler's InlineCallback.
class Network::FanoutRef {
 public:
  explicit FanoutRef(FloodFanout* fanout) noexcept : fanout_(fanout) {
    ++fanout_->refs;
  }
  FanoutRef(FanoutRef&& other) noexcept
      : fanout_(std::exchange(other.fanout_, nullptr)) {}
  FanoutRef(const FanoutRef&) = delete;
  FanoutRef& operator=(const FanoutRef&) = delete;
  FanoutRef& operator=(FanoutRef&&) = delete;
  ~FanoutRef() {
    if (fanout_ != nullptr && --fanout_->refs == 0) delete fanout_;
  }
  FloodFanout& operator*() const noexcept { return *fanout_; }

 private:
  FloodFanout* fanout_;
};

Network::Network(sim::Scheduler& scheduler, Topology topology,
                 std::uint64_t seed)
    : scheduler_(scheduler),
      topology_(std::move(topology)),
      routing_(topology_),
      loss_rng_(RngFactory(seed).stream("net-loss")),
      jitter_rng_(RngFactory(seed).stream("net-jitter")) {
  const std::size_t n = topology_.node_count();
  nodes_.resize(n);
  // CSR adjacency in link-declaration order per node (counting sort over
  // the link list preserves the order the per-node vectors used to have).
  adj_offset_.assign(n + 1, 0);
  for (const Link& link : topology_.links()) {
    adj_offset_[link.a + 1]++;
    adj_offset_[link.b + 1]++;
  }
  for (std::size_t i = 0; i < n; ++i) adj_offset_[i + 1] += adj_offset_[i];
  adj_neighbour_.assign(adj_offset_[n], kInvalidNode);
  adj_model_.assign(adj_offset_[n], nullptr);
  std::vector<std::uint32_t> cursor(adj_offset_.begin(),
                                    adj_offset_.end() - 1);
  for (const Link& link : topology_.links()) {
    adj_neighbour_[cursor[link.a]] = link.b;
    adj_model_[cursor[link.a]++] = &link.model;
    adj_neighbour_[cursor[link.b]] = link.a;
    adj_model_[cursor[link.b]++] = &link.model;
  }
}

const LinkModel* Network::find_link(NodeId from, NodeId to) const noexcept {
  for (std::uint32_t i = adj_offset_[from]; i < adj_offset_[from + 1]; ++i) {
    if (adj_neighbour_[i] == to) return adj_model_[i];
  }
  return nullptr;
}

void Network::bind(NodeId node, Port port, PacketHandler handler) {
  nodes_.at(node).handlers[port] = std::move(handler);
}

void Network::unbind(NodeId node, Port port) {
  nodes_.at(node).handlers.erase(port);
}

void Network::join_group(NodeId node, Address group) {
  nodes_.at(node).groups.insert(group);
}

void Network::leave_group(NodeId node, Address group) {
  nodes_.at(node).groups.erase(group);
}

Result<std::uint64_t> Network::send(NodeId from, Packet packet) {
  if (from >= nodes_.size()) {
    return err_invalid("send from unknown node " + std::to_string(from));
  }
  NodeState& sender = nodes_[from];
  if (packet.src.is_unspecified()) {
    packet.src = topology_.node(from).address;
  } else if (packet.src != topology_.node(from).address) {
    return err_invalid("source address " + packet.src.to_string() +
                       " does not belong to node '" +
                       topology_.node(from).name + "'");
  }

  packet.uid = next_uid_++;
  packet.tag = sender.next_tag++;  // wraps at 65535, like the 16-bit tagger
  if (sender.next_tag == 0) sender.next_tag = 1;
  packet.route.clear();
  packet.route.push_back(from);

  stats_.sent++;
  stats_.bytes_sent += packet.wire_size();
  const std::uint64_t lin_send = lin_record(
      sim::LineageKind::kSend, lin_ambient(), packet.uid, from, from,
      lin_labels_.send);

  // Transmit-side interface state.
  if (!sender.tx_up) {
    stats_.dropped_interface++;
    lin_record(sim::LineageKind::kDrop, lin_send, packet.uid, from, from,
               lin_labels_.tx_down);
    return packet.uid;
  }
  // Transmit-side filters (may delay, drop, or duplicate the whole send).
  FilterOutcome tx = apply_filters(from, Direction::kTransmit, packet);
  if (tx.drop) {
    stats_.dropped_filter++;
    lin_record_cause(sim::LineageKind::kDrop, lin_send, packet.uid, from,
                     from, tx.drop_cause);
    return packet.uid;
  }
  capture(from, Direction::kTransmit, packet);
  // Everything launched below — duplicate copies, the (possibly delayed)
  // flood / unicast forwarding — descends from this send.
  sim::LineageScope lin_scope(scheduler_, lin_send);
  if (tx.duplicates > 0) {
    launch_duplicates(from, packet, tx.duplicates, tx.duplicate_gap, tx.delay);
  }

  std::uint64_t uid = packet.uid;
  auto launch = [this, from, packet = std::move(packet)]() mutable {
    if (packet.dst.is_multicast() || packet.dst.is_broadcast()) {
      // The sender is also a member of groups it joined (loopback delivery,
      // as real multicast sockets do with IP_MULTICAST_LOOP).
      NodeState& s = nodes_[from];
      s.seen_uids.insert(packet.uid);
      if (packet.dst.is_broadcast() ||
          s.groups.count(packet.dst) != 0) {
        deliver_local(from, packet);
      }
      flood(from, std::move(packet));
    } else {
      forward_unicast(from, std::move(packet));
    }
  };
  if (tx.delay.nanos() > 0) {
    scheduler_.schedule(tx.delay, std::move(launch));
  } else {
    launch();
  }
  return uid;
}

void Network::launch_duplicates(NodeId from, const Packet& packet, int copies,
                                sim::SimDuration gap,
                                sim::SimDuration initial_delay) {
  // Each copy re-enters the data plane as its own transmission — fresh uid
  // and tag, its own capture record — but skips the filter chain so a
  // duplication filter cannot amplify its own copies.
  for (int i = 1; i <= copies; ++i) {
    sim::SimDuration at = initial_delay;
    for (int g = 0; g < i; ++g) at += gap;
    scheduler_.schedule(at, [this, from, copy = packet]() mutable {
      NodeState& sender = nodes_[from];
      copy.uid = next_uid_++;
      copy.tag = sender.next_tag++;
      if (sender.next_tag == 0) sender.next_tag = 1;
      copy.route.clear();
      copy.route.push_back(from);
      stats_.sent++;
      stats_.duplicated++;
      stats_.bytes_sent += copy.wire_size();
      // The ambient context here is the original send (captured when the
      // copy was scheduled), so injected copies link to their cause.
      const std::uint64_t lin_copy = lin_record(
          sim::LineageKind::kSend, lin_ambient(), copy.uid, from, from,
          lin_labels_.duplicate);
      if (!sender.tx_up) {
        stats_.dropped_interface++;
        lin_record(sim::LineageKind::kDrop, lin_copy, copy.uid, from, from,
                   lin_labels_.tx_down);
        return;
      }
      capture(from, Direction::kTransmit, copy);
      sim::LineageScope lin_scope(scheduler_, lin_copy);
      if (copy.dst.is_multicast() || copy.dst.is_broadcast()) {
        sender.seen_uids.insert(copy.uid);
        if (copy.dst.is_broadcast() || sender.groups.count(copy.dst) != 0) {
          deliver_local(from, copy);
        }
        flood(from, std::move(copy));
      } else {
        forward_unicast(from, std::move(copy));
      }
    });
  }
}

void Network::set_interface_up(NodeId node, Direction direction, bool up) {
  NodeState& state = nodes_.at(node);
  if (direction == Direction::kReceive) {
    state.rx_up = up;
  } else {
    state.tx_up = up;
  }
}

bool Network::interface_up(NodeId node, Direction direction) const {
  const NodeState& state = nodes_.at(node);
  return direction == Direction::kReceive ? state.rx_up : state.tx_up;
}

FilterHandle Network::add_filter(FilterScope scope, PacketFilter filter) {
  std::uint64_t id = next_filter_id_++;
  filters_.push_back(InstalledFilter{id, scope, std::move(filter)});
  return FilterHandle(id);
}

void Network::remove_filter(FilterHandle handle) {
  if (!handle.valid()) return;
  filters_.erase(std::remove_if(filters_.begin(), filters_.end(),
                                [&](const InstalledFilter& f) {
                                  return f.id == handle.id_;
                                }),
                 filters_.end());
}

const std::vector<CapturedPacket>& Network::captures(NodeId node) const {
  return nodes_.at(node).captures;
}

std::vector<CapturedPacket> Network::take_captures(NodeId node) {
  return std::exchange(nodes_.at(node).captures, {});
}

void Network::clear_captures() {
  for (NodeState& state : nodes_) state.captures.clear();
}

void Network::set_clock_model(NodeId node, const sim::ClockModel& model) {
  std::uint64_t jitter_seed =
      fnv1a64(topology_.node(node).name) ^ 0xC10C4ULL;
  nodes_.at(node).clock = sim::LocalClock(model, jitter_seed);
}

void Network::set_lineage(sim::LineageLog* log) {
  lineage_ = log;
  node_labels_.clear();
  label_nodes_.clear();
  lin_labels_ = {};
  if (!log) return;
  node_labels_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    node_labels_.push_back(log->intern(topology_.node(i).name));
  }
  // And back, for link_counts(); label 0 (interner full) names no node.
  for (NodeId node = 0; node < node_labels_.size(); ++node) {
    const std::uint16_t label = node_labels_[node];
    if (label >= label_nodes_.size()) {
      label_nodes_.resize(label + 1, kInvalidNode);
    }
    if (label != 0) label_nodes_[label] = node;
  }
  lin_labels_.send = log->intern("send");
  lin_labels_.duplicate = log->intern("duplicate");
  lin_labels_.hop = log->intern("hop");
  lin_labels_.deliver = log->intern("deliver");
  lin_labels_.dup = log->intern("dup");
  lin_labels_.tx_down = log->intern("tx_down");
  lin_labels_.rx_down = log->intern("rx_down");
  lin_labels_.link_down = log->intern("link_down");
  lin_labels_.loss = log->intern("loss");
  lin_labels_.queue = log->intern("queue");
  lin_labels_.ttl = log->intern("ttl");
  lin_labels_.no_route = log->intern("no_route");
  lin_labels_.no_handler = log->intern("no_handler");
}

std::vector<LinkCount> Network::link_counts() const {
  std::vector<LinkCount> out;
  if (!lineage_) return out;
  // One counter per directed adjacency slot, found the way find_link
  // finds the link model.
  std::vector<LinkCount> slots(adj_neighbour_.size());
  auto node_of = [this](std::uint16_t label) {
    return label < label_nodes_.size() ? label_nodes_[label] : kInvalidNode;
  };
  auto slot = [&](std::uint16_t from_label,
                  std::uint16_t to_label) -> LinkCount* {
    const NodeId from = node_of(from_label);
    const NodeId to = node_of(to_label);
    if (from == kInvalidNode || to == kInvalidNode) return nullptr;
    for (std::uint32_t i = adj_offset_[from]; i < adj_offset_[from + 1]; ++i) {
      if (adj_neighbour_[i] == to) return &slots[i];
    }
    return nullptr;
  };
  const LineageLabels& l = lin_labels_;
  for (const sim::LineageEvent& event : lineage_->events()) {
    // Arrivals are recorded at the receiver with the sender as peer, and
    // so is a drop at a downed receiver; drops before the hop are recorded
    // at the sender with the receiver as peer.
    const bool arrival =
        (event.kind == sim::LineageKind::kHop && event.label == l.hop) ||
        (event.kind == sim::LineageKind::kDup && event.label == l.dup);
    const bool drop = event.kind == sim::LineageKind::kDrop;
    if (arrival || (drop && event.label == l.rx_down)) {
      if (LinkCount* link = slot(event.peer, event.node)) {
        link->sent++;
        if (drop) link->dropped++;
      }
    } else if (drop && (event.label == l.loss || event.label == l.queue ||
                        event.label == l.link_down)) {
      if (LinkCount* link = slot(event.node, event.peer)) link->dropped++;
    }
  }
  out.reserve(std::count_if(slots.begin(), slots.end(), [](const LinkCount& c) {
    return c.sent != 0 || c.dropped != 0;
  }));
  for (NodeId from = 0; from < nodes_.size(); ++from) {
    const std::size_t first = out.size();
    for (std::uint32_t i = adj_offset_[from]; i < adj_offset_[from + 1]; ++i) {
      if (slots[i].sent == 0 && slots[i].dropped == 0) continue;
      out.push_back({from, adj_neighbour_[i], slots[i].sent, slots[i].dropped});
    }
    std::sort(out.begin() + first, out.end(),
              [](const LinkCount& a, const LinkCount& b) { return a.to < b.to; });
  }
  return out;
}

void Network::reset_run_state() {
  for (NodeState& state : nodes_) {
    state.seen_uids.clear();
    state.captures.clear();
    // The radio's backlog belongs to packets the restart dropped: the new
    // attempt's first send must not wait out their airtime.
    state.tx_free_at = sim::SimTime{};
  }
  // Heal any links a fault schedule left down: every run starts from the
  // topology the description declared.
  if (!disabled_links_.empty()) {
    disabled_links_.clear();
    routing_.rebuild(topology_);
  }
}

void Network::begin_run(std::uint64_t run_seed) {
  RngFactory rf(run_seed);
  loss_rng_ = rf.stream("net-loss");
  jitter_rng_ = rf.stream("net-jitter");
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    nodes_[node].clock.reseed_jitter(rf.derive_seed("clock-jitter", node));
  }
  // Packet identifiers are embedded in the capture wire format, so they are
  // rebased per run like the RNG streams: a run's captures must not encode
  // how many packets earlier runs happened to send on this platform
  // instance.  The dedup sets are cleared with them — a uid from a previous
  // run must not suppress a fresh packet that was assigned the same id.
  next_uid_ = 1;
  for (NodeState& state : nodes_) {
    state.next_tag = 1;
    state.seen_uids.clear();
  }
}

Status Network::set_link_model(NodeId a, NodeId b, const LinkModel& model) {
  LinkModel* link = topology_.mutable_link_between(a, b);
  if (!link) {
    return err_not_found("no link between nodes " + std::to_string(a) +
                         " and " + std::to_string(b));
  }
  *link = model;
  routing_.rebuild(topology_, disabled_links_);
  return {};
}

Status Network::set_link_up(NodeId a, NodeId b, bool up) {
  if (a >= nodes_.size() || b >= nodes_.size() || find_link(a, b) == nullptr) {
    return err_not_found("no link between nodes " + std::to_string(a) +
                         " and " + std::to_string(b));
  }
  const PackedLink key = pack_link(a, b);
  if (up) {
    if (!disabled_links_.erase(key)) return {};  // already up
  } else {
    if (!disabled_links_.insert(key)) return {};  // already down
  }
  routing_.set_link_enabled(a, b, up);
  return {};
}

Status Network::set_links_up(
    const std::vector<std::pair<NodeId, NodeId>>& links, bool up) {
  bool changed = false;
  for (const auto& [a, b] : links) {
    if (a >= nodes_.size() || b >= nodes_.size() ||
        find_link(a, b) == nullptr) {
      return err_not_found("no link between nodes " + std::to_string(a) +
                           " and " + std::to_string(b));
    }
    const PackedLink key = pack_link(a, b);
    changed |= up ? disabled_links_.erase(key) : disabled_links_.insert(key);
  }
  if (changed) routing_.rebuild(topology_, disabled_links_);
  return {};
}

FilterOutcome Network::apply_filters(NodeId node, Direction dir,
                                     Packet& packet) {
  FilterOutcome outcome;
  for (InstalledFilter& installed : filters_) {
    if (installed.scope.node && *installed.scope.node != node) continue;
    if (installed.scope.direction && *installed.scope.direction != dir) {
      continue;
    }
    FilterVerdict verdict = installed.filter(node, dir, packet);
    switch (verdict.action) {
      case FilterVerdict::Action::kDrop:
        outcome.drop = true;
        outcome.drop_cause = verdict.cause;
        return outcome;
      case FilterVerdict::Action::kDelay:
        outcome.delay += verdict.delay;
        break;
      case FilterVerdict::Action::kDuplicate:
        outcome.duplicates += verdict.copies;
        if (verdict.copy_gap.nanos() > 0) {
          outcome.duplicate_gap = verdict.copy_gap;
        }
        break;
      case FilterVerdict::Action::kPass:
        break;
    }
  }
  return outcome;
}

void Network::capture(NodeId node, Direction dir, const Packet& packet) {
  if (!capture_) return;
  NodeState& state = nodes_[node];
  CapturedPacket cap;
  cap.local_time = state.clock.read(scheduler_.now());
  cap.direction = dir;
  cap.node = node;
  cap.packet = packet;
  state.captures.push_back(std::move(cap));
}

sim::SimDuration Network::serialisation(const LinkModel& model,
                                        std::size_t bytes) {
  double seconds = model.bandwidth_bps > 0
                       ? static_cast<double>(bytes) * 8.0 / model.bandwidth_bps
                       : 0.0;
  return sim::SimDuration::from_seconds(seconds);
}

sim::SimDuration Network::hop_delay(const LinkModel& model,
                                    std::size_t bytes) {
  sim::SimDuration delay = model.base_delay + serialisation(model, bytes);
  if (model.jitter_frac > 0) {
    double jitter_max =
        model.jitter_frac * static_cast<double>(model.base_delay.nanos());
    delay += sim::SimDuration(static_cast<std::int64_t>(
        jitter_rng_.uniform(0.0, jitter_max)));
  }
  return delay;
}

std::optional<sim::SimDuration> Network::admit_hop(NodeId from, NodeId to,
                                                   const LinkModel* link,
                                                   std::uint64_t uid,
                                                   std::size_t bytes) {
  if (!link) {
    stats_.dropped_no_route++;
    lin_record(sim::LineageKind::kDrop, lin_ambient(), uid, from, to,
               lin_labels_.no_route);
    return std::nullopt;
  }
  // Administratively-down link (churn/partition faults).  Checked before
  // the loss draw so a down link consumes no randomness; the empty-set test
  // keeps the fault-free hot path at one branch.
  if (!disabled_links_.empty() &&
      disabled_links_.contains(pack_link(from, to))) {
    stats_.dropped_link_down++;
    lin_record(sim::LineageKind::kDrop, lin_ambient(), uid, from, to,
               lin_labels_.link_down);
    return std::nullopt;
  }
  if (loss_rng_.bernoulli(link->loss)) {
    stats_.dropped_loss++;
    lin_record(sim::LineageKind::kDrop, lin_ambient(), uid, from, to,
               lin_labels_.loss);
    return std::nullopt;
  }
  sim::SimDuration delay = hop_delay(*link, bytes);
  // Shared-medium contention: the sender's single radio serialises its
  // transmissions.  Queueing beyond the limit is congestive tail drop.
  if (queue_limit_.nanos() > 0) {
    NodeState& sender = nodes_[from];
    sim::SimTime now = scheduler_.now();
    sim::SimTime start = std::max(now, sender.tx_free_at);
    sim::SimDuration queueing = start - now;
    if (queueing > queue_limit_) {
      stats_.dropped_queue++;
      lin_record(sim::LineageKind::kDrop, lin_ambient(), uid, from, to,
                 lin_labels_.queue);
      return std::nullopt;
    }
    sender.tx_free_at = start + serialisation(*link, bytes);
    delay += queueing;
  }
  return delay;
}

void Network::deliver_local(NodeId node, Packet packet) {
  NodeState& state = nodes_[node];
  // Receive-side filters and capture apply to locally delivered packets.
  // Duplicate verdicts are origin-send only and ignored here.
  FilterOutcome rx = apply_filters(node, Direction::kReceive, packet);
  if (rx.drop) {
    stats_.dropped_filter++;
    lin_record_cause(sim::LineageKind::kDrop, lin_ambient(), packet.uid,
                     node, node, rx.drop_cause);
    return;
  }
  auto handoff = [this, node, packet = std::move(packet)]() mutable {
    NodeState& s = nodes_[node];
    capture(node, Direction::kReceive, packet);
    auto it = s.handlers.find(packet.dst_port);
    if (it == s.handlers.end()) {
      stats_.dropped_no_handler++;
      lin_record(sim::LineageKind::kDrop, lin_ambient(), packet.uid, node,
                 node, lin_labels_.no_handler);
      return;
    }
    stats_.delivered++;
    // The handler (and everything it sends, schedules or stores) descends
    // from this delivery — this is the link that lets provenance walk from
    // an sd_service_add back to the packet that caused it.
    const std::uint64_t lin_deliver = lin_record(
        sim::LineageKind::kDeliver, lin_ambient(), packet.uid, node, node,
        lin_labels_.deliver);
    sim::LineageScope lin_scope(scheduler_, lin_deliver);
    it->second(node, packet);
  };
  if (rx.delay.nanos() > 0) {
    scheduler_.schedule(rx.delay, std::move(handoff));
  } else {
    handoff();
  }
  (void)state;
}

void Network::forward_unicast(NodeId current, Packet packet) {
  // The origin hop resolves the destination address and caches the node id
  // in the packet; relays verify the hint (one compare) instead of paying
  // an address lookup per hop.  A stale or foreign hint fails the check and
  // falls back to a full resolve, so it can never misroute.
  NodeId target = packet.dst_node;
  if (target >= nodes_.size() ||
      !(topology_.node(target).address == packet.dst)) {
    Result<NodeId> dest = topology_.find(packet.dst);
    if (!dest.ok()) {
      stats_.dropped_no_route++;
      lin_record(sim::LineageKind::kDrop, lin_ambient(), packet.uid, current,
                 current, lin_labels_.no_route);
      return;
    }
    target = dest.value();
    packet.dst_node = target;
  }
  if (current == target) {
    deliver_local(current, std::move(packet));
    return;
  }
  NodeId next = routing_.next_hop(current, target);
  if (next == kInvalidNode) {
    stats_.dropped_no_route++;
    lin_record(sim::LineageKind::kDrop, lin_ambient(), packet.uid, current,
               target, lin_labels_.no_route);
    return;
  }
  // Intermediate nodes must be willing to forward: a node whose interfaces
  // are down does not relay ("drop all packets" relies on this).
  if (current != packet.route.front()) {
    NodeState& relay = nodes_[current];
    if (!relay.tx_up) {
      stats_.dropped_interface++;
      lin_record(sim::LineageKind::kDrop, lin_ambient(), packet.uid, current,
                 next, lin_labels_.tx_down);
      return;
    }
    FilterOutcome relay_tx =
        apply_filters(current, Direction::kTransmit, packet);
    if (relay_tx.drop) {
      stats_.dropped_filter++;
      lin_record_cause(sim::LineageKind::kDrop, lin_ambient(), packet.uid,
                       current, next, relay_tx.drop_cause);
      return;
    }
    stats_.forwarded++;
  }
  const std::optional<sim::SimDuration> delay = admit_hop(
      current, next, find_link(current, next), packet.uid, packet.wire_size());
  if (!delay) return;
  scheduler_.schedule(*delay, [this, from = current, to = next,
                               packet = std::move(packet)]() mutable {
    unicast_arrival(from, to, std::move(packet));
  });
}

void Network::unicast_arrival(NodeId from, NodeId to, Packet packet) {
  // The ambient context is the upstream send/hop captured when this
  // arrival was scheduled.
  if (!nodes_[to].rx_up) {
    stats_.dropped_interface++;
    lin_record(sim::LineageKind::kDrop, lin_ambient(), packet.uid, to, from,
               lin_labels_.rx_down);
    return;
  }
  packet.route.push_back(to);
  const std::uint64_t lin_hop =
      lin_record(sim::LineageKind::kHop, lin_ambient(), packet.uid, to, from,
                 lin_labels_.hop);
  // Tail of this timer dispatch: the scheduler clears the ambient context
  // after every callback, so a bare set (no RAII restore) suffices — this
  // is the hottest lineage site in the kernel.
  if (lin_hop != 0) scheduler_.set_current_context(lin_hop);
  forward_unicast(to, std::move(packet));
}

void Network::flood(NodeId origin_hop, Packet packet) {
  if (packet.ttl == 0) {
    stats_.dropped_ttl++;
    lin_record(sim::LineageKind::kDrop, lin_ambient(), packet.uid,
               origin_hop, origin_hop, lin_labels_.ttl);
    return;
  }
  packet.ttl--;
  // Fan out to every neighbour.  The packet moves into one record that
  // every admitted hop shares; a hop event carries only {from, to, ref},
  // and a receiver builds its own packet only for a first arrival.
  const std::uint64_t uid = packet.uid;
  const std::size_t bytes = packet.wire_size();
  FloodFanout* fanout = nullptr;
  for (std::uint32_t i = adj_offset_[origin_hop];
       i < adj_offset_[origin_hop + 1]; ++i) {
    const NodeId to = adj_neighbour_[i];
    const std::optional<sim::SimDuration> delay =
        admit_hop(origin_hop, to, adj_model_[i], uid, bytes);
    if (!delay) continue;
    if (fanout == nullptr) {
      fanout = new FloodFanout{std::move(packet), 0};
    }
    auto hop = [this, from = origin_hop, to, ref = FanoutRef(fanout)] {
      flood_arrival(from, to, *ref);
    };
    static_assert(sizeof(hop) <= 32, "a flood hop is {this, from, to, ref}");
    scheduler_.schedule(*delay, std::move(hop));
  }
}

void Network::flood_arrival(NodeId from, NodeId to, FloodFanout& fanout) {
  NodeState& state = nodes_[to];
  const std::uint64_t uid = fanout.packet.uid;
  // The ambient context is the upstream send/hop captured when this
  // arrival was scheduled.
  if (!state.rx_up) {
    stats_.dropped_interface++;
    lin_record(sim::LineageKind::kDrop, lin_ambient(), uid, to, from,
               lin_labels_.rx_down);
    return;
  }
  // Duplicate suppression: first arrival wins.  Suppressed arrivals
  // dominate a flood (~2.5 per fresh hop on a grid) yet are causally
  // dead — no descendants, never on a critical path — so they are
  // retained only for the opt-in provenance graph, where the packet
  // track and link_counts() read them.  Ring-only mode skips them: they
  // would evict live events from the bounded flight recorder.
  if (!state.seen_uids.insert(uid)) {
    if (lineage_ && lineage_->graph_active())
      lin_record(sim::LineageKind::kDup, lin_ambient(), uid, to, from,
                 lin_labels_.dup);
    return;
  }
  // First arrival: this node's own packet.  The last hop still holding
  // the record takes its packet; any other copies it with room in the
  // route for this hop.
  Packet arrived;
  if (fanout.refs == 1) {
    arrived = std::move(fanout.packet);
  } else {
    // Copy everything but the route, then the route into a reserved one.
    std::vector<NodeId> shared_route = std::move(fanout.packet.route);
    arrived = fanout.packet;
    fanout.packet.route = std::move(shared_route);
    arrived.route.reserve(fanout.packet.route.size() + 1);
    arrived.route.assign(fanout.packet.route.begin(),
                         fanout.packet.route.end());
  }
  arrived.route.push_back(to);
  const std::uint64_t lin_hop =
      lin_record(sim::LineageKind::kHop, lin_ambient(), uid, to, from,
                 lin_labels_.hop);
  // Tail position within this arrival dispatch (see unicast_arrival).
  if (lin_hop != 0) scheduler_.set_current_context(lin_hop);
  bool member = arrived.dst.is_broadcast() ||
                state.groups.count(arrived.dst) != 0;
  if (member) {
    Packet local = arrived;
    deliver_local(to, std::move(local));
  }
  // Relay onward if the node can transmit.
  if (!state.tx_up) {
    stats_.dropped_interface++;
    lin_record(sim::LineageKind::kDrop, lin_ambient(), uid, to, to,
               lin_labels_.tx_down);
    return;
  }
  FilterOutcome relay_tx = apply_filters(to, Direction::kTransmit, arrived);
  if (relay_tx.drop) {
    stats_.dropped_filter++;
    lin_record_cause(sim::LineageKind::kDrop, lin_ambient(), arrived.uid, to,
                     to, relay_tx.drop_cause);
    return;
  }
  stats_.forwarded++;
  flood(to, std::move(arrived));
}

}  // namespace excovery::net
