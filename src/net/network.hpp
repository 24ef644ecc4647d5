// The simulated network: packet delivery over a Topology, driven by the
// discrete-event scheduler.
//
// This class implements the three platform capability groups of §IV-A that
// concern the data plane:
//  * Connection control (§IV-A2): per-node interface up/down in either
//    direction, and rule-based packet manipulation (drop/delay/modify)
//    through filter chains — the hooks the fault injectors plug into.
//  * Measurement (§IV-A3): per-node packet capture with local timestamps
//    and unaltered content, a packet tagger (incrementing 16-bit id per
//    sender) and hop-by-hop route tracking on every packet.
//  * Time: per-node local clocks with configurable offset/drift/jitter.
//
// Unicast travels hop-by-hop along min-hop routes; multicast/broadcast
// floods the mesh with duplicate suppression and a TTL, matching how the
// DES testbed forwards link-scope multicast for Zeroconf experiments.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/link_set.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/uid_set.hpp"
#include "sim/clock.hpp"
#include "sim/lineage.hpp"
#include "sim/scheduler.hpp"

namespace excovery::net {

/// What a packet filter decided for one packet at one node.
struct FilterVerdict {
  enum class Action { kPass, kDrop, kDelay, kDuplicate } action = Action::kPass;
  sim::SimDuration delay{};  ///< extra delay when action == kDelay
  int copies = 0;            ///< extra copies when action == kDuplicate
  sim::SimDuration copy_gap{};  ///< spacing between injected copies
  /// Why a kDrop verdict dropped — a static string naming the injector or
  /// rule ("fault:loss", "fault:partition", …).  Recorded as the label of
  /// the lineage terminator so provenance can attribute the loss.
  const char* cause = "filter";

  static FilterVerdict pass() { return {}; }
  static FilterVerdict drop(const char* cause = "filter") {
    FilterVerdict v;
    v.action = Action::kDrop;
    v.cause = cause;
    return v;
  }
  static FilterVerdict delayed(sim::SimDuration d) {
    return {Action::kDelay, d};
  }
  /// Inject `copies` extra transmissions of this packet, `gap` apart.
  /// Honoured only at the origin send (relays ignore it — duplication at
  /// every hop would amplify combinatorially); each copy gets a fresh uid
  /// and tag and does not re-run the filter chain.
  static FilterVerdict duplicated(int copies, sim::SimDuration gap) {
    FilterVerdict v;
    v.action = Action::kDuplicate;
    v.copies = copies;
    v.copy_gap = gap;
    return v;
  }
};

/// Accumulated result of running a filter chain over one packet.
struct FilterOutcome {
  bool drop = false;
  const char* drop_cause = "filter";  ///< cause of the dropping verdict
  sim::SimDuration delay{};
  int duplicates = 0;               ///< origin-send only; relays ignore
  sim::SimDuration duplicate_gap{};
};

/// A packet manipulation rule (§IV-A2).  May mutate the packet (content
/// modification).  Applied at the node/direction it is installed for.
using PacketFilter =
    std::function<FilterVerdict(NodeId node, Direction dir, Packet& packet)>;

/// Handle for removing an installed filter.
class FilterHandle {
 public:
  FilterHandle() = default;
  bool valid() const noexcept { return id_ != 0; }

 private:
  friend class Network;
  explicit FilterHandle(std::uint64_t id) noexcept : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Where filters apply.
struct FilterScope {
  std::optional<NodeId> node;        ///< nullopt = all nodes
  std::optional<Direction> direction;  ///< nullopt = both directions
};

/// Delivery callback: (receiving node, packet).
using PacketHandler = std::function<void(NodeId, const Packet&)>;

/// Aggregate delivery statistics (observed by benches and tests).
struct NetworkStats {
  std::uint64_t sent = 0;             ///< send() calls accepted
  std::uint64_t delivered = 0;        ///< handler invocations
  std::uint64_t forwarded = 0;        ///< intermediate hop transmissions
  std::uint64_t dropped_loss = 0;     ///< stochastic per-hop link loss
  std::uint64_t dropped_interface = 0;///< interface down
  std::uint64_t dropped_filter = 0;   ///< filter verdicts
  std::uint64_t dropped_ttl = 0;      ///< multicast TTL exhausted
  std::uint64_t dropped_no_route = 0; ///< unreachable unicast destination
  std::uint64_t dropped_no_handler = 0;
  std::uint64_t dropped_queue = 0;    ///< egress queue overflow (congestion)
  std::uint64_t dropped_link_down = 0;///< hop over an administratively-down link
  std::uint64_t duplicated = 0;       ///< extra copies injected by filters
  std::uint64_t bytes_sent = 0;
};

/// Traffic over one directed link during the current run, derived from the
/// lineage graph by Network::link_counts().
struct LinkCount {
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t sent = 0;     ///< hops scheduled from -> to
  std::uint64_t dropped = 0;  ///< hops dropped on from -> to
};

class Network {
 public:
  Network(sim::Scheduler& scheduler, Topology topology, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const noexcept { return topology_; }
  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  std::size_t node_count() const noexcept { return topology_.node_count(); }

  // ---- application layer ------------------------------------------------
  /// Bind a handler to (node, port).  Replaces any existing binding.
  void bind(NodeId node, Port port, PacketHandler handler);
  void unbind(NodeId node, Port port);
  /// Join / leave a multicast group on a node.
  void join_group(NodeId node, Address group);
  void leave_group(NodeId node, Address group);

  /// Send a packet from a node.  The network assigns the unique id, applies
  /// the sender's tagger, and routes (unicast) or floods (multicast /
  /// broadcast).  Returns the assigned uid, or an error if the source
  /// address does not match the node.
  Result<std::uint64_t> send(NodeId from, Packet packet);

  // ---- connection control (§IV-A2) --------------------------------------
  void set_interface_up(NodeId node, Direction direction, bool up);
  bool interface_up(NodeId node, Direction direction) const;

  FilterHandle add_filter(FilterScope scope, PacketFilter filter);
  void remove_filter(FilterHandle handle);
  std::size_t filter_count() const noexcept { return filters_.size(); }

  // ---- measurement (§IV-A3, §IV-B2) --------------------------------------
  void set_capture_enabled(bool enabled) noexcept { capture_ = enabled; }
  bool capture_enabled() const noexcept { return capture_; }
  const std::vector<CapturedPacket>& captures(NodeId node) const;
  /// Move out all captures of a node (drains the buffer).
  std::vector<CapturedPacket> take_captures(NodeId node);
  void clear_captures();

  /// Hop count between nodes per current routing (-1 unreachable).
  int hop_count(NodeId a, NodeId b) const { return routing_.hop_count(a, b); }

  sim::LocalClock& clock(NodeId node) { return nodes_.at(node).clock; }
  void set_clock_model(NodeId node, const sim::ClockModel& model);

  const NetworkStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Attach (or detach, with nullptr) the causal lineage log (DESIGN.md
  /// §16).  Every send/hop/deliver/drop/dup then records a LineageEvent
  /// whose parent is the ambient scheduler context, and delivery handlers
  /// run under their packet's deliver event, so causality threads through
  /// the whole data plane.  Recording consumes no randomness and schedules
  /// nothing: simulation results are identical with or without a log.
  void set_lineage(sim::LineageLog* log);
  /// The attached lineage log (nullptr when none) — the SD agents record
  /// their protocol-level events (query rounds, answers, cache hits)
  /// through the same log.
  sim::LineageLog* lineage() noexcept { return lineage_; }
  /// Per-directed-link hop counts of the current run, walked from the
  /// attached log's retained graph (DESIGN.md §16), ordered by (from, to);
  /// links that carried nothing are omitted.  A hop, a suppressed flood
  /// arrival or a receiver-down drop at `to` counts as sent from -> to; a
  /// loss, queue or link-down drop at `from` toward `to`, or the
  /// receiver-down drop, counts as dropped.  Empty unless the log retains
  /// its graph.
  std::vector<LinkCount> link_counts() const;
  /// Interned lineage label of a node's name (0 when no log is attached).
  std::uint16_t lineage_node_label(NodeId node) const noexcept {
    return node < node_labels_.size() ? node_labels_[node] : 0;
  }
  /// The ambient causal context (current scheduler context); what an SD
  /// agent should use as the parent of a protocol-level event.
  std::uint64_t lineage_ambient() const noexcept {
    return scheduler_.current_context();
  }
  /// Record a protocol-level lineage event attributed to `node` (for the
  /// SD agents).  No-op returning 0 when no log is attached.
  std::uint64_t record_lineage(sim::LineageKind kind, std::uint64_t parent,
                               std::uint64_t uid, NodeId node,
                               std::string_view label) {
    if (!lineage_) return 0;
    return lineage_->record(kind, parent, uid, scheduler_.now(),
                            lineage_node_label(node), 0,
                            lineage_->intern(label));
  }

  /// Reset per-run state: duplicate-suppression sets, captures, radio
  /// backlogs, downed links.  Used by run preparation ("network packets
  /// generated in previous runs must be dropped", §IV-C1).
  void reset_run_state();

  /// Rebase every network-owned random stream (link loss, delay jitter,
  /// per-node clock-read jitter) on a run-scoped seed.  Makes a run's
  /// network randomness a function of the seed alone rather than of the
  /// draw counts of whatever ran before on this platform instance — the
  /// prerequisite for executing runs out of order or on worker replicas.
  /// Packet ids and dedup sets restart with the streams, so a run must
  /// begin on an empty scheduler queue (Scheduler::restart_at): a hop still
  /// queued from before would carry an id the new run reuses.
  void begin_run(std::uint64_t run_seed);

  /// Degrade or restore a specific link at runtime (used by environment
  /// manipulations); rebuilds routing.
  Status set_link_model(NodeId a, NodeId b, const LinkModel& model);

  // ---- link state (dynamic-world faults, DESIGN.md §12) ------------------
  /// Administratively take one link down or bring it back up.  Routing is
  /// repaired incrementally; packets scheduled onto a down link are dropped
  /// (stats.dropped_link_down).  The link must exist in the topology.
  Status set_link_up(NodeId a, NodeId b, bool up);
  /// Bulk toggle (partitions): applies every pair, then rebuilds routing
  /// once.  All pairs must name existing links.
  Status set_links_up(const std::vector<std::pair<NodeId, NodeId>>& links,
                      bool up);
  bool link_up(NodeId a, NodeId b) const {
    return !disabled_links_.contains(a, b);
  }
  std::size_t disabled_link_count() const noexcept {
    return disabled_links_.size();
  }

  /// Shared-medium contention: each node has a single radio, so its
  /// transmissions serialise.  A packet whose queueing delay would exceed
  /// this limit is dropped (tail drop); this is what makes background load
  /// degrade discovery in a mesh.  Zero disables contention modelling.
  void set_queue_limit(sim::SimDuration limit) noexcept {
    queue_limit_ = limit;
  }
  sim::SimDuration queue_limit() const noexcept { return queue_limit_; }

 private:
  struct NodeState {
    bool rx_up = true;
    bool tx_up = true;
    sim::SimTime tx_free_at;  ///< radio busy until (egress serialisation)
    std::uint16_t next_tag = 1;
    std::set<Address> groups;
    UidSet seen_uids;  // multicast dedup (flat set: no per-insert alloc)
    std::map<Port, PacketHandler> handlers;
    std::vector<CapturedPacket> captures;
    sim::LocalClock clock;
  };

  struct InstalledFilter {
    std::uint64_t id;
    FilterScope scope;
    PacketFilter filter;
  };

  /// Apply filters at a node/direction, accumulating delay and duplicate
  /// requests across the chain.
  FilterOutcome apply_filters(NodeId node, Direction dir, Packet& packet);

  /// Schedule `copies` re-transmissions of an already-filtered packet from
  /// its origin, `gap` apart starting after `initial_delay + gap`.
  void launch_duplicates(NodeId from, const Packet& packet, int copies,
                         sim::SimDuration gap, sim::SimDuration initial_delay);

  void capture(NodeId node, Direction dir, const Packet& packet);

  /// A relay's one copy of a flooded packet, shared by the hops it fans
  /// out to its neighbours, and one hop's share of it (network.cpp,
  /// DESIGN.md §8).
  struct FloodFanout;
  class FanoutRef;

  /// The admission checks of one hop from `from` to its neighbour `to`
  /// over `link`, in order: no link, link down, loss draw, delay (the
  /// jitter draw) and egress queueing.  Returns the arrival delay, or
  /// nullopt after counting and recording the drop.
  std::optional<sim::SimDuration> admit_hop(NodeId from, NodeId to,
                                            const LinkModel* link,
                                            std::uint64_t uid,
                                            std::size_t bytes);

  sim::SimDuration hop_delay(const LinkModel& model, std::size_t bytes);

  /// Serialisation time of `bytes` on a link.
  static sim::SimDuration serialisation(const LinkModel& model,
                                        std::size_t bytes);

  void deliver_local(NodeId node, Packet packet);
  void forward_unicast(NodeId current, Packet packet);
  void unicast_arrival(NodeId from, NodeId to, Packet packet);
  void flood(NodeId origin_hop, Packet packet);
  /// A flood hop reaching `to`: drops at a downed receiver, suppresses a
  /// duplicate, and builds the node's own packet only for a first arrival.
  void flood_arrival(NodeId from, NodeId to, FloodFanout& fanout);

  /// Link model toward an adjacent node, nullptr if not adjacent.  O(degree)
  /// over the cached adjacency instead of a scan of every link.
  const LinkModel* find_link(NodeId from, NodeId to) const noexcept;

  /// Ambient causal context (the lineage id the current activity descends
  /// from); 0 outside any context.
  std::uint64_t lin_ambient() const noexcept {
    return scheduler_.current_context();
  }

  /// Record one packet lineage event with an explicit parent and a
  /// pre-interned label.  Returns its id, 0 when no log is attached — a 0
  /// id makes LineageScope a no-op.
  std::uint64_t lin_record(sim::LineageKind kind, std::uint64_t parent,
                           std::uint64_t uid, NodeId node, NodeId peer,
                           std::uint16_t label) {
    if (!lineage_) return 0;
    return lineage_->record(kind, parent, uid, scheduler_.now(),
                            lineage_node_label(node),
                            lineage_node_label(peer), label);
  }

  /// Same, interning a dynamic cause string (filter verdicts).  Off the
  /// hot path: only dropped packets pay the interner lookup.
  std::uint64_t lin_record_cause(sim::LineageKind kind, std::uint64_t parent,
                                 std::uint64_t uid, NodeId node, NodeId peer,
                                 const char* cause) {
    if (!lineage_) return 0;
    return lin_record(kind, parent, uid, node, peer, lineage_->intern(cause));
  }

  /// Pre-interned labels for the fixed data-plane sites, resolved once in
  /// set_lineage so the hot path never touches the interner.
  struct LineageLabels {
    std::uint16_t send = 0, duplicate = 0, hop = 0, deliver = 0, dup = 0,
                  tx_down = 0, rx_down = 0, link_down = 0, loss = 0,
                  queue = 0, ttl = 0, no_route = 0, no_handler = 0;
  };

  sim::Scheduler& scheduler_;
  Topology topology_;
  RoutingTable routing_;
  /// Per-node neighbour cache in link-declaration order (the same order
  /// Topology::neighbours yields), CSR/struct-of-arrays so a 50k-node flood
  /// fan-out streams flat arrays instead of chasing per-node vectors.
  /// Built once: flooding must not allocate a neighbour vector per relay.
  /// Link-model pointers stay valid because the owned topology is never
  /// structurally modified after construction.
  std::vector<std::uint32_t> adj_offset_;        ///< node_count + 1 entries
  std::vector<NodeId> adj_neighbour_;            ///< 2 * link_count entries
  std::vector<const LinkModel*> adj_model_;      ///< parallel to neighbours
  /// Links currently administratively down (flat sorted set of packed
  /// keys).  Checked on the per-hop path only when non-empty; cleared by
  /// reset_run_state so a run always starts from the described topology.
  LinkSet disabled_links_;
  std::vector<NodeState> nodes_;
  std::vector<InstalledFilter> filters_;
  NetworkStats stats_;
  sim::LineageLog* lineage_ = nullptr;
  std::vector<std::uint16_t> node_labels_;  ///< NodeId -> interned name
  std::vector<NodeId> label_nodes_;         ///< interned name -> NodeId
  LineageLabels lin_labels_;
  sim::SimDuration queue_limit_ = sim::SimDuration::from_millis(250);
  bool capture_ = true;
  std::uint64_t next_uid_ = 1;
  std::uint64_t next_filter_id_ = 1;
  Pcg32 loss_rng_;
  Pcg32 jitter_rng_;
};

}  // namespace excovery::net
