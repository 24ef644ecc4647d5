// Causal lineage log: the provenance backbone of a simulated run.
//
// Every interesting event in a run — a packet transmission, a hop, a
// delivery, a drop, an SD query round, a cache store — is recorded as a
// `LineageEvent` with a parent id, forming a forest whose roots are the
// experiment actions that started the activity.  Causality propagates
// *ambiently*: the scheduler carries a current-context id that is captured
// into every timer at schedule time and restored around its dispatch
// (see Scheduler::current_context), so multi-hop asynchronous chains link
// up without threading ids through any API.
//
// Two retention modes share one recording call:
//   - the *flight recorder*: an always-on, bounded, preallocated ring of
//     the most recent events.  Zero steady-state allocation; dumped to a
//     readable artifact only when a run attempt fails (DESIGN.md §16).
//   - the *provenance graph*: full retention for the current run, enabled
//     only when an ObsContext is attached.  The obs layer walks it at
//     sd_exit to extract the critical path of every discovery.
//
// Recording consumes no randomness and schedules nothing, so enabling or
// disabling lineage can never change simulation results — the determinism
// contract (DESIGN.md §11) is preserved by construction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace excovery::sim {

/// What a lineage event describes.  Kept deliberately coarse: the interned
/// `label` carries the site-specific detail ("loss", "ttl", round number…).
enum class LineageKind : std::uint16_t {
  kRoot = 0,     ///< experiment-level root (run begin, action)
  kSend,         ///< packet enters the network at its origin
  kHop,          ///< packet arrives on a node after one link traversal
  kDeliver,      ///< packet handed to a local handler
  kDrop,         ///< packet terminated (loss, filter, ttl, no handler…)
  kDup,          ///< flood duplicate suppressed by uid dedup (graph only)
  kQuery,        ///< SD query round (uid = round number)
  kAnswer,       ///< SD answer / SCM reply transmission decided
  kCacheStore,   ///< service record stored into a cache
  kCacheHit,     ///< discovery answered from an already-cached record
  kScmHit,       ///< SCM directory record matched a directed query
  kSdEvent,      ///< recorded sd_* / fault_* event (label = event type)
};

/// Readable name for a kind ("send", "drop", …).
std::string_view to_string(LineageKind kind);

/// One node in the causal forest.  40-byte POD; stored by value in both
/// the flight-recorder ring and the provenance graph.
struct LineageEvent {
  std::uint64_t id = 0;      ///< 1-based per run; 0 = "no event"
  std::uint64_t parent = 0;  ///< causal parent id (0 = root)
  std::uint64_t uid = 0;     ///< packet uid, query round, or other payload
  std::int64_t ts_ns = 0;    ///< simulated time of the event
  LineageKind kind = LineageKind::kRoot;
  std::uint16_t node = 0;    ///< interned name of the node it happened on
  std::uint16_t peer = 0;    ///< interned peer node name (0 = none)
  std::uint16_t label = 0;   ///< interned site detail ("loss", "mdns", …)
};
static_assert(sizeof(LineageEvent) == 40, "LineageEvent layout drifted");

class LineageLog {
 public:
  /// `ring_capacity` bounds the flight recorder; the buffer is allocated
  /// once here and never grows.
  explicit LineageLog(std::size_t ring_capacity = kDefaultRingCapacity);

  /// 1024 events * 40 bytes = 40 KiB: big enough that a failure dump shows
  /// the whole final query round with context, small enough that the ring's
  /// steady-state stores stay cache-resident next to the packet hot path.
  static constexpr std::size_t kDefaultRingCapacity = 1024;

  /// Reset for a new run attempt: ids restart at 1, the ring and graph
  /// empty.  The string interner persists (it holds site labels and node
  /// names, which recur run after run — steady state allocates nothing).
  void begin_run(std::uint64_t run_id, std::uint32_t attempt);

  std::uint64_t run_id() const noexcept { return run_id_; }
  std::uint32_t attempt() const noexcept { return attempt_; }

  /// Full-graph retention toggle (provenance extraction needs the whole
  /// run; the flight recorder alone does not).  Applies from the next
  /// begin_run.
  void set_graph_enabled(bool enabled) noexcept { graph_enabled_ = enabled; }
  bool graph_enabled() const noexcept { return graph_enabled_; }
  /// Whether the current run retains the full graph (latched at begin_run).
  /// High-volume, causally-dead event classes (flood dup suppressions) are
  /// recorded only when this holds — they would evict live events from the
  /// bounded ring without ever appearing on a critical path.
  bool graph_active() const noexcept { return graph_active_; }

  /// Intern a label / node name; stable for the lifetime of the log.
  std::uint16_t intern(std::string_view text);
  /// The string behind an interned id ("" for 0 / unknown ids).
  std::string_view name(std::uint16_t id) const noexcept;

  /// Record one event; returns its id (never 0).  O(1), no allocation in
  /// steady state, no RNG, no scheduling.  Inline and branch-light: this
  /// sits on every packet hop, so it is part of the kernel hot path.
  std::uint64_t record(LineageKind kind, std::uint64_t parent,
                       std::uint64_t uid, SimTime ts, std::uint16_t node,
                       std::uint16_t peer, std::uint16_t label) {
    const std::uint64_t id = next_id_++;
    LineageEvent& slot = ring_[ring_next_];
    if (++ring_next_ == ring_cap_) ring_next_ = 0;
    slot.id = id;
    slot.parent = parent;
    slot.uid = uid;
    slot.ts_ns = ts.nanos();
    slot.kind = kind;
    slot.node = node;
    slot.peer = peer;
    slot.label = label;
    if (graph_active_) graph_.push_back(slot);
    return id;
  }

  /// The retained full graph of the current run (empty unless graph mode
  /// was enabled at begin_run).  events()[i].id == i + 1.
  const std::vector<LineageEvent>& events() const noexcept { return graph_; }

  /// Flight-recorder view: invoke `fn(const LineageEvent&)` for each ring
  /// event, oldest first.
  template <typename Fn>
  void for_each_recent(Fn&& fn) const {
    const std::size_t n = recent_count();
    const std::size_t cap = ring_.size();
    const std::size_t start = (ring_next_ + cap - n) % cap;
    for (std::size_t i = 0; i < n; ++i) fn(ring_[(start + i) % cap]);
  }
  std::size_t recent_count() const noexcept {
    const std::uint64_t recorded_events = next_id_ - 1;
    return recorded_events < ring_cap_
               ? static_cast<std::size_t>(recorded_events)
               : ring_cap_;
  }
  /// Events recorded since begin_run (>= recent_count once the ring wraps).
  std::uint64_t recorded() const noexcept { return next_id_ - 1; }

 private:
  /// Transparent string hashing so interning a string_view never builds a
  /// temporary std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const noexcept {
      return std::hash<std::string_view>{}(text);
    }
    std::size_t operator()(const std::string& text) const noexcept {
      return std::hash<std::string_view>{}(text);
    }
  };

  std::uint64_t run_id_ = 0;
  std::uint32_t attempt_ = 0;
  std::uint64_t next_id_ = 1;
  bool graph_enabled_ = false;
  bool graph_active_ = false;  ///< graph_enabled_ latched at begin_run
  std::vector<LineageEvent> ring_;
  std::size_t ring_next_ = 0;
  std::size_t ring_cap_ = 0;  ///< == ring_.size(), kept in a register-friendly
                              ///< scalar for the record() fast path
  std::vector<LineageEvent> graph_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t, NameHash, std::equal_to<>>
      name_ids_;
};

/// RAII ambient-context scope: while alive, timers scheduled and lineage
/// recorded (with parent = ambient) attach to `ctx`.  A zero ctx leaves
/// the ambient context untouched, so call sites need no null checks.
class LineageScope {
 public:
  LineageScope(Scheduler& scheduler, std::uint64_t ctx) noexcept
      : scheduler_(scheduler), prev_(scheduler.current_context()) {
    if (ctx != 0) scheduler_.set_current_context(ctx);
  }
  ~LineageScope() { scheduler_.set_current_context(prev_); }
  LineageScope(const LineageScope&) = delete;
  LineageScope& operator=(const LineageScope&) = delete;

 private:
  Scheduler& scheduler_;
  std::uint64_t prev_;
};

}  // namespace excovery::sim
