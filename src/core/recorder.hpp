// Event measurement and recording (§IV-B1).
//
// "State changes on nodes in the context of ExCovery reflect events ...
// They contain a local time stamp and may have additional parameters."
//
// The recorder is the single funnel for events: every occurrence is
//  (1) stored into the originating node's level-2 store with the node's
//      *local* clock reading (as a real testbed would see it), and
//  (2) appended with the reference time to a per-run history, so waits can
//      match events that occurred between a wait_marker and the wait's
//      start, and
//  (3) offered to the watches registered under its name — what
//      wait_for_event flow control resumes on (the prototype forwards
//      events to the master over the control channel).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/value.hpp"
#include "sim/lineage.hpp"
#include "sim/scheduler.hpp"
#include "storage/level2.hpp"

namespace excovery::core {

/// Name used for events raised by environment processes, which are not
/// bound to a participant node.
inline constexpr const char* kEnvironmentNode = "environment";

/// An occurrence of a named event at a node.
struct RunEvent {
  sim::SimTime time;  ///< global (reference) time of occurrence
  std::string node;   ///< originating node identifier
  std::string name;   ///< event type, e.g. "sd_service_add"
  Value parameter;    ///< optional parameter (service id, run id, ...)
};

class EventRecorder {
 public:
  /// `clock_of` returns the local clock reading (ns) of a node at the
  /// current reference time; the environment pseudo-node uses reference
  /// time directly.
  using ClockFn = std::function<std::int64_t(const std::string& node)>;
  using WatchFn = std::function<void(const RunEvent&)>;

  EventRecorder(sim::Scheduler& scheduler, storage::Level2Store& level2,
                ClockFn clock_of);

  /// Current run id applied to recorded data.
  void begin_run(std::int64_t run_id);
  std::int64_t current_run() const noexcept { return run_id_; }

  /// Record an event occurring now on `node`.
  void record(const std::string& node, std::string_view type,
              const Value& parameter = {});

  /// Call `fn` inline for every later event named exactly `name`.  Watches
  /// are offered an event in registration order; one registered during an
  /// offer sees only later events.  Returns the id for unwatch (never 0).
  std::uint64_t watch(std::string name, WatchFn fn);
  /// Remove a watch: it is never called again once this returns, even
  /// from inside an offer.  Unknown or repeated ids are a no-op.
  void unwatch(std::uint64_t id);

  /// Attach the causal lineage log: every recorded event then becomes a
  /// lineage node (parent = ambient context), and its watches run under
  /// it — so flow-control reactions chain to the event that woke them.
  /// nullptr detaches.
  void set_lineage(sim::LineageLog* lineage) noexcept { lineage_ = lineage; }

  /// Reference-time history of the current run (for marker-based waits).
  /// A deque: a watch may record while it is offered an entry.
  const std::deque<RunEvent>& history() const noexcept { return history_; }

  /// Total events recorded across all runs.
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Watch calls across all offers (the fan-out).
  std::uint64_t watch_calls() const noexcept { return watch_calls_; }

 private:
  struct Watch {
    std::uint64_t id;
    std::string name;
    WatchFn fn;
    bool removed = false;
  };

  void offer(const RunEvent& event);

  sim::Scheduler& scheduler_;
  storage::Level2Store& level2_;
  ClockFn clock_of_;
  std::deque<RunEvent> history_;
  /// Registration order.  A deque, so a watch registered during an offer
  /// does not move the one being called; removal during an offer only
  /// marks the entry, and the outermost offer erases it.
  std::deque<Watch> watches_;
  std::uint64_t next_watch_id_ = 1;
  int offer_depth_ = 0;
  bool has_removed_ = false;
  std::int64_t run_id_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t watch_calls_ = 0;
  /// Last-node store cache (valid within one run; reset by begin_run).
  std::string cached_name_;
  storage::NodeStore* cached_node_ = nullptr;
  sim::LineageLog* lineage_ = nullptr;
  std::uint16_t cached_label_ = 0;  ///< interned name of cached_name_
};

}  // namespace excovery::core
