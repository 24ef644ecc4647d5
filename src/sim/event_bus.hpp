// Topic-based publish/subscribe bus.
//
// ExCovery's flow control (`wait_for_event`, §IV-C2) is built on observing
// events by name, origin and parameters.  The bus carries *framework*
// events: process-interpreter waits subscribe here, action implementations
// and protocol stacks publish here.  (Network packets do NOT travel on this
// bus; they go through the network simulator.)
//
// Dispatch is indexed: subscriber names are interned to dense ids and each
// name owns its own subscriber list (wildcards live in a separate list), so
// `publish` costs one name lookup plus the matching subscribers — not a
// string compare against every subscriber on the bus.  Matching named and
// wildcard subscribers are merged by subscription id, which reproduces the
// seed's subscription-order invocation exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.hpp"
#include "sim/time.hpp"

namespace excovery::sim {

/// An occurrence of a named event at a node.
struct BusEvent {
  SimTime time;            ///< global (reference) time of occurrence
  std::string node;        ///< originating node identifier
  std::string name;        ///< event type, e.g. "sd_service_add"
  Value parameter;         ///< optional parameter (service id, run id, ...)
};

/// Subscription handle.
class SubscriptionHandle {
 public:
  SubscriptionHandle() = default;
  bool valid() const noexcept { return id_ != 0; }

 private:
  friend class EventBus;
  explicit SubscriptionHandle(std::uint64_t id) noexcept : id_(id) {}
  std::uint64_t id_ = 0;
};

/// Synchronous pub/sub with wildcard subscription.  Callbacks run inline at
/// publish time (within the discrete-event step), preserving determinism.
/// Subscribers added during a publish take effect for the next publish; a
/// subscriber removed during a publish (at any nesting depth) is never
/// invoked again once the unsubscribe call returns.
class EventBus {
 public:
  using Callback = std::function<void(const BusEvent&)>;

  /// Subscribe to events with a given name; empty name = all events.
  SubscriptionHandle subscribe(std::string name, Callback fn);
  void unsubscribe(SubscriptionHandle handle);

  void publish(const BusEvent& event);

  /// Number of events published so far.
  std::uint64_t published() const noexcept { return published_; }
  /// Subscriber callbacks invoked across all publishes (fan-out).
  std::uint64_t dispatched() const noexcept { return dispatched_; }

 private:
  struct Subscriber {
    std::uint64_t id;
    Callback fn;
    bool removed = false;
  };

  /// Per-name subscriber lists are deques: reentrant subscription appends
  /// must not relocate subscribers mid-invocation.
  using SubscriberList = std::deque<Subscriber>;

  /// Sentinel name index meaning "the wildcard list".
  static constexpr std::uint32_t kWildcardIndex = 0xFFFFFFFFu;

  SubscriberList& list_for(std::uint32_t name_index) noexcept {
    return name_index == kWildcardIndex ? wildcard_ : by_name_[name_index];
  }
  void compact();

  std::uint64_t next_id_ = 1;
  std::uint64_t published_ = 0;
  std::uint64_t dispatched_ = 0;
  std::unordered_map<std::string, std::uint32_t> name_index_;
  std::vector<SubscriberList> by_name_;  ///< indexed by interned name id
  SubscriberList wildcard_;
  /// Subscription id -> owning list (interned name or wildcard sentinel).
  std::unordered_map<std::uint64_t, std::uint32_t> id_to_list_;
  int publish_depth_ = 0;
  bool needs_compaction_ = false;
};

}  // namespace excovery::sim
