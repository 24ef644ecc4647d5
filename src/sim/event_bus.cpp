#include "sim/event_bus.hpp"

#include <algorithm>

namespace excovery::sim {

SubscriptionHandle EventBus::subscribe(std::string name, Callback fn) {
  std::uint64_t id = next_id_++;
  std::uint32_t list_index = kWildcardIndex;
  if (!name.empty()) {
    auto [it, inserted] = name_index_.try_emplace(
        std::move(name), static_cast<std::uint32_t>(by_name_.size()));
    if (inserted) by_name_.emplace_back();
    list_index = it->second;
  }
  list_for(list_index).push_back(Subscriber{id, std::move(fn), false});
  id_to_list_.emplace(id, list_index);
  return SubscriptionHandle(id);
}

void EventBus::unsubscribe(SubscriptionHandle handle) {
  if (!handle.valid()) return;
  auto where = id_to_list_.find(handle.id_);
  if (where == id_to_list_.end()) return;
  SubscriberList& list = list_for(where->second);
  // Ids are assigned in subscription order, so each list is id-sorted.
  auto it = std::lower_bound(
      list.begin(), list.end(), handle.id_,
      [](const Subscriber& s, std::uint64_t id) { return s.id < id; });
  if (it == list.end() || it->id != handle.id_) return;
  if (publish_depth_ > 0) {
    // Mid-publish: mark only.  The removed flag is checked immediately
    // before every invocation, so this subscriber can never fire again; the
    // entry is physically erased once the outermost publish returns.
    it->removed = true;
    needs_compaction_ = true;
  } else {
    list.erase(it);
    id_to_list_.erase(where);
  }
}

void EventBus::publish(const BusEvent& event) {
  ++published_;
  // Resolve the name once; a name first interned by a reentrant subscribe
  // during this publish must not see the current event anyway.
  auto named_it = name_index_.find(event.name);
  const bool has_named = named_it != name_index_.end();
  const std::uint32_t name_index = has_named ? named_it->second : 0;

  ++publish_depth_;
  // Snapshot sizes: subscribers added during dispatch (which only ever
  // append) take effect for the next publish.
  const std::size_t named_count = has_named ? by_name_[name_index].size() : 0;
  const std::size_t wildcard_count = wildcard_.size();
  std::size_t ni = 0;
  std::size_t wi = 0;
  // Merge the two id-sorted lists so invocation follows subscription order,
  // exactly as a single linear list would.  Elements are re-indexed every
  // iteration (never cached across an invocation): reentrant subscribes may
  // intern new names and grow `by_name_`, but deque elements never move.
  while (ni < named_count || wi < wildcard_count) {
    bool take_named;
    if (ni >= named_count) {
      take_named = false;
    } else if (wi >= wildcard_count) {
      take_named = true;
    } else {
      take_named = by_name_[name_index][ni].id < wildcard_[wi].id;
    }
    Subscriber& s =
        take_named ? by_name_[name_index][ni++] : wildcard_[wi++];
    if (s.removed) continue;
    ++dispatched_;
    s.fn(event);
  }
  --publish_depth_;
  if (publish_depth_ == 0 && needs_compaction_) compact();
}

void EventBus::compact() {
  auto sweep = [this](SubscriberList& list) {
    for (auto it = list.begin(); it != list.end();) {
      if (it->removed) {
        id_to_list_.erase(it->id);
        it = list.erase(it);
      } else {
        ++it;
      }
    }
  };
  sweep(wildcard_);
  for (SubscriberList& list : by_name_) sweep(list);
  needs_compaction_ = false;
}

}  // namespace excovery::sim
