#include "core/recorder.hpp"

#include <algorithm>

namespace excovery::core {

EventRecorder::EventRecorder(sim::Scheduler& scheduler,
                             storage::Level2Store& level2, ClockFn clock_of)
    : scheduler_(scheduler),
      level2_(level2),
      clock_of_(std::move(clock_of)) {}

void EventRecorder::begin_run(std::int64_t run_id) {
  run_id_ = run_id;
  history_.clear();
  // Node-store pointers can be invalidated between runs (discard_run /
  // clear on retry); the cache is only trusted within one run.
  cached_node_ = nullptr;
  cached_name_.clear();
}

void EventRecorder::record(const std::string& node, std::string_view type,
                           const Value& parameter) {
  ++recorded_;

  // (1) level-2 storage with the node's local timestamp.
  storage::RawEvent raw;
  raw.run_id = run_id_;
  raw.local_time_ns = clock_of_ ? clock_of_(node)
                                : scheduler_.now().nanos();
  raw.type = std::string(type);
  raw.parameter = parameter;
  // Events cluster by node (one interpreter step emits several on the same
  // node), so caching the last store skips the map lookup on the hot path.
  if (cached_node_ == nullptr || cached_name_ != node) {
    cached_node_ = &level2_.node(node);
    cached_name_ = node;
    cached_label_ = lineage_ ? lineage_->intern(node) : 0;
  }
  cached_node_->record_event(std::move(raw));

  // (2) reference-time history for flow control.
  const RunEvent& event = history_.emplace_back(
      RunEvent{scheduler_.now(), node, std::string(type), parameter});

  // (3) lineage: the event is a causal node (parent = whatever activity
  // raised it), and every watch — flow-control waits resuming the
  // interpreter included — runs as its descendant.
  std::uint64_t lin_event = 0;
  if (lineage_) {
    const std::uint16_t param_label =
        parameter.is_string() ? lineage_->intern(parameter.as_string()) : 0;
    lin_event =
        lineage_->record(sim::LineageKind::kSdEvent, scheduler_.current_context(),
                         0, scheduler_.now(), cached_label_, param_label,
                         lineage_->intern(type));
  }
  sim::LineageScope lin_scope(scheduler_, lin_event);
  offer(event);
}

std::uint64_t EventRecorder::watch(std::string name, WatchFn fn) {
  const std::uint64_t id = next_watch_id_++;
  watches_.push_back(Watch{id, std::move(name), std::move(fn)});
  return id;
}

void EventRecorder::unwatch(std::uint64_t id) {
  auto it = std::find_if(watches_.begin(), watches_.end(),
                         [id](const Watch& w) { return w.id == id; });
  if (it == watches_.end()) return;
  if (offer_depth_ > 0) {
    it->removed = true;
    has_removed_ = true;
  } else {
    watches_.erase(it);
  }
}

void EventRecorder::offer(const RunEvent& event) {
  ++offer_depth_;
  // Watches appended during this offer wait for the next event; entries
  // never move while an offer runs, so each is re-indexed per call.
  const std::size_t count = watches_.size();
  for (std::size_t i = 0; i < count; ++i) {
    Watch& w = watches_[i];
    if (w.removed || w.name != event.name) continue;
    ++watch_calls_;
    w.fn(event);
  }
  if (--offer_depth_ == 0 && has_removed_) {
    std::erase_if(watches_, [](const Watch& w) { return w.removed; });
    has_removed_ = false;
  }
}

}  // namespace excovery::core
