#include "core/recorder.hpp"

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

  // (2)+(3) reference-time publication for flow control.
  sim::BusEvent event;
  event.time = scheduler_.now();
  event.node = node;
  event.name = std::string(type);
  event.parameter = parameter;
  history_.push_back(event);

  // (4) lineage: the event is a causal node (parent = whatever activity
  // raised it), and every bus subscriber — flow-control waits resuming the
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
  bus_.publish(event);
}

}  // namespace excovery::core
