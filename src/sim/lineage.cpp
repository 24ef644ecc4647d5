#include "sim/lineage.hpp"

namespace excovery::sim {

std::string_view to_string(LineageKind kind) {
  switch (kind) {
    case LineageKind::kRoot:
      return "root";
    case LineageKind::kSend:
      return "send";
    case LineageKind::kHop:
      return "hop";
    case LineageKind::kDeliver:
      return "deliver";
    case LineageKind::kDrop:
      return "drop";
    case LineageKind::kDup:
      return "dup";
    case LineageKind::kQuery:
      return "query";
    case LineageKind::kAnswer:
      return "answer";
    case LineageKind::kCacheStore:
      return "cache_store";
    case LineageKind::kCacheHit:
      return "cache_hit";
    case LineageKind::kScmHit:
      return "scm_hit";
    case LineageKind::kSdEvent:
      return "sd_event";
  }
  return "?";
}

LineageLog::LineageLog(std::size_t ring_capacity) {
  if (ring_capacity == 0) ring_capacity = 1;
  ring_.resize(ring_capacity);
  ring_cap_ = ring_.size();
  // Interned id 0 is reserved for "no label".
  names_.emplace_back();
  name_ids_.emplace("", 0);
}

void LineageLog::begin_run(std::uint64_t run_id, std::uint32_t attempt) {
  run_id_ = run_id;
  attempt_ = attempt;
  next_id_ = 1;
  ring_next_ = 0;
  graph_active_ = graph_enabled_;
  graph_.clear();
}

std::uint16_t LineageLog::intern(std::string_view text) {
  // Heterogeneous lookup: repeated interning of a known label allocates
  // nothing (the hot path interns the same handful of site labels).
  auto it = name_ids_.find(text);
  if (it != name_ids_.end()) return it->second;
  if (names_.size() > 0xFFFF) return 0;  // interner full: degrade to ""
  const std::uint16_t id = static_cast<std::uint16_t>(names_.size());
  names_.emplace_back(text);
  name_ids_.emplace(names_.back(), id);
  return id;
}

std::string_view LineageLog::name(std::uint16_t id) const noexcept {
  if (id >= names_.size()) return {};
  return names_[id];
}

}  // namespace excovery::sim
