#include "obs/provenance.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/strings.hpp"

namespace excovery::obs {

namespace {

/// The event type the recorder logs when an SD agent reports a discovery
/// (sd::events::kServiceAdd; spelled out here so obs does not depend on the
/// sd layer).
constexpr std::string_view kServiceAddEvent = "sd_service_add";

/// Packet lifecycle events; hybrid's uid-0 dedup marker is a report, not a
/// packet.
bool is_packet_event(const sim::LineageEvent& event) {
  switch (event.kind) {
    case sim::LineageKind::kSend:
    case sim::LineageKind::kHop:
    case sim::LineageKind::kDeliver:
    case sim::LineageKind::kDrop:
      return true;
    case sim::LineageKind::kDup:
      return event.uid != 0;
    default:
      return false;
  }
}

}  // namespace

std::string describe(const sim::LineageLog& log,
                     const sim::LineageEvent& event) {
  std::string out(log.name(event.label));
  const std::string_view peer = log.name(event.peer);
  if (!peer.empty() && peer != log.name(event.node)) {
    if (!out.empty()) out += ' ';
    out += peer;
  }
  if (event.kind == sim::LineageKind::kQuery) {
    out += strings::format(" round %llu",
                           static_cast<unsigned long long>(event.uid));
  }
  return out;
}

std::vector<CriticalPath> extract_critical_paths(const sim::LineageLog& log) {
  const std::vector<sim::LineageEvent>& events = log.events();
  std::vector<CriticalPath> out;
  // First discovery per (node, instance); later re-reports (e.g. a refresh
  // after a cache expiry) are not *the* discovery being attributed.
  std::set<std::pair<std::uint16_t, std::uint16_t>> seen;
  for (const sim::LineageEvent& event : events) {
    if (event.kind != sim::LineageKind::kSdEvent) continue;
    if (log.name(event.label) != kServiceAddEvent) continue;
    if (!seen.insert({event.node, event.peer}).second) continue;

    // Walk the parent chain to the root.  Parents always have smaller ids
    // (they were recorded first), so the walk terminates; the bound check
    // guards against a graph truncated by a mid-run enable.
    std::vector<const sim::LineageEvent*> chain;
    const sim::LineageEvent* current = &event;
    for (;;) {
      chain.push_back(current);
      if (current->parent == 0 || current->parent >= current->id) break;
      if (current->parent > events.size()) break;
      current = &events[current->parent - 1];
    }
    std::reverse(chain.begin(), chain.end());

    CriticalPath path;
    path.node = std::string(log.name(event.node));
    path.instance = std::string(log.name(event.peer));
    path.found_ns = event.ts_ns;
    path.total_ns = event.ts_ns - chain.front()->ts_ns;
    path.steps.reserve(chain.size());
    for (std::size_t i = 0; i < chain.size(); ++i) {
      ProvenanceStep step;
      step.kind = std::string(to_string(chain[i]->kind));
      step.node = std::string(log.name(chain[i]->node));
      step.detail = describe(log, *chain[i]);
      step.t_ns = chain[i]->ts_ns;
      step.latency_ns = i == 0 ? 0 : chain[i]->ts_ns - chain[i - 1]->ts_ns;
      path.steps.push_back(std::move(step));
    }
    out.push_back(std::move(path));
  }
  return out;
}

void render_packet_track(const sim::LineageLog& log, TraceBuffer& trace) {
  const std::vector<sim::LineageEvent>& events = log.events();
  // The network hands out uids in sequence, so one attempt's packets span
  // a dense range from its lowest uid.
  std::uint64_t first_uid = ~std::uint64_t{0};
  std::uint64_t last_uid = 0;
  for (const sim::LineageEvent& event : events) {
    if (!is_packet_event(event)) continue;
    first_uid = std::min(first_uid, event.uid);
    last_uid = std::max(last_uid, event.uid);
  }
  if (first_uid > last_uid) return;
  // Index of the last event of every sent uid: where its slice ends.
  constexpr std::size_t kUnsent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> last(last_uid - first_uid + 1, kUnsent);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sim::LineageEvent& event = events[i];
    if (!is_packet_event(event)) continue;
    std::size_t& end = last[event.uid - first_uid];
    if (event.kind == sim::LineageKind::kSend || end != kUnsent) end = i;
  }
  const std::uint64_t slice_base = (log.run_id() << 40) |
                                   (std::uint64_t{log.attempt() & 0xFF} << 32);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const sim::LineageEvent& event = events[i];
    if (!is_packet_event(event)) continue;
    const std::uint64_t slice = slice_base | (event.uid & 0xFFFFFFFF);
    const auto uid = static_cast<unsigned long long>(event.uid);
    const std::string node = json_escape(log.name(event.node));
    switch (event.kind) {
      case sim::LineageKind::kSend:
        trace.async_begin(Track::kSim, slice, strings::format("pkt %llu", uid),
                          "packet", event.ts_ns,
                          strings::format("{\"from\":\"%s\"}", node.c_str()));
        break;
      case sim::LineageKind::kHop:
        trace.instant(
            Track::kSim, 0, "hop", "packet", event.ts_ns,
            strings::format("{\"uid\":%llu,\"from\":\"%s\",\"to\":\"%s\"}",
                            uid, json_escape(log.name(event.peer)).c_str(),
                            node.c_str()));
        break;
      default: {
        std::string name(to_string(event.kind));
        if (event.kind == sim::LineageKind::kDrop) {
          name += ':';
          name += log.name(event.label);
        }
        trace.instant(Track::kSim, 0, std::move(name), "packet", event.ts_ns,
                      strings::format("{\"uid\":%llu,\"at\":\"%s\"}", uid,
                                      node.c_str()));
        break;
      }
    }
    if (last[event.uid - first_uid] == i) {
      trace.async_end(Track::kSim, slice, strings::format("pkt %llu", uid),
                      "packet", event.ts_ns);
    }
  }
}

void ProvenanceLedger::record_run(std::int64_t run_id,
                                  const std::vector<CriticalPath>& paths) {
  std::lock_guard lock(mutex_);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const CriticalPath& path = paths[p];
    for (std::size_t s = 0; s < path.steps.size(); ++s) {
      const ProvenanceStep& step = path.steps[s];
      storage::ProvenanceRow row;
      row.run_id = run_id;
      row.path = static_cast<std::int64_t>(p);
      row.seq = static_cast<std::int64_t>(s);
      row.kind = step.kind;
      row.node_id = step.node;
      row.detail = step.detail;
      row.time = static_cast<double>(step.t_ns) / 1e9;
      row.latency = static_cast<double>(step.latency_ns) / 1e9;
      rows_.push_back(std::move(row));
    }
  }
}

std::vector<storage::ProvenanceRow> ProvenanceLedger::sorted() const {
  std::vector<storage::ProvenanceRow> out;
  {
    std::lock_guard lock(mutex_);
    out = rows_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const storage::ProvenanceRow& a,
                      const storage::ProvenanceRow& b) {
                     if (a.run_id != b.run_id) return a.run_id < b.run_id;
                     if (a.path != b.path) return a.path < b.path;
                     return a.seq < b.seq;
                   });
  return out;
}

std::size_t ProvenanceLedger::size() const {
  std::lock_guard lock(mutex_);
  return rows_.size();
}

}  // namespace excovery::obs
