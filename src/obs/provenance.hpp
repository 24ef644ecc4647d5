// Views over a run's retained causal lineage graph (DESIGN.md §16):
// per-discovery *critical paths* and the packet track.
//
// A discovery is the first sd_service_add event a node records for a given
// service instance.  Walking its lineage parents back to the root yields the
// exact chain that produced it — which query round, which retransmission,
// which cache or SCM hop — with the simulated-time latency of every edge.
// The extraction is a pure function of the (deterministic) lineage graph,
// so the resulting rows are bit-identical across worker counts and obs
// configurations; they are exported into the level-3 Provenance table only
// through the explicit ObsContext::export_provenance call.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "sim/lineage.hpp"
#include "storage/package.hpp"

namespace excovery::obs {

/// One step of a critical path, root first.
struct ProvenanceStep {
  std::string kind;    ///< lineage kind ("root", "query", "deliver", …)
  std::string node;    ///< node the step happened on
  std::string detail;  ///< human-readable site detail (see describe())
  std::int64_t t_ns = 0;        ///< simulated time of the step
  std::int64_t latency_ns = 0;  ///< elapsed since the previous step
};

/// The causal chain behind one discovery.
struct CriticalPath {
  std::string node;      ///< discovering node
  std::string instance;  ///< discovered service instance
  std::int64_t found_ns = 0;  ///< when the discovery event fired
  std::int64_t total_ns = 0;  ///< found - root (attributed latency)
  std::vector<ProvenanceStep> steps;
};

/// Compact one-line description of a lineage event: its label, the peer
/// string when distinct from the node, and the query round when present.
std::string describe(const sim::LineageLog& log,
                     const sim::LineageEvent& event);

/// Extract the critical path of every discovery in the log's retained
/// graph: the *first* sd_service_add per (node, instance), its parent chain
/// walked back to the root.  Returns paths in discovery order; empty when
/// graph retention was off.
std::vector<CriticalPath> extract_critical_paths(const sim::LineageLog& log);

/// Draw the packet events of the log's retained graph on the sim track
/// (DESIGN.md §11): one async slice per (run, attempt, uid) from the send to
/// the last event carrying that uid, and one instant per hop, dup, deliver
/// and drop ("drop:<label>").  The slice id packs run (24 bits), attempt
/// (8 bits) and uid (32 bits), so a retry never reuses an aborted
/// attempt's ids.
void render_packet_track(const sim::LineageLog& log, TraceBuffer& trace);

/// Per-run critical-path rows for a whole experiment.  Like the metrics
/// ledger, every entry is attributable to exactly one run, so the
/// collection is a set: identical no matter which worker recorded which
/// run, and exported in (run, path, seq) order.
class ProvenanceLedger {
 public:
  void record_run(std::int64_t run_id,
                  const std::vector<CriticalPath>& paths);
  /// All rows ordered by (run_id, path, seq).
  std::vector<storage::ProvenanceRow> sorted() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<storage::ProvenanceRow> rows_;
};

}  // namespace excovery::obs
