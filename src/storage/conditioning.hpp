// Conditioning: level 2 -> level 3.
//
// §IV-F: "data are conditioned by first evaluating the synchronization
// measurements taken during the experiment and unifying the time base of
// all second level measurements.  Then, the event list and captured packets
// are split up into single entries.  Data from the second level plus the
// experiment description are then stored into a single package."
//
// The time-base transformation per (run, node):
//     common_time = local_time - estimated_offset(run, node)
// with the offset estimates produced by the pre-run time-sync measurement.
//
// Conditioning is one typed pass: the offset estimates are hoisted into a
// per-(run, node) cache while the RunInfos are written, then each NodeStore
// is walked once, in node-name order, and its rows are appended as typed
// cells straight into the package tables (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "storage/level2.hpp"
#include "storage/package.hpp"

namespace excovery::storage {

/// Wall-clock timing callback for condition(): called once per phase with
/// the phase name and its duration — "build_shards" for the sync pass that
/// writes the RunInfos, "merge" for the pass over the node stores.  Purely
/// observational — the package bytes do not depend on it being set.
using ConditioningTimingHook =
    std::function<void(std::string_view phase, std::int64_t wall_ns)>;

struct ConditioningOptions {
  std::string experiment_name = "experiment";
  std::string comment;
  /// Only condition runs marked complete in the level-2 store (incomplete
  /// runs will be resumed, not stored).  Applies to every run-scoped row:
  /// events, packets, run blobs, RunInfos and log segments.
  bool completed_runs_only = true;
  /// Optional per-phase wall timing (see ConditioningTimingHook).
  ConditioningTimingHook timing_hook;
};

/// Map a local timestamp to the common time base given the node's estimated
/// clock offset (both in nanoseconds); returns seconds on the reference
/// timeline.
double to_common_time(std::int64_t local_time_ns, std::int64_t offset_ns);

/// Build the level-3 package from a level-2 store and the experiment
/// description document.
Result<ExperimentPackage> condition(const Level2Store& level2,
                                    const std::string& description_xml,
                                    const ConditioningOptions& options = {});

}  // namespace excovery::storage
