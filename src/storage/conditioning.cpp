#include "storage/conditioning.hpp"

#include <chrono>
#include <cstddef>
#include <unordered_map>
#include <unordered_set>

namespace excovery::storage {

double to_common_time(std::int64_t local_time_ns, std::int64_t offset_ns) {
  return static_cast<double>(local_time_ns - offset_ns) / 1e9;
}

namespace {

/// Offset estimates keyed by run id, one map per node — replaces the
/// per-event linear scan over every sync measurement.
using OffsetsByRun = std::unordered_map<std::int64_t, std::int64_t>;

}  // namespace

Result<ExperimentPackage> condition(const Level2Store& level2,
                                    const std::string& description_xml,
                                    const ConditioningOptions& options) {
  ExperimentPackage package;
  EXC_TRY(package.set_experiment_info(description_xml, options.experiment_name,
                                      options.comment));
  Database& db = package.database();
  Table& logs = *db.table("Logs");
  Table& run_infos = *db.table("RunInfos");
  Table& events = *db.table("Events");
  Table& packets = *db.table("Packets");
  Table& experiment_measurements = *db.table("ExperimentMeasurements");
  Table& extra_run_measurements = *db.table("ExtraRunMeasurements");

  const std::unordered_set<std::int64_t> completed(
      level2.completed_runs().begin(), level2.completed_runs().end());
  auto included = [&](std::int64_t run_id) {
    return !options.completed_runs_only || completed.count(run_id) != 0;
  };

  auto report_phase = [&](std::string_view phase, auto since) {
    if (!options.timing_hook) return;
    options.timing_hook(
        phase, std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - since)
                   .count());
  };

  // RunInfos from the master's sync measurements; at the same time hoist
  // the offset estimates into per-(run, node) caches.  The first sync per
  // (run, node) wins; a node with no sync for a run gets offset 0.
  const auto sync_start = std::chrono::steady_clock::now();
  std::unordered_map<std::string, OffsetsByRun> offsets_by_node;
  for (const SyncMeasurement& sync : level2.syncs()) {
    offsets_by_node[sync.node].emplace(sync.run_id, sync.offset_ns);
    if (!included(sync.run_id)) continue;
    EXC_TRY(run_infos.append({sync.run_id, sync.node,
                              static_cast<double>(sync.run_start_ns) / 1e9,
                              static_cast<double>(sync.offset_ns) / 1e9}));
  }
  report_phase("build_shards", sync_start);

  // One pass over every node store in node-name order, appending typed
  // cells straight into the package tables.  The global
  // experiment-measurement id runs across nodes in that order.  The two
  // large tables are sized for every captured row up front, so each
  // column is allocated once.
  const auto rows_start = std::chrono::steady_clock::now();
  std::size_t event_rows = 0;
  std::size_t packet_rows = 0;
  for (const auto& [node, store] : level2.nodes()) {
    event_rows += store.events().size();
    packet_rows += store.packets().size();
  }
  events.reserve(event_rows);
  packets.reserve(packet_rows);
  std::int64_t measurement_id = 1;
  std::string log;
  std::string parameter_text;
  for (const auto& [node, store] : level2.nodes()) {
    auto node_offsets = offsets_by_node.find(node);
    auto offset_ns = [&](std::int64_t run_id) -> std::int64_t {
      if (node_offsets == offsets_by_node.end()) return 0;
      auto it = node_offsets->second.find(run_id);
      return it == node_offsets->second.end() ? 0 : it->second;
    };

    // The log keeps experiment-scoped segments and those of included runs.
    log.clear();
    for (const LogSegment& segment : store.log_segments()) {
      if (segment.run_id < 0 || included(segment.run_id)) {
        log += segment.text;
      }
    }
    if (!log.empty()) EXC_TRY(logs.append({node, log}));

    // Events: split into single entries on the common time base.  The
    // parameter is stored as text (a null parameter as "").
    for (const RawEvent& event : store.events()) {
      if (!included(event.run_id)) continue;
      std::string_view parameter;
      if (event.parameter.is_string()) {
        parameter = event.parameter.as_string();
      } else if (!event.parameter.is_null()) {
        parameter_text = event.parameter.to_text();
        parameter = parameter_text;
      }
      EXC_TRY(events.append(
          {event.run_id, node,
           to_common_time(event.local_time_ns, offset_ns(event.run_id)),
           event.type, parameter}));
    }

    for (const RawPacket& packet : store.packets()) {
      if (!included(packet.run_id)) continue;
      EXC_TRY(packets.append(
          {packet.run_id, node,
           to_common_time(packet.local_time_ns, offset_ns(packet.run_id)),
           packet.src_node, packet.data}));
    }

    // Named blobs: experiment-scoped ones go to ExperimentMeasurements,
    // run-scoped ones to ExtraRunMeasurements; in each table the node's
    // blobs come before its plugin data.
    const std::vector<NamedBlob>* blob_lists[] = {&store.blobs(),
                                                  &store.plugin_data()};
    for (const std::vector<NamedBlob>* blobs : blob_lists) {
      for (const NamedBlob& blob : *blobs) {
        if (blob.run_id >= 0) continue;
        EXC_TRY(experiment_measurements.append(
            {measurement_id++, node, blob.name, blob.content}));
      }
    }
    for (const std::vector<NamedBlob>* blobs : blob_lists) {
      for (const NamedBlob& blob : *blobs) {
        if (blob.run_id < 0 || !included(blob.run_id)) continue;
        EXC_TRY(extra_run_measurements.append(
            {blob.run_id, node, blob.name, blob.content}));
      }
    }
  }
  report_phase("merge", rows_start);
  return package;
}

}  // namespace excovery::storage
