// Level-2 (intermediate) storage: raw, unconditioned measurement data.
//
// §IV-B5: "Each participating node has its own temporary storage for
// recorded data, organized into data belonging to single runs and data
// valid for the complete experiment.  Time synchronization measurements are
// stored on the experiment master.  Plugins have a separate storage
// location on the node where the custom measurements are done."
//
// Timestamps here are *local* node clock readings in integer nanoseconds;
// conditioning (conditioning.hpp) maps them onto the common time base.
// The store persists as a file-system hierarchy (one binary store per node
// plus one for the master) so that collection and resume-after-abort can
// pick it up, mirroring the prototype's "special hierarchy on a file
// system".
//
// Run extraction/merge (extract_run / merge_run) is the level-2 half of the
// run-parallel executor (DESIGN.md §10): worker replicas record into private
// stores, the master pulls each finished run out and splices it in at the
// position run-id order dictates, so the merged store is byte-identical to
// one produced by sequential execution.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/value.hpp"

namespace excovery::storage {

/// A raw (unconditioned) event record on a node.
struct RawEvent {
  std::int64_t run_id = 0;
  std::int64_t local_time_ns = 0;
  std::string type;
  Value parameter;
};

/// A raw captured packet on a node.
struct RawPacket {
  std::int64_t run_id = 0;
  std::int64_t local_time_ns = 0;
  std::string src_node;
  Bytes data;
};

/// A named blob, run-scoped or experiment-scoped.
struct NamedBlob {
  std::int64_t run_id = -1;  ///< -1 = experiment-scoped
  std::string name;
  std::string content;
};

/// One flushed chunk of a node's log.  Run-scoped segments let
/// discard_run drop an aborted run's log lines and let merge_run splice a
/// run's lines in at the right position.
struct LogSegment {
  std::int64_t run_id = -1;  ///< -1 = experiment-scoped
  std::string text;
};

/// Everything one node recorded for a single run, in recording order.
struct RunNodeData {
  std::vector<RawEvent> events;
  std::vector<RawPacket> packets;
  std::vector<NamedBlob> blobs;
  std::vector<NamedBlob> plugin_data;
  std::vector<LogSegment> log_segments;

  bool empty() const noexcept {
    return events.empty() && packets.empty() && blobs.empty() &&
           plugin_data.empty() && log_segments.empty();
  }
};

/// Per-node temporary storage.
class NodeStore {
 public:
  void record_event(RawEvent event) { events_.push_back(std::move(event)); }
  void record_packet(RawPacket packet) {
    packets_.push_back(std::move(packet));
  }
  void add_run_blob(std::int64_t run_id, std::string name,
                    std::string content) {
    blobs_.push_back({run_id, std::move(name), std::move(content)});
  }
  void add_experiment_blob(std::string name, std::string content) {
    blobs_.push_back({-1, std::move(name), std::move(content)});
  }
  /// Add or replace an experiment-scoped blob by name.  Replacement keeps
  /// the original position, so a resumed experiment that re-takes the same
  /// measurement reproduces the blob order of an uninterrupted one.
  void set_experiment_blob(const std::string& name, std::string content);
  /// Plugin measurements live in their own location (§IV-B5).
  void add_plugin_measurement(std::int64_t run_id, std::string plugin,
                              std::string name, std::string content) {
    plugin_data_.push_back(
        {run_id, plugin + "/" + std::move(name), std::move(content)});
  }
  /// Append an experiment-scoped log chunk.
  void append_log(std::string text) {
    if (!text.empty()) log_segments_.push_back({-1, std::move(text)});
  }
  /// Append a run-scoped log chunk (flushed by the node at run exit).
  void append_run_log(std::int64_t run_id, std::string text) {
    if (!text.empty()) log_segments_.push_back({run_id, std::move(text)});
  }

  const std::vector<RawEvent>& events() const noexcept { return events_; }
  const std::vector<RawPacket>& packets() const noexcept { return packets_; }
  const std::vector<NamedBlob>& blobs() const noexcept { return blobs_; }
  const std::vector<NamedBlob>& plugin_data() const noexcept {
    return plugin_data_;
  }
  const std::vector<LogSegment>& log_segments() const noexcept {
    return log_segments_;
  }
  /// The node's full log, segments concatenated in order.
  std::string log() const;

  /// Drop data belonging to one run (used when an aborted run is re-done).
  void discard_run(std::int64_t run_id);

  /// Move out everything belonging to one run, preserving recording order.
  RunNodeData extract_run(std::int64_t run_id);
  /// Splice a run's data in where run-id order dictates: appended when this
  /// store holds nothing from a later run, otherwise inserted before the
  /// first element of the next run.
  void merge_run(std::int64_t run_id, RunNodeData data);

  void clear();

  Bytes serialize() const;
  static Result<NodeStore> deserialize(const Bytes& data);

 private:
  std::vector<RawEvent> events_;
  std::vector<RawPacket> packets_;
  std::vector<NamedBlob> blobs_;
  std::vector<NamedBlob> plugin_data_;
  std::vector<LogSegment> log_segments_;
};

/// Time-sync estimate for one (run, node), held by the master.
struct SyncMeasurement {
  std::int64_t run_id = 0;
  std::string node;
  std::int64_t offset_ns = 0;      ///< estimated local - reference offset
  std::int64_t run_start_ns = 0;   ///< reference-time start of the run
};

/// All level-2 data one run produced across every node plus the master's
/// sync measurements — the unit moved from a worker replica's store into
/// the master store.
struct RunData {
  std::int64_t run_id = 0;
  std::map<std::string, RunNodeData> nodes;
  std::vector<SyncMeasurement> syncs;
};

/// The complete level-2 store: per-node stores plus master-side data.
class Level2Store {
 public:
  NodeStore& node(const std::string& name) { return nodes_[name]; }
  const NodeStore* find_node(const std::string& name) const;
  std::vector<std::string> node_names() const;
  /// Every node store, in node-name order.
  const std::map<std::string, NodeStore>& nodes() const noexcept {
    return nodes_;
  }

  void add_sync(SyncMeasurement sync) { syncs_.push_back(std::move(sync)); }
  const std::vector<SyncMeasurement>& syncs() const noexcept { return syncs_; }

  /// Runs that completed (collection only conditions complete runs; an
  /// aborted run is resumed, §VII).
  void mark_run_complete(std::int64_t run_id) {
    completed_runs_.push_back(run_id);
  }
  const std::vector<std::int64_t>& completed_runs() const noexcept {
    return completed_runs_;
  }
  bool run_complete(std::int64_t run_id) const;

  /// Drop all traces of a run on every node (resume of an aborted run).
  void discard_run(std::int64_t run_id);

  /// Move one run's data out of this store (a worker shard hands its run to
  /// the master this way).  Does not touch the completed-run markers.
  RunData extract_run(std::int64_t run_id);
  /// Splice a run's data in at the position ascending run-id order
  /// dictates on every node and in the sync list.
  void merge_run(RunData data);

  void clear();

  // ---- file-system hierarchy persistence -------------------------------
  /// Writes <dir>/nodes/<name>.store and <dir>/master.store.
  Status write_to_directory(const std::string& directory) const;
  static Result<Level2Store> load_from_directory(const std::string& directory);

 private:
  std::map<std::string, NodeStore> nodes_;
  std::vector<SyncMeasurement> syncs_;
  std::vector<std::int64_t> completed_runs_;
};

}  // namespace excovery::storage
