// Observability context: one object owning the metrics registry, the trace
// buffer and the per-run metrics ledger for a whole experiment execution
// (DESIGN.md §11).
//
// Everything here is out-of-band with respect to measurement: attaching an
// ObsContext (or not) and the worker count must not change a single byte of
// the conditioned level-3 package.  Export into a package's Metrics table
// only happens through the explicit export_metrics() call.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace excovery::storage {
class ExperimentPackage;
}

namespace excovery::obs {

struct ObsConfig {
  /// Collect trace events (spans, packet lifecycles).  Metrics are always
  /// collected while a context is attached.
  bool trace = true;
  /// Draw the packet track on the sim track after every attempt (DESIGN.md
  /// §11).  Off by default: at one async slice per packet this dominates
  /// trace size on large runs.
  bool packet_trace = false;
  /// Minimum seconds between run-progress log lines (<= 0 logs every run).
  double progress_interval_s = 1.0;
};

/// Pre-registered ids for every built-in metric, so hot paths never touch
/// the registry.  Grouped by determinism domain (see MetricDomain).
struct MetricIds {
  // -- deterministic: pure functions of the experiment ---------------------
  MetricId runs_completed;        ///< runs that reached cleanup
  MetricId runs_attempts;         ///< run attempts started (>= completed)
  MetricId runs_retries;          ///< aborted attempts that were retried
  MetricId runs_watchdog_aborts;  ///< attempts killed by the run watchdog
  MetricId runs_deadlock_aborts;  ///< attempts killed by deadlock detection
  MetricId bus_published;         ///< events recorded inside runs
  MetricId bus_dispatched;        ///< recorder watch calls inside runs
  MetricId net_sent;              ///< packets sent (first hop)
  MetricId net_delivered;         ///< packets handed to a receiver
  MetricId net_forwarded;         ///< multi-hop forwards
  MetricId net_dropped;           ///< drops, all causes
  MetricId net_bytes_sent;        ///< payload bytes sent
  MetricId fault_activations;     ///< fault-injector activations
  MetricId fault_deactivations;   ///< fault-injector deactivations
  MetricId fault_packets_dropped;    ///< packets dropped by fault filters
  MetricId fault_packets_delayed;    ///< packets delayed by fault filters
  MetricId fault_packets_duplicated; ///< duplicate copies injected
  MetricId fault_packets_reordered;  ///< packets held back for reordering
  MetricId run_sim_seconds;       ///< log-hist of per-run simulated duration

  // -- best-effort: simulated-time derived but instance-dependent ----------
  MetricId sched_events_executed;  ///< kernel callbacks dispatched
  MetricId sched_timers_cancelled; ///< timers cancelled before firing
  MetricId sched_max_pending;      ///< gauge: pending-event high water
  MetricId sched_arena_slots;      ///< gauge: timer-arena slot count

  // -- wall: real-time measurements, never exported into packages ----------
  MetricId run_wall_ns;            ///< log-hist of per-attempt wall time
  MetricId condition_wall_ns;      ///< log-hist: conditioning phase wall time
  MetricId condition_shards;       ///< node stores conditioned
};

/// Named per-run scalar metrics ("this run executed N kernel events").
/// Every entry is attributable to exactly one run, so the collection is a
/// set — identical no matter which worker recorded which run, and exported
/// in (run, name) order.
class RunMetricsLedger {
 public:
  struct Entry {
    std::int64_t run_id = 0;
    std::string name;
    double value = 0.0;
  };

  void record(std::int64_t run_id, std::string_view name, double value);
  /// All entries ordered by (run_id, name).
  std::vector<Entry> sorted() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

class ObsContext {
 public:
  explicit ObsContext(ObsConfig config = {});

  const ObsConfig& config() const noexcept { return config_; }
  MetricsRegistry& registry() noexcept { return registry_; }
  const MetricIds& ids() const noexcept { return ids_; }
  TraceBuffer& trace() noexcept { return trace_; }
  RunMetricsLedger& ledger() noexcept { return ledger_; }
  ProvenanceLedger& provenance() noexcept { return provenance_; }
  const ProvenanceLedger& provenance() const noexcept { return provenance_; }

  /// Fresh shard over this context's registry, for one worker/instance to
  /// record into without synchronisation.
  MetricsShard make_shard() const { return MetricsShard(&registry_); }
  /// Fold a finished shard into the merged view (thread-safe).
  void merge_shard(const MetricsShard& shard);

  /// Locked single-value recording, for cold paths without their own shard.
  void add(MetricId id, std::uint64_t n = 1);
  void observe(MetricId id, double value);
  void set_gauge(MetricId id, std::int64_t value);

  /// Copy of a metric's merged state (zero cell if never recorded).
  MetricCell merged_cell(MetricId id) const;

  /// Rate-limited run-progress report (INFO log + wall-track counter).
  void report_progress(std::size_t completed, std::size_t total,
                       std::int64_t run_id, int attempt);

  /// Canonical rendering of every deterministic-domain value: merged
  /// deterministic metrics plus the full ledger.  Two executions of the same
  /// experiment must produce identical strings regardless of run_workers —
  /// this is the determinism contract the tests pin down.
  std::string format_deterministic_metrics() const;

  /// Full metrics dump (all domains) as a JSON object, with per-name
  /// mean/p50/p95 summaries over the run ledger.
  std::string metrics_json() const;
  Status write_metrics_json(const std::string& path) const;

  /// Write the ledger (and merged deterministic counters as RunID -1 rows)
  /// into the package's Metrics table.
  Status export_metrics(storage::ExperimentPackage& package) const;

  /// Per-discovery critical paths (DESIGN.md §16) as a JSON object, one
  /// entry per (run, path) with its root-to-discovery steps.  Deterministic:
  /// identical across run_workers values.
  std::string provenance_json() const;
  Status write_provenance_json(const std::string& path) const;

  /// Write the provenance ledger into the package's Provenance table.
  Status export_provenance(storage::ExperimentPackage& package) const;

 private:
  struct MetricValue {
    MetricDesc desc;
    MetricCell cell;
  };
  /// Every registered metric in registration order, read from a copy of
  /// the merged shard taken under the lock.  The copy is itself a merge, so
  /// a gauge reads its maximum; a metric never recorded reads as zero.
  std::vector<MetricValue> merged_metrics() const;

  ObsConfig config_;
  MetricsRegistry registry_;
  MetricIds ids_;
  TraceBuffer trace_;
  RunMetricsLedger ledger_;
  ProvenanceLedger provenance_;

  mutable std::mutex merge_mutex_;
  MetricsShard merged_;

  std::mutex progress_mutex_;
  std::chrono::steady_clock::time_point started_;
  std::chrono::steady_clock::time_point last_progress_log_;
  bool progress_logged_ = false;
};

}  // namespace excovery::obs
