#include "obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/log.hpp"
#include "stats/metrics.hpp"
#include "storage/package.hpp"

namespace excovery::obs {

namespace {

void append_double(std::string& out, double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

// ---- RunMetricsLedger ------------------------------------------------------

void RunMetricsLedger::record(std::int64_t run_id, std::string_view name,
                              double value) {
  std::lock_guard lock(mutex_);
  Entry entry;
  entry.run_id = run_id;
  entry.name = std::string(name);
  entry.value = value;
  entries_.push_back(std::move(entry));
}

std::vector<RunMetricsLedger::Entry> RunMetricsLedger::sorted() const {
  std::vector<Entry> out;
  {
    std::lock_guard lock(mutex_);
    out = entries_;
  }
  std::stable_sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.run_id != b.run_id) return a.run_id < b.run_id;
    return a.name < b.name;
  });
  return out;
}

std::size_t RunMetricsLedger::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

// ---- ObsContext ------------------------------------------------------------

ObsContext::ObsContext(ObsConfig config)
    : config_(config),
      trace_(config.trace),
      merged_(&registry_),
      started_(std::chrono::steady_clock::now()),
      last_progress_log_(started_) {
  using D = MetricDomain;
  ids_.runs_completed = registry_.counter("runs.completed", D::kDeterministic);
  ids_.runs_attempts = registry_.counter("runs.attempts", D::kDeterministic);
  ids_.runs_retries = registry_.counter("runs.retries", D::kDeterministic);
  ids_.runs_watchdog_aborts =
      registry_.counter("runs.watchdog_aborts", D::kDeterministic);
  ids_.runs_deadlock_aborts =
      registry_.counter("runs.deadlock_aborts", D::kDeterministic);
  ids_.bus_published =
      registry_.counter("bus.published", D::kDeterministic, "events");
  ids_.bus_dispatched =
      registry_.counter("bus.dispatched", D::kDeterministic, "callbacks");
  ids_.net_sent = registry_.counter("net.sent", D::kDeterministic, "packets");
  ids_.net_delivered =
      registry_.counter("net.delivered", D::kDeterministic, "packets");
  ids_.net_forwarded =
      registry_.counter("net.forwarded", D::kDeterministic, "packets");
  ids_.net_dropped =
      registry_.counter("net.dropped", D::kDeterministic, "packets");
  ids_.net_bytes_sent =
      registry_.counter("net.bytes_sent", D::kDeterministic, "bytes");
  ids_.fault_activations =
      registry_.counter("faults.activations", D::kDeterministic);
  ids_.fault_deactivations =
      registry_.counter("faults.deactivations", D::kDeterministic);
  ids_.fault_packets_dropped =
      registry_.counter("faults.packets_dropped", D::kDeterministic, "packets");
  ids_.fault_packets_delayed =
      registry_.counter("faults.packets_delayed", D::kDeterministic, "packets");
  ids_.fault_packets_duplicated = registry_.counter(
      "faults.packets_duplicated", D::kDeterministic, "packets");
  ids_.fault_packets_reordered = registry_.counter(
      "faults.packets_reordered", D::kDeterministic, "packets");
  ids_.run_sim_seconds =
      registry_.log_histogram("run.sim_seconds", D::kDeterministic, "s");

  ids_.sched_events_executed =
      registry_.counter("sched.events_executed", D::kBestEffort, "events");
  ids_.sched_timers_cancelled =
      registry_.counter("sched.timers_cancelled", D::kBestEffort, "timers");
  ids_.sched_max_pending =
      registry_.gauge("sched.max_pending", D::kBestEffort, "events");
  ids_.sched_arena_slots =
      registry_.gauge("sched.arena_slots", D::kBestEffort, "slots");

  ids_.run_wall_ns = registry_.log_histogram("run.wall_ns", D::kWall, "ns");
  ids_.condition_wall_ns =
      registry_.log_histogram("storage.condition_wall_ns", D::kWall, "ns");
  ids_.condition_shards =
      registry_.counter("storage.condition_shards", D::kWall, "shards");
}

void ObsContext::merge_shard(const MetricsShard& shard) {
  std::lock_guard lock(merge_mutex_);
  merged_.merge_from(shard);
}

void ObsContext::add(MetricId id, std::uint64_t n) {
  std::lock_guard lock(merge_mutex_);
  merged_.add(id, n);
}

void ObsContext::observe(MetricId id, double value) {
  std::lock_guard lock(merge_mutex_);
  merged_.observe(id, value);
}

void ObsContext::set_gauge(MetricId id, std::int64_t value) {
  std::lock_guard lock(merge_mutex_);
  merged_.set_gauge(id, value);
}

MetricCell ObsContext::merged_cell(MetricId id) const {
  std::lock_guard lock(merge_mutex_);
  const MetricCell* cell = merged_.cell(id);
  return cell ? *cell : MetricCell{};
}

void ObsContext::report_progress(std::size_t completed, std::size_t total,
                                 std::int64_t run_id, int attempt) {
  const auto now = std::chrono::steady_clock::now();
  bool log_line = false;
  {
    std::lock_guard lock(progress_mutex_);
    const double since_last =
        std::chrono::duration<double>(now - last_progress_log_).count();
    if (!progress_logged_ || completed >= total ||
        since_last >= config_.progress_interval_s) {
      log_line = true;
      progress_logged_ = true;
      last_progress_log_ = now;
    }
  }
  if (log_line) {
    const double elapsed =
        std::chrono::duration<double>(now - started_).count();
    const double pct =
        total == 0 ? 100.0
                   : 100.0 * static_cast<double>(completed) /
                         static_cast<double>(total);
    char line[160];
    std::snprintf(line, sizeof line,
                  "runs %zu/%zu (%.1f%%) last=#%lld attempt=%d elapsed=%.2fs",
                  completed, total, pct, static_cast<long long>(run_id),
                  attempt, elapsed);
    EXC_LOG_INFO("obs", line);
  }
  trace_.counter(Track::kWall, 0, "runs_completed", trace_.wall_now_ns(),
                 static_cast<double>(completed));
}

std::vector<ObsContext::MetricValue> ObsContext::merged_metrics() const {
  // A copy, not a merge_from into an empty shard: merging would report
  // every gauge's maximum as its last value.
  MetricsShard merged(&registry_);
  {
    std::lock_guard lock(merge_mutex_);
    merged = merged_;
  }
  std::vector<MetricDesc> descs = registry_.descriptors();
  std::vector<MetricValue> values;
  values.reserve(descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    const MetricCell* cell =
        merged.cell(MetricId{static_cast<std::uint32_t>(i)});
    values.push_back({std::move(descs[i]), cell ? *cell : MetricCell{}});
  }
  return values;
}

std::string ObsContext::format_deterministic_metrics() const {
  std::string out;
  for (const auto& [desc, cell] : merged_metrics()) {
    if (desc.domain != MetricDomain::kDeterministic) continue;
    out += desc.name;
    switch (desc.kind) {
      case MetricKind::kCounter:
        out += '=';
        append_u64(out, cell.count);
        break;
      case MetricKind::kGauge:
        out += '=';
        if (cell.gauge_set) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%lld",
                        static_cast<long long>(cell.gauge_last));
          out += buf;
        } else {
          out += "unset";
        }
        break;
      case MetricKind::kHistogram:
        out += " count=";
        append_u64(out, cell.count);
        out += " nan=";
        append_u64(out, cell.nan_count);
        if (cell.count > 0) {
          out += " sum=";
          append_double(out, cell.sum);
          out += " min=";
          append_double(out, cell.min);
          out += " max=";
          append_double(out, cell.max);
        }
        out += " bins=";
        bool first = true;
        for (std::size_t b = 0; b < cell.bins.size(); ++b) {
          if (cell.bins[b] == 0) continue;
          if (!first) out += ',';
          first = false;
          append_u64(out, b);
          out += ':';
          append_u64(out, cell.bins[b]);
        }
        break;
    }
    out += '\n';
  }

  for (const RunMetricsLedger::Entry& entry : ledger_.sorted()) {
    out += "run/";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(entry.run_id));
    out += buf;
    out += '/';
    out += entry.name;
    out += '=';
    append_double(out, entry.value);
    out += '\n';
  }
  return out;
}

std::string ObsContext::metrics_json() const {
  const std::vector<MetricValue> metrics = merged_metrics();
  const std::vector<RunMetricsLedger::Entry> entries = ledger_.sorted();

  std::string out = "{\n\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricDesc& desc = metrics[i].desc;
    const MetricCell* cell = &metrics[i].cell;
    if (i != 0) out += ',';
    out += "\n{\"name\":\"";
    out += json_escape(desc.name);
    out += "\",\"kind\":\"";
    out += to_string(desc.kind);
    out += "\",\"domain\":\"";
    out += to_string(desc.domain);
    out += "\",\"unit\":\"";
    out += json_escape(desc.unit);
    out += '"';
    switch (desc.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":";
        append_u64(out, cell->count);
        break;
      case MetricKind::kGauge:
        if (cell->gauge_set) {
          char buf[64];
          std::snprintf(buf, sizeof buf, ",\"last\":%lld,\"max\":%lld",
                        static_cast<long long>(cell->gauge_last),
                        static_cast<long long>(cell->gauge_max));
          out += buf;
        } else {
          out += ",\"last\":null";
        }
        break;
      case MetricKind::kHistogram:
        out += ",\"count\":";
        append_u64(out, cell->count);
        out += ",\"nan\":";
        append_u64(out, cell->nan_count);
        if (cell->count > 0) {
          out += ",\"sum\":";
          append_double(out, cell->sum);
          out += ",\"mean\":";
          append_double(out, cell->sum / static_cast<double>(cell->count));
          out += ",\"min\":";
          append_double(out, cell->min);
          out += ",\"max\":";
          append_double(out, cell->max);
        }
        // Non-empty bins as [lower_bound, count] pairs.
        out += ",\"bins\":[";
        {
          bool first = true;
          for (std::size_t b = 0; b < cell->bins.size(); ++b) {
            if (cell->bins[b] == 0) continue;
            if (!first) out += ',';
            first = false;
            out += '[';
            append_double(out, log_bin_lower(b));
            out += ',';
            append_u64(out, cell->bins[b]);
            out += ']';
          }
        }
        out += ']';
        break;
    }
    out += '}';
  }
  out += "\n],\n\"run_summaries\":[";

  // Per-name summaries over the ledger, using the analysis layer's
  // percentile so the dump matches what the stats tooling would report.
  std::map<std::string, std::vector<double>> by_name;
  for (const auto& entry : entries) {
    by_name[entry.name].push_back(entry.value);
  }
  bool first_summary = true;
  for (const auto& [name, values] : by_name) {
    if (!first_summary) out += ',';
    first_summary = false;
    out += "\n{\"name\":\"";
    out += json_escape(name);
    out += "\",\"runs\":";
    append_u64(out, values.size());
    out += ",\"mean\":";
    append_double(out, stats::mean(values));
    out += ",\"p50\":";
    append_double(out, stats::percentile(values, 50.0));
    out += ",\"p95\":";
    append_double(out, stats::percentile(values, 95.0));
    out += ",\"min\":";
    append_double(out, stats::min_of(values));
    out += ",\"max\":";
    append_double(out, stats::max_of(values));
    out += '}';
  }
  out += "\n],\n\"runs\":[";

  bool first_run = true;
  std::int64_t open_run = 0;
  bool run_open = false;
  for (const auto& entry : entries) {
    if (!run_open || entry.run_id != open_run) {
      if (run_open) out += "}}";
      if (!first_run) out += ',';
      first_run = false;
      run_open = true;
      open_run = entry.run_id;
      out += "\n{\"run\":";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(entry.run_id));
      out += buf;
      out += ",\"values\":{";
      out += '"';
      out += json_escape(entry.name);
      out += "\":";
      append_double(out, entry.value);
      continue;
    }
    out += ",\"";
    out += json_escape(entry.name);
    out += "\":";
    append_double(out, entry.value);
  }
  if (run_open) out += "}}";
  out += "\n]\n}\n";
  return out;
}

Status ObsContext::write_metrics_json(const std::string& path) const {
  return write_text_file(path, metrics_json(), "metrics output file");
}

Status ObsContext::export_metrics(storage::ExperimentPackage& package) const {
  // Experiment-wide deterministic values first, as RunID -1 rows.
  for (const auto& [desc, cell] : merged_metrics()) {
    if (desc.domain != MetricDomain::kDeterministic) continue;
    switch (desc.kind) {
      case MetricKind::kCounter:
        EXC_TRY(package.add_metric(-1, desc.name,
                                   static_cast<double>(cell.count)));
        break;
      case MetricKind::kGauge:
        if (cell.gauge_set) {
          EXC_TRY(package.add_metric(
              -1, desc.name, static_cast<double>(cell.gauge_last)));
        }
        break;
      case MetricKind::kHistogram:
        EXC_TRY(package.add_metric(-1, desc.name + ".count",
                                   static_cast<double>(cell.count)));
        EXC_TRY(package.add_metric(-1, desc.name + ".sum", cell.sum));
        break;
    }
  }
  for (const RunMetricsLedger::Entry& entry : ledger_.sorted()) {
    EXC_TRY(package.add_metric(entry.run_id, entry.name, entry.value));
  }
  return Status::ok_status();
}

std::string ObsContext::provenance_json() const {
  const std::vector<storage::ProvenanceRow> rows = provenance_.sorted();
  std::string out = "{\n\"paths\":[";
  bool path_open = false;
  std::int64_t open_run = 0;
  std::int64_t open_path = 0;
  bool first_path = true;
  for (const storage::ProvenanceRow& row : rows) {
    if (!path_open || row.run_id != open_run || row.path != open_path) {
      if (path_open) out += "]}";
      if (!first_path) out += ',';
      first_path = false;
      path_open = true;
      open_run = row.run_id;
      open_path = row.path;
      char buf[64];
      std::snprintf(buf, sizeof buf, "\n{\"run\":%lld,\"path\":%lld",
                    static_cast<long long>(row.run_id),
                    static_cast<long long>(row.path));
      out += buf;
      out += ",\"steps\":[";
    } else {
      out += ',';
    }
    out += "\n{\"kind\":\"";
    out += json_escape(row.kind);
    out += "\",\"node\":\"";
    out += json_escape(row.node_id);
    out += "\",\"detail\":\"";
    out += json_escape(row.detail);
    out += "\",\"t\":";
    append_double(out, row.time);
    out += ",\"latency\":";
    append_double(out, row.latency);
    out += '}';
  }
  if (path_open) out += "]}";
  out += "\n]\n}\n";
  return out;
}

Status ObsContext::write_provenance_json(const std::string& path) const {
  return write_text_file(path, provenance_json(), "provenance output file");
}

Status ObsContext::export_provenance(
    storage::ExperimentPackage& package) const {
  for (const storage::ProvenanceRow& row : provenance_.sorted()) {
    EXC_TRY(package.add_provenance(row));
  }
  return Status::ok_status();
}

}  // namespace excovery::obs
