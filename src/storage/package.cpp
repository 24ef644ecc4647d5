#include "storage/package.hpp"

#include <algorithm>

namespace excovery::storage {

namespace {

TableSchema experiment_info_schema() {
  return {"ExperimentInfo",
          {{"ExpXML", ValueType::kString, false},
           {"EEVersion", ValueType::kString, false},
           {"Name", ValueType::kString, false},
           {"Comment", ValueType::kString, true}}};
}
TableSchema logs_schema() {
  return {"Logs",
          {{"NodeID", ValueType::kString, false},
           {"Log", ValueType::kString, false}}};
}
TableSchema ee_files_schema() {
  return {"EEFiles",
          {{"ID", ValueType::kString, false},
           {"File", ValueType::kBytes, false}}};
}
TableSchema experiment_measurements_schema() {
  return {"ExperimentMeasurements",
          {{"ID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"Name", ValueType::kString, false},
           {"Content", ValueType::kString, true}}};
}
TableSchema run_infos_schema() {
  return {"RunInfos",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"StartTime", ValueType::kDouble, false},
           {"TimeDiff", ValueType::kDouble, false}}};
}
TableSchema extra_run_measurements_schema() {
  return {"ExtraRunMeasurements",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"Name", ValueType::kString, false},
           {"Content", ValueType::kString, true}}};
}
TableSchema events_schema() {
  return {"Events",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"CommonTime", ValueType::kDouble, false},
           {"EventType", ValueType::kString, false},
           {"Parameter", ValueType::kString, true}}};
}
TableSchema packets_schema() {
  return {"Packets",
          {{"RunID", ValueType::kInt, false},
           {"NodeID", ValueType::kString, false},
           {"CommonTime", ValueType::kDouble, false},
           {"SrcNodeID", ValueType::kString, false},
           {"Data", ValueType::kBytes, false}}};
}

TableSchema metrics_schema() {
  return {"Metrics",
          {{"RunID", ValueType::kInt, false},
           {"Name", ValueType::kString, false},
           {"Value", ValueType::kDouble, false}}};
}

TableSchema provenance_schema() {
  return {"Provenance",
          {{"RunID", ValueType::kInt, false},
           {"Path", ValueType::kInt, false},
           {"Seq", ValueType::kInt, false},
           {"Kind", ValueType::kString, false},
           {"NodeID", ValueType::kString, false},
           {"Detail", ValueType::kString, true},
           {"Time", ValueType::kDouble, false},
           {"Latency", ValueType::kDouble, false}}};
}

/// The package schema in creation order: a fresh package creates these
/// tables, and a loaded one must hold each with exactly these columns.
using SchemaFn = TableSchema (*)();
constexpr SchemaFn kSchemas[] = {
    experiment_info_schema, logs_schema,
    ee_files_schema,        experiment_measurements_schema,
    run_infos_schema,       extra_run_measurements_schema,
    events_schema,          packets_schema,
    metrics_schema,         provenance_schema};

bool same_column(const Column& a, const Column& b) {
  return a.name == b.name && a.type == b.type && a.nullable == b.nullable;
}

}  // namespace

ExperimentPackage::ExperimentPackage() {
  // Creation of the canonical schema cannot fail on an empty database.
  for (SchemaFn schema : kSchemas) (void)db_.create_table(schema());
}

Result<ExperimentPackage> ExperimentPackage::from_database(Database db) {
  ExperimentPackage package(std::move(db));
  EXC_TRY(package.check_schema());
  return package;
}

Result<ExperimentPackage> ExperimentPackage::load(const std::string& path) {
  EXC_ASSIGN_OR_RETURN(Database db, Database::load(path));
  return from_database(std::move(db));
}

Status ExperimentPackage::check_schema() const {
  // Every reader indexes columns by position, so a table with the right
  // name but other columns is as unreadable as a missing one.
  for (SchemaFn schema : kSchemas) {
    const TableSchema expected = schema();
    const Table* table = db_.table(expected.name);
    if (!table) {
      return err_validation("package missing table '" + expected.name + "'");
    }
    const std::vector<Column>& columns = table->schema().columns;
    if (!std::equal(columns.begin(), columns.end(), expected.columns.begin(),
                    expected.columns.end(), same_column)) {
      return err_validation("package table '" + expected.name +
                            "' does not match the package schema");
    }
  }
  return {};
}

Status ExperimentPackage::set_experiment_info(
    const std::string& description_xml, const std::string& name,
    const std::string& comment) {
  Table* info = db_.table("ExperimentInfo");
  if (info->row_count() != 0) {
    return err_state("ExperimentInfo already set (single-tuple table)");
  }
  return info->append({description_xml, kEeVersion, name, comment});
}

Result<std::string> ExperimentPackage::description_xml() const {
  const Table* info = db_.table("ExperimentInfo");
  if (info->row_count() != 1) return err_state("ExperimentInfo not set");
  return std::string(info->row(0).as_string(0));
}

Result<std::string> ExperimentPackage::experiment_name() const {
  const Table* info = db_.table("ExperimentInfo");
  if (info->row_count() != 1) return err_state("ExperimentInfo not set");
  return std::string(info->row(0).as_string(2));
}

Result<std::string> ExperimentPackage::ee_version() const {
  const Table* info = db_.table("ExperimentInfo");
  if (info->row_count() != 1) return err_state("ExperimentInfo not set");
  return std::string(info->row(0).as_string(1));
}

Status ExperimentPackage::add_log(const std::string& node_id,
                                  const std::string& log_text) {
  return db_.table("Logs")->append({node_id, log_text});
}

Status ExperimentPackage::add_ee_file(const std::string& id,
                                      const Bytes& contents) {
  return db_.table("EEFiles")->append({id, contents});
}

Status ExperimentPackage::add_experiment_measurement(std::int64_t id,
                                                     const std::string& node_id,
                                                     const std::string& name,
                                                     const std::string& content) {
  return db_.table("ExperimentMeasurements")
      ->append({id, node_id, name, content});
}

Status ExperimentPackage::add_run_info(const RunInfoRow& info) {
  return db_.table("RunInfos")
      ->append({info.run_id, info.node_id, info.start_time, info.time_diff});
}

Status ExperimentPackage::add_extra_run_measurement(std::int64_t run_id,
                                                    const std::string& node_id,
                                                    const std::string& name,
                                                    const std::string& content) {
  return db_.table("ExtraRunMeasurements")
      ->append({run_id, node_id, name, content});
}

Status ExperimentPackage::add_event(const EventRow& event) {
  return db_.table("Events")->append({event.run_id, event.node_id,
                                      event.common_time, event.event_type,
                                      event.parameter});
}

Status ExperimentPackage::add_packet(const PacketRow& packet) {
  return db_.table("Packets")->append({packet.run_id, packet.node_id,
                                       packet.common_time, packet.src_node_id,
                                       packet.data});
}

Status ExperimentPackage::add_metric(std::int64_t run_id,
                                     const std::string& name, double value) {
  return db_.table("Metrics")->append({run_id, name, value});
}

Status ExperimentPackage::add_provenance(const ProvenanceRow& row) {
  return db_.table("Provenance")
      ->append({row.run_id, row.path, row.seq, row.kind, row.node_id,
                row.detail, row.time, row.latency});
}

std::vector<ProvenanceRow> ExperimentPackage::provenance() const {
  const Table* table = db_.table("Provenance");
  std::vector<ProvenanceRow> out;
  out.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    RowView row = table->row(r);
    ProvenanceRow step;
    step.run_id = row.as_int(0);
    step.path = row.as_int(1);
    step.seq = row.as_int(2);
    step.kind = std::string(row.as_string(3));
    step.node_id = std::string(row.as_string(4));
    step.detail = row.is_null(5) ? "" : std::string(row.as_string(5));
    step.time = row.as_double(6);
    step.latency = row.as_double(7);
    out.push_back(std::move(step));
  }
  return out;
}

std::vector<MetricRow> ExperimentPackage::metrics() const {
  const Table* table = db_.table("Metrics");
  std::vector<MetricRow> out;
  out.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    RowView row = table->row(r);
    MetricRow metric;
    metric.run_id = row.as_int(0);
    metric.name = std::string(row.as_string(1));
    metric.value = row.as_double(2);
    out.push_back(std::move(metric));
  }
  return out;
}

namespace {
EventRow event_from_row(const RowView& row) {
  EventRow event;
  event.run_id = row.as_int(0);
  event.node_id = std::string(row.as_string(1));
  event.common_time = row.as_double(2);
  event.event_type = std::string(row.as_string(3));
  event.parameter = row.is_null(4) ? "" : std::string(row.as_string(4));
  return event;
}
PacketRow packet_from_row(const RowView& row) {
  PacketRow packet;
  packet.run_id = row.as_int(0);
  packet.node_id = std::string(row.as_string(1));
  packet.common_time = row.as_double(2);
  packet.src_node_id = std::string(row.as_string(3));
  packet.data = row.as_bytes(4);
  return packet;
}
}  // namespace

Result<std::vector<EventRow>> ExperimentPackage::events(
    std::int64_t run_id) const {
  const Table* table = db_.table("Events");
  std::vector<RowView> rows = table->select_equals("RunID", Value{run_id});
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RowView& a, const RowView& b) {
                     return a.as_double(2) < b.as_double(2);
                   });
  std::vector<EventRow> out;
  out.reserve(rows.size());
  for (const RowView& row : rows) out.push_back(event_from_row(row));
  return out;
}

Result<std::vector<EventRow>> ExperimentPackage::all_events() const {
  const Table* table = db_.table("Events");
  std::vector<RowView> rows;
  rows.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    rows.push_back(table->row(r));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RowView& a, const RowView& b) {
                     if (a.as_int(0) != b.as_int(0)) {
                       return a.as_int(0) < b.as_int(0);
                     }
                     return a.as_double(2) < b.as_double(2);
                   });
  std::vector<EventRow> out;
  out.reserve(rows.size());
  for (const RowView& row : rows) out.push_back(event_from_row(row));
  return out;
}

Result<std::vector<PacketRow>> ExperimentPackage::packets(
    std::int64_t run_id) const {
  const Table* table = db_.table("Packets");
  std::vector<RowView> rows = table->select_equals("RunID", Value{run_id});
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RowView& a, const RowView& b) {
                     return a.as_double(2) < b.as_double(2);
                   });
  std::vector<PacketRow> out;
  out.reserve(rows.size());
  for (const RowView& row : rows) out.push_back(packet_from_row(row));
  return out;
}

Result<std::vector<RunInfoRow>> ExperimentPackage::run_infos() const {
  const Table* table = db_.table("RunInfos");
  std::vector<RunInfoRow> out;
  out.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    RowView row = table->row(r);
    RunInfoRow info;
    info.run_id = row.as_int(0);
    info.node_id = std::string(row.as_string(1));
    info.start_time = row.as_double(2);
    info.time_diff = row.as_double(3);
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<std::int64_t> ExperimentPackage::run_ids() const {
  const Table* table = db_.table("RunInfos");
  std::vector<std::int64_t> out;
  out.reserve(table->row_count());
  for (std::size_t r = 0; r < table->row_count(); ++r) {
    out.push_back(table->row(r).as_int(0));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string ExperimentPackage::log_for(const std::string& node_id) const {
  const Table* table = db_.table("Logs");
  std::vector<RowView> rows = table->select_equals("NodeID", Value{node_id});
  std::string out;
  for (const RowView& row : rows) out += row.as_string(1);
  return out;
}

std::size_t ExperimentPackage::event_count() const {
  return db_.table("Events")->row_count();
}

std::size_t ExperimentPackage::packet_count() const {
  return db_.table("Packets")->row_count();
}

}  // namespace excovery::storage
