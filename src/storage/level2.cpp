#include "storage/level2.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/bytes.hpp"

namespace excovery::storage {

namespace {

constexpr std::uint32_t kNodeStoreMagic = 0x4E533300;  // "NS3\0"

/// Move every element of `run_id` out of `src` (order preserved),
/// compacting `src` in place.
template <typename T>
std::vector<T> take_run(std::vector<T>& src, std::int64_t run_id) {
  std::vector<T> out;
  auto keep = src.begin();
  for (auto it = src.begin(); it != src.end(); ++it) {
    if (it->run_id == run_id) {
      out.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  src.erase(keep, src.end());
  return out;
}

/// Insert `src` where ascending run-id order dictates: before the first
/// element of a later run.  Run-scoped elements are kept in run order and
/// experiment-scoped ones (run_id -1) only precede run data, so the common
/// case — nothing from a later run yet — is a plain append.
template <typename T>
void insert_run_ordered(std::vector<T>& dst, std::vector<T>&& src,
                        std::int64_t run_id) {
  if (src.empty()) return;
  auto pos = dst.end();
  if (!dst.empty() && dst.back().run_id > run_id) {
    pos = std::find_if(dst.begin(), dst.end(), [run_id](const T& item) {
      return item.run_id > run_id;
    });
  }
  dst.insert(pos, std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
}

}  // namespace

void NodeStore::set_experiment_blob(const std::string& name,
                                    std::string content) {
  for (NamedBlob& blob : blobs_) {
    if (blob.run_id < 0 && blob.name == name) {
      blob.content = std::move(content);
      return;
    }
  }
  blobs_.push_back({-1, name, std::move(content)});
}

std::string NodeStore::log() const {
  std::string out;
  std::size_t total = 0;
  for (const LogSegment& segment : log_segments_) total += segment.text.size();
  out.reserve(total);
  for (const LogSegment& segment : log_segments_) out += segment.text;
  return out;
}

void NodeStore::discard_run(std::int64_t run_id) {
  auto run_matches = [run_id](const auto& item) {
    return item.run_id == run_id;
  };
  events_.erase(std::remove_if(events_.begin(), events_.end(), run_matches),
                events_.end());
  packets_.erase(std::remove_if(packets_.begin(), packets_.end(), run_matches),
                 packets_.end());
  blobs_.erase(std::remove_if(blobs_.begin(), blobs_.end(), run_matches),
               blobs_.end());
  plugin_data_.erase(
      std::remove_if(plugin_data_.begin(), plugin_data_.end(), run_matches),
      plugin_data_.end());
  log_segments_.erase(std::remove_if(log_segments_.begin(),
                                     log_segments_.end(), run_matches),
                      log_segments_.end());
}

RunNodeData NodeStore::extract_run(std::int64_t run_id) {
  RunNodeData data;
  data.events = take_run(events_, run_id);
  data.packets = take_run(packets_, run_id);
  data.blobs = take_run(blobs_, run_id);
  data.plugin_data = take_run(plugin_data_, run_id);
  data.log_segments = take_run(log_segments_, run_id);
  return data;
}

void NodeStore::merge_run(std::int64_t run_id, RunNodeData data) {
  insert_run_ordered(events_, std::move(data.events), run_id);
  insert_run_ordered(packets_, std::move(data.packets), run_id);
  insert_run_ordered(blobs_, std::move(data.blobs), run_id);
  insert_run_ordered(plugin_data_, std::move(data.plugin_data), run_id);
  insert_run_ordered(log_segments_, std::move(data.log_segments), run_id);
}

void NodeStore::clear() {
  events_.clear();
  packets_.clear();
  blobs_.clear();
  plugin_data_.clear();
  log_segments_.clear();
}

Bytes NodeStore::serialize() const {
  ByteWriter w;
  w.u32(kNodeStoreMagic);
  w.u64(events_.size());
  for (const RawEvent& event : events_) {
    w.i64(event.run_id);
    w.i64(event.local_time_ns);
    w.string(event.type);
    w.value(event.parameter);
  }
  w.u64(packets_.size());
  for (const RawPacket& packet : packets_) {
    w.i64(packet.run_id);
    w.i64(packet.local_time_ns);
    w.string(packet.src_node);
    w.blob(packet.data);
  }
  auto write_blobs = [&w](const std::vector<NamedBlob>& blobs) {
    w.u64(blobs.size());
    for (const NamedBlob& blob : blobs) {
      w.i64(blob.run_id);
      w.string(blob.name);
      w.string(blob.content);
    }
  };
  write_blobs(blobs_);
  write_blobs(plugin_data_);
  w.u64(log_segments_.size());
  for (const LogSegment& segment : log_segments_) {
    w.i64(segment.run_id);
    w.string(segment.text);
  }
  return w.take();
}

Result<NodeStore> NodeStore::deserialize(const Bytes& data) {
  ByteReader r(data);
  EXC_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
  if (magic != kNodeStoreMagic) return err_io("not a node store blob");
  NodeStore store;
  EXC_ASSIGN_OR_RETURN(std::uint64_t event_count, r.u64());
  for (std::uint64_t i = 0; i < event_count; ++i) {
    RawEvent event;
    EXC_ASSIGN_OR_RETURN(event.run_id, r.i64());
    EXC_ASSIGN_OR_RETURN(event.local_time_ns, r.i64());
    EXC_ASSIGN_OR_RETURN(event.type, r.string());
    EXC_ASSIGN_OR_RETURN(event.parameter, r.value());
    store.events_.push_back(std::move(event));
  }
  EXC_ASSIGN_OR_RETURN(std::uint64_t packet_count, r.u64());
  for (std::uint64_t i = 0; i < packet_count; ++i) {
    RawPacket packet;
    EXC_ASSIGN_OR_RETURN(packet.run_id, r.i64());
    EXC_ASSIGN_OR_RETURN(packet.local_time_ns, r.i64());
    EXC_ASSIGN_OR_RETURN(packet.src_node, r.string());
    EXC_ASSIGN_OR_RETURN(packet.data, r.blob());
    store.packets_.push_back(std::move(packet));
  }
  auto read_blobs = [&r](std::vector<NamedBlob>& blobs) -> Status {
    EXC_ASSIGN_OR_RETURN(std::uint64_t count, r.u64());
    for (std::uint64_t i = 0; i < count; ++i) {
      NamedBlob blob;
      EXC_ASSIGN_OR_RETURN(blob.run_id, r.i64());
      EXC_ASSIGN_OR_RETURN(blob.name, r.string());
      EXC_ASSIGN_OR_RETURN(blob.content, r.string());
      blobs.push_back(std::move(blob));
    }
    return {};
  };
  EXC_TRY(read_blobs(store.blobs_));
  EXC_TRY(read_blobs(store.plugin_data_));
  EXC_ASSIGN_OR_RETURN(std::uint64_t segment_count, r.u64());
  for (std::uint64_t i = 0; i < segment_count; ++i) {
    LogSegment segment;
    EXC_ASSIGN_OR_RETURN(segment.run_id, r.i64());
    EXC_ASSIGN_OR_RETURN(segment.text, r.string());
    store.log_segments_.push_back(std::move(segment));
  }
  return store;
}

const NodeStore* Level2Store::find_node(const std::string& name) const {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<std::string> Level2Store::node_names() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [name, store] : nodes_) out.push_back(name);
  return out;
}

bool Level2Store::run_complete(std::int64_t run_id) const {
  return std::find(completed_runs_.begin(), completed_runs_.end(), run_id) !=
         completed_runs_.end();
}

void Level2Store::discard_run(std::int64_t run_id) {
  for (auto& [name, store] : nodes_) store.discard_run(run_id);
  syncs_.erase(std::remove_if(syncs_.begin(), syncs_.end(),
                              [run_id](const SyncMeasurement& sync) {
                                return sync.run_id == run_id;
                              }),
               syncs_.end());
  completed_runs_.erase(
      std::remove(completed_runs_.begin(), completed_runs_.end(), run_id),
      completed_runs_.end());
}

RunData Level2Store::extract_run(std::int64_t run_id) {
  RunData data;
  data.run_id = run_id;
  for (auto& [name, store] : nodes_) {
    RunNodeData node_data = store.extract_run(run_id);
    if (!node_data.empty()) data.nodes.emplace(name, std::move(node_data));
  }
  data.syncs = take_run(syncs_, run_id);
  return data;
}

void Level2Store::merge_run(RunData data) {
  for (auto& [name, node_data] : data.nodes) {
    nodes_[name].merge_run(data.run_id, std::move(node_data));
  }
  insert_run_ordered(syncs_, std::move(data.syncs), data.run_id);
}

void Level2Store::clear() {
  nodes_.clear();
  syncs_.clear();
  completed_runs_.clear();
}

namespace {

Status write_file(const std::filesystem::path& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return err_io("cannot open '" + path.string() + "' for writing");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) return err_io("short write to '" + path.string() + "'");
  return {};
}

Result<Bytes> read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return err_io("cannot open '" + path.string() + "' for reading");
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  return data;
}

}  // namespace

Status Level2Store::write_to_directory(const std::string& directory) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(directory) / "nodes", ec);
  if (ec) return err_io("cannot create '" + directory + "': " + ec.message());

  for (const auto& [name, store] : nodes_) {
    EXC_TRY(write_file(fs::path(directory) / "nodes" / (name + ".store"),
                       store.serialize()));
  }
  ByteWriter w;
  w.u32(0x4D535432);  // "MST2"
  w.u64(syncs_.size());
  for (const SyncMeasurement& sync : syncs_) {
    w.i64(sync.run_id);
    w.string(sync.node);
    w.i64(sync.offset_ns);
    w.i64(sync.run_start_ns);
  }
  w.u64(completed_runs_.size());
  for (std::int64_t run : completed_runs_) w.i64(run);
  return write_file(fs::path(directory) / "master.store", w.take());
}

Result<Level2Store> Level2Store::load_from_directory(
    const std::string& directory) {
  namespace fs = std::filesystem;
  Level2Store store;
  fs::path nodes_dir = fs::path(directory) / "nodes";
  std::error_code ec;
  if (fs::exists(nodes_dir, ec)) {
    // Deterministic order: sort directory entries.
    std::vector<fs::path> entries;
    for (const auto& entry : fs::directory_iterator(nodes_dir, ec)) {
      entries.push_back(entry.path());
    }
    std::sort(entries.begin(), entries.end());
    for (const fs::path& path : entries) {
      if (path.extension() != ".store") continue;
      EXC_ASSIGN_OR_RETURN(Bytes data, read_file(path));
      EXC_ASSIGN_OR_RETURN(NodeStore node, NodeStore::deserialize(data));
      store.nodes_.emplace(path.stem().string(), std::move(node));
    }
  }
  fs::path master = fs::path(directory) / "master.store";
  if (fs::exists(master, ec)) {
    EXC_ASSIGN_OR_RETURN(Bytes data, read_file(master));
    ByteReader r(data);
    EXC_ASSIGN_OR_RETURN(std::uint32_t magic, r.u32());
    if (magic != 0x4D535432) return err_io("bad master store file");
    EXC_ASSIGN_OR_RETURN(std::uint64_t sync_count, r.u64());
    for (std::uint64_t i = 0; i < sync_count; ++i) {
      SyncMeasurement sync;
      EXC_ASSIGN_OR_RETURN(sync.run_id, r.i64());
      EXC_ASSIGN_OR_RETURN(sync.node, r.string());
      EXC_ASSIGN_OR_RETURN(sync.offset_ns, r.i64());
      EXC_ASSIGN_OR_RETURN(sync.run_start_ns, r.i64());
      store.syncs_.push_back(std::move(sync));
    }
    EXC_ASSIGN_OR_RETURN(std::uint64_t run_count, r.u64());
    for (std::uint64_t i = 0; i < run_count; ++i) {
      EXC_ASSIGN_OR_RETURN(std::int64_t run, r.i64());
      store.completed_runs_.push_back(run);
    }
  }
  return store;
}

}  // namespace excovery::storage
