#include "storage/repository.hpp"

#include <filesystem>
#include <fstream>

namespace excovery::storage {

namespace fs = std::filesystem;

namespace {

bool plain_name(const std::string& name) {
  return !name.empty() && name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos;
}

bool hex_digest(const std::string& digest) {
  if (digest.size() < 2) return false;
  for (char c : digest) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return false;
  }
  return true;
}

/// Write a package to `path` crash-safely: a temporary sibling file is
/// written in full, then atomically renamed over the destination.  A crash
/// mid-write leaves at worst a stale .tmp sibling, never a truncated
/// destination; re-storing over an existing file replaces it in place.
Status atomic_save_package(const ExperimentPackage& package,
                           const fs::path& path) {
  const Bytes bytes = package.database().serialize();
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return err_io("cannot write '" + tmp.string() + "'");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.flush()) return err_io("cannot flush '" + tmp.string() + "'");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return err_io("cannot rename into '" + path.string() + "'");
  }
  return {};
}

}  // namespace

Result<Repository> Repository::open(const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return err_io("cannot create repository directory '" + directory +
                  "': " + ec.message());
  }
  Repository repo(directory);

  // The directory is the index: every key is derived from a file name, and
  // every path from its key, so no stored path can point outside the
  // repository or at another key's file.
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (entry.path().extension() == ".excovery") {
      repo.ids_.insert(entry.path().stem().string());
    }
  }
  const fs::path cas_root = fs::path(directory) / "cas";
  if (fs::is_directory(cas_root, ec)) {
    for (const auto& entry :
         fs::recursive_directory_iterator(cas_root, ec)) {
      const std::string digest = entry.path().stem().string();
      if (entry.path().extension() == ".excovery" && hex_digest(digest) &&
          fs::relative(entry.path(), directory, ec).generic_string() ==
              cas_relative_path(digest)) {
        repo.digests_.insert(digest);
      }
    }
  }
  return repo;
}

std::string Repository::path_for(const std::string& experiment_id) const {
  return (fs::path(directory_) / (experiment_id + ".excovery")).string();
}

std::string Repository::cas_relative_path(const std::string& digest) {
  return "cas/" + digest.substr(0, 2) + "/" + digest + ".excovery";
}

Status Repository::store(const std::string& experiment_id,
                         const ExperimentPackage& package) {
  if (!plain_name(experiment_id)) {
    return err_invalid("experiment id must be a non-empty plain name");
  }
  // The file name is a pure function of the id, so the atomic rename
  // replaces any previous package for this id in place: no leaked file.
  EXC_TRY(atomic_save_package(package, path_for(experiment_id)));
  ids_.insert(experiment_id);
  return {};
}

Result<ExperimentPackage> Repository::fetch(
    const std::string& experiment_id) const {
  if (!contains(experiment_id)) {
    return err_not_found("no experiment '" + experiment_id +
                         "' in repository");
  }
  return ExperimentPackage::load(path_for(experiment_id));
}

bool Repository::contains(const std::string& experiment_id) const {
  return ids_.count(experiment_id) != 0;
}

std::vector<std::string> Repository::experiment_ids() const {
  return {ids_.begin(), ids_.end()};
}

Status Repository::store_by_hash(const std::string& digest,
                                 const ExperimentPackage& package) {
  if (!hex_digest(digest)) {
    return err_invalid("content digest must be lower-case hex: '" + digest +
                       "'");
  }
  if (contains_hash(digest)) return {};  // content-addressed: idempotent
  const fs::path path = fs::path(directory_) / cas_relative_path(digest);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) {
    return err_io("cannot create CAS directory '" +
                  path.parent_path().string() + "': " + ec.message());
  }
  EXC_TRY(atomic_save_package(package, path));
  digests_.insert(digest);
  return {};
}

Result<ExperimentPackage> Repository::fetch_by_hash(
    const std::string& digest) const {
  if (!contains_hash(digest)) {
    return err_not_found("no package with digest '" + digest +
                         "' in repository");
  }
  return ExperimentPackage::load(
      (fs::path(directory_) / cas_relative_path(digest)).string());
}

bool Repository::contains_hash(const std::string& digest) const {
  return digests_.count(digest) != 0;
}

std::vector<std::string> Repository::hashes() const {
  return {digests_.begin(), digests_.end()};
}

Result<std::vector<Repository::CrossEvent>> Repository::events_of_type(
    const std::string& event_type) const {
  std::vector<CrossEvent> out;
  for (const std::string& id : ids_) {
    EXC_ASSIGN_OR_RETURN(ExperimentPackage package, fetch(id));
    EXC_ASSIGN_OR_RETURN(std::vector<EventRow> events, package.all_events());
    for (EventRow& event : events) {
      if (event.event_type == event_type) {
        out.push_back(CrossEvent{id, std::move(event)});
      }
    }
  }
  return out;
}

Result<std::vector<Repository::Summary>> Repository::summaries() const {
  std::vector<Summary> out;
  for (const std::string& id : ids_) {
    EXC_ASSIGN_OR_RETURN(ExperimentPackage package, fetch(id));
    Summary summary;
    summary.experiment_id = id;
    summary.name = package.experiment_name().value_or("");
    summary.runs = package.run_ids().size();
    summary.events = package.event_count();
    summary.packets = package.packet_count();
    out.push_back(std::move(summary));
  }
  return out;
}

}  // namespace excovery::storage
