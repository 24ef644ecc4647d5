// Level-4 storage: a repository of experiment packages.
//
// §IV-F: "The fourth level describes the integration of multiple
// experiments into a single repository to facilitate comparison and
// analysis covering multiple experiments.  To date, ExCovery does not
// realize this level."  It is realised here (the paper marks it as future
// work): a directory of level-3 packages with cross-experiment query
// helpers.
//
// Two key spaces share one repository directory (DESIGN.md §14):
//
//  * the legacy id space — human-chosen experiment ids, one file
//    <dir>/<id>.excovery, replace-on-re-store;
//  * the content-addressed space — SHA-256 digests of the canonical
//    campaign submission (core::campaign_digest), laid out Nix-style as
//    <dir>/cas/<first-2-hex>/<digest>.excovery.  Content addressing makes
//    stores idempotent: equal digest means byte-identical package, so
//    re-storing an existing digest is a no-op success.
//
// The directory is the index: open() derives both key sets from the file
// names present, and every path is a pure function of its key, so there is
// no index file to go stale or to point a key at a foreign file.  Package
// files are written to a temporary sibling and atomically renamed into
// place, so a crash never leaves a truncated package.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "storage/package.hpp"

namespace excovery::storage {

class Repository {
 public:
  /// Open (or create) a repository rooted at a directory.
  static Result<Repository> open(const std::string& directory);

  const std::string& directory() const noexcept { return directory_; }

  /// Store a package under an experiment id; persists it atomically as
  /// <dir>/<id>.excovery.  Re-storing an existing id replaces the previous
  /// package in place (no leaked file).
  Status store(const std::string& experiment_id,
               const ExperimentPackage& package);

  /// Load one experiment.
  Result<ExperimentPackage> fetch(const std::string& experiment_id) const;

  bool contains(const std::string& experiment_id) const;
  /// All experiment ids, sorted.
  std::vector<std::string> experiment_ids() const;
  std::size_t size() const noexcept { return ids_.size(); }

  // ---- content-addressed store (DESIGN.md §14) ---------------------------
  /// Store a package under its content digest (64 lower-case hex chars from
  /// core::campaign_digest).  Idempotent: storing a digest that is already
  /// present succeeds without rewriting the file.
  Status store_by_hash(const std::string& digest,
                       const ExperimentPackage& package);
  /// Load the package stored under a digest.
  Result<ExperimentPackage> fetch_by_hash(const std::string& digest) const;
  bool contains_hash(const std::string& digest) const;
  /// All stored digests, sorted.
  std::vector<std::string> hashes() const;
  std::size_t cas_size() const noexcept { return digests_.size(); }
  /// Repository-relative CAS file path ("cas/ab/<digest>.excovery") — the
  /// on-disk layout contract, exposed for tooling.
  static std::string cas_relative_path(const std::string& digest);

  /// Cross-experiment query: every event of a given type across all stored
  /// experiments, tagged with the experiment id.
  struct CrossEvent {
    std::string experiment_id;
    EventRow event;
  };
  Result<std::vector<CrossEvent>> events_of_type(
      const std::string& event_type) const;

  /// Per-experiment summary (name, runs, events, packets) for comparison
  /// tooling.
  struct Summary {
    std::string experiment_id;
    std::string name;
    std::size_t runs = 0;
    std::size_t events = 0;
    std::size_t packets = 0;
  };
  Result<std::vector<Summary>> summaries() const;

 private:
  explicit Repository(std::string directory)
      : directory_(std::move(directory)) {}

  std::string path_for(const std::string& experiment_id) const;

  std::string directory_;
  std::set<std::string> ids_;
  std::set<std::string> digests_;
};

}  // namespace excovery::storage
