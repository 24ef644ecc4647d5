// A collection of tables serialisable to a single file.
//
// "This package represents one complete experiment and is preferably stored
// as a database to unify and accelerate data access and extraction methods.
// Facilitating exchange of experiments, ExCovery currently stores the third
// level in a file based relational SQLite database" (§IV-F).  We store a
// single binary file with a magic header, a schema section and column
// blocks (format v2: per-table interned-string dictionary plus one
// length-prefixed typed block per column).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "storage/table.hpp"

namespace excovery::storage {

class Database {
 public:
  Database() = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Create a table; fails if the name exists.
  Result<Table*> create_table(TableSchema schema);
  /// Existing table or nullptr.
  Table* table(const std::string& name);
  const Table* table(const std::string& name) const;
  /// Existing table or kNotFound.
  Result<Table*> require_table(const std::string& name);

  std::size_t table_count() const noexcept { return tables_.size(); }
  /// Table names in creation order.
  std::vector<std::string> table_names() const;

  /// Human-readable "Table | Attributes" schema listing (regenerates the
  /// paper's Table I from the live store).
  std::string schema_description() const;

  /// Serialise to / from one binary buffer.
  Bytes serialize() const;
  /// Bytes serialize() returns.
  std::size_t serialized_size() const;
  static Result<Database> deserialize(const Bytes& data);

  /// Single-file persistence.
  Status save(const std::string& path) const;
  static Result<Database> load(const std::string& path);

 private:
  std::vector<std::string> order_;  // creation order
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace excovery::storage
