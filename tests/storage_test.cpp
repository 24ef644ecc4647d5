// Unit tests for the storage module: tables, database files, the Table I
// package, level-2 stores, conditioning and the level-4 repository.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>

#include "common/hash.hpp"
#include "stats/analysis.hpp"
#include "storage/conditioning.hpp"
#include "storage/database.hpp"
#include "storage/level2.hpp"
#include "storage/package.hpp"
#include "storage/repository.hpp"

namespace excovery::storage {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("excovery-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static inline int counter = 0;
};

// ---- Table ---------------------------------------------------------------------

TableSchema point_schema() {
  return {"Points",
          {{"Id", ValueType::kInt, false},
           {"Label", ValueType::kString, true},
           {"X", ValueType::kDouble, false}}};
}

TEST(Table, InsertEnforcesArityAndTypes) {
  Table table(point_schema());
  EXPECT_TRUE(table.insert({Value{1}, Value{"a"}, Value{0.5}}).ok());
  EXPECT_TRUE(table.insert({Value{2}, Value{}, Value{1.5}}).ok());  // null ok
  EXPECT_FALSE(table.insert({Value{3}, Value{"b"}}).ok());          // arity
  EXPECT_FALSE(table.insert({Value{"x"}, Value{"b"}, Value{0.1}}).ok());
  EXPECT_FALSE(table.insert({Value{}, Value{"b"}, Value{0.1}}).ok());  // null id
  // Int widens into double columns.
  EXPECT_TRUE(table.insert({Value{4}, Value{"c"}, Value{2}}).ok());
  EXPECT_EQ(table.row_count(), 3u);
}

TEST(Table, AppendStoresWhatInsertStores) {
  // The typed append runs insert()'s checks and stores the same cells: a
  // table filled each way serialises to the same bytes.
  const TableSchema schema{"Mixed",
                           {{"I", ValueType::kInt, false},
                            {"S", ValueType::kString, true},
                            {"D", ValueType::kDouble, false},
                            {"B", ValueType::kBytes, true}}};
  Table boxed(schema);
  Table typed(schema);
  const Bytes blob{1, 2, 3};
  ASSERT_TRUE(
      boxed.insert({Value{1}, Value{"a"}, Value{0.5}, Value{blob}}).ok());
  ASSERT_TRUE(typed.append({1, "a", 0.5, blob}).ok());
  // Nulls where nullable; an int widens into the double column.
  ASSERT_TRUE(boxed.insert({Value{2}, Value{}, Value{3}, Value{}}).ok());
  ASSERT_TRUE(typed.append({2, Cell{}, 3, Cell{}}).ok());
  ASSERT_TRUE(boxed.insert({Value{3}, Value{"a"}, Value{-1.0}, Value{}}).ok());
  ASSERT_TRUE(typed.append({3, std::string_view("a"), -1.0, Cell{}}).ok());

  // The same rejections with the same messages: arity, type, nullability.
  Status arity = boxed.insert({Value{4}, Value{"b"}});
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(typed.append({4, "b"}).error().message(),
            arity.error().message());
  Status type = boxed.insert({Value{"x"}, Value{"b"}, Value{0.1}, Value{}});
  ASSERT_FALSE(type.ok());
  EXPECT_EQ(typed.append({"x", "b", 0.1, Cell{}}).error().message(),
            type.error().message());
  Status null = boxed.insert({Value{5}, Value{"b"}, Value{}, Value{}});
  ASSERT_FALSE(null.ok());
  EXPECT_EQ(typed.append({5, "b", Cell{}, Cell{}}).error().message(),
            null.error().message());

  EXPECT_EQ(typed.row_count(), 3u);
  EXPECT_TRUE(typed.row(1)[2].is_int());
  EXPECT_EQ(typed.row(0).as_bytes(3), blob);
  ByteWriter boxed_image;
  ByteWriter typed_image;
  boxed.serialize_columns(boxed_image);
  typed.serialize_columns(typed_image);
  EXPECT_EQ(typed_image.bytes(), boxed_image.bytes());
}

TEST(Table, SelectAndCount) {
  Table table(point_schema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .insert({Value{i}, Value{i % 2 ? "odd" : "even"},
                             Value{i * 0.5}})
                    .ok());
  }
  EXPECT_EQ(table.select_equals("Label", Value{"odd"}).size(), 5u);
  EXPECT_EQ(table.count_equals("Label", Value{"even"}), 5u);
  EXPECT_EQ(
      table.select([](const RowView& row) { return row.as_int(0) > 6; })
          .size(),
      3u);
  EXPECT_TRUE(table.select_equals("Missing", Value{1}).empty());
}

TEST(Table, OrderByIsStableAndChecked) {
  Table table(point_schema());
  ASSERT_TRUE(table.insert({Value{3}, Value{"c"}, Value{1.0}}).ok());
  ASSERT_TRUE(table.insert({Value{1}, Value{"a"}, Value{2.0}}).ok());
  ASSERT_TRUE(table.insert({Value{2}, Value{"b"}, Value{3.0}}).ok());
  Result<std::vector<RowView>> ordered = table.order_by("Id");
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(ordered.value()[0].as_int(0), 1);
  EXPECT_EQ(ordered.value()[2].as_int(0), 3);
  EXPECT_FALSE(table.order_by("Nope").ok());
}

TEST(Table, CellAccessByName) {
  Table table(point_schema());
  ASSERT_TRUE(table.insert({Value{1}, Value{"a"}, Value{0.5}}).ok());
  Result<Value> cell = table.cell(table.row(0), "X");
  ASSERT_TRUE(cell.ok());
  EXPECT_DOUBLE_EQ(cell.value().as_double(), 0.5);
  EXPECT_FALSE(table.cell(table.row(0), "Nope").ok());
}

TEST(Table, IndexedQueriesMatchPredicateScanAfterInterleavedInserts) {
  Table table(point_schema());
  // Reference implementations through the plain predicate scan.
  auto scan_equals = [&](std::string_view column, const Value& value) {
    std::size_t col = *table.schema().column_index(column);
    std::vector<std::size_t> out;
    for (const RowView& view : table.select(
             [&](const RowView& row) { return row[col] == value; })) {
      out.push_back(view.index());
    }
    return out;
  };
  auto indexed_equals = [&](std::string_view column, const Value& value) {
    std::vector<std::size_t> out;
    for (const RowView& view : table.select_equals(column, value)) {
      out.push_back(view.index());
    }
    return out;
  };
  // Interleave inserts with queries so the lazily built index goes through
  // incremental maintenance, not one bulk build at the end.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(table
                    .insert({Value{i % 7}, Value{i % 3 ? "a" : "b"},
                             Value{static_cast<double>((i * 13) % 60)}})
                    .ok());
    if (i % 12 == 5) {
      for (int probe = 0; probe < 8; ++probe) {
        EXPECT_EQ(indexed_equals("Id", Value{probe}),
                  scan_equals("Id", Value{probe}));
      }
      EXPECT_EQ(indexed_equals("Label", Value{"a"}),
                scan_equals("Label", Value{"a"}));
      EXPECT_EQ(table.count_equals("Label", Value{"b"}),
                scan_equals("Label", Value{"b"}).size());
      // Probes that can never match: wrong type, unknown string.
      EXPECT_TRUE(table.select_equals("Id", Value{"a"}).empty());
      EXPECT_TRUE(table.select_equals("Label", Value{"nope"}).empty());
    }
  }
  // order_by equals a manual stable sort through Value comparison, also
  // after an insert invalidated a previously cached permutation.
  for (int round = 0; round < 2; ++round) {
    Result<std::vector<RowView>> ordered = table.order_by("X");
    ASSERT_TRUE(ordered.ok());
    std::vector<std::size_t> expected(table.row_count());
    std::iota(expected.begin(), expected.end(), 0u);
    std::stable_sort(expected.begin(), expected.end(),
                     [&](std::size_t a, std::size_t b) {
                       return table.row(a)[2] < table.row(b)[2];
                     });
    ASSERT_EQ(ordered.value().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(ordered.value()[i].index(), expected[i]);
    }
    ASSERT_TRUE(table.insert({Value{99}, Value{"z"}, Value{-1.0}}).ok());
  }
}

TEST(Table, DoubleColumnPreservesIntCells) {
  // The insert type check accepts ints in double columns without
  // converting the stored Value; equality and ordering stay type-exact.
  Table table(point_schema());
  ASSERT_TRUE(table.insert({Value{1}, Value{}, Value{2}}).ok());
  ASSERT_TRUE(table.insert({Value{2}, Value{}, Value{2.0}}).ok());
  EXPECT_TRUE(table.row(0)[2].is_int());
  EXPECT_TRUE(table.row(1)[2].is_double());
  EXPECT_DOUBLE_EQ(table.row(0).as_double(2), 2.0);  // typed read widens
  // Indexed lookups distinguish Value{2} from Value{2.0}, like Value==.
  ASSERT_EQ(table.select_equals("X", Value{2}).size(), 1u);
  EXPECT_EQ(table.select_equals("X", Value{2})[0].index(), 0u);
  ASSERT_EQ(table.select_equals("X", Value{2.0}).size(), 1u);
  EXPECT_EQ(table.select_equals("X", Value{2.0})[0].index(), 1u);
}

TEST(Table, NegativeZeroMatchesPositiveZero) {
  Table table(point_schema());
  ASSERT_TRUE(table.insert({Value{1}, Value{}, Value{-0.0}}).ok());
  ASSERT_TRUE(table.insert({Value{2}, Value{}, Value{0.0}}).ok());
  // IEEE: -0.0 == 0.0, so both probes hit both rows.
  EXPECT_EQ(table.select_equals("X", Value{0.0}).size(), 2u);
  EXPECT_EQ(table.count_equals("X", Value{-0.0}), 2u);
}

// ---- Database ------------------------------------------------------------------

TEST(Database, CreateAndLookup) {
  Database db;
  ASSERT_TRUE(db.create_table(point_schema()).ok());
  EXPECT_FALSE(db.create_table(point_schema()).ok());  // duplicate
  EXPECT_FALSE(db.create_table({"Empty", {}}).ok());   // no columns
  EXPECT_NE(db.table("Points"), nullptr);
  EXPECT_EQ(db.table("Nope"), nullptr);
  EXPECT_TRUE(db.require_table("Points").ok());
  EXPECT_FALSE(db.require_table("Nope").ok());
}

TEST(Database, SerializeRoundTrip) {
  Database db;
  Table* table = db.create_table(point_schema()).value();
  ASSERT_TRUE(table->insert({Value{1}, Value{"x"}, Value{2.5}}).ok());
  ASSERT_TRUE(table->insert({Value{2}, Value{}, Value{-1.0}}).ok());

  Result<Database> back = Database::deserialize(db.serialize());
  ASSERT_TRUE(back.ok());
  const Table* restored = back.value().table("Points");
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->row_count(), 2u);
  EXPECT_EQ(restored->row(0).materialize(), table->row(0).materialize());
  EXPECT_EQ(restored->row(1).materialize(), table->row(1).materialize());
  EXPECT_EQ(restored->schema().columns.size(), 3u);
}

TEST(Database, SaveLoadFile) {
  TempDir dir;
  std::string path = (dir.path / "test.excovery").string();
  Database db;
  Table* table = db.create_table(point_schema()).value();
  ASSERT_TRUE(table->insert({Value{7}, Value{"seven"}, Value{7.7}}).ok());
  ASSERT_TRUE(db.save(path).ok());

  Result<Database> loaded = Database::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().table("Points")->row_count(), 1u);

  EXPECT_FALSE(Database::load((dir.path / "missing").string()).ok());
}

TEST(Database, CorruptFileRejected) {
  Bytes garbage{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_FALSE(Database::deserialize(garbage).ok());
  Bytes truncated = [] {
    Database db;
    (void)db.create_table(point_schema());
    return db.serialize();
  }();
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(Database::deserialize(truncated).ok());
}

TEST(Database, RoundTripEveryValueType) {
  Database db;
  Table* t = db.create_table({"Everything",
                              {{"I", ValueType::kInt, true},
                               {"D", ValueType::kDouble, true},
                               {"B", ValueType::kBool, true},
                               {"S", ValueType::kString, true},
                               {"Y", ValueType::kBytes, true},
                               {"A", ValueType::kArray, true},
                               {"M", ValueType::kMap, true}}})
                 .value();
  ValueArray array{Value{1}, Value{"two"}, Value{}};
  ValueMap map;
  map.emplace("k", Value{3.5});
  ASSERT_TRUE(t->insert({Value{-42}, Value{2.5}, Value{true}, Value{"text"},
                         Value{Bytes{0, 255, 7}}, Value{array}, Value{map}})
                  .ok());
  // A row of nothing but nulls.
  ASSERT_TRUE(t->insert({Value{}, Value{}, Value{}, Value{}, Value{},
                         Value{}, Value{}})
                  .ok());
  // Edge cells: int stored in a double column, empty string/bytes/array/map.
  ASSERT_TRUE(t->insert({Value{1}, Value{3}, Value{false}, Value{""},
                         Value{Bytes{}}, Value{ValueArray{}},
                         Value{ValueMap{}}})
                  .ok());
  ASSERT_TRUE(db.create_table({"Empty", {{"Only", ValueType::kString, true}}})
                  .ok());

  Result<Database> back = Database::deserialize(db.serialize());
  ASSERT_TRUE(back.ok());
  const Table* restored = back.value().table("Everything");
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->row_count(), 3u);
  for (std::size_t r = 0; r < restored->row_count(); ++r) {
    EXPECT_EQ(restored->row(r).materialize(), t->row(r).materialize());
  }
  // The int-in-double cell survives as a typed int Value.
  EXPECT_TRUE(restored->row(2)[1].is_int());
  ASSERT_NE(back.value().table("Empty"), nullptr);
  EXPECT_EQ(back.value().table("Empty")->row_count(), 0u);
}

// serialize() sizes its buffer with serialized_size() before writing, so
// the two must agree on every kind of column and cell.
TEST(Database, SerializedSizeMatchesImage) {
  Database db;
  Table* t = db.create_table({"Everything",
                              {{"I", ValueType::kInt, true},
                               {"D", ValueType::kDouble, true},
                               {"B", ValueType::kBool, true},
                               {"S", ValueType::kString, true},
                               {"Y", ValueType::kBytes, true},
                               {"A", ValueType::kArray, true},
                               {"M", ValueType::kMap, true}}})
                 .value();
  EXPECT_EQ(db.serialized_size(), db.serialize().size());
  ValueMap map;
  map.emplace("k", Value{ValueArray{Value{"nested"}, Value{Bytes{1, 2}}}});
  ASSERT_TRUE(t->insert({Value{-42}, Value{2.5}, Value{true}, Value{"text"},
                         Value{Bytes{0, 255, 7}},
                         Value{ValueArray{Value{1}, Value{"two"}, Value{}}},
                         Value{map}})
                  .ok());
  ASSERT_TRUE(t->insert({Value{}, Value{}, Value{}, Value{}, Value{},
                         Value{}, Value{}})
                  .ok());
  ASSERT_TRUE(t->insert({Value{1}, Value{3}, Value{false}, Value{"text"},
                         Value{Bytes{}}, Value{ValueArray{}},
                         Value{ValueMap{}}})
                  .ok());
  ASSERT_TRUE(db.create_table({"Empty", {{"Only", ValueType::kString, true}}})
                  .ok());
  EXPECT_EQ(db.serialized_size(), db.serialize().size());
}

TEST(Database, SerializationIsDeterministic) {
  Database db;
  Table* t = db.create_table(point_schema()).value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        t->insert({Value{i}, Value{i % 2 ? "x" : "y"}, Value{i * 0.25}}).ok());
  }
  Bytes first = db.serialize();
  // Building query indexes must not change the serialised image.
  (void)t->select_equals("Label", Value{"x"});
  (void)t->order_by("X");
  EXPECT_EQ(db.serialize(), first);
}

TEST(Database, CorruptV2ImagesRejected) {
  // Unsupported versions: the retired cell-by-cell format 1 and an unknown
  // one.  Both images would be complete (empty) databases.
  for (std::uint16_t version : {1, 9}) {
    ByteWriter w;
    w.u32(0x45584342);
    w.u16(version);
    w.u32(0);
    EXPECT_FALSE(Database::deserialize(w.take()).ok()) << "version " << version;
  }

  Database db;
  Table* t = db.create_table(point_schema()).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t->insert({Value{i}, Value{"s"}, Value{1.0 * i}}).ok());
  }
  Bytes good = db.serialize();
  ASSERT_TRUE(Database::deserialize(good).ok());
  // Truncation anywhere — header, schema, or inside the column blocks.
  for (std::size_t cut :
       {good.size() - 1, good.size() - 9, good.size() / 2, std::size_t{5}}) {
    Bytes bad(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Database::deserialize(bad).ok()) << "cut at " << cut;
  }
  // Flipped magic.
  Bytes flipped = good;
  flipped[0] ^= 0xFF;
  EXPECT_FALSE(Database::deserialize(flipped).ok());

  // A row count no column block can hold, on a table whose first column is
  // a string column: rejected before anything is sized from it.
  ByteWriter huge;
  huge.u32(0x45584342);
  huge.u16(2);
  huge.u32(1);
  huge.string("Strings");
  huge.u16(1);
  huge.string("S");
  huge.u8(static_cast<std::uint8_t>(ValueType::kString));
  huge.u8(0);
  huge.u64(std::uint64_t{1} << 60);
  huge.u32(0);  // empty string pool
  huge.u64(1);  // column block: the kind byte alone
  huge.u8(3);
  EXPECT_FALSE(Database::deserialize(huge.take()).ok());
}

/// A package with all ten tables non-empty.
ExperimentPackage full_package() {
  ExperimentPackage package;
  EXPECT_TRUE(package.set_experiment_info("<e/>", "full", "c").ok());
  EXPECT_TRUE(package.add_log("A", "log line\n").ok());
  EXPECT_TRUE(package.add_ee_file("ee", Bytes{1, 2, 3}).ok());
  EXPECT_TRUE(package.add_experiment_measurement(1, "A", "topo", "x").ok());
  for (std::int64_t run = 1; run <= 3; ++run) {
    EXPECT_TRUE(package.add_run_info({run, "A", 1.0 * run, 0.001}).ok());
    EXPECT_TRUE(
        package.add_extra_run_measurement(run, "A", "hops", "2").ok());
    EXPECT_TRUE(
        package.add_event({run, "A", 0.5 * run, "sd_start_search", "SU"})
            .ok());
    EXPECT_TRUE(
        package.add_packet({run, "B", 0.25 * run, "A", Bytes{9, 8, 7}}).ok());
    EXPECT_TRUE(package.add_metric(run, "net.sent", 4.0).ok());
    EXPECT_TRUE(package
                    .add_provenance({run, 0, 0, "root", "A", "search",
                                     0.1 * run, 0.0})
                    .ok());
  }
  return package;
}

TEST(Database, TruncationsAndBitFlipsFailCleanly) {
  const ExperimentPackage package = full_package();
  for (const std::string& name : package.database().table_names()) {
    ASSERT_GT(package.database().table(name)->row_count(), 0u) << name;
  }
  const Bytes good = package.database().serialize();
  ASSERT_TRUE(Database::deserialize(good).ok());

  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    const Bytes bad(good.begin(),
                    good.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(Database::deserialize(bad).ok()) << "cut at " << cut;
  }

  // Seeded 1-3-bit flips: each image loads or is rejected, and never
  // escapes as an exception (a corrupt CAS entry must degrade to a miss).
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes flipped = good;
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      const std::uint64_t bit = next() % (flipped.size() * 8);
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    EXPECT_NO_THROW({
      Result<Database> db = Database::deserialize(flipped);
      if (db.ok()) (void)ExperimentPackage::from_database(std::move(db).value());
    }) << "trial " << trial;
  }
}

// ---- ExperimentPackage (Table I) ----------------------------------------------------

TEST(Package, SchemaMatchesTableI) {
  ExperimentPackage package;
  // The eight tables of the paper's Table I, in order, plus the Metrics and
  // Provenance extensions (out-of-band observability data).
  EXPECT_EQ(package.database().table_names(),
            (std::vector<std::string>{
                "ExperimentInfo", "Logs", "EEFiles", "ExperimentMeasurements",
                "RunInfos", "ExtraRunMeasurements", "Events", "Packets",
                "Metrics", "Provenance"}));
  std::string schema = package.database().schema_description();
  EXPECT_NE(schema.find("ExperimentInfo | ExpXML, EEVersion, Name, Comment"),
            std::string::npos);
  EXPECT_NE(schema.find(
                "Events | RunID, NodeID, CommonTime, EventType, Parameter"),
            std::string::npos);
  EXPECT_NE(
      schema.find("Packets | RunID, NodeID, CommonTime, SrcNodeID, Data"),
      std::string::npos);
  EXPECT_NE(schema.find("RunInfos | RunID, NodeID, StartTime, TimeDiff"),
            std::string::npos);
}

TEST(Package, ExperimentInfoIsSingleTuple) {
  ExperimentPackage package;
  EXPECT_FALSE(package.description_xml().ok());  // not set yet
  ASSERT_TRUE(package.set_experiment_info("<experiment/>", "exp", "c").ok());
  EXPECT_FALSE(package.set_experiment_info("<x/>", "again", "").ok());
  EXPECT_EQ(package.description_xml().value(), "<experiment/>");
  EXPECT_EQ(package.experiment_name().value(), "exp");
  EXPECT_EQ(package.ee_version().value(), kEeVersion);
}

TEST(Package, EventAndPacketReadersSortByTime) {
  ExperimentPackage package;
  ASSERT_TRUE(package.add_event({1, "B", 2.0, "late", ""}).ok());
  ASSERT_TRUE(package.add_event({1, "A", 1.0, "early", ""}).ok());
  ASSERT_TRUE(package.add_event({2, "A", 0.5, "other_run", ""}).ok());
  ASSERT_TRUE(package.add_run_info({1, "A", 0.0, 0.001}).ok());
  ASSERT_TRUE(package.add_run_info({2, "A", 5.0, 0.002}).ok());

  Result<std::vector<EventRow>> run1 = package.events(1);
  ASSERT_TRUE(run1.ok());
  ASSERT_EQ(run1.value().size(), 2u);
  EXPECT_EQ(run1.value()[0].event_type, "early");
  EXPECT_EQ(run1.value()[1].event_type, "late");

  Result<std::vector<EventRow>> all = package.all_events();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 3u);
  EXPECT_EQ(all.value()[2].event_type, "other_run");

  EXPECT_EQ(package.run_ids(), (std::vector<std::int64_t>{1, 2}));
}

TEST(Package, SaveLoadPreservesEverything) {
  TempDir dir;
  std::string path = (dir.path / "exp.excovery").string();
  ExperimentPackage package;
  ASSERT_TRUE(package.set_experiment_info("<e/>", "n", "c").ok());
  ASSERT_TRUE(package.add_log("SU0", "log text").ok());
  ASSERT_TRUE(package.add_ee_file("master.bin", Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(package.add_experiment_measurement(1, "env", "topo", "a b 1").ok());
  ASSERT_TRUE(package.add_run_info({1, "SU0", 0.0, -0.004}).ok());
  ASSERT_TRUE(package.add_extra_run_measurement(1, "SU0", "plugin/x", "7").ok());
  ASSERT_TRUE(package.add_event({1, "SU0", 0.5, "sd_start_search", "_t"}).ok());
  ASSERT_TRUE(package.add_packet({1, "SU0", 0.6, "SM0", Bytes{9, 9}}).ok());
  ASSERT_TRUE(package.save(path).ok());

  Result<ExperimentPackage> loaded = ExperimentPackage::load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().experiment_name().value(), "n");
  EXPECT_EQ(loaded.value().log_for("SU0"), "log text");
  EXPECT_EQ(loaded.value().event_count(), 1u);
  EXPECT_EQ(loaded.value().packet_count(), 1u);
  Result<std::vector<PacketRow>> packets = loaded.value().packets(1);
  ASSERT_TRUE(packets.ok());
  ASSERT_EQ(packets.value().size(), 1u);
  EXPECT_EQ(packets.value()[0].src_node_id, "SM0");
  EXPECT_EQ(packets.value()[0].data, (Bytes{9, 9}));
}

TEST(Package, FromDatabaseValidatesSchema) {
  const ExperimentPackage fresh;
  // A database holding the fresh package's tables after `edit`, which may
  // change a schema or return false to leave its table out.
  auto database_from = [&fresh](
                           const std::function<bool(TableSchema&)>& edit) {
    Database db;
    for (const std::string& name : fresh.database().table_names()) {
      TableSchema schema = fresh.database().table(name)->schema();
      if (edit(schema)) {
        EXPECT_TRUE(db.create_table(std::move(schema)).ok());
      }
    }
    return db;
  };
  EXPECT_TRUE(ExperimentPackage::from_database(
                  database_from([](TableSchema&) { return true; }))
                  .ok());

  EXPECT_FALSE(ExperimentPackage::from_database(Database{}).ok());

  // The eight Table I tables without the Metrics and Provenance extensions.
  EXPECT_FALSE(ExperimentPackage::from_database(
                   database_from([](TableSchema& schema) {
                     return schema.name != "Metrics" &&
                            schema.name != "Provenance";
                   }))
                   .ok());

  // One column's nullability flipped.
  EXPECT_FALSE(ExperimentPackage::from_database(
                   database_from([](TableSchema& schema) {
                     if (schema.name == "Events") {
                       schema.columns[4].nullable = !schema.columns[4].nullable;
                     }
                     return true;
                   }))
                   .ok());

  // Every table name present, each with one string column and one row.  The
  // readers index columns by position, so this must be rejected, also when
  // it arrives through the on-disk format.
  Database wrong_columns = database_from([](TableSchema& schema) {
    schema.columns = {{"Only", ValueType::kString, true}};
    return true;
  });
  for (const std::string& name : wrong_columns.table_names()) {
    ASSERT_TRUE(wrong_columns.table(name)->insert({Value{"x"}}).ok());
  }
  Result<Database> reloaded = Database::deserialize(wrong_columns.serialize());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_FALSE(
      ExperimentPackage::from_database(std::move(reloaded).value()).ok());
}

// ---- Level2Store -------------------------------------------------------------------

TEST(Level2, RecordsPerNodeAndScopes) {
  Level2Store store;
  store.node("A").record_event({1, 100, "x", Value{}});
  store.node("A").record_event({2, 200, "y", Value{}});
  store.node("B").record_packet({1, 150, "A", Bytes{1}});
  store.node("A").add_run_blob(1, "m", "v");
  store.node("A").add_experiment_blob("topo", "t");
  store.node("A").add_plugin_measurement(1, "plug", "metric", "42");

  EXPECT_EQ(store.node_names(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(store.node("A").events().size(), 2u);
  EXPECT_EQ(store.node("B").packets().size(), 1u);
  EXPECT_EQ(store.node("A").plugin_data()[0].name, "plug/metric");
}

TEST(Level2, DiscardRunRemovesOnlyThatRun) {
  Level2Store store;
  store.node("A").record_event({1, 100, "x", Value{}});
  store.node("A").record_event({2, 200, "y", Value{}});
  store.add_sync({1, "A", 50, 0});
  store.add_sync({2, "A", 60, 1000});
  store.mark_run_complete(1);
  store.mark_run_complete(2);

  store.discard_run(1);
  EXPECT_EQ(store.node("A").events().size(), 1u);
  EXPECT_EQ(store.node("A").events()[0].run_id, 2);
  EXPECT_FALSE(store.run_complete(1));
  EXPECT_TRUE(store.run_complete(2));
  // Only run 2's sync remains.
  ASSERT_EQ(store.syncs().size(), 1u);
  EXPECT_EQ(store.syncs()[0].run_id, 2);
  EXPECT_EQ(store.syncs()[0].node, "A");
  EXPECT_EQ(store.syncs()[0].offset_ns, 60);
}

TEST(Level2, DirectoryRoundTrip) {
  TempDir dir;
  Level2Store store;
  store.node("SU0").record_event({1, 123, "e", Value{"p"}});
  store.node("SU0").append_log("hello\n");
  store.node("SM0").record_packet({1, 456, "SU0", Bytes{7, 8}});
  store.add_sync({1, "SU0", -5000, 0});
  store.mark_run_complete(1);
  ASSERT_TRUE(store.write_to_directory(dir.path.string()).ok());

  Result<Level2Store> loaded =
      Level2Store::load_from_directory(dir.path.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().node_names(),
            (std::vector<std::string>{"SM0", "SU0"}));
  ASSERT_EQ(loaded.value().node("SU0").events().size(), 1u);
  EXPECT_EQ(loaded.value().node("SU0").events()[0].parameter, Value{"p"});
  EXPECT_EQ(loaded.value().node("SU0").log(), "hello\n");
  EXPECT_EQ(loaded.value().node("SM0").packets()[0].data, (Bytes{7, 8}));
  ASSERT_EQ(loaded.value().syncs().size(), 1u);
  EXPECT_EQ(loaded.value().syncs()[0].run_id, 1);
  EXPECT_EQ(loaded.value().syncs()[0].node, "SU0");
  EXPECT_EQ(loaded.value().syncs()[0].offset_ns, -5000);
  EXPECT_TRUE(loaded.value().run_complete(1));
}

TEST(Level2, NodeStoreRejectsRetiredAndUnknownMagic) {
  NodeStore store;
  store.record_event({1, 123, "e", Value{"p"}});
  store.append_run_log(1, "hello\n");
  const Bytes good = store.serialize();
  ASSERT_TRUE(NodeStore::deserialize(good).ok());

  // A complete image of the retired NS2 layout (one log string at the tail).
  ByteWriter ns2;
  ns2.u32(0x4E533200);
  for (int section = 0; section < 4; ++section) ns2.u64(0);
  ns2.string("hello\n");
  EXPECT_FALSE(NodeStore::deserialize(ns2.take()).ok());

  // A valid NS3 body behind an unknown magic.
  ByteWriter unknown;
  unknown.u32(0x4E533400);
  Bytes image = unknown.take();
  image.insert(image.end(), good.begin() + 4, good.end());
  EXPECT_FALSE(NodeStore::deserialize(image).ok());
}

TEST(Level2, LoadFromEmptyDirectoryYieldsEmptyStore) {
  TempDir dir;
  Result<Level2Store> loaded =
      Level2Store::load_from_directory(dir.path.string());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().node_names().empty());
}

// ---- conditioning ---------------------------------------------------------------------

TEST(Conditioning, CommonTimeSubtractsOffset) {
  // local = common + offset  =>  common = local - offset.
  EXPECT_DOUBLE_EQ(to_common_time(1'500'000'000, 500'000'000), 1.0);
  EXPECT_DOUBLE_EQ(to_common_time(1'000'000'000, -250'000'000), 1.25);
}

TEST(Conditioning, UnifiesTimeBaseAcrossNodes) {
  Level2Store level2;
  // Two nodes observing the same instant: A's clock is +100ms, B's -50ms.
  level2.node("A").record_event({1, 1'100'000'000, "tick", Value{}});
  level2.node("B").record_event({1, 950'000'000, "tick", Value{}});
  level2.add_sync({1, "A", 100'000'000, 0});
  level2.add_sync({1, "B", -50'000'000, 0});
  level2.mark_run_complete(1);

  Result<ExperimentPackage> package = condition(level2, "<e/>", {});
  ASSERT_TRUE(package.ok());
  Result<std::vector<EventRow>> events = package.value().events(1);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events.value().size(), 2u);
  EXPECT_NEAR(events.value()[0].common_time, 1.0, 1e-9);
  EXPECT_NEAR(events.value()[1].common_time, 1.0, 1e-9);
}

TEST(Conditioning, IncompleteRunsExcludedByDefault) {
  Level2Store level2;
  level2.node("A").record_event({1, 100, "done", Value{}});
  level2.node("A").record_event({2, 200, "aborted", Value{}});
  level2.node("A").append_run_log(1, "run 1 line\n");
  level2.node("A").append_run_log(2, "run 2 line\n");
  level2.add_sync({1, "A", 0, 0});
  level2.add_sync({2, "A", 0, 0});
  level2.mark_run_complete(1);  // run 2 aborted

  Result<ExperimentPackage> package = condition(level2, "<e/>", {});
  ASSERT_TRUE(package.ok());
  EXPECT_EQ(package.value().event_count(), 1u);
  EXPECT_EQ(package.value().run_ids(), (std::vector<std::int64_t>{1}));
  // The log leaves out the excluded run's lines like every other table.
  EXPECT_EQ(package.value().log_for("A"), "run 1 line\n");

  ConditioningOptions keep_all;
  keep_all.completed_runs_only = false;
  Result<ExperimentPackage> full = condition(level2, "<e/>", keep_all);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().event_count(), 2u);
  EXPECT_EQ(full.value().log_for("A"), "run 1 line\nrun 2 line\n");
}

TEST(Conditioning, BlobsRouteToCorrectTables) {
  Level2Store level2;
  level2.node("A").add_experiment_blob("topology_before", "x y 2");
  level2.node("A").add_run_blob(1, "hops", "1");
  level2.node("A").add_plugin_measurement(1, "plug", "m", "v");
  level2.node("A").append_log("LOG LINE");
  level2.mark_run_complete(1);

  Result<ExperimentPackage> package = condition(level2, "<e/>", {});
  ASSERT_TRUE(package.ok());
  EXPECT_EQ(package.value().database().table("ExperimentMeasurements")
                ->row_count(),
            1u);
  EXPECT_EQ(
      package.value().database().table("ExtraRunMeasurements")->row_count(),
      2u);
  EXPECT_EQ(package.value().log_for("A"), "LOG LINE");
}

/// A level-2 store with several nodes, runs, logs, blobs and plugin data —
/// enough surface to exercise every merge path of condition().
Level2Store busy_level2() {
  Level2Store level2;
  for (int n = 0; n < 5; ++n) {
    std::string node = "N" + std::to_string(n);
    for (int run = 1; run <= 4; ++run) {
      for (int e = 0; e < 20; ++e) {
        level2.node(node).record_event(
            {run, run * 1'000'000'000LL + e * 1000 + n,
             "ev" + std::to_string(e % 3), Value{e}});
      }
      for (int p = 0; p < 10; ++p) {
        level2.node(node).record_packet(
            {run, run * 1'000'000'000LL + p * 500, "N0",
             Bytes{static_cast<std::uint8_t>(p),
                   static_cast<std::uint8_t>(n)}});
      }
      level2.node(node).add_run_blob(run, "hops", std::to_string(run));
      level2.node(node).add_plugin_measurement(run, "plug", "m",
                                               std::to_string(n));
      level2.add_sync({run, node, n * 1000LL, run * 1'000'000'000LL});
    }
    level2.node(node).add_experiment_blob("topo", node);
    level2.node(node).append_log("log of " + node + "\n");
  }
  level2.mark_run_complete(1);
  level2.mark_run_complete(2);
  level2.mark_run_complete(3);  // run 4 stays incomplete
  return level2;
}

// The conditioned bytes of busy_level2(), pinned.  The store fills every
// table condition() writes (Logs, RunInfos, Events, Packets and both
// measurement tables) and holds one incomplete run, so a change to the row
// order, the string interning order, the measurement ids or the column
// format fails here, not only in a comparison of two runs of the same code.
TEST(Conditioning, BusyStorePackageBytesPinned) {
  Result<ExperimentPackage> package = condition(busy_level2(), "<e/>", {});
  ASSERT_TRUE(package.ok());
  const Bytes image = package.value().database().serialize();
  EXPECT_EQ(Sha256().update(image.data(), image.size()).finish_hex(),
            "56011c592419e1635c6cce11a756371778acd79c30004f8427afefcb7460dd29");
}

TEST(Conditioning, BusyStoreSerializedSizeMatchesImage) {
  Result<ExperimentPackage> package = condition(busy_level2(), "<e/>", {});
  ASSERT_TRUE(package.ok());
  EXPECT_EQ(package.value().database().serialized_size(),
            package.value().database().serialize().size());
}

TEST(Conditioning, AnalysisOutputsPinned) {
  // Discovery-shaped data through conditioning into the stats pipeline:
  // in run r the searcher finds SM0 40 ms x r after its search starts, on
  // its own offset-corrected clock.
  Level2Store level2;
  for (int run = 1; run <= 6; ++run) {
    level2.node("SU0").record_event(
        {run, run * 1'000'000'000LL, "sd_start_search", Value{}});
    level2.node("SU0").record_event(
        {run, run * 1'000'000'000LL + 40'000'000LL * run, "sd_service_add",
         Value{"SM0"}});
    level2.add_sync({run, "SU0", 123'000LL, run * 1'000'000'000LL});
    level2.add_sync({run, "SM0", -77'000LL, run * 1'000'000'000LL});
    level2.mark_run_complete(run);
  }
  level2.node("SM0").append_log("provider\n");

  Result<ExperimentPackage> package = condition(level2, "<e/>", {});
  ASSERT_TRUE(package.ok());

  Result<std::vector<double>> latencies =
      stats::first_latencies(package.value());
  ASSERT_TRUE(latencies.ok());
  ASSERT_EQ(latencies.value().size(), 6u);
  for (std::size_t i = 0; i < latencies.value().size(); ++i) {
    EXPECT_NEAR(latencies.value()[i], 0.04 * static_cast<double>(i + 1),
                1e-9);
  }

  // Deadline 150 ms: runs 1-3 (40, 80, 120 ms) make it, runs 4-6 do not.
  Result<stats::Proportion> responsive =
      stats::responsiveness(package.value(), 0.15, 1);
  ASSERT_TRUE(responsive.ok());
  EXPECT_EQ(responsive.value().successes, 3u);
  EXPECT_EQ(responsive.value().trials, 6u);
}

// ---- repository (level 4) ------------------------------------------------------------------

ExperimentPackage tiny_package(const std::string& name, int runs) {
  ExperimentPackage package;
  (void)package.set_experiment_info("<e/>", name, "");
  for (int run = 1; run <= runs; ++run) {
    (void)package.add_run_info({run, "A", 0.0, 0.0});
    (void)package.add_event({run, "A", 0.1, "sd_service_add", "SM0"});
  }
  return package;
}

TEST(Repository, StoreFetchAndIndex) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  EXPECT_EQ(repo.value().size(), 0u);

  ASSERT_TRUE(repo.value().store("exp-a", tiny_package("A", 2)).ok());
  ASSERT_TRUE(repo.value().store("exp-b", tiny_package("B", 3)).ok());
  EXPECT_FALSE(repo.value().store("../evil", tiny_package("E", 1)).ok());

  EXPECT_TRUE(repo.value().contains("exp-a"));
  EXPECT_EQ(repo.value().experiment_ids(),
            (std::vector<std::string>{"exp-a", "exp-b"}));
  Result<ExperimentPackage> fetched = repo.value().fetch("exp-b");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "B");
  EXPECT_FALSE(repo.value().fetch("nope").ok());
}

TEST(Repository, ReStoreReplacesWithoutLeakingFilesOrIndexEntries) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(repo.value().store("exp-a", tiny_package("old", 2)).ok());
  ASSERT_TRUE(repo.value().store("exp-a", tiny_package("new", 1)).ok());

  // Replace semantics: the new content is served, exactly one package
  // file remains, no .tmp sibling leaks, and a reopened repository lists
  // exactly one id.
  Result<ExperimentPackage> fetched = repo.value().fetch("exp-a");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "new");
  EXPECT_EQ(repo.value().size(), 1u);

  std::size_t packages = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    if (entry.path().extension() == ".excovery") ++packages;
  }
  EXPECT_EQ(packages, 1u);

  Result<Repository> reopened = Repository::open(dir.path.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().experiment_ids(),
            std::vector<std::string>{"exp-a"});
}

TEST(Repository, ReopenRebuildsIndexFromFiles) {
  TempDir dir;
  {
    Result<Repository> repo = Repository::open(dir.path.string());
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE(repo.value().store("exp-a", tiny_package("A", 1)).ok());
  }
  Result<Repository> reopened = Repository::open(dir.path.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value().contains("exp-a"));
}

TEST(Repository, CrossExperimentQueries) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(repo.value().store("exp-a", tiny_package("A", 2)).ok());
  ASSERT_TRUE(repo.value().store("exp-b", tiny_package("B", 3)).ok());

  Result<std::vector<Repository::CrossEvent>> adds =
      repo.value().events_of_type("sd_service_add");
  ASSERT_TRUE(adds.ok());
  EXPECT_EQ(adds.value().size(), 5u);

  Result<std::vector<Repository::Summary>> summaries =
      repo.value().summaries();
  ASSERT_TRUE(summaries.ok());
  ASSERT_EQ(summaries.value().size(), 2u);
  EXPECT_EQ(summaries.value()[0].runs, 2u);
  EXPECT_EQ(summaries.value()[1].events, 3u);
}

// ---- repository CAS space ------------------------------------------------------------------

constexpr char kDigestA[] =
    "aa11223344556677889900aabbccddeeff00112233445566778899aabbccddee";
constexpr char kDigestB[] =
    "bb11223344556677889900aabbccddeeff00112233445566778899aabbccddee";

TEST(Repository, CasStoreFetchAndLayout) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  EXPECT_FALSE(repo.value().contains_hash(kDigestA));

  ASSERT_TRUE(repo.value().store_by_hash(kDigestA, tiny_package("A", 2)).ok());
  EXPECT_TRUE(repo.value().contains_hash(kDigestA));
  EXPECT_EQ(repo.value().cas_size(), 1u);
  // Sharded layout: cas/<first two hex chars>/<digest>.excovery.
  EXPECT_TRUE(fs::exists(dir.path / "cas" / "aa" /
                         (std::string(kDigestA) + ".excovery")));

  Result<ExperimentPackage> fetched = repo.value().fetch_by_hash(kDigestA);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "A");
  EXPECT_FALSE(repo.value().fetch_by_hash(kDigestB).ok());

  // Content addressing makes re-storing idempotent: equal digest means
  // equal content, so the original file is kept as-is.
  ASSERT_TRUE(repo.value().store_by_hash(kDigestA, tiny_package("A", 2)).ok());
  EXPECT_EQ(repo.value().cas_size(), 1u);

  // Digest validation: ids and digests live in separate namespaces.
  EXPECT_FALSE(repo.value().store_by_hash("UPPER", tiny_package("X", 1)).ok());
  EXPECT_FALSE(
      repo.value().store_by_hash("../evil", tiny_package("X", 1)).ok());
  EXPECT_FALSE(repo.value().contains("exp-a"));
}

TEST(Repository, CasSurvivesReopenAndToleratesCorruptIndexes) {
  TempDir dir;
  {
    Result<Repository> repo = Repository::open(dir.path.string());
    ASSERT_TRUE(repo.ok());
    ASSERT_TRUE(
        repo.value().store_by_hash(kDigestA, tiny_package("A", 2)).ok());
    ASSERT_TRUE(repo.value().store("exp-a", tiny_package("plain", 1)).ok());
  }

  // A package outside the repository, for index lines to point at.
  TempDir elsewhere;
  const fs::path foreign = elsewhere.path / "foreign.excovery";
  ASSERT_TRUE(tiny_package("foreign", 1).database().save(foreign.string())
                  .ok());

  // Corrupt both index files the way a crash mid-write could: garbage
  // lines, missing columns, and entries pointing at files that don't
  // exist; and hostile lines: an absolute path out of the repository and
  // an id naming another id's file.  open() must ignore all of it and
  // keep exactly the real packages.
  std::ofstream(dir.path / "index.txt", std::ios::app)
      << "no-tab-line\n\t\nexp-gone\tgone.excovery\n"
      << "exp-phantom\texp-a.excovery\n";
  std::ofstream(dir.path / "cas-index.txt", std::ios::app)
      << "NOT-HEX\tcas/xx/y.excovery\n"
      << kDigestB << "\tcas/bb/" << kDigestB << ".excovery\n"
      << kDigestA << "\t../outside.excovery\n"
      << kDigestB << "\t" << foreign.string() << "\n";

  Result<Repository> reopened = Repository::open(dir.path.string());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value().contains("exp-a"));
  EXPECT_FALSE(reopened.value().contains("exp-gone"));
  EXPECT_FALSE(reopened.value().contains("exp-phantom"));
  EXPECT_EQ(reopened.value().experiment_ids(),
            std::vector<std::string>{"exp-a"});
  EXPECT_TRUE(reopened.value().summaries().ok());
  EXPECT_TRUE(reopened.value().contains_hash(kDigestA));
  EXPECT_FALSE(reopened.value().contains_hash(kDigestB));
  EXPECT_FALSE(reopened.value().fetch_by_hash(kDigestB).ok());
  EXPECT_EQ(reopened.value().cas_size(), 1u);
  Result<ExperimentPackage> fetched =
      reopened.value().fetch_by_hash(kDigestA);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().experiment_name().value(), "A");
}

TEST(Repository, StoreLeavesNoTempFilesBehind) {
  TempDir dir;
  Result<Repository> repo = Repository::open(dir.path.string());
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(repo.value().store("exp-a", tiny_package("A", 1)).ok());
  ASSERT_TRUE(repo.value().store_by_hash(kDigestA, tiny_package("A", 1)).ok());
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

}  // namespace
}  // namespace excovery::storage
