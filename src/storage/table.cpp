#include "storage/table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numeric>

namespace excovery::storage {

namespace {

// Value type discriminators reused as cell-key tags (the key identity must
// match Value equality, which compares the type index first).
constexpr std::uint8_t kKeyNull = static_cast<std::uint8_t>(ValueType::kNull);
constexpr std::uint8_t kKeyBool = static_cast<std::uint8_t>(ValueType::kBool);
constexpr std::uint8_t kKeyInt = static_cast<std::uint8_t>(ValueType::kInt);
constexpr std::uint8_t kKeyDouble =
    static_cast<std::uint8_t>(ValueType::kDouble);
constexpr std::uint8_t kKeyString =
    static_cast<std::uint8_t>(ValueType::kString);

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Canonical bit image of a double cell: -0.0 folds onto 0.0 so the key
/// relation matches IEEE (and Value) equality.
std::uint64_t double_bits(double d) noexcept {
  if (d == 0.0) d = 0.0;
  return std::bit_cast<std::uint64_t>(d);
}

}  // namespace

std::optional<std::size_t> TableSchema::column_index(
    std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return i;
  }
  return std::nullopt;
}

// ---- RowView ---------------------------------------------------------------

std::size_t RowView::size() const noexcept {
  return table_->schema_.columns.size();
}

bool RowView::is_null(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  switch (store.kind) {
    case Table::ColumnKind::kInt64:
    case Table::ColumnKind::kFloat64:
    case Table::ColumnKind::kBool:
      return store.tags[row_] == Table::kTagNull;
    case Table::ColumnKind::kString:
      return store.str[row_] == Table::kNullStringId;
    case Table::ColumnKind::kGeneric:
      return store.generic[row_].is_null();
  }
  return true;
}

Value RowView::operator[](std::size_t column) const {
  return table_->cell_value(column, row_);
}

Row RowView::materialize() const {
  Row out;
  out.reserve(size());
  for (std::size_t c = 0; c < size(); ++c) out.push_back((*this)[c]);
  return out;
}

std::int64_t RowView::as_int(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  assert(store.kind == Table::ColumnKind::kInt64 &&
         store.tags[row_] == Table::kTagValue);
  return store.i64[row_];
}

double RowView::as_double(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  if (store.kind == Table::ColumnKind::kFloat64) {
    assert(store.tags[row_] != Table::kTagNull);
    // The f64 lane always carries the widened value, also for int cells.
    return store.f64[row_];
  }
  assert(store.kind == Table::ColumnKind::kInt64 &&
         store.tags[row_] == Table::kTagValue);
  return static_cast<double>(store.i64[row_]);
}

bool RowView::as_bool(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  assert(store.kind == Table::ColumnKind::kBool &&
         store.tags[row_] == Table::kTagValue);
  return store.b8[row_] != 0;
}

std::string_view RowView::as_string(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  assert(store.kind == Table::ColumnKind::kString &&
         store.str[row_] != Table::kNullStringId);
  return table_->pool_[store.str[row_]];
}

const Bytes& RowView::as_bytes(std::size_t column) const {
  const Table::ColumnStore& store = table_->columns_[column];
  assert(store.kind == Table::ColumnKind::kGeneric);
  return store.generic[row_].as_bytes();
}

// ---- Table -----------------------------------------------------------------

std::size_t Table::CellKeyHash::operator()(const CellKey& key) const noexcept {
  return static_cast<std::size_t>(
      splitmix64(key.bits ^ (static_cast<std::uint64_t>(key.tag) << 56)));
}

Table::ColumnKind Table::kind_for(ValueType type) noexcept {
  switch (type) {
    case ValueType::kInt: return ColumnKind::kInt64;
    case ValueType::kDouble: return ColumnKind::kFloat64;
    case ValueType::kBool: return ColumnKind::kBool;
    case ValueType::kString: return ColumnKind::kString;
    default: return ColumnKind::kGeneric;
  }
}

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.columns.size());
  for (std::size_t c = 0; c < schema_.columns.size(); ++c) {
    columns_[c].kind = kind_for(schema_.columns[c].type);
  }
}

std::uint32_t Table::intern(std::string_view text) {
  auto it = pool_ids_.find(text);
  if (it != pool_ids_.end()) return it->second;
  auto id = static_cast<std::uint32_t>(pool_.size());
  pool_.emplace_back(text);
  pool_ids_.emplace(pool_.back(), id);
  return id;
}

Cell::Cell(const Value& v) noexcept : type_(v.type()) {
  switch (type_) {
    case ValueType::kNull: break;
    case ValueType::kBool: bool_ = v.as_bool(); break;
    case ValueType::kInt: int_ = v.as_int(); break;
    case ValueType::kDouble: double_ = v.as_double(); break;
    case ValueType::kString: text_ = v.as_string(); break;
    case ValueType::kBytes:
    case ValueType::kArray:
    case ValueType::kMap: boxed_ = &v; break;
  }
}

Status Table::insert(const Row& row) {
  std::vector<Cell> cells;
  cells.reserve(row.size());
  for (const Value& value : row) cells.push_back(Cell(value));
  return append_cells(cells.data(), cells.size());
}

Status Table::append(std::initializer_list<Cell> cells) {
  return append_cells(cells.begin(), cells.size());
}

Status Table::append_cells(const Cell* cells, std::size_t count) {
  if (count != schema_.columns.size()) {
    return err_invalid("table '" + schema_.name + "': row arity " +
                       std::to_string(count) + " != " +
                       std::to_string(schema_.columns.size()));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Column& column = schema_.columns[i];
    const ValueType type = cells[i].type();
    if (type == ValueType::kNull) {
      if (!column.nullable) {
        return err_invalid("table '" + schema_.name + "': column '" +
                           column.name + "' is not nullable");
      }
      continue;
    }
    // Int is acceptable where double is declared (numeric widening).
    if (type != column.type &&
        !(column.type == ValueType::kDouble && type == ValueType::kInt)) {
      return err_invalid("table '" + schema_.name + "': column '" +
                         column.name + "' expects " +
                         std::string(to_string(column.type)) + ", got " +
                         std::string(to_string(type)));
    }
  }
  const auto row_id = static_cast<std::uint32_t>(row_count_);
  for (std::size_t c = 0; c < count; ++c) {
    ColumnStore& store = columns_[c];
    put(store, cells[c]);
    // Keep a built hash index current; drop the sort cache.
    if (store.hash_index) {
      (*store.hash_index)[key_at(store, row_id)].push_back(row_id);
    }
    store.sort_permutation.reset();
  }
  ++row_count_;
  return {};
}

void Table::put(ColumnStore& store, const Cell& cell) {
  const bool null = cell.type_ == ValueType::kNull;
  switch (store.kind) {
    case ColumnKind::kInt64:
      store.tags.push_back(null ? kTagNull : kTagValue);
      store.i64.push_back(null ? 0 : cell.int_);
      break;
    case ColumnKind::kFloat64:
      if (null) {
        store.tags.push_back(kTagNull);
        store.i64.push_back(0);
        store.f64.push_back(0.0);
      } else if (cell.type_ == ValueType::kInt) {
        // The cell stays an int (exact round-trip, type-first ordering);
        // the f64 lane carries the widened reading.
        store.tags.push_back(kTagValue);
        store.i64.push_back(cell.int_);
        store.f64.push_back(static_cast<double>(cell.int_));
      } else {
        store.tags.push_back(kTagDouble);
        store.i64.push_back(0);
        store.f64.push_back(cell.double_);
      }
      break;
    case ColumnKind::kBool:
      store.tags.push_back(null ? kTagNull : kTagValue);
      store.b8.push_back(!null && cell.bool_ ? 1 : 0);
      break;
    case ColumnKind::kString:
      store.str.push_back(null ? kNullStringId : intern(cell.text_));
      break;
    case ColumnKind::kGeneric:
      if (cell.boxed_ != nullptr) {
        store.generic.push_back(*cell.boxed_);
      } else if (cell.bytes_ != nullptr) {
        store.generic.emplace_back(*cell.bytes_);
      } else {
        store.generic.emplace_back();
      }
      break;
  }
}

Value Table::cell_value(std::size_t column, std::uint32_t row) const {
  const ColumnStore& store = columns_[column];
  switch (store.kind) {
    case ColumnKind::kInt64:
      if (store.tags[row] == kTagNull) return Value{};
      return Value{store.i64[row]};
    case ColumnKind::kFloat64:
      if (store.tags[row] == kTagNull) return Value{};
      if (store.tags[row] == kTagValue) return Value{store.i64[row]};
      return Value{store.f64[row]};
    case ColumnKind::kBool:
      if (store.tags[row] == kTagNull) return Value{};
      return Value{store.b8[row] != 0};
    case ColumnKind::kString:
      if (store.str[row] == kNullStringId) return Value{};
      return Value{pool_[store.str[row]]};
    case ColumnKind::kGeneric:
      return store.generic[row];
  }
  return Value{};
}

Table::CellKey Table::key_at(const ColumnStore& store,
                             std::uint32_t row) const {
  switch (store.kind) {
    case ColumnKind::kInt64:
      if (store.tags[row] == kTagNull) return {kKeyNull, 0};
      return {kKeyInt, static_cast<std::uint64_t>(store.i64[row])};
    case ColumnKind::kFloat64:
      if (store.tags[row] == kTagNull) return {kKeyNull, 0};
      if (store.tags[row] == kTagValue) {
        return {kKeyInt, static_cast<std::uint64_t>(store.i64[row])};
      }
      return {kKeyDouble, double_bits(store.f64[row])};
    case ColumnKind::kBool:
      if (store.tags[row] == kTagNull) return {kKeyNull, 0};
      return {kKeyBool, store.b8[row] != 0 ? 1u : 0u};
    case ColumnKind::kString:
      if (store.str[row] == kNullStringId) return {kKeyNull, 0};
      return {kKeyString, store.str[row]};
    case ColumnKind::kGeneric:
      break;  // generic columns are never hash-indexed
  }
  assert(false);
  return {};
}

std::optional<Table::CellKey> Table::probe_key(const ColumnStore& store,
                                               const Value& value) const {
  if (value.is_null()) return CellKey{kKeyNull, 0};
  switch (store.kind) {
    case ColumnKind::kInt64:
      if (value.is_int()) {
        return CellKey{kKeyInt, static_cast<std::uint64_t>(value.as_int())};
      }
      return std::nullopt;
    case ColumnKind::kFloat64:
      if (value.is_int()) {
        return CellKey{kKeyInt, static_cast<std::uint64_t>(value.as_int())};
      }
      if (value.is_double()) {
        double d = value.as_double();
        if (std::isnan(d)) return std::nullopt;  // NaN equals nothing
        return CellKey{kKeyDouble, double_bits(d)};
      }
      return std::nullopt;
    case ColumnKind::kBool:
      if (value.is_bool()) {
        return CellKey{kKeyBool, value.as_bool() ? 1u : 0u};
      }
      return std::nullopt;
    case ColumnKind::kString: {
      if (!value.is_string()) return std::nullopt;
      auto it = pool_ids_.find(value.as_string());
      if (it == pool_ids_.end()) return std::nullopt;  // never interned
      return CellKey{kKeyString, it->second};
    }
    case ColumnKind::kGeneric:
      break;
  }
  return std::nullopt;
}

const Table::HashIndex& Table::ensure_hash_index(
    const ColumnStore& store) const {
  if (!store.hash_index) {
    HashIndex index;
    index.reserve(row_count_);
    for (std::uint32_t r = 0; r < row_count_; ++r) {
      index[key_at(store, r)].push_back(r);
    }
    store.hash_index = std::move(index);
  }
  return *store.hash_index;
}

bool Table::cell_less(const ColumnStore& store, std::uint32_t a,
                      std::uint32_t b) const {
  // Replicates Value::operator<: order by type discriminator first, then
  // content.  Null cells (monostate) compare equal among themselves, so a
  // stable sort keeps their insertion order.
  switch (store.kind) {
    case ColumnKind::kInt64:
    case ColumnKind::kBool: {
      if (store.tags[a] != store.tags[b]) {
        return store.tags[a] == kTagNull;  // null type index sorts first
      }
      if (store.tags[a] == kTagNull) return false;
      if (store.kind == ColumnKind::kInt64) {
        return store.i64[a] < store.i64[b];
      }
      return store.b8[a] < store.b8[b];
    }
    case ColumnKind::kFloat64: {
      // Type ranks: null(0) < int(2) < double(3) — tag values are already
      // in that order (kTagNull=0, kTagValue=1, kTagDouble=2).
      if (store.tags[a] != store.tags[b]) {
        return store.tags[a] < store.tags[b];
      }
      if (store.tags[a] == kTagNull) return false;
      if (store.tags[a] == kTagValue) return store.i64[a] < store.i64[b];
      return store.f64[a] < store.f64[b];
    }
    case ColumnKind::kString: {
      const bool null_a = store.str[a] == kNullStringId;
      const bool null_b = store.str[b] == kNullStringId;
      if (null_a != null_b) return null_a;
      if (null_a) return false;
      if (store.str[a] == store.str[b]) return false;
      return pool_[store.str[a]] < pool_[store.str[b]];
    }
    case ColumnKind::kGeneric:
      return store.generic[a] < store.generic[b];
  }
  return false;
}

const std::vector<std::uint32_t>& Table::ensure_sort_permutation(
    std::size_t column) const {
  const ColumnStore& store = columns_[column];
  if (!store.sort_permutation) {
    std::vector<std::uint32_t> order(row_count_);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [this, &store](std::uint32_t a, std::uint32_t b) {
                       return cell_less(store, a, b);
                     });
    store.sort_permutation = std::move(order);
  }
  return *store.sort_permutation;
}

std::vector<RowView> Table::select(const RowPredicate& predicate) const {
  std::vector<RowView> out;
  for (std::uint32_t r = 0; r < row_count_; ++r) {
    RowView view(this, r);
    if (predicate(view)) out.push_back(view);
  }
  return out;
}

std::vector<RowView> Table::select_equals(std::string_view column,
                                          const Value& value) const {
  std::optional<std::size_t> index = schema_.column_index(column);
  if (!index) return {};
  const ColumnStore& store = columns_[*index];
  std::vector<RowView> out;
  if (store.kind == ColumnKind::kGeneric) {
    for (std::uint32_t r = 0; r < row_count_; ++r) {
      if (store.generic[r] == value) out.emplace_back(RowView(this, r));
    }
    return out;
  }
  std::optional<CellKey> key = probe_key(store, value);
  if (!key) return {};
  const HashIndex& hash = ensure_hash_index(store);
  auto it = hash.find(*key);
  if (it == hash.end()) return {};
  out.reserve(it->second.size());
  for (std::uint32_t r : it->second) out.emplace_back(RowView(this, r));
  return out;
}

Result<std::vector<RowView>> Table::order_by(std::string_view column) const {
  std::optional<std::size_t> index = schema_.column_index(column);
  if (!index) {
    return err_not_found("table '" + schema_.name + "' has no column '" +
                         std::string(column) + "'");
  }
  const std::vector<std::uint32_t>& order = ensure_sort_permutation(*index);
  std::vector<RowView> out;
  out.reserve(order.size());
  for (std::uint32_t r : order) out.emplace_back(RowView(this, r));
  return out;
}

std::size_t Table::count_equals(std::string_view column,
                                const Value& value) const {
  std::optional<std::size_t> index = schema_.column_index(column);
  if (!index) return 0;
  const ColumnStore& store = columns_[*index];
  if (store.kind == ColumnKind::kGeneric) {
    std::size_t count = 0;
    for (std::uint32_t r = 0; r < row_count_; ++r) {
      if (store.generic[r] == value) ++count;
    }
    return count;
  }
  std::optional<CellKey> key = probe_key(store, value);
  if (!key) return 0;
  const HashIndex& hash = ensure_hash_index(store);
  auto it = hash.find(*key);
  return it == hash.end() ? 0 : it->second.size();
}

Result<Value> Table::cell(const RowView& row, std::string_view column) const {
  std::optional<std::size_t> index = schema_.column_index(column);
  if (!index) {
    return err_not_found("table '" + schema_.name + "' has no column '" +
                         std::string(column) + "'");
  }
  assert(row.table_ == this);
  if (row.row_ >= row_count_) return err_internal("row index out of range");
  return cell_value(*index, row.row_);
}

void Table::clear() {
  for (ColumnStore& store : columns_) {
    store.tags.clear();
    store.i64.clear();
    store.f64.clear();
    store.b8.clear();
    store.str.clear();
    store.generic.clear();
    store.hash_index.reset();
    store.sort_permutation.reset();
  }
  pool_.clear();
  pool_ids_.clear();
  row_count_ = 0;
}

void Table::reserve(std::size_t rows) {
  for (ColumnStore& store : columns_) {
    switch (store.kind) {
      case ColumnKind::kInt64:
        store.tags.reserve(rows);
        store.i64.reserve(rows);
        break;
      case ColumnKind::kFloat64:
        store.tags.reserve(rows);
        store.i64.reserve(rows);
        store.f64.reserve(rows);
        break;
      case ColumnKind::kBool:
        store.tags.reserve(rows);
        store.b8.reserve(rows);
        break;
      case ColumnKind::kString:
        store.str.reserve(rows);
        break;
      case ColumnKind::kGeneric:
        store.generic.reserve(rows);
        break;
    }
  }
}

// ---- column-block serialisation --------------------------------------------

void Table::serialize_columns(ByteWriter& writer) const {
  // Interned-string dictionary, then one length-prefixed block per column.
  // Each block is written in place behind a placeholder length that is
  // patched once the block is complete.
  writer.u32(static_cast<std::uint32_t>(pool_.size()));
  for (const std::string& text : pool_) writer.string(text);
  for (const ColumnStore& store : columns_) {
    const std::size_t length_at = writer.size();
    writer.u64(0);
    const std::size_t block_start = writer.size();
    writer.u8(static_cast<std::uint8_t>(store.kind));
    switch (store.kind) {
      case ColumnKind::kInt64:
        writer.raw(store.tags.data(), store.tags.size());
        for (std::uint32_t r = 0; r < row_count_; ++r) {
          if (store.tags[r] != kTagNull) writer.i64(store.i64[r]);
        }
        break;
      case ColumnKind::kFloat64:
        writer.raw(store.tags.data(), store.tags.size());
        for (std::uint32_t r = 0; r < row_count_; ++r) {
          if (store.tags[r] == kTagValue) {
            writer.i64(store.i64[r]);
          } else if (store.tags[r] == kTagDouble) {
            writer.f64(store.f64[r]);
          }
        }
        break;
      case ColumnKind::kBool:
        writer.raw(store.tags.data(), store.tags.size());
        writer.raw(store.b8.data(), store.b8.size());
        break;
      case ColumnKind::kString:
        for (std::uint32_t id : store.str) writer.u32(id);
        break;
      case ColumnKind::kGeneric:
        for (const Value& cell : store.generic) writer.value(cell);
        break;
    }
    writer.patch_u64(length_at, writer.size() - block_start);
  }
}

std::size_t Table::serialized_columns_size() const {
  // Mirrors serialize_columns() block by block.
  std::size_t size = 4;
  for (const std::string& text : pool_) size += 4 + text.size();
  for (const ColumnStore& store : columns_) {
    size += 8 + 1;  // block length, kind
    switch (store.kind) {
      case ColumnKind::kInt64:
      case ColumnKind::kFloat64: {
        std::size_t cells = 0;
        for (std::uint8_t tag : store.tags) cells += tag != kTagNull ? 1 : 0;
        size += store.tags.size() + 8 * cells;
        break;
      }
      case ColumnKind::kBool:
        size += store.tags.size() + store.b8.size();
        break;
      case ColumnKind::kString:
        size += 4 * store.str.size();
        break;
      case ColumnKind::kGeneric:
        for (const Value& cell : store.generic) {
          size += ByteWriter::value_size(cell);
        }
        break;
    }
  }
  return size;
}

Status Table::deserialize_columns(ByteReader& reader, std::uint64_t rows) {
  if (row_count_ != 0) return err_state("table is not empty");
  EXC_ASSIGN_OR_RETURN(std::uint32_t pool_size, reader.u32());
  for (std::uint32_t i = 0; i < pool_size; ++i) {
    EXC_ASSIGN_OR_RETURN(std::string text, reader.string());
    pool_.push_back(std::move(text));
    pool_ids_.emplace(pool_.back(), i);
  }
  const auto n = static_cast<std::size_t>(rows);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    const Column& column = schema_.columns[c];
    ColumnStore& store = columns_[c];
    EXC_ASSIGN_OR_RETURN(std::uint64_t block_size, reader.u64());
    if (block_size > reader.remaining()) {
      return err_io("column block for '" + column.name + "' is truncated");
    }
    // The row count is untrusted: every cell takes at least one byte of the
    // block after its kind byte (a string id four), so reject a count the
    // block cannot hold before anything is sized from it.
    const std::uint64_t min_cell_bytes =
        store.kind == ColumnKind::kString ? 4 : 1;
    if (block_size == 0 || rows > (block_size - 1) / min_cell_bytes) {
      return err_io("column block for '" + column.name + "' cannot hold " +
                    std::to_string(rows) + " rows");
    }
    const std::size_t block_end = reader.position() + block_size;
    EXC_ASSIGN_OR_RETURN(std::uint8_t kind, reader.u8());
    if (kind != static_cast<std::uint8_t>(store.kind)) {
      return err_io("column '" + column.name +
                    "' has mismatched storage kind");
    }
    auto check_tag = [&](std::uint8_t tag, std::uint8_t max_tag) -> Status {
      if (tag > max_tag) {
        return err_io("column '" + column.name + "' has invalid cell tag");
      }
      if (tag == kTagNull && !column.nullable) {
        return err_io("column '" + column.name +
                      "' is not nullable but stores a null");
      }
      return {};
    };
    switch (store.kind) {
      case ColumnKind::kInt64:
      case ColumnKind::kFloat64:
      case ColumnKind::kBool: {
        const std::uint8_t max_tag =
            store.kind == ColumnKind::kFloat64 ? kTagDouble : kTagValue;
        EXC_ASSIGN_OR_RETURN(Bytes tags, reader.raw(n));
        store.tags.assign(tags.begin(), tags.end());
        for (std::uint8_t tag : store.tags) EXC_TRY(check_tag(tag, max_tag));
        if (store.kind == ColumnKind::kBool) {
          EXC_ASSIGN_OR_RETURN(Bytes values, reader.raw(n));
          store.b8.assign(values.begin(), values.end());
        } else {
          store.i64.assign(n, 0);
          if (store.kind == ColumnKind::kFloat64) store.f64.assign(n, 0.0);
          for (std::size_t r = 0; r < n; ++r) {
            if (store.tags[r] == kTagValue) {
              EXC_ASSIGN_OR_RETURN(store.i64[r], reader.i64());
              if (store.kind == ColumnKind::kFloat64) {
                store.f64[r] = static_cast<double>(store.i64[r]);
              }
            } else if (store.tags[r] == kTagDouble) {
              EXC_ASSIGN_OR_RETURN(store.f64[r], reader.f64());
            }
          }
        }
        break;
      }
      case ColumnKind::kString:
        store.str.reserve(n);
        for (std::size_t r = 0; r < n; ++r) {
          EXC_ASSIGN_OR_RETURN(std::uint32_t id, reader.u32());
          if (id == kNullStringId) {
            if (!column.nullable) {
              return err_io("column '" + column.name +
                            "' is not nullable but stores a null");
            }
          } else if (id >= pool_.size()) {
            return err_io("column '" + column.name +
                          "' references an unknown interned string");
          }
          store.str.push_back(id);
        }
        break;
      case ColumnKind::kGeneric:
        store.generic.reserve(n);
        for (std::size_t r = 0; r < n; ++r) {
          EXC_ASSIGN_OR_RETURN(Value cell, reader.value());
          if (cell.is_null()) {
            if (!column.nullable) {
              return err_io("column '" + column.name +
                            "' is not nullable but stores a null");
            }
          } else if (cell.type() != column.type) {
            return err_io("column '" + column.name + "' stores a " +
                          std::string(to_string(cell.type())) +
                          " cell but declares " +
                          std::string(to_string(column.type)));
          }
          store.generic.push_back(std::move(cell));
        }
        break;
    }
    if (reader.position() != block_end) {
      return err_io("column block for '" + column.name +
                    "' has trailing bytes");
    }
  }
  row_count_ = n;
  return {};
}

}  // namespace excovery::storage
