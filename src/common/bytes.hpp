// Endian-stable binary encoding used by packet payloads and the level-3
// storage package file format.  Everything is little-endian on the wire.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/value.hpp"

namespace excovery {

/// Append-only binary writer.
class ByteWriter {
 public:
  const Bytes& bytes() const noexcept { return buffer_; }
  Bytes take() noexcept { return std::move(buffer_); }
  std::size_t size() const noexcept { return buffer_.size(); }
  /// Make room for `bytes` in total, so that writing that much allocates
  /// the buffer once instead of growing it step by step.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  /// Length-prefixed (u32) string.
  void string(std::string_view s);
  /// Length-prefixed (u32) raw bytes.
  void blob(const Bytes& b);
  /// Raw bytes, no length prefix.
  void raw(const std::uint8_t* data, std::size_t size);
  /// Tagged Value (recursive over arrays/maps).
  void value(const Value& v);
  /// Bytes value(v) appends.
  static std::size_t value_size(const Value& v);
  /// Overwrite the u64 written at byte `offset` (a length placeholder
  /// written before the data it measures).
  void patch_u64(std::size_t offset, std::uint64_t v);

 private:
  Bytes buffer_;
};

/// Sequential binary reader with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& bytes) noexcept
      : data_(bytes.data()), size_(bytes.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ >= size_; }

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int64_t> i64();
  Result<double> f64();
  Result<std::string> string();
  Result<Bytes> blob();
  Result<Value> value();
  /// Copy out `size` raw bytes.
  Result<Bytes> raw(std::size_t size);

 private:
  Status need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace excovery
