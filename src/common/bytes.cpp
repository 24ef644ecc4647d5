#include "common/bytes.hpp"

namespace excovery {

void ByteWriter::u8(std::uint8_t v) { buffer_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::string(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void ByteWriter::blob(const Bytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b.data(), b.size());
}

void ByteWriter::raw(const std::uint8_t* data, std::size_t size) {
  buffer_.insert(buffer_.end(), data, data + size);
}

void ByteWriter::patch_u64(std::size_t offset, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_.at(offset + i) = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void ByteWriter::value(const Value& v) {
  u8(static_cast<std::uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      u8(v.as_bool() ? 1 : 0);
      break;
    case ValueType::kInt:
      i64(v.as_int());
      break;
    case ValueType::kDouble:
      f64(v.as_double());
      break;
    case ValueType::kString:
      string(v.as_string());
      break;
    case ValueType::kBytes:
      blob(v.as_bytes());
      break;
    case ValueType::kArray: {
      const ValueArray& arr = v.as_array();
      u32(static_cast<std::uint32_t>(arr.size()));
      for (const Value& item : arr) value(item);
      break;
    }
    case ValueType::kMap: {
      const ValueMap& map = v.as_map();
      u32(static_cast<std::uint32_t>(map.size()));
      for (const auto& [k, item] : map) {
        string(k);
        value(item);
      }
      break;
    }
  }
}

std::size_t ByteWriter::value_size(const Value& v) {
  std::size_t size = 1;  // type tag
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      size += 1;
      break;
    case ValueType::kInt:
    case ValueType::kDouble:
      size += 8;
      break;
    case ValueType::kString:
      size += 4 + v.as_string().size();
      break;
    case ValueType::kBytes:
      size += 4 + v.as_bytes().size();
      break;
    case ValueType::kArray:
      size += 4;
      for (const Value& item : v.as_array()) size += value_size(item);
      break;
    case ValueType::kMap:
      size += 4;
      for (const auto& [k, item] : v.as_map()) {
        size += 4 + k.size() + value_size(item);
      }
      break;
  }
  return size;
}

Status ByteReader::need(std::size_t n) const {
  if (pos_ + n > size_) {
    return err_io("byte stream truncated: need " + std::to_string(n) +
                  " bytes at offset " + std::to_string(pos_) + " of " +
                  std::to_string(size_));
  }
  return {};
}

Result<std::uint8_t> ByteReader::u8() {
  EXC_TRY(need(1));
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  EXC_TRY(need(2));
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                    static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::u32() {
  EXC_TRY(need(4));
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::u64() {
  EXC_TRY(need(8));
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Result<std::int64_t> ByteReader::i64() {
  EXC_ASSIGN_OR_RETURN(std::uint64_t v, u64());
  return static_cast<std::int64_t>(v);
}

Result<double> ByteReader::f64() {
  EXC_ASSIGN_OR_RETURN(std::uint64_t bits, u64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Result<std::string> ByteReader::string() {
  EXC_ASSIGN_OR_RETURN(std::uint32_t len, u32());
  EXC_TRY(need(len));
  std::string out(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return out;
}

Result<Bytes> ByteReader::blob() {
  EXC_ASSIGN_OR_RETURN(std::uint32_t len, u32());
  return raw(len);
}

Result<Bytes> ByteReader::raw(std::size_t size) {
  EXC_TRY(need(size));
  Bytes out(data_ + pos_, data_ + pos_ + size);
  pos_ += size;
  return out;
}

Result<Value> ByteReader::value() {
  EXC_ASSIGN_OR_RETURN(std::uint8_t tag, u8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value{};
    case ValueType::kBool: {
      EXC_ASSIGN_OR_RETURN(std::uint8_t b, u8());
      return Value{b != 0};
    }
    case ValueType::kInt: {
      EXC_ASSIGN_OR_RETURN(std::int64_t v, i64());
      return Value{v};
    }
    case ValueType::kDouble: {
      EXC_ASSIGN_OR_RETURN(double v, f64());
      return Value{v};
    }
    case ValueType::kString: {
      EXC_ASSIGN_OR_RETURN(std::string v, string());
      return Value{std::move(v)};
    }
    case ValueType::kBytes: {
      EXC_ASSIGN_OR_RETURN(Bytes v, blob());
      return Value{std::move(v)};
    }
    case ValueType::kArray: {
      EXC_ASSIGN_OR_RETURN(std::uint32_t count, u32());
      // Every element takes at least its one-byte tag: bound the untrusted
      // count by the input before reserving for it.
      if (count > remaining()) return err_io("array count exceeds input");
      ValueArray arr;
      arr.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        EXC_ASSIGN_OR_RETURN(Value item, value());
        arr.push_back(std::move(item));
      }
      return Value{std::move(arr)};
    }
    case ValueType::kMap: {
      EXC_ASSIGN_OR_RETURN(std::uint32_t count, u32());
      ValueMap map;
      for (std::uint32_t i = 0; i < count; ++i) {
        EXC_ASSIGN_OR_RETURN(std::string key, string());
        EXC_ASSIGN_OR_RETURN(Value item, value());
        map.emplace(std::move(key), std::move(item));
      }
      return Value{std::move(map)};
    }
  }
  return err_io("unknown value tag " + std::to_string(tag));
}

}  // namespace excovery
