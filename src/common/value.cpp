#include "common/value.hpp"

#include <charconv>
#include <cmath>

#include "common/strings.hpp"

namespace excovery {

std::string_view to_string(ValueType type) noexcept {
  switch (type) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "bool";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kBytes: return "bytes";
    case ValueType::kArray: return "array";
    case ValueType::kMap: return "map";
  }
  return "unknown";
}

Result<std::int64_t> Value::to_int() const {
  switch (type()) {
    case ValueType::kInt:
      return as_int();
    case ValueType::kBool:
      return static_cast<std::int64_t>(as_bool() ? 1 : 0);
    case ValueType::kDouble: {
      double d = as_double();
      if (d != std::floor(d)) {
        return err_invalid("double " + std::to_string(d) + " is not integral");
      }
      // Only [-2^63, 2^63) converts to int64 without undefined behaviour.
      if (d < -0x1p63 || d >= 0x1p63) {
        return err_invalid("double " + std::to_string(d) +
                           " is outside the int64 range");
      }
      return static_cast<std::int64_t>(d);
    }
    case ValueType::kString: {
      const std::string& s = as_string();
      std::string trimmed = strings::trim(strings::strip_quotes(s));
      std::int64_t out = 0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), out);
      if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size()) {
        return err_invalid("cannot parse '" + s + "' as int");
      }
      return out;
    }
    default:
      return err_invalid(std::string("cannot convert ") +
                         std::string(excovery::to_string(type())) + " to int");
  }
}

Result<double> Value::to_double() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(as_int());
    case ValueType::kDouble:
      return as_double();
    case ValueType::kString: {
      const std::string& s = as_string();
      std::string trimmed = strings::trim(strings::strip_quotes(s));
      // std::from_chars for double is available in libstdc++ 11+.
      double out = 0.0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), out);
      if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size()) {
        return err_invalid("cannot parse '" + s + "' as double");
      }
      return out;
    }
    default:
      return err_invalid(std::string("cannot convert ") +
                         std::string(excovery::to_string(type())) +
                         " to double");
  }
}

Result<bool> Value::to_bool() const {
  switch (type()) {
    case ValueType::kBool:
      return as_bool();
    case ValueType::kInt:
      return as_int() != 0;
    case ValueType::kString: {
      std::string s = strings::to_lower(
          strings::trim(strings::strip_quotes(as_string())));
      if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
      if (s == "false" || s == "0" || s == "no" || s == "off") return false;
      return err_invalid("cannot parse '" + as_string() + "' as bool");
    }
    default:
      return err_invalid(std::string("cannot convert ") +
                         std::string(excovery::to_string(type())) + " to bool");
  }
}

std::string Value::to_text() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kBool:
      return as_bool() ? "true" : "false";
    case ValueType::kInt:
      return std::to_string(as_int());
    case ValueType::kDouble:
      return strings::format_double(as_double());
    case ValueType::kString:
      return as_string();
    case ValueType::kBytes:
      return strings::to_hex(as_bytes());
    case ValueType::kArray: {
      std::string out = "[";
      bool first = true;
      for (const Value& v : as_array()) {
        if (!first) out += ",";
        first = false;
        out += v.to_text();
      }
      out += "]";
      return out;
    }
    case ValueType::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : as_map()) {
        if (!first) out += ",";
        first = false;
        out += k;
        out += "=";
        out += v.to_text();
      }
      out += "}";
      return out;
    }
  }
  return "";
}

const Value* Value::find(std::string_view key) const {
  if (!is_map()) return nullptr;
  auto it = as_map().find(std::string(key));
  if (it == as_map().end()) return nullptr;
  return &it->second;
}

bool operator<(const Value& a, const Value& b) {
  if (a.data_.index() != b.data_.index()) {
    return a.data_.index() < b.data_.index();
  }
  return a.data_ < b.data_;
}

}  // namespace excovery
