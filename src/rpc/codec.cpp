#include "rpc/codec.hpp"

#include <charconv>
#include <climits>
#include <cstdint>

#include "common/strings.hpp"
#include "xml/text.hpp"

namespace excovery::rpc {

namespace {

// ---- base64 (the <base64> scalar) ------------------------------------------

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

void append_base64(std::string& out, const Bytes& data) {
  std::size_t i = 0;
  while (i + 2 < data.size()) {
    std::uint32_t triple = (static_cast<std::uint32_t>(data[i]) << 16) |
                           (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                           data[i + 2];
    out.push_back(kBase64Alphabet[(triple >> 18) & 0x3F]);
    out.push_back(kBase64Alphabet[(triple >> 12) & 0x3F]);
    out.push_back(kBase64Alphabet[(triple >> 6) & 0x3F]);
    out.push_back(kBase64Alphabet[triple & 0x3F]);
    i += 3;
  }
  std::size_t rest = data.size() - i;
  if (rest == 1) {
    std::uint32_t v = static_cast<std::uint32_t>(data[i]) << 16;
    out.push_back(kBase64Alphabet[(v >> 18) & 0x3F]);
    out.push_back(kBase64Alphabet[(v >> 12) & 0x3F]);
    out.push_back('=');
    out.push_back('=');
  } else if (rest == 2) {
    std::uint32_t v = (static_cast<std::uint32_t>(data[i]) << 16) |
                      (static_cast<std::uint32_t>(data[i + 1]) << 8);
    out.push_back(kBase64Alphabet[(v >> 18) & 0x3F]);
    out.push_back(kBase64Alphabet[(v >> 12) & 0x3F]);
    out.push_back(kBase64Alphabet[(v >> 6) & 0x3F]);
    out.push_back('=');
  }
}

/// Padding and whitespace are skipped anywhere; any other non-alphabet
/// byte fails.
bool base64_decode(std::string_view text, Bytes& out) {
  auto value_of = [](char c) -> int {
    if (c >= 'A' && c <= 'Z') return c - 'A';
    if (c >= 'a' && c <= 'z') return c - 'a' + 26;
    if (c >= '0' && c <= '9') return c - '0' + 52;
    if (c == '+') return 62;
    if (c == '/') return 63;
    return -1;
  };
  std::uint32_t accum = 0;
  int bits = 0;
  for (char c : text) {
    if (c == '=' || c == '\n' || c == '\r' || c == ' ' || c == '\t') continue;
    int v = value_of(c);
    if (v < 0) return false;
    accum = (accum << 6) | static_cast<std::uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<std::uint8_t>((accum >> bits) & 0xFF));
    }
  }
  return true;
}

// ---- writer ----------------------------------------------------------------
//
// Compact text with an XML declaration and `<tag />` for empty elements:
// byte for byte what xml::write emits for the same element tree (pinned by
// the RpcWire.Golden* tests), except that <string> content is written
// verbatim where xml::write would trim it.

constexpr std::string_view kDeclaration =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

/// Capacity encode() gives a fresh buffer; most control messages fit.
constexpr std::size_t kMessageReserve = 512;

/// `<tag>text</tag>` with `text` escaped, or `<tag />` when it is empty.
void append_text_element(std::string& out, std::string_view tag,
                         std::string_view text) {
  out += '<';
  out += tag;
  if (text.empty()) {
    out += " />";
    return;
  }
  out += '>';
  xml::append_escaped_text(out, text);
  out += "</";
  out += tag;
  out += '>';
}

void append_value(std::string& out, const Value& value) {
  out += "<value>";
  switch (value.type()) {
    case ValueType::kNull:
      out += "<nil />";
      break;
    case ValueType::kBool:
      out += value.as_bool() ? "<boolean>1</boolean>" : "<boolean>0</boolean>";
      break;
    case ValueType::kInt: {
      // XML-RPC "int" is 32-bit; use the common i8 extension when needed.
      std::int64_t v = value.as_int();
      char digits[24];
      char* end = std::to_chars(digits, digits + sizeof digits, v).ptr;
      append_text_element(out, v >= INT32_MIN && v <= INT32_MAX ? "int" : "i8",
                          std::string_view(digits, end - digits));
      break;
    }
    case ValueType::kDouble:
      append_text_element(out, "double",
                          strings::format_double(value.as_double()));
      break;
    case ValueType::kString:
      append_text_element(out, "string", value.as_string());
      break;
    case ValueType::kBytes:
      if (value.as_bytes().empty()) {
        out += "<base64 />";
        break;
      }
      out += "<base64>";
      append_base64(out, value.as_bytes());
      out += "</base64>";
      break;
    case ValueType::kArray:
      if (value.as_array().empty()) {
        out += "<array><data /></array>";
        break;
      }
      out += "<array><data>";
      for (const Value& item : value.as_array()) append_value(out, item);
      out += "</data></array>";
      break;
    case ValueType::kMap:
      if (value.as_map().empty()) {
        out += "<struct />";
        break;
      }
      out += "<struct>";
      for (const auto& [name, item] : value.as_map()) {
        out += "<member>";
        append_text_element(out, "name", xml::trim_text(name));
        append_value(out, item);
        out += "</member>";
      }
      out += "</struct>";
      break;
  }
  out += "</value>";
}

// ---- reader ----------------------------------------------------------------

/// Whitespace between markup: space, tab, CR, LF (as xml::parse).
constexpr bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

constexpr bool is_name_char(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':' || c == '-' ||
         c == '.';
}

/// Byte equality without a library call: the strings compared are tag
/// names and short literals, for which a call to memcmp costs more than
/// the comparison.
constexpr bool same_bytes(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Parse leaf text the way Value::to_int / to_double read a string: text
/// trimmed, one pair of surrounding quotes stripped, trimmed again.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  text = xml::trim_text(text);
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    text = xml::trim_text(text.substr(1, text.size() - 2));
  }
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

/// Pull reader over one XML-RPC message (grammar: DESIGN.md §17).  Every
/// step returns false at the first mismatch after recording why; the
/// entry points turn that into a parse error.  `depth` arguments count
/// element nesting from the root (depth 0), against the xml::parse limit.
class Reader {
 public:
  explicit Reader(std::string_view in) noexcept : in_(in) {}

  Error error() const { return err_parse("XML-RPC: " + error_); }

  bool call(MethodCall& call) {
    bool empty = false;
    if (!skip_misc() || !open("methodCall", 0, empty)) return false;
    if (empty) return fail("<methodCall> without <methodName>");
    text_.clear();
    if (!skip_misc() || !open("methodName", 1, empty) ||
        !leaf("methodName", empty, text_) || !skip_misc()) {
      return false;
    }
    call.method = xml::trim_text(text_);
    if (same_bytes(peek_tag(), "params")) {
      if (!enter("params", 1, empty)) return false;
      if (!empty && !children("params", [&] {
            return param(call.params.emplace_back());
          })) {
        return false;
      }
      if (!skip_misc()) return false;
    }
    return close("methodCall") && finish();
  }

  bool response(MethodResponse& response) {
    bool empty = false;
    if (!skip_misc() || !open("methodResponse", 0, empty)) return false;
    if (empty) return fail("empty <methodResponse>");
    if (!skip_misc()) return false;
    std::string_view tag = peek_tag();
    if (same_bytes(tag, "params")) {
      if (!enter(tag, 1, empty)) return false;
      if (empty) return fail("<params> without <param>");
      if (!skip_misc() || !param(response.result)) return false;
    } else if (same_bytes(tag, "fault")) {
      if (!enter(tag, 1, empty)) return false;
      if (empty) return fail("<fault> without <value>");
      Value detail;
      if (!skip_misc() || !value(detail, 2) || !fault(detail, response)) {
        return false;
      }
    } else {
      return fail("expected <params> or <fault>");
    }
    return skip_misc() && close(tag) && skip_misc() &&
           close("methodResponse") && finish();
  }

 private:
  bool fail(std::string_view what) {
    error_.assign(what);
    error_ += " at offset ";
    error_ += std::to_string(pos_);
    return false;
  }

  bool starts(std::string_view literal) const noexcept {
    return same_bytes(in_.substr(pos_, literal.size()), literal);
  }

  void skip_ws() noexcept {
    while (pos_ < in_.size() && is_ws(in_[pos_])) ++pos_;
  }

  /// Move past the first `terminator` after the `opener`-byte opener at
  /// pos_ (comments, PIs).
  bool skip_past(std::size_t opener, std::string_view terminator,
                 std::string_view what) {
    std::size_t end = in_.find(terminator, pos_ + opener);
    if (end == std::string_view::npos) {
      return fail("unterminated " + std::string(what));
    }
    pos_ = end + terminator.size();
    return true;
  }

  /// Whitespace, comments and processing instructions between tags.
  bool skip_misc() {
    for (;;) {
      skip_ws();
      if (pos_ + 1 >= in_.size() || in_[pos_] != '<') return true;
      if (in_[pos_ + 1] == '?') {
        if (!skip_past(2, "?>", "processing instruction")) return false;
      } else if (starts("<!--")) {
        if (!skip_past(4, "-->", "comment")) return false;
      } else {
        return true;
      }
    }
  }

  bool finish() {
    return skip_misc() &&
           (pos_ == in_.size() || fail("content after the root element"));
  }

  /// The element name after a '<' at pos_; empty when no element starts.
  std::string_view peek_tag() const noexcept {
    if (pos_ >= in_.size() || in_[pos_] != '<') return {};
    std::size_t end = pos_ + 1;
    while (end < in_.size() && is_name_char(in_[end])) ++end;
    return in_.substr(pos_ + 1, end - pos_ - 1);
  }

  /// Read the open tag `<name>` or the self-closing `<name/>` (sets
  /// `empty`) whose `<name` starts at pos_.  Whitespace is allowed before
  /// the '>'; anything else there (an attribute, a longer name) fails.
  bool enter(std::string_view name, int depth, bool& empty) {
    if (depth > xml::kMaxDepth) return fail("message nested too deeply");
    pos_ += 1 + name.size();
    skip_ws();
    empty = starts("/>");
    if (!empty && !starts(">")) {
      return fail("malformed <" + std::string(name) + "> tag");
    }
    pos_ += empty ? 2 : 1;
    return true;
  }

  /// enter() `<name`, which must start at pos_.
  bool open(std::string_view name, int depth, bool& empty) {
    if (!starts("<") || !same_bytes(in_.substr(pos_ + 1, name.size()), name)) {
      return fail("expected <" + std::string(name) + ">");
    }
    return enter(name, depth, empty);
  }

  bool close(std::string_view name) {
    if (!starts("</") || !same_bytes(in_.substr(pos_ + 2, name.size()), name)) {
      return fail("expected </" + std::string(name) + ">");
    }
    pos_ += 2 + name.size();
    skip_ws();
    if (!starts(">")) return fail("malformed </" + std::string(name) + ">");
    pos_ += 1;
    return true;
  }

  /// The child elements of `name` up to its end tag; `item` reads one.
  template <typename Fn>
  bool children(std::string_view name, Fn&& item) {
    for (;;) {
      if (!skip_misc()) return false;
      if (starts("</")) return close(name);
      if (!item()) return false;
    }
  }

  /// Append character data up to the next tag to `out`: references
  /// decoded, CDATA sections kept, comments and PIs skipped.  Stops at an
  /// end tag, or at a child element's '<' with `child` set.
  bool read_text(std::string& out, bool& child) {
    for (;;) {
      std::size_t run = pos_;
      while (pos_ < in_.size() && in_[pos_] != '<' && in_[pos_] != '&') {
        ++pos_;
      }
      if (pos_ > run) out.append(in_.data() + run, pos_ - run);
      if (pos_ + 1 >= in_.size()) return fail("unterminated element");
      char next = in_[pos_ + 1];
      if (in_[pos_] == '&') {
        ++pos_;
        Status decoded = xml::append_reference(in_, pos_, out);
        if (!decoded.ok()) return fail(decoded.error().message());
      } else if (next == '?') {
        if (!skip_past(2, "?>", "processing instruction")) return false;
      } else if (next != '!') {
        child = next != '/';
        return true;
      } else if (starts("<!--")) {
        if (!skip_past(4, "-->", "comment")) return false;
      } else if (starts("<![CDATA[")) {
        std::size_t end = in_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) {
          return fail("unterminated CDATA section");
        }
        out.append(in_.data() + pos_ + 9, end - pos_ - 9);
        pos_ = end + 3;
      } else {
        child = true;  // a declaration: no type or name matches it
        return true;
      }
    }
  }

  /// The content and end tag of a text-only element whose open tag was
  /// just read.
  bool leaf(std::string_view name, bool empty, std::string& out) {
    if (empty) return true;
    bool child = false;
    if (!read_text(out, child)) return false;
    if (child) return fail("element inside <" + std::string(name) + ">");
    return close(name);
  }

  /// `<param><value>...</value></param>`.
  bool param(Value& out) {
    bool empty = false;
    if (!open("param", 2, empty)) return false;
    if (empty) return fail("<param> without <value>");
    return skip_misc() && value(out, 3) && skip_misc() && close("param");
  }

  bool value(Value& out, int depth) {
    bool empty = false;
    if (!open("value", depth, empty)) return false;
    if (empty) {
      out = Value{std::string()};
      return true;
    }
    text_.clear();
    bool child = false;
    if (!read_text(text_, child)) return false;
    if (!child) {
      // Bare text inside <value> is a string per the spec.
      out = Value{std::string(xml::trim_text(text_))};
      return close("value");
    }
    if (!xml::trim_text(text_).empty()) {
      return fail("text beside a typed value");
    }
    return typed(out, depth + 1) && skip_misc() && close("value");
  }

  bool typed(Value& out, int depth) {
    std::string_view type = peek_tag();
    auto is = [type](std::string_view name) { return same_bytes(type, name); };
    bool empty = false;
    if (is("array") || is("struct")) {
      return enter(type, depth, empty) &&
             (is("array") ? array(out, empty, depth)
                          : structure(out, empty, depth));
    }
    if (is("string")) {
      std::string text;
      if (!enter(type, depth, empty) || !leaf(type, empty, text)) return false;
      out = Value{std::move(text)};
      return true;
    }
    if (!is("int") && !is("i4") && !is("i8") && !is("boolean") &&
        !is("double") && !is("base64") && !is("nil")) {
      return fail("unknown XML-RPC type <" + std::string(type) + ">");
    }
    text_.clear();
    if (!enter(type, depth, empty) || !leaf(type, empty, text_)) return false;
    std::string_view text = xml::trim_text(text_);
    if (is("nil")) {
      out = Value{};
    } else if (is("boolean")) {
      bool yes = same_bytes(text, "1") || same_bytes(text, "true");
      if (!yes && !same_bytes(text, "0") && !same_bytes(text, "false")) {
        return fail("bad boolean");
      }
      out = Value{yes};
    } else if (is("double")) {
      double d = 0.0;
      if (!parse_number(text, d)) return fail("bad double");
      out = Value{d};
    } else if (is("base64")) {
      Bytes bytes;
      if (!base64_decode(text, bytes)) return fail("bad base64");
      out = Value{std::move(bytes)};
    } else {
      std::int64_t i = 0;
      if (!parse_number(text, i)) return fail("bad integer");
      out = Value{i};
    }
    return true;
  }

  bool array(Value& out, bool empty, int depth) {
    if (empty) return fail("<array> without <data>");
    ValueArray items;
    bool data_empty = false;
    if (!skip_misc() || !open("data", depth + 1, data_empty)) return false;
    if (!data_empty && !children("data", [&] {
          return value(items.emplace_back(), depth + 2);
        })) {
      return false;
    }
    if (!skip_misc() || !close("array")) return false;
    out = Value{std::move(items)};
    return true;
  }

  bool structure(Value& out, bool empty, int depth) {
    ValueMap map;
    if (!empty && !children("struct", [&] { return member(map, depth + 1); })) {
      return false;
    }
    out = Value{std::move(map)};
    return true;
  }

  /// `<member>` holding one `<name>` and one `<value>`, in either order.
  /// A repeated name keeps its first value.
  bool member(ValueMap& map, int depth) {
    bool empty = false;
    if (!open("member", depth, empty)) return false;
    std::string name;
    Value item;
    bool have_name = false;
    bool have_value = false;
    if (!empty && !children("member", [&] {
          std::string_view tag = peek_tag();
          if (same_bytes(tag, "value") && !have_value) {
            have_value = true;
            return value(item, depth + 1);
          }
          if (!same_bytes(tag, "name") || have_name) {
            return fail("unexpected element inside <member>");
          }
          bool name_empty = false;
          text_.clear();
          if (!enter(tag, depth + 1, name_empty) ||
              !leaf(tag, name_empty, text_)) {
            return false;
          }
          name = xml::trim_text(text_);
          have_name = true;
          return true;
        })) {
      return false;
    }
    if (!have_name || !have_value) {
      return fail("<member> needs a <name> and a <value>");
    }
    map.emplace_hint(map.end(), std::move(name), std::move(item));
    return true;
  }

  /// The spec's fault struct: faultCode (an int) and faultString.
  bool fault(const Value& detail, MethodResponse& response) {
    if (!detail.is_map()) return fail("fault detail is not a struct");
    response.is_fault = true;
    if (const Value* code = detail.find("faultCode")) {
      Result<std::int64_t> c = code->to_int();
      if (!c.ok()) return fail(c.error().message());
      if (c.value() < INT_MIN || c.value() > INT_MAX) {
        return fail("faultCode out of range");
      }
      response.fault_code = static_cast<int>(c.value());
    }
    if (const Value* message = detail.find("faultString")) {
      response.fault_string = message->to_text();
    }
    return true;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::string text_;  ///< reused for leaf text that is not a <string>
  std::string error_;
};

}  // namespace

void encode_into(std::string& out, const MethodCall& call) {
  out += kDeclaration;
  out += "<methodCall>";
  append_text_element(out, "methodName", xml::trim_text(call.method));
  if (call.params.empty()) {
    out += "<params />";
  } else {
    out += "<params>";
    for (const Value& param : call.params) {
      out += "<param>";
      append_value(out, param);
      out += "</param>";
    }
    out += "</params>";
  }
  out += "</methodCall>";
}

void encode_into(std::string& out, const MethodResponse& response) {
  out += kDeclaration;
  out += "<methodResponse>";
  if (response.is_fault) {
    out += "<fault>";
    append_value(out, Value{ValueMap{
                          {"faultCode", Value{response.fault_code}},
                          {"faultString", Value{response.fault_string}}}});
    out += "</fault>";
  } else {
    out += "<params><param>";
    append_value(out, response.result);
    out += "</param></params>";
  }
  out += "</methodResponse>";
}

std::string encode(const MethodCall& call) {
  std::string out;
  out.reserve(kMessageReserve);
  encode_into(out, call);
  return out;
}

std::string encode(const MethodResponse& response) {
  std::string out;
  out.reserve(kMessageReserve);
  encode_into(out, response);
  return out;
}

Result<MethodCall> decode_call(const std::string& xml_text) {
  Reader reader(xml_text);
  MethodCall call;
  if (!reader.call(call)) return reader.error();
  return call;
}

Result<MethodResponse> decode_response(const std::string& xml_text) {
  Reader reader(xml_text);
  MethodResponse response;
  if (!reader.response(response)) return reader.error();
  return response;
}

}  // namespace excovery::rpc
