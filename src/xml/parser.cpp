#include "xml/parser.hpp"

#include <string>

namespace excovery::xml {

namespace detail {

/// Parser-only access to the raw node machinery: links pre-validated
/// string_views (into the document's retained source) without copying.
class NodeFactory {
 public:
  static Document new_document() { return Document(); }
  static DocCore& core(Document& doc) { return *doc.core_; }
  static void set_root(Document& doc, Element* e) { doc.root_ = e; }
  static Element* new_element(Document& doc, std::string_view name) {
    return doc.new_element(name, /*stable_name=*/true);
  }
  static void link_child(Element& parent, Element* child) {
    parent.link_child(child);
  }
  static void add_attr(DocCore& core, Element& e, std::string_view name,
                       std::string_view value) {
    auto* a = new (core.arena.allocate(sizeof(Attribute), alignof(Attribute)))
        Attribute();
    a->name = core.intern(name, /*stable=*/true);
    a->value = value;
    e.link_attr(a);
  }
  static void add_text(DocCore& core, Element& e, std::string_view text) {
    auto* s = new (core.arena.allocate(sizeof(TextSegment),
                                       alignof(TextSegment))) TextSegment();
    s->set(text);
    e.link_text(s);
  }
};

}  // namespace detail

namespace {

using detail::NodeFactory;

/// XML whitespace is exactly space, tab, CR, LF (locale-free; the old
/// std::isspace also matched \f and \v and depended on the C locale).
constexpr bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

constexpr bool is_name_start(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

constexpr bool is_name_char(char c) noexcept {
  return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

/// Single-pass recursive-descent parser over the document's retained
/// source.  No per-character position bookkeeping: line/column for error
/// messages are recovered by scanning the prefix only when an error is
/// actually produced.
class Parser {
 public:
  explicit Parser(Document& doc)
      : doc_(doc),
        core_(NodeFactory::core(doc)),
        in_(core_.source) {}

  Status run() {
    Element* root = nullptr;
    for (;;) {
      skip_ws();
      if (pos_ >= in_.size()) break;
      if (consume("<!--")) {
        EXC_TRY(skip_comment());
        continue;
      }
      if (consume("<?")) {
        EXC_TRY(skip_pi());
        continue;
      }
      if (consume("<!")) {
        // DOCTYPE etc.: skip to '>'.
        while (pos_ < in_.size() && in_[pos_] != '>') ++pos_;
        if (!consume(">")) return error("unterminated declaration");
        continue;
      }
      if (!consume("<")) {
        return error("unexpected character data outside root element");
      }
      if (root) return error("multiple root elements");
      EXC_ASSIGN_OR_RETURN(root, parse_element_at(0));
    }
    if (!root) return err_parse("document has no root element");
    NodeFactory::set_root(doc_, root);
    return {};
  }

 private:
  std::string_view view(std::size_t from, std::size_t to) const noexcept {
    return in_.substr(from, to - from);
  }

  void skip_ws() noexcept {
    while (pos_ < in_.size() && is_ws(in_[pos_])) ++pos_;
  }

  bool consume(std::string_view literal) noexcept {
    if (in_.size() - pos_ < literal.size()) return false;
    if (in_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  /// Line/column are derived from the error offset on demand.
  Error error(std::string message) const {
    int line = 1;
    std::size_t line_start = 0;
    std::size_t stop = pos_ < in_.size() ? pos_ : in_.size();
    for (std::size_t i = 0; i < stop; ++i) {
      if (in_[i] == '\n') {
        ++line;
        line_start = i + 1;
      }
    }
    int column = static_cast<int>(stop - line_start) + 1;
    return err_parse("line " + std::to_string(line) + ", column " +
                     std::to_string(column) + ": " + std::move(message));
  }

  Result<std::string_view> parse_name() {
    if (pos_ >= in_.size() || !is_name_start(in_[pos_])) {
      return error("expected a name");
    }
    std::size_t start = pos_;
    ++pos_;
    while (pos_ < in_.size() && is_name_char(in_[pos_])) ++pos_;
    return view(start, pos_);
  }

  /// Decode a reference — the '&' is already consumed; the decoded bytes
  /// are appended to `out`.
  Status append_entity(std::string& out) {
    Status decoded = append_reference(in_, pos_, out);
    if (!decoded.ok()) return error(decoded.error().message());
    return decoded;
  }

  Status skip_comment() {
    // "<!--" already consumed.
    std::size_t end = in_.find("-->", pos_);
    if (end == std::string::npos) {
      pos_ = in_.size();
      return error("unterminated comment");
    }
    pos_ = end + 3;
    return {};
  }

  Status skip_pi() {
    // "<?" already consumed.
    std::size_t end = in_.find("?>", pos_);
    if (end == std::string::npos) {
      pos_ = in_.size();
      return error("unterminated processing instruction");
    }
    pos_ = end + 2;
    return {};
  }

  Status parse_attribute(Element& element) {
    EXC_ASSIGN_OR_RETURN(std::string_view name, parse_name());
    skip_ws();
    if (!consume("=")) return error("expected '=' after attribute name");
    skip_ws();
    char quote = pos_ < in_.size() ? in_[pos_] : '\0';
    if (quote != '"' && quote != '\'') {
      return error("expected quoted attribute value");
    }
    ++pos_;
    std::size_t start = pos_;
    while (pos_ < in_.size() && in_[pos_] != quote && in_[pos_] != '&') ++pos_;
    std::string_view value;
    if (pos_ < in_.size() && in_[pos_] == quote) {
      // Fast path: the value is a pure slice of the source.
      value = view(start, pos_);
      ++pos_;
    } else if (pos_ >= in_.size()) {
      return error("unterminated attribute value");
    } else {
      // Entities present: decode once into the arena.
      scratch_.assign(in_, start, pos_ - start);
      for (;;) {
        ++pos_;  // '&'
        EXC_TRY(append_entity(scratch_));
        std::size_t plain = pos_;
        while (pos_ < in_.size() && in_[pos_] != quote && in_[pos_] != '&') {
          ++pos_;
        }
        scratch_.append(in_, plain, pos_ - plain);
        if (pos_ >= in_.size()) return error("unterminated attribute value");
        if (in_[pos_] == quote) {
          ++pos_;
          break;
        }
      }
      value = core_.arena.store(scratch_);
    }
    if (element.has_attr(name)) {
      return error("duplicate attribute '" + std::string(name) + "'");
    }
    NodeFactory::add_attr(core_, element, name, value);
    return {};
  }

  Result<Element*> parse_element_at(int depth) {
    if (depth > kMaxDepth) return error("document nested too deeply");

    // '<' already consumed by caller.
    EXC_ASSIGN_OR_RETURN(std::string_view name, parse_name());
    Element* element = NodeFactory::new_element(doc_, name);

    // Attributes.
    for (;;) {
      skip_ws();
      if (consume("/>")) return element;
      if (consume(">")) break;
      if (pos_ >= in_.size()) return error("unterminated start tag");
      EXC_TRY(parse_attribute(*element));
    }

    // Content: text runs interleaved with markup.  A run without entities
    // becomes a zero-copy view; entity-bearing runs decode into scratch
    // and land in the arena as one segment.
    for (;;) {
      std::size_t run_start = pos_;
      bool in_scratch = false;
      for (;;) {
        std::size_t span = pos_;
        while (pos_ < in_.size() && in_[pos_] != '<' && in_[pos_] != '&') {
          ++pos_;
        }
        if (pos_ >= in_.size()) {
          return error("unterminated element <" + std::string(element->name()) +
                       ">");
        }
        if (in_[pos_] == '<') {
          if (in_scratch) scratch_.append(in_, span, pos_ - span);
          break;
        }
        // '&'
        if (!in_scratch) {
          scratch_.assign(in_, run_start, pos_ - run_start);
          in_scratch = true;
        } else {
          scratch_.append(in_, span, pos_ - span);
        }
        ++pos_;
        EXC_TRY(append_entity(scratch_));
      }
      // Flush the finished run.
      if (in_scratch) {
        if (!scratch_.empty()) {
          NodeFactory::add_text(core_, *element, core_.arena.store(scratch_));
        }
        scratch_.clear();
      } else if (pos_ > run_start) {
        NodeFactory::add_text(core_, *element, view(run_start, pos_));
      }

      // Markup dispatch; pos_ is at '<'.
      if (consume("<!--")) {
        EXC_TRY(skip_comment());
        continue;
      }
      if (consume("<![CDATA[")) {
        std::size_t end = in_.find("]]>", pos_);
        if (end == std::string::npos) {
          pos_ = in_.size();
          return error("unterminated CDATA section");
        }
        if (end > pos_) {
          NodeFactory::add_text(core_, *element, view(pos_, end));
        }
        pos_ = end + 3;
        continue;
      }
      if (consume("<?")) {
        EXC_TRY(skip_pi());
        continue;
      }
      if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '/') {
        pos_ += 2;  // "</"
        EXC_ASSIGN_OR_RETURN(std::string_view close, parse_name());
        skip_ws();
        if (!consume(">")) return error("malformed end tag");
        if (close != element->name()) {
          return error("mismatched end tag </" + std::string(close) +
                       "> for <" + std::string(element->name()) + ">");
        }
        return element;
      }
      // Child element.
      ++pos_;  // '<'
      EXC_ASSIGN_OR_RETURN(Element * child, parse_element_at(depth + 1));
      NodeFactory::link_child(*element, child);
    }
  }

  Document& doc_;
  DocCore& core_;
  /// A view of core_.source: substrings are views into the retained
  /// buffer (a std::string member here would make substr() allocate — and
  /// dangle).
  std::string_view in_;
  std::size_t pos_ = 0;
  std::string scratch_;  ///< reused decode buffer for entity-bearing runs
};

}  // namespace

Result<Document> parse(std::string&& input) {
  Document doc = NodeFactory::new_document();
  NodeFactory::core(doc).source = std::move(input);
  Parser parser(doc);
  EXC_TRY(parser.run());
  return doc;
}

Result<Document> parse(std::string_view input) {
  return parse(std::string(input));
}

Status append_reference(std::string_view in, std::size_t& pos,
                        std::string& out) {
  std::size_t start = pos;
  while (pos < in.size() && in[pos] != ';') {
    ++pos;
    if (pos - start > 8) return err_parse("unterminated entity reference");
  }
  if (pos >= in.size()) return err_parse("unterminated entity reference");
  std::string_view entity = in.substr(start, pos - start);
  ++pos;  // ';'
  if (entity == "amp") {
    out.push_back('&');
    return {};
  }
  if (entity == "lt") {
    out.push_back('<');
    return {};
  }
  if (entity == "gt") {
    out.push_back('>');
    return {};
  }
  if (entity == "apos") {
    out.push_back('\'');
    return {};
  }
  if (entity == "quot") {
    out.push_back('"');
    return {};
  }
  if (entity.empty() || entity[0] != '#') {
    return err_parse("unknown entity &" + std::string(entity) + ";");
  }
  int base = 10;
  std::size_t from = 1;
  if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
    base = 16;
    from = 2;
  }
  unsigned long code = 0;
  for (std::size_t i = from; i < entity.size(); ++i) {
    char c = entity[i];
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else
      return err_parse("bad character reference &" + std::string(entity) +
                       ";");
    code = code * static_cast<unsigned long>(base) +
           static_cast<unsigned long>(digit);
    if (code > 0x10FFFF) return err_parse("character reference out of range");
  }
  // UTF-8 encode.
  if (code < 0x80) {
    out.push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
  return {};
}

}  // namespace excovery::xml
