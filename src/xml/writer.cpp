#include "xml/writer.hpp"

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace excovery::xml {

namespace {

constexpr std::string_view kDeclaration =
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";

// The emitters are templated over a tiny output concept (append/push) so
// the same single serialisation routine drives three instantiations: exact
// byte counting, emission into a pre-sized string, and chunked streaming
// into a Sink.  Count + emit is how write() sizes its buffer exactly and
// how campaign_digest learns the canonical length for its length prefix
// without materialising the text.

struct CountOut {
  std::size_t n = 0;
  void append(const char*, std::size_t size) noexcept { n += size; }
  void append(std::string_view s) noexcept { n += s.size(); }
  void push(char) noexcept { ++n; }
};

struct StringOut {
  std::string& s;
  void append(const char* data, std::size_t size) { s.append(data, size); }
  void append(std::string_view v) { s.append(v); }
  void push(char c) { s.push_back(c); }
};

struct SinkOut {
  explicit SinkOut(Sink& sink) noexcept : sink_(sink) {}
  void append(const char* data, std::size_t size) {
    if (size > sizeof(buf_) - used_) {
      flush();
      if (size >= sizeof(buf_)) {
        sink_.write(data, size);
        return;
      }
    }
    std::memcpy(buf_ + used_, data, size);
    used_ += size;
  }
  void append(std::string_view v) { append(v.data(), v.size()); }
  void push(char c) {
    if (used_ == sizeof(buf_)) flush();
    buf_[used_++] = c;
  }
  void flush() {
    if (used_) sink_.write(buf_, used_);
    used_ = 0;
  }

 private:
  Sink& sink_;
  char buf_[4096];
  std::size_t used_ = 0;
};

// Escaping tables: per byte, the number of EXTRA output bytes its escape
// sequence needs (0 marks a plain byte).  The counting pass sums these
// branchlessly; the emit pass uses "nonzero" as "needs replacing".
constexpr std::array<std::uint8_t, 256> make_extra(bool attr) {
  std::array<std::uint8_t, 256> table{};
  table[static_cast<unsigned char>('&')] = 4;  // &amp;
  table[static_cast<unsigned char>('<')] = 3;  // &lt;
  table[static_cast<unsigned char>('>')] = 3;  // &gt;
  if (attr) {
    table[static_cast<unsigned char>('"')] = 5;   // &quot;
    table[static_cast<unsigned char>('\'')] = 5;  // &apos;
  }
  return table;
}
constexpr std::array<std::uint8_t, 256> kTextExtra = make_extra(false);
constexpr std::array<std::uint8_t, 256> kAttrExtra = make_extra(true);

constexpr std::size_t escaped_size(
    std::string_view text, const std::array<std::uint8_t, 256>& extra) {
  std::size_t n = text.size();
  for (char c : text) n += extra[static_cast<unsigned char>(c)];
  return n;
}

/// Index of the first byte at or after `i` that `extra` marks as needing
/// an escape, or text.size().  SSE2 scans 16 bytes per step against the
/// five escapable characters; the table re-check keeps the text/attr
/// distinction (quotes are plain in character data).
inline std::size_t find_escape(std::string_view text, std::size_t i,
                               const std::array<std::uint8_t, 256>& extra) {
#ifdef __SSE2__
  const __m128i amp = _mm_set1_epi8('&');
  const __m128i lt = _mm_set1_epi8('<');
  const __m128i gt = _mm_set1_epi8('>');
  const __m128i quot = _mm_set1_epi8('"');
  const __m128i apos = _mm_set1_epi8('\'');
  while (i + 16 <= text.size()) {
    const __m128i v = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(text.data() + i));
    const __m128i hit = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(v, amp), _mm_cmpeq_epi8(v, lt)),
        _mm_or_si128(_mm_cmpeq_epi8(v, gt),
                     _mm_or_si128(_mm_cmpeq_epi8(v, quot),
                                  _mm_cmpeq_epi8(v, apos))));
    int mask = _mm_movemask_epi8(hit);
    while (mask != 0) {
      const int bit = __builtin_ctz(static_cast<unsigned>(mask));
      const auto c = static_cast<unsigned char>(text[i + bit]);
      if (extra[c] != 0) return i + static_cast<std::size_t>(bit);
      mask &= mask - 1;
    }
    i += 16;
  }
#endif
  while (i < text.size() &&
         extra[static_cast<unsigned char>(text[i])] == 0) {
    ++i;
  }
  return i;
}

template <class Out>
void emit_escaped(std::string_view text, Out& out,
                  const std::array<std::uint8_t, 256>& extra) {
  if constexpr (std::is_same_v<Out, CountOut>) {
    out.n += escaped_size(text, extra);
    return;
  }
  std::size_t start = 0;
  std::size_t i = find_escape(text, 0, extra);
  while (i < text.size()) {
    out.append(text.data() + start, i - start);
    switch (text[i]) {
      case '&': out.append("&amp;", 5); break;
      case '<': out.append("&lt;", 4); break;
      case '>': out.append("&gt;", 4); break;
      case '"': out.append("&quot;", 6); break;
      case '\'': out.append("&apos;", 6); break;
    }
    start = i + 1;
    i = find_escape(text, start, extra);
  }
  out.append(text.data() + start, text.size() - start);
}

template <class Out>
void emit_escaped_text(std::string_view text, Out& out) {
  emit_escaped(text, out, kTextExtra);
}

template <class Out>
void emit_escaped_attr(std::string_view text, Out& out) {
  emit_escaped(text, out, kAttrExtra);
}

template <class Out>
void emit_trimmed_text(const Element& element, Out& out) {
  element.for_each_text_span(
      [&](std::string_view span) { emit_escaped_text(span, out); });
}

template <class Out>
void emit_indent(int level, const WriteOptions& options, Out& out) {
  if (!options.pretty) return;
  out.push('\n');
  static constexpr char kSpaces[64] = {' ', ' ', ' ', ' ', ' ', ' ', ' ', ' ',
                                       ' ', ' ', ' ', ' ', ' ', ' ', ' ', ' ',
                                       ' ', ' ', ' ', ' ', ' ', ' ', ' ', ' ',
                                       ' ', ' ', ' ', ' ', ' ', ' ', ' ', ' ',
                                       ' ', ' ', ' ', ' ', ' ', ' ', ' ', ' ',
                                       ' ', ' ', ' ', ' ', ' ', ' ', ' ', ' ',
                                       ' ', ' ', ' ', ' ', ' ', ' ', ' ', ' ',
                                       ' ', ' ', ' ', ' ', ' ', ' ', ' ', ' '};
  int n = level * options.indent_width;
  while (n > 0) {
    int take = n < 64 ? n : 64;
    out.append(kSpaces, static_cast<std::size_t>(take));
    n -= take;
  }
}

template <class Out>
void emit_element(const Element& element, const WriteOptions& options,
                  int depth, Out& out) {
  if (depth > 0 || options.declaration) emit_indent(depth, options, out);
  out.push('<');
  out.append(element.name());
  for (const Attribute& a : element.attributes()) {
    out.push(' ');
    out.append(a.name);
    out.append("=\"", 2);
    emit_escaped_attr(a.value, out);
    out.push('"');
  }

  bool has_text = element.has_text();
  if (!element.has_children() && !has_text) {
    out.append(" />", 3);
    return;
  }
  out.push('>');

  if (!element.has_children()) {
    // Text-only element: keep text inline for readability.
    emit_trimmed_text(element, out);
    out.append("</", 2);
    out.append(element.name());
    out.push('>');
    return;
  }

  if (has_text) {
    emit_indent(depth + 1, options, out);
    emit_trimmed_text(element, out);
  }
  for (const Element& child : element.children()) {
    emit_element(child, options, depth + 1, out);
  }
  emit_indent(depth, options, out);
  out.append("</", 2);
  out.append(element.name());
  out.push('>');
}

/// Sorted attribute emission for the canonical form: small attribute lists
/// (the common case) sort on the stack; a stable insertion sort keeps
/// original order for (invalid) duplicate names, so the output is still
/// deterministic.
template <class Out>
void emit_sorted_attrs(const Element& element, Out& out) {
  if constexpr (std::is_same_v<Out, CountOut>) {
    // Byte counting is order-invariant: skip the sort entirely.
    for (const Attribute& a : element.attributes()) {
      out.n += 4 + a.name.size() + escaped_size(a.value, kAttrExtra);
    }
    return;
  }
  constexpr std::size_t kInline = 16;
  const Attribute* stack_slots[kInline];
  std::vector<const Attribute*> heap_slots;
  const Attribute** attrs = stack_slots;
  std::size_t count = 0;
  for (const Attribute& a : element.attributes()) {
    (void)a;
    ++count;
  }
  if (count > kInline) {
    heap_slots.resize(count);
    attrs = heap_slots.data();
  }
  std::size_t i = 0;
  for (const Attribute& a : element.attributes()) attrs[i++] = &a;
  for (std::size_t j = 1; j < count; ++j) {
    const Attribute* key = attrs[j];
    std::size_t k = j;
    while (k > 0 && attrs[k - 1]->name > key->name) {
      attrs[k] = attrs[k - 1];
      --k;
    }
    attrs[k] = key;
  }
  for (std::size_t j = 0; j < count; ++j) {
    out.push(' ');
    out.append(attrs[j]->name);
    out.append("=\"", 2);
    emit_escaped_attr(attrs[j]->value, out);
    out.push('"');
  }
}

template <class Out>
void emit_canonical(const Element& element, Out& out) {
  out.push('<');
  out.append(element.name());
  emit_sorted_attrs(element, out);

  bool has_text = element.has_text();
  if (!element.has_children() && !has_text) {
    out.append("/>", 2);
    return;
  }
  out.push('>');
  if (has_text) emit_trimmed_text(element, out);
  for (const Element& child : element.children()) {
    emit_canonical(child, out);
  }
  out.append("</", 2);
  out.append(element.name());
  out.push('>');
}

}  // namespace

void append_escaped_text(std::string& out, std::string_view text) {
  StringOut sink{out};
  emit_escaped_text(text, sink);
}

std::string write(const Element& root, const WriteOptions& options) {
  CountOut counter;
  if (options.declaration) counter.append(kDeclaration);
  emit_element(root, options, 0, counter);
  if (options.pretty) counter.push('\n');

  std::string out;
  out.reserve(counter.n);
  StringOut sink{out};
  if (options.declaration) sink.append(kDeclaration);
  emit_element(root, options, 0, sink);
  if (options.pretty) sink.push('\n');
  return out;
}

std::string write(const Document& doc, const WriteOptions& options) {
  return write(doc.root(), options);
}

std::string write_canonical(const Element& root) {
  CountOut counter;
  emit_canonical(root, counter);
  std::string out;
  out.reserve(counter.n);
  StringOut sink{out};
  emit_canonical(root, sink);
  return out;
}

void write_canonical(const Element& root, Sink& sink) {
  SinkOut out(sink);
  emit_canonical(root, out);
  out.flush();
}

std::size_t canonical_size(const Element& root) {
  CountOut counter;
  emit_canonical(root, counter);
  return counter.n;
}

}  // namespace excovery::xml
