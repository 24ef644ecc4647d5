// Arena-backed XML document object model.
//
// ExCovery's abstract experiment description is an XML document (§IV-C of
// the paper; Figures 4-10 show fragments) and every answer-relevant byte —
// descriptions and the canonical form feeding campaign_digest — flows
// through this model (XML-RPC control messages stream without it, DESIGN.md
// §17).  The DOM is therefore built for zero-copy operation (DESIGN.md §15):
//
//  * Every node (Element, Attribute, TextSegment) is bump-allocated from a
//    per-document Arena and freed all at once when the Document dies.
//    Nodes are trivially destructible; the arena never runs destructors.
//  * Element and attribute names are interned in a per-document pool, so a
//    thousand <level> elements share one copy of the bytes.
//  * Text segments and attribute values are std::string_view slices.  When
//    a document comes from parse(), they reference the retained input
//    buffer in-situ; mutation APIs copy their inputs into the arena.
//
// Lifetime contract: everything reachable from a Document — element
// pointers, name/attr/text views — is valid exactly as long as that
// Document (moves included: the backing store is held by pointer and never
// relocates).  Nodes cannot outlive or migrate between documents.
// Namespaces and DTDs are out of scope.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "xml/text.hpp"

namespace excovery::xml {

class Document;
class Element;
namespace detail {
class NodeFactory;
}

/// Chunked bump allocator.  Allocation is a pointer increment; memory is
/// released only when the arena is destroyed.  Only trivially destructible
/// types may live here.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  void* allocate(std::size_t size, std::size_t align) {
    std::size_t at = (used_ + (align - 1)) & ~(align - 1);
    if (at + size > capacity_) return allocate_slow(size, align);
    used_ = at + size;
    return current_ + at;
  }

  /// Copy bytes into the arena and return a view of the stable copy.
  std::string_view store(std::string_view bytes) {
    if (bytes.empty()) return {};
    char* p = static_cast<char*>(allocate(bytes.size(), 1));
    std::memcpy(p, bytes.data(), bytes.size());
    return {p, bytes.size()};
  }

  /// Total bytes handed out (for stats and benchmarks).
  std::size_t bytes_used() const noexcept { return retired_ + used_; }

 private:
  void* allocate_slow(std::size_t size, std::size_t align);

  char* current_ = nullptr;
  std::size_t used_ = 0;
  std::size_t capacity_ = 0;
  std::size_t retired_ = 0;  ///< bytes used in full chunks
  std::vector<std::unique_ptr<char[]>> chunks_;
};

/// One attribute (name="value").  An intrusive singly-linked list node;
/// `next` is managed by the owning Element.
struct Attribute {
  std::string_view name;   ///< interned in the document's name pool
  std::string_view value;  ///< in-situ or arena-resident bytes
  const Attribute* next = nullptr;
};

/// One run of character data, in document order between child elements.
/// The trim bounds are computed once when the segment is filled in, so the
/// serialisation hot path never re-scans whitespace-only runs.
struct TextSegment {
  std::string_view text;
  const TextSegment* next = nullptr;
  /// Index of the first non-space byte, or npos for all-whitespace text.
  std::size_t first_ns = std::string_view::npos;
  /// One past the last non-space byte (0 for all-whitespace text).
  std::size_t last_ns = 0;

  /// Assign the text and cache its trim bounds.
  void set(std::string_view value) noexcept {
    text = value;
    first_ns = value.find_first_not_of(kSpaceChars);
    last_ns =
        first_ns == std::string_view::npos
            ? 0
            : value.find_last_not_of(kSpaceChars) + 1;
  }
};

/// Backing store of one document: arena, interned-name pool, and the
/// retained parse input.  Heap-allocated and address-stable so nodes can
/// point at it across Document moves.
struct DocCore {
  Arena arena;
  std::string source;  ///< retained parse input; empty for built documents

  /// Intern a name.  `stable` promises the caller's bytes outlive the
  /// document (the parser's in-situ views); otherwise the first occurrence
  /// is copied into the arena.
  std::string_view intern(std::string_view name, bool stable = false);

 private:
  void rehash();
  std::vector<std::string_view> slots_;  ///< open addressing, empty = free
  std::size_t count_ = 0;
};

/// Forward iteration over an element's attributes.
class AttrRange {
 public:
  class iterator {
   public:
    explicit iterator(const Attribute* a) noexcept : a_(a) {}
    const Attribute& operator*() const noexcept { return *a_; }
    const Attribute* operator->() const noexcept { return a_; }
    iterator& operator++() noexcept {
      a_ = a_->next;
      return *this;
    }
    bool operator==(const iterator& o) const noexcept { return a_ == o.a_; }
    bool operator!=(const iterator& o) const noexcept { return a_ != o.a_; }

   private:
    const Attribute* a_;
  };

  explicit AttrRange(const Attribute* first) noexcept : first_(first) {}
  iterator begin() const noexcept { return iterator(first_); }
  iterator end() const noexcept { return iterator(nullptr); }
  bool empty() const noexcept { return first_ == nullptr; }
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const Attribute* a = first_; a; a = a->next) ++n;
    return n;
  }

 private:
  const Attribute* first_;
};

/// Forward iteration over an element's raw text segments.
class TextRange {
 public:
  class iterator {
   public:
    explicit iterator(const TextSegment* s) noexcept : s_(s) {}
    std::string_view operator*() const noexcept { return s_->text; }
    iterator& operator++() noexcept {
      s_ = s_->next;
      return *this;
    }
    bool operator==(const iterator& o) const noexcept { return s_ == o.s_; }
    bool operator!=(const iterator& o) const noexcept { return s_ != o.s_; }

   private:
    const TextSegment* s_;
  };

  explicit TextRange(const TextSegment* first) noexcept : first_(first) {}
  iterator begin() const noexcept { return iterator(first_); }
  iterator end() const noexcept { return iterator(nullptr); }
  bool empty() const noexcept { return first_ == nullptr; }

 private:
  const TextSegment* first_;
};

/// Forward iteration over child elements; yields `const Element&`.
class ChildRange {
 public:
  class iterator {
   public:
    explicit iterator(const Element* e) noexcept : e_(e) {}
    const Element& operator*() const noexcept { return *e_; }
    const Element* operator->() const noexcept { return e_; }
    inline iterator& operator++() noexcept;
    bool operator==(const iterator& o) const noexcept { return e_ == o.e_; }
    bool operator!=(const iterator& o) const noexcept { return e_ != o.e_; }

   private:
    const Element* e_;
  };

  explicit ChildRange(const Element* first) noexcept : first_(first) {}
  iterator begin() const noexcept { return iterator(first_); }
  iterator end() const noexcept { return iterator(nullptr); }
  bool empty() const noexcept { return first_ == nullptr; }
  const Element* front() const noexcept { return first_; }
  inline std::size_t size() const noexcept;

 private:
  const Element* first_;
};

/// Lazy, non-allocating filter over children with a given name; yields
/// `const Element*` so range-for call sites read like the old
/// std::vector<const Element*> API.  The name must outlive the range
/// (string literals and interned names always do).
class NamedChildRange {
 public:
  class iterator {
   public:
    iterator(const Element* e, std::string_view name) noexcept
        : e_(e), name_(name) {
      skip();
    }
    const Element* operator*() const noexcept { return e_; }
    inline iterator& operator++() noexcept;
    bool operator==(const iterator& o) const noexcept { return e_ == o.e_; }
    bool operator!=(const iterator& o) const noexcept { return e_ != o.e_; }

   private:
    inline void skip() noexcept;
    const Element* e_;
    std::string_view name_;
  };

  NamedChildRange(const Element* first, std::string_view name) noexcept
      : first_(first), name_(name) {}
  iterator begin() const noexcept { return iterator(first_, name_); }
  iterator end() const noexcept { return iterator(nullptr, name_); }
  bool empty() const noexcept { return begin() == end(); }
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (iterator it = begin(); it != end(); ++it) ++n;
    return n;
  }

 private:
  const Element* first_;
  std::string_view name_;
};

/// An XML element node.  Lives in its Document's arena; create via
/// Document's root or add_child().  Mutation APIs copy their string inputs
/// into the arena, so callers never manage node lifetime.
class Element {
 public:
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  std::string_view name() const noexcept { return name_; }
  void set_name(std::string_view name);

  // --- attributes -------------------------------------------------------
  AttrRange attributes() const noexcept { return AttrRange(first_attr_); }
  std::size_t attr_count() const noexcept {
    return attributes().size();
  }
  /// Attribute value or nullptr.
  const std::string_view* attr(std::string_view name) const noexcept;
  /// Attribute value or a default.
  std::string attr_or(std::string_view name, std::string_view fallback) const;
  /// Attribute value or error (for required attributes).
  Result<std::string> require_attr(std::string_view name) const;
  /// Set (replace or append) an attribute.
  Element& set_attr(std::string_view name, std::string_view value);
  bool has_attr(std::string_view name) const noexcept {
    return attr(name) != nullptr;
  }

  // --- children ---------------------------------------------------------
  ChildRange children() const noexcept { return ChildRange(first_child_); }
  const Element* first_child() const noexcept { return first_child_; }
  const Element* next_sibling() const noexcept { return next_sibling_; }
  bool has_children() const noexcept { return first_child_ != nullptr; }
  /// Append a new child element and return a reference to it.
  Element& add_child(std::string_view name);
  /// Append a deep copy of another element (possibly from another
  /// document) as a child.
  Element& add_subtree_copy(const Element& subtree);
  /// First child with the given name, or nullptr.
  const Element* child(std::string_view name) const noexcept;
  Element* child(std::string_view name) noexcept;
  /// First child with the given name, or error.
  Result<const Element*> require_child(std::string_view name) const;
  /// All children with the given name, in document order, without
  /// allocating: a lazy range usable directly in range-for.
  NamedChildRange children_named(std::string_view name) const noexcept {
    return NamedChildRange(first_child_, name);
  }
  /// Visitor overload for the same traversal.
  template <typename Fn>
  void for_each_child(std::string_view name, Fn&& fn) const {
    for (const Element* e = first_child_; e; e = e->next_sibling_) {
      if (e->name_ == name) fn(*e);
    }
  }
  std::size_t child_count() const noexcept { return children().size(); }

  // --- text -------------------------------------------------------------
  /// Concatenated, whitespace-trimmed character data of this element
  /// (excluding descendants).
  std::string text() const;
  /// True when the trimmed text is non-empty (no allocation).
  bool has_text() const noexcept;
  /// Raw character data segments in document order.
  TextRange text_segments() const noexcept { return TextRange(first_text_); }
  /// Invoke fn(std::string_view) for each span of the *trimmed* text, in
  /// order; the concatenation of the spans equals text().
  template <typename Fn>
  void for_each_text_span(Fn&& fn) const {
    std::size_t lo = std::string_view::npos;
    std::size_t hi = 0;
    std::size_t base = 0;
    for (const TextSegment* s = first_text_; s; s = s->next) {
      if (s->first_ns != std::string_view::npos) {
        if (lo == std::string_view::npos) lo = base + s->first_ns;
        hi = base + s->last_ns;
      }
      base += s->text.size();
    }
    if (lo == std::string_view::npos) return;
    base = 0;
    for (const TextSegment* s = first_text_; s; s = s->next) {
      std::size_t b = base;
      std::size_t e = base + s->text.size();
      base = e;
      std::size_t from = b < lo ? lo : b;
      std::size_t to = e > hi ? hi : e;
      if (from < to) fn(s->text.substr(from - b, to - from));
    }
  }
  void append_text(std::string_view text);
  /// Replace all text content.
  Element& set_text(std::string_view text);
  /// Convenience: add `<name>text</name>` child.
  Element& add_text_child(std::string_view name, std::string_view text);

  /// Structural equality (name, attributes, trimmed text, children).
  bool equals(const Element& other) const;

 private:
  friend class Document;
  friend class detail::NodeFactory;
  friend class ChildRange;
  friend class NamedChildRange;

  Element() = default;

  Attribute* find_attr(std::string_view name) noexcept;
  void link_child(Element* child) noexcept;
  void link_attr(Attribute* attr) noexcept;
  void link_text(TextSegment* segment) noexcept;

  std::string_view name_;
  DocCore* core_ = nullptr;
  Element* next_sibling_ = nullptr;
  Element* first_child_ = nullptr;
  Element* last_child_ = nullptr;
  Attribute* first_attr_ = nullptr;
  Attribute* last_attr_ = nullptr;
  TextSegment* first_text_ = nullptr;
  TextSegment* last_text_ = nullptr;
};

inline ChildRange::iterator& ChildRange::iterator::operator++() noexcept {
  e_ = e_->next_sibling_;
  return *this;
}

inline std::size_t ChildRange::size() const noexcept {
  std::size_t n = 0;
  for (const Element* e = first_; e; e = e->next_sibling_) ++n;
  return n;
}

inline void NamedChildRange::iterator::skip() noexcept {
  while (e_ && e_->name_ != name_) e_ = e_->next_sibling_;
}

inline NamedChildRange::iterator&
NamedChildRange::iterator::operator++() noexcept {
  e_ = e_->next_sibling_;
  skip();
  return *this;
}

/// A document: the owner of the arena, the name pool, the retained source
/// buffer and the element tree.  Movable (nodes stay valid), not copyable;
/// use clone() for a deep copy.
class Document {
 public:
  /// A new document with a single empty root element.
  explicit Document(std::string_view root_name);

  Document(Document&&) noexcept = default;
  Document& operator=(Document&&) noexcept = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  Element& root() noexcept { return *root_; }
  const Element& root() const noexcept { return *root_; }

  /// Deep copy into a fresh document (fresh arena, compacted strings).
  Document clone() const;

  /// Arena bytes consumed by this document's nodes and strings.
  std::size_t arena_bytes() const noexcept { return core_->arena.bytes_used(); }

 private:
  friend class detail::NodeFactory;

  Document();  ///< rootless; used by the parser via NodeFactory

  Element* new_element(std::string_view name, bool stable_name);

  std::unique_ptr<DocCore> core_;
  Element* root_ = nullptr;
};

static_assert(std::is_trivially_destructible_v<Attribute>);
static_assert(std::is_trivially_destructible_v<TextSegment>);
static_assert(std::is_trivially_destructible_v<Element>);

}  // namespace excovery::xml
