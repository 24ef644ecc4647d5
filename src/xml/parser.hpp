// Single-pass in-situ XML parser producing the arena DOM of dom.hpp.
//
// Supported: elements, attributes (single or double quoted), character data
// with the five predefined entities plus decimal/hex character references
// (decoded by xml::append_reference, text.hpp),
// CDATA sections, comments (skipped), processing instructions and XML
// declarations (skipped).  Errors carry line/column positions (computed
// lazily — the hot path never tracks them).
//
// Zero-copy contract: the input is retained inside the returned Document,
// and element names, attribute values and text segments are views into it
// whenever the source bytes need no transformation.  Only entity-bearing
// runs are decoded (once, into the document arena).  Whitespace between
// markup is the XML set exactly: space, tab, CR, LF — locale-free.
#pragma once

#include <string>
#include <string_view>

#include "common/error.hpp"
#include "xml/dom.hpp"

namespace excovery::xml {

/// Parse a complete document; exactly one root element is required.  The
/// input is copied once into the document's retained buffer.
Result<Document> parse(std::string_view input);

/// Zero-copy overload: takes ownership of the input buffer, which becomes
/// the document's backing store.
Result<Document> parse(std::string&& input);

/// Disambiguates string literals between the two overloads above.
inline Result<Document> parse(const char* input) {
  return parse(std::string_view(input));
}

}  // namespace excovery::xml
