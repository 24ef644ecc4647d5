// Character-level XML helpers shared by the DOM parser and writer and by
// serialisers that stream XML without building a DOM (the XML-RPC codec,
// DESIGN.md §17): text escaping, entity and character-reference decoding,
// the whitespace set text trimming uses, and the nesting limit.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace excovery::xml {

/// Whitespace set used when trimming text content (matches strings::trim).
inline constexpr std::string_view kSpaceChars = " \t\n\r\f\v";

/// Deepest element nesting parse() accepts; the root element is depth 0.
inline constexpr int kMaxDepth = 256;

/// True for the bytes of kSpaceChars.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// `text` without leading and trailing kSpaceChars.
constexpr std::string_view trim_text(std::string_view text) noexcept {
  std::size_t first = 0;
  std::size_t last = text.size();
  while (first < last && is_space(text[first])) ++first;
  while (last > first && is_space(text[last - 1])) --last;
  return text.substr(first, last - first);
}

/// Append character data escaped the way every writer here escapes text
/// ("&", "<" and ">" become entity references).
void append_escaped_text(std::string& out, std::string_view text);

/// Decode one entity or character reference.  `pos` indexes the byte after
/// its '&'.  Appends the UTF-8 bytes of one of the five predefined entities
/// or of a decimal/hex character reference (up to U+10FFFF) to `out` and
/// advances `pos` past the ';'.  On failure `pos` is left where decoding
/// stopped and the error says why.
Status append_reference(std::string_view in, std::size_t& pos,
                        std::string& out);

}  // namespace excovery::xml
