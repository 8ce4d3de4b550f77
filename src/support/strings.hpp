// Small string helpers used by the block specs, the code generator, and the
// workload generators. Kept dependency-free.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace psnap::strings {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// ASCII whitespace: space, \t, \n, \v, \f and \r. The program never
/// calls setlocale, so this is exactly C-locale std::isspace, without the
/// call. The one whitespace predicate of the code base.
constexpr bool isSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// The word scanner: call `f(word)` for each maximal run of non-whitespace
/// bytes in `text`, in order. Each word is a view into `text`; nothing is
/// allocated. Every word tokenizer in the code base is built on this.
template <typename F>
void forEachWord(std::string_view text, F&& f) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (true) {
    while (p != end && isSpace(*p)) ++p;
    if (p == end) return;
    const char* const start = p;
    while (p != end && !isSpace(*p)) ++p;
    f(std::string_view(start, static_cast<size_t>(p - start)));
  }
}

/// Split on any run of whitespace, dropping empty fields (word tokenizer).
std::vector<std::string> splitWhitespace(std::string_view text);

/// Join `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Trim ASCII whitespace from both ends.
std::string trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool startsWith(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool endsWith(std::string_view text, std::string_view suffix);

/// Replace every occurrence of `from` in `text` with `to`.
std::string replaceAll(std::string_view text, std::string_view from,
                       std::string_view to);

/// Lower-case ASCII copy.
std::string toLower(std::string_view text);

/// Lower-case ASCII copy into `out`, replacing its contents and reusing
/// its capacity (no allocation once `out` is large enough).
void toLower(std::string_view text, std::string& out);

/// True if `text` is empty or all ASCII whitespace (no allocation).
bool isBlank(std::string_view text);

/// Case-insensitive (ASCII) equality without building lowered copies.
bool equalsIgnoreCase(std::string_view a, std::string_view b);

/// Three-way case-insensitive (ASCII) comparison. Orders exactly like
/// `toLower(a) <=> toLower(b)` over unsigned bytes, without allocating.
int compareIgnoreCase(std::string_view a, std::string_view b);

/// FNV-1a hash over the lowered (ASCII) bytes of `text`. Equal up to case
/// means equal hash; used for case-insensitive sharding.
uint64_t hashLowered(std::string_view text);

/// Indent every line of `text` by `spaces` spaces (used by codegen when
/// substituting a script into a C-slot placeholder).
std::string indent(std::string_view text, int spaces);

/// Format a double the way Snap! displays it: integers without a decimal
/// point, otherwise shortest round-trip representation.
std::string formatNumber(double value);

/// Parse a double; returns false when `text` is not numeric.
bool parseNumber(std::string_view text, double& out);

}  // namespace psnap::strings
