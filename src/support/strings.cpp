#include "support/strings.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace psnap::strings {

namespace {

/// ASCII lower-casing of one byte. The program never calls setlocale, so
/// this is exactly std::tolower in the C locale, without the call.
inline unsigned char foldAscii(unsigned char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c + ('a' - 'A'))
                              : c;
}

/// True when strtod could accept text starting with `c` (after trimming):
/// a digit, a sign, a decimal point, or the first letter of "inf",
/// "infinity" or "nan" in either case ("0x…" starts with a digit).
inline bool mayStartNumber(unsigned char c) {
  return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
         c == 'i' || c == 'I' || c == 'n' || c == 'N';
}

}  // namespace

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> splitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  forEachWord(text, [&](std::string_view word) { out.emplace_back(word); });
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && isSpace(text[begin])) ++begin;
  while (end > begin && isSpace(text[end - 1])) --end;
  return std::string(text.substr(begin, end - begin));
}

bool startsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string replaceAll(std::string_view text, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  out.reserve(text.size());
  size_t start = 0;
  while (true) {
    size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out += text.substr(start);
      return out;
    }
    out += text.substr(start, pos - start);
    out += to;
    start = pos + from.size();
  }
}

std::string toLower(std::string_view text) {
  std::string out;
  toLower(text, out);
  return out;
}

void toLower(std::string_view text, std::string& out) {
  out.resize(text.size());
  std::transform(text.begin(), text.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(foldAscii(c));
  });
}

bool isBlank(std::string_view text) {
  return std::all_of(text.begin(), text.end(), isSpace);
}

bool equalsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (foldAscii(static_cast<unsigned char>(a[i])) !=
        foldAscii(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

int compareIgnoreCase(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int ca = foldAscii(static_cast<unsigned char>(a[i]));
    const int cb = foldAscii(static_cast<unsigned char>(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

uint64_t hashLowered(std::string_view text) {
  // FNV-1a over lowered bytes.
  uint64_t hash = 1469598103934665603ull;
  for (char c : text) {
    hash ^= foldAscii(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string indent(std::string_view text, int spaces) {
  const std::string pad(static_cast<size_t>(spaces), ' ');
  std::string out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t pos = text.find('\n', start);
    std::string_view line = text.substr(
        start, pos == std::string_view::npos ? text.size() - start
                                             : pos - start);
    if (!line.empty()) out += pad;
    out += line;
    if (pos == std::string_view::npos) break;
    out += '\n';
    start = pos + 1;
  }
  return out;
}

std::string formatNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Infinity" : "-Infinity";
  double rounded = std::round(value);
  if (rounded == value && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  // Shortest representation that round-trips.
  for (int precision = 1; precision <= 17; ++precision) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double parsed = 0;
    if (parseNumber(buf, parsed) && parsed == value) return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

bool parseNumber(std::string_view text, double& out) {
  // Trim as a view; real numbers fit the stack buffer, so the hot path
  // never touches the heap (strtod needs NUL termination, so the bytes
  // are copied somewhere either way).
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && isSpace(text[begin])) ++begin;
  while (end > begin && isSpace(text[end - 1])) --end;
  const std::string_view trimmed = text.substr(begin, end - begin);
  if (trimmed.empty() || !mayStartNumber(trimmed.front())) return false;
  char stack[64];
  std::string heap;
  const char* cstr;
  if (trimmed.size() < sizeof(stack)) {
    std::memcpy(stack, trimmed.data(), trimmed.size());
    stack[trimmed.size()] = '\0';
    cstr = stack;
  } else {
    heap.assign(trimmed);
    cstr = heap.c_str();
  }
  char* parseEnd = nullptr;
  double value = std::strtod(cstr, &parseEnd);
  if (parseEnd != cstr + trimmed.size()) return false;
  out = value;
  return true;
}

}  // namespace psnap::strings
