#include "support/strings.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "support/rng.hpp"

namespace psnap::strings {
namespace {

TEST(Split, KeepsEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleField) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, EmptyInput) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitWhitespace, DropsRuns) {
  auto parts = splitWhitespace("  the\tquick \n brown  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "the");
  EXPECT_EQ(parts[1], "quick");
  EXPECT_EQ(parts[2], "brown");
}

TEST(SplitWhitespace, EmptyAndBlank) {
  EXPECT_TRUE(splitWhitespace("").empty());
  EXPECT_TRUE(splitWhitespace(" \t\n").empty());
}

// The one whitespace predicate must agree with the C locale's isspace on
// every byte, including NUL and the bytes >= 0x80.
TEST(IsSpace, EveryByteMatchesIsspace) {
  for (int b = 0; b < 256; ++b) {
    EXPECT_EQ(isSpace(static_cast<char>(b)), std::isspace(b) != 0)
        << "byte " << b;
  }
}

TEST(ForEachWord, YieldsViewsIntoTheText) {
  const std::string text = "\v one\ftwo\r\n\x80three\t";
  std::vector<std::string_view> words;
  forEachWord(text, [&](std::string_view word) { words.push_back(word); });
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "one");
  EXPECT_EQ(words[1], "two");
  EXPECT_EQ(words[2], "\x80three");
  for (std::string_view word : words) {
    EXPECT_GE(word.data(), text.data());
    EXPECT_LE(word.data() + word.size(), text.data() + text.size());
  }
}

TEST(ForEachWord, NulIsNotWhitespace) {
  const std::string text("a\0b c", 5);
  std::vector<std::string> words;
  forEachWord(text, [&](std::string_view word) { words.emplace_back(word); });
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], std::string("a\0b", 3));
  EXPECT_EQ(words[1], "c");
}

TEST(ForEachWord, EmptyAndBlankYieldNothing) {
  size_t calls = 0;
  forEachWord("", [&](std::string_view) { ++calls; });
  forEachWord(" \t\n\v\f\r", [&](std::string_view) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(ToLower, IntoBufferReplacesContents) {
  std::string out = "previous contents";
  toLower("AbC", out);
  EXPECT_EQ(out, "abc");
  toLower("", out);
  EXPECT_EQ(out, "");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"x"}, ", "), "x");
}

TEST(Trim, BothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StartsEndsWith, Basic) {
  EXPECT_TRUE(startsWith("#pragma omp", "#pragma"));
  EXPECT_FALSE(startsWith("omp", "#pragma"));
  EXPECT_TRUE(endsWith("main.c", ".c"));
  EXPECT_FALSE(endsWith("c", "main.c"));
}

TEST(ReplaceAll, Basic) {
  EXPECT_EQ(replaceAll("<#1> + <#1>", "<#1>", "x"), "x + x");
  EXPECT_EQ(replaceAll("abc", "z", "y"), "abc");
  EXPECT_EQ(replaceAll("", "a", "b"), "");
}

TEST(ReplaceAll, EmptyFromReturnsInput) {
  EXPECT_EQ(replaceAll("abc", "", "x"), "abc");
}

TEST(ToLower, Ascii) { EXPECT_EQ(toLower("MiXeD"), "mixed"); }

// The case-insensitive helpers fold bytes themselves; every byte value
// must fold exactly as the C locale's std::tolower does.
TEST(CaseFolding, EveryByteFoldsLikeTolower) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const char lowered = static_cast<char>(std::tolower(b));
    const std::string one(1, c);
    EXPECT_EQ(toLower(one), std::string(1, lowered)) << "byte " << b;
    EXPECT_TRUE(equalsIgnoreCase(one, std::string(1, lowered))) << b;
    EXPECT_EQ(hashLowered(one), hashLowered(std::string(1, lowered))) << b;
    for (int other = 0; other < 256; ++other) {
      const int expected =
          std::tolower(b) == std::tolower(other)
              ? 0
              : (std::tolower(b) < std::tolower(other) ? -1 : 1);
      ASSERT_EQ(compareIgnoreCase(one, std::string(1, char(other))),
                expected)
          << "bytes " << b << ", " << other;
    }
  }
}

// hashLowered shards mapReduce keys, so its values are part of the
// engine's behavior: pin them.
TEST(CaseFolding, HashLoweredValuesArePinned) {
  EXPECT_EQ(hashLowered(""), 0x14650fb0739d0383ull);
  EXPECT_EQ(hashLowered("Hello, World"), 0x4998e47a7a8b57e3ull);
  EXPECT_EQ(hashLowered("MiXeD CaSe 42"), 0xe542b61dfef6a974ull);
  EXPECT_EQ(hashLowered("\xC3\x84pfel \xC3\xA9t\xC3\xA9"),
            0x7f020f8c831dadcfull);
  EXPECT_EQ(hashLowered("ZZ\x80\xFF"
                        "az@[`{"),
            0x6db910ad27acdb81ull);
}

TEST(Indent, MultiLine) {
  EXPECT_EQ(indent("a\nb", 2), "  a\n  b");
  EXPECT_EQ(indent("a\n\nb", 2), "  a\n\n  b");  // blank lines stay blank
}

TEST(FormatNumber, Integers) {
  EXPECT_EQ(formatNumber(0), "0");
  EXPECT_EQ(formatNumber(30), "30");
  EXPECT_EQ(formatNumber(-7), "-7");
  EXPECT_EQ(formatNumber(1e6), "1000000");
}

TEST(FormatNumber, Fractions) {
  EXPECT_EQ(formatNumber(0.5), "0.5");
  EXPECT_EQ(formatNumber(1.0 / 3.0), "0.3333333333333333");
}

TEST(FormatNumber, RoundTrips) {
  for (double v : {3.14159, -2.5e-7, 1234.5678, 0.1}) {
    double parsed = 0;
    ASSERT_TRUE(parseNumber(formatNumber(v), parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(ParseNumber, Valid) {
  double out = 0;
  EXPECT_TRUE(parseNumber("42", out));
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(parseNumber(" -3.5 ", out));
  EXPECT_EQ(out, -3.5);
  EXPECT_TRUE(parseNumber("1e3", out));
  EXPECT_EQ(out, 1000);
}

TEST(ParseNumber, Invalid) {
  double out = 0;
  EXPECT_FALSE(parseNumber("", out));
  EXPECT_FALSE(parseNumber("abc", out));
  EXPECT_FALSE(parseNumber("1.2.3", out));
  EXPECT_FALSE(parseNumber("4 2", out));
}

/// What parseNumber promises: trim ASCII whitespace, then strtod must
/// consume the whole (non-empty) rest.
bool strtodParse(const std::string& text, double& out) {
  const std::string trimmed = trim(text);
  if (trimmed.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(trimmed.c_str(), &end);
  if (end != trimmed.c_str() + trimmed.size()) return false;
  out = value;
  return true;
}

void expectSameAsStrtod(const std::string& text) {
  double expected = 0;
  double actual = 0;
  const bool accepted = strtodParse(text, expected);
  ASSERT_EQ(parseNumber(text, actual), accepted) << '"' << text << '"';
  if (accepted) {
    EXPECT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
        << '"' << text << '"';
  }
}

// parseNumber rejects text strtod cannot start a number with before
// calling it; accept/reject and the parsed bits must not change.
TEST(ParseNumber, MatchesStrtod) {
  for (const char* text :
       {"Infinity", "nan", "NaN(1)", "0x10", "+.5", "-", ".", "e5", " 7 ",
        "1a", "a1", "", "INF", "-inf", "N", "i", "\t-0\n", "1e", "0X1p3"}) {
    expectSameAsStrtod(text);
  }
  const std::string alphabet = "0123456789+-.eExXpPiInNaAfFtTyY( )\t,z";
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    std::string text;
    const size_t length = rng.below(7);
    for (size_t k = 0; k < length; ++k) {
      text += alphabet[rng.below(alphabet.size())];
    }
    expectSameAsStrtod(text);
  }
}

}  // namespace
}  // namespace psnap::strings
