// Differential suite for the word scanner: the split block
// (applyPure(reportSplit), shared by the VM and the worker evaluator) and
// data::referenceWordCount against the copying, std::isspace-based
// algorithms they replaced, kept verbatim below as the oracle. Inputs are
// seeded random byte strings with all six whitespace bytes, NUL, bytes
// >= 0x80 and words longer than the 15-byte inline text limit.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "blocks/pure_ops.hpp"
#include "data/corpus.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace psnap::blocks {
namespace {

// --- the oracle: the split block's algorithm before the word scanner ------

std::vector<std::string> oracleSplit(std::string_view text, char sep) {
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

std::vector<std::string> oracleSplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> oracleSplitText(const std::string& text,
                                         const std::string& sep) {
  if (sep == "whitespace" || sep == "word" || sep.empty()) {
    return oracleSplitWhitespace(text);
  }
  if (sep == "letter") {
    std::vector<std::string> parts;
    for (char ch : text) parts.emplace_back(1, ch);
    return parts;
  }
  if (sep == "line") return oracleSplit(text, '\n');
  if (sep.size() == 1) return oracleSplit(text, sep[0]);
  // Multi-character delimiter.
  std::vector<std::string> parts;
  size_t start = 0, pos;
  while ((pos = text.find(sep, start)) != std::string::npos) {
    parts.push_back(text.substr(start, pos - start));
    start = pos + sep.size();
  }
  parts.push_back(text.substr(start));
  return parts;
}

Value oracleReportSplit(const Value* in) {
  const std::string text = in[0].asText();
  auto out = List::make();
  for (std::string& part : oracleSplitText(text, in[1].asText())) {
    out->add(Value(std::move(part)));
  }
  return Value(out);
}

std::map<std::string, size_t> oracleWordCount(const std::string& text) {
  std::map<std::string, size_t> counts;
  for (std::string word : oracleSplitWhitespace(text)) {
    for (char& c : word) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    ++counts[word];
  }
  return counts;
}

// --- generators -------------------------------------------------------------

constexpr char kWhitespace[] = {' ', '\t', '\n', '\v', '\f', '\r'};

/// One random byte: whitespace, NUL, a high byte, a letter of either case,
/// a digit or punctuation.
char randomByte(Rng& rng) {
  switch (rng.below(8)) {
    case 0:
    case 1: return kWhitespace[rng.below(6)];
    case 2: return '\0';
    case 3: return static_cast<char>(0x80 + rng.below(0x80));
    case 4: return static_cast<char>('A' + rng.below(26));
    case 5: return "0123456789.-+e"[rng.below(14)];
    case 6: return ",;:!?'\"()"[rng.below(9)];
    default: return static_cast<char>('a' + rng.below(26));
  }
}

/// Random text: words of 1..40 bytes (some past the inline limit), joined
/// by runs of random whitespace, with random bytes sprinkled throughout.
std::string randomText(Rng& rng) {
  std::string text;
  const size_t words = rng.below(30);
  if (rng.below(3) == 0) text += kWhitespace[rng.below(6)];
  for (size_t w = 0; w < words; ++w) {
    const size_t length = rng.below(4) == 0 ? 16 + rng.below(25)
                                            : 1 + rng.below(8);
    for (size_t i = 0; i < length; ++i) {
      text += rng.below(6) == 0 ? randomByte(rng)
                                : static_cast<char>('a' + rng.below(4));
    }
    const size_t gap = 1 + rng.below(3);
    for (size_t i = 0; i < gap; ++i) text += kWhitespace[rng.below(6)];
  }
  return text;
}

/// Every separator mode: the three whitespace spellings, letter, line, a
/// single character (whitespace, NUL or a letter common in the text), a
/// multi-character delimiter (often present in the text), and a
/// capitalized mode name, which is a plain delimiter.
std::vector<std::string> separatorsFor(Rng& rng, const std::string& text) {
  std::vector<std::string> seps = {"whitespace", "word", "", "letter",
                                   "line", "Whitespace"};
  seps.emplace_back(1, kWhitespace[rng.below(6)]);
  seps.emplace_back(1, '\0');
  seps.emplace_back(1, static_cast<char>('a' + rng.below(4)));
  if (text.size() >= 2) {
    const size_t at = rng.below(text.size() - 1);
    seps.push_back(text.substr(at, 2 + rng.below(3)));
  }
  seps.push_back("ab");
  seps.push_back(std::string(17, 'a'));
  return seps;
}

/// Item-by-item comparison: same length, and each item the same kind,
/// representation (inline or shared text) and bytes.
void expectSameItems(const Value& got, const Value& want,
                     const std::string& context) {
  ASSERT_TRUE(got.isList()) << context;
  ASSERT_TRUE(want.isList()) << context;
  const auto& gotItems = got.asList()->items();
  const auto& wantItems = want.asList()->items();
  ASSERT_EQ(gotItems.size(), wantItems.size()) << context;
  for (size_t i = 0; i < gotItems.size(); ++i) {
    ASSERT_EQ(gotItems[i].kind(), wantItems[i].kind())
        << context << ", item " << i;
    ASSERT_EQ(gotItems[i].identity().tag, wantItems[i].identity().tag)
        << context << ", item " << i;
    ASSERT_EQ(gotItems[i].textView(), wantItems[i].textView())
        << context << ", item " << i;
  }
}

std::string describe(const std::string& bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    char hex[4];
    std::snprintf(hex, sizeof(hex), "%02x", c);
    out += hex;
  }
  return out;
}

class TextSplitDifferential : public ::testing::TestWithParam<int> {};

TEST_P(TextSplitDifferential, SplitMatchesTheOracle) {
  Rng rng{uint64_t(GetParam())};
  for (int round = 0; round < 20; ++round) {
    const std::string text = randomText(rng);
    for (const std::string& sep : separatorsFor(rng, text)) {
      const Value in[] = {Value(std::string_view(text)),
                          Value(std::string_view(sep))};
      expectSameItems(applyPure(Op::reportSplit, in, 2),
                      oracleReportSplit(in),
                      "text " + describe(text) + ", sep " + describe(sep));
    }
  }
}

TEST_P(TextSplitDifferential, NumberInputsMatchTheOracle) {
  Rng rng{uint64_t(GetParam())};
  const Value numbers[] = {
      Value(rng.uniform(-1e6, 1e6)),
      Value(double(rng.between(-99999, 99999))),
      Value(rng.uniform() * 1e-7),
      Value(1e21 * double(rng.between(1, 9))),
      Value(std::nan("")),
      Value(true),
  };
  const Value seps[] = {Value("whitespace"), Value("letter"), Value("line"),
                        Value("."), Value("e"), Value("-"), Value("00"),
                        Value(double(rng.between(0, 9))), Value(0.5)};
  for (const Value& number : numbers) {
    for (const Value& sep : seps) {
      const Value in[] = {number, sep};
      expectSameItems(applyPure(Op::reportSplit, in, 2),
                      oracleReportSplit(in),
                      number.asText() + " by " + sep.asText());
    }
    // A number as the separator of text.
    const std::string text = number.asText() + " x " + number.asText();
    const Value in[] = {Value(text), number};
    expectSameItems(applyPure(Op::reportSplit, in, 2),
                    oracleReportSplit(in), text + " by itself");
  }
}

TEST_P(TextSplitDifferential, ReferenceWordCountMatchesTheOracle) {
  Rng rng{uint64_t(GetParam())};
  for (int round = 0; round < 20; ++round) {
    const std::string text = randomText(rng);
    EXPECT_EQ(data::referenceWordCount(text), oracleWordCount(text))
        << describe(text);
    std::vector<std::string> words = oracleSplitWhitespace(text);
    for (std::string& word : words) word = strings::toLower(word);
    EXPECT_EQ(data::tokenize(text), words) << describe(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TextSplitDifferential,
                         ::testing::Range(1, 101));

// Inputs that are not text-coercible raise the same error class either way.
TEST(TextSplitDifferentialErrors, ListInputsRaiseTypeError) {
  const Value list(List::make({Value("a b")}));
  const Value lists[][2] = {{list, Value("whitespace")},
                            {Value("a b"), list},
                            {list, list}};
  for (const auto& in : lists) {
    EXPECT_THROW(applyPure(Op::reportSplit, in, 2), TypeError);
    EXPECT_THROW(oracleReportSplit(in), TypeError);
  }
}

}  // namespace
}  // namespace psnap::blocks
