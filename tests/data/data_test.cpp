// Workload generators: determinism, distribution shape, reference
// implementations, CSV round-trips.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>

#include "data/climate.hpp"
#include "data/corpus.hpp"
#include "data/csv.hpp"
#include "persist/snapshot.hpp"
#include "support/error.hpp"

namespace psnap::data {
namespace {

TEST(Corpus, DeterministicPerSeed) {
  EXPECT_EQ(generateText(100, 20, 7), generateText(100, 20, 7));
  EXPECT_NE(generateText(100, 20, 7), generateText(100, 20, 8));
}

TEST(Corpus, WordCountMatchesRequest) {
  auto words = tokenize(generateText(250, 30, 1));
  EXPECT_EQ(words.size(), 250u);
}

TEST(Corpus, ZipfShapeMostFrequentFirstRank) {
  // Rank-1 word ("the") should dominate a large sample.
  auto counts = referenceWordCount(generateText(20000, 30, 3));
  size_t theCount = counts.count("the") ? counts.at("the") : 0;
  for (const auto& [word, count] : counts) {
    EXPECT_LE(count, theCount) << word;
  }
  // And the sample uses a healthy share of the vocabulary.
  EXPECT_GE(counts.size(), 20u);
}

TEST(Corpus, LargeVocabularySynthesizesWords) {
  auto counts = referenceWordCount(generateText(5000, 200, 5));
  bool sawSynthetic = false;
  for (const auto& [word, count] : counts) {
    if (word[0] == 'w' && word.size() > 1 &&
        std::isdigit(static_cast<unsigned char>(word[1]))) {
      sawSynthetic = true;
    }
  }
  EXPECT_TRUE(sawSynthetic);
}

TEST(Corpus, ReferenceWordCountOnSample) {
  auto counts = referenceWordCount("the quick the lazy the");
  EXPECT_EQ(counts.at("the"), 3u);
  EXPECT_EQ(counts.at("quick"), 1u);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(Corpus, TokenizeLowercases) {
  auto words = tokenize("The QUICK Fox");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "the");
  EXPECT_EQ(words[1], "quick");
}

TEST(Corpus, TokenizeKeepsPunctuationAndHighBytes) {
  auto words = tokenize(std::string("\vA,b\x80" "C\f\r d\0E\n", 13));
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], "a,b\x80" "c");
  EXPECT_EQ(words[1], std::string("d\0e", 3));
}

TEST(Corpus, ReferenceWordCountFoldsCase) {
  auto counts = referenceWordCount("The THE the\tthE\n Quick");
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at("the"), 4u);
  EXPECT_EQ(counts.at("quick"), 1u);
  EXPECT_TRUE(referenceWordCount(" \t ").empty());
}

// generateText's bytes are part of every wordcount workload (the classroom
// tenants and the wordcount_batch corpus): FNV-1a digests of fixed
// (words, vocabulary, seed) cases pin them.
TEST(Corpus, GenerateTextDigestsArePinned) {
  struct Case {
    size_t words, vocabulary;
    uint64_t seed, digest;
    size_t bytes;
  };
  const Case cases[] = {
      {24, 8, 1, 0xc8c8413e9c2637e4ull, 100},
      {24, 8, 41, 0x3d7ebbfdcfd31fe7ull, 98},
      {1000, 30, 7, 0xa9c473be1f1f9cb0ull, 4838},
      {5000, 200, 5, 0x45c51fe8b2676468ull, 23196},
      {20000, 2000, 99, 0xee224806e6009909ull, 96246},
      {50, 1, 3, 0xf63b626aa566f0d1ull, 199},
      {0, 8, 2, 0x14650fb0739d0383ull, 0},
      {3000, 31, 11, 0x248c9dde56d4d507ull, 14110},
  };
  for (const Case& c : cases) {
    const std::string text = generateText(c.words, c.vocabulary, c.seed);
    uint64_t digest = 1469598103934665603ull;
    for (unsigned char byte : text) {
      digest ^= byte;
      digest *= 1099511628211ull;
    }
    EXPECT_EQ(text.size(), c.bytes) << "seed " << c.seed;
    EXPECT_EQ(digest, c.digest) << "seed " << c.seed;
  }
}

// writeWordsSnapshot promises the word sequence of generateText (the
// wordcount_batch benchmark checks its snapshot against a reference count
// of the generated text). Vocabularies past the 30 base words draw the
// synthesized "w<i>" words too.
TEST(Corpus, WordsSnapshotHoldsTokenizedText) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("psnap-corpus-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "words.psnap").string();
  struct Case {
    size_t words, vocabulary;
    uint64_t seed;
  };
  const Case cases[] = {{24, 8, 1}, {500, 31, 2}, {2000, 200, 3},
                        {3000, 2000, 4}, {1, 1, 5}};
  bool sawSynthetic = false;
  for (const Case& c : cases) {
    const auto expected =
        tokenize(generateText(c.words, c.vocabulary, c.seed));
    ASSERT_EQ(writeWordsSnapshot(path, c.words, c.vocabulary, c.seed),
              c.words);
    const auto list = persist::loadList(path);
    ASSERT_EQ(list->length(), expected.size()) << "seed " << c.seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      const blocks::Value& item = list->item(i + 1);
      ASSERT_TRUE(item.isText()) << "seed " << c.seed << ", word " << i;
      ASSERT_EQ(item.textView(), expected[i])
          << "seed " << c.seed << ", word " << i;
      if (expected[i].size() > 1 && expected[i][0] == 'w' &&
          std::isdigit(static_cast<unsigned char>(expected[i][1]))) {
        sawSynthetic = true;
      }
    }
  }
  EXPECT_TRUE(sawSynthetic);
  std::filesystem::remove_all(dir);
}

TEST(Climate, DeterministicAndComplete) {
  ClimateConfig config;
  config.stations = 3;
  config.firstYear = 2000;
  config.lastYear = 2004;
  auto a = generateClimate(config);
  auto b = generateClimate(config);
  ASSERT_EQ(a.size(), 3u * 5u * 12u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fahrenheit, b[i].fahrenheit);
  }
}

TEST(Climate, FahrenheitToCelsiusAnchors) {
  EXPECT_EQ(fahrenheitToCelsius(32), 0);
  EXPECT_EQ(fahrenheitToCelsius(212), 100);
  EXPECT_NEAR(fahrenheitToCelsius(98.6), 37.0, 1e-12);
}

TEST(Climate, WarmingTrendVisibleInYearlyMeans) {
  ClimateConfig config;
  config.stations = 6;
  config.firstYear = 1950;
  config.lastYear = 2010;
  config.warmingPerDecadeF = 0.5;
  config.noiseStddevF = 1.0;
  auto records = generateClimate(config);
  auto yearly = referenceYearlyMeanCelsius(records);
  ASSERT_EQ(yearly.size(), 61u);
  // Average of the last decade exceeds the first decade's.
  double early = 0, late = 0;
  for (int i = 0; i < 10; ++i) {
    early += yearly[static_cast<size_t>(i)].second;
    late += yearly[yearly.size() - 1 - static_cast<size_t>(i)].second;
  }
  EXPECT_GT(late, early + 1.0);  // ≥ ~0.28 C per decade over 5 decades
}

TEST(Climate, SeasonalCycleWithinAYear) {
  ClimateConfig config;
  config.stations = 1;
  config.firstYear = 2000;
  config.lastYear = 2000;
  config.noiseStddevF = 0.0;
  auto records = generateClimate(config);
  ASSERT_EQ(records.size(), 12u);
  double july = records[6].fahrenheit;   // month 7
  double january = records[0].fahrenheit;
  EXPECT_GT(july, january);  // northern-hemisphere shaped seasonality
}

TEST(Climate, ListAndKvpConversions) {
  ClimateConfig config;
  config.stations = 1;
  config.firstYear = 2000;
  config.lastYear = 2000;
  auto records = generateClimate(config);
  auto list = toFahrenheitList(records);
  EXPECT_EQ(list->length(), records.size());
  EXPECT_EQ(list->item(1).asNumber(), records[0].fahrenheit);
  std::string kvp = toKvpText(records);
  EXPECT_NE(kvp.find("USW00001 "), std::string::npos);
  std::string keyed = toKvpText(records, "avgC");
  EXPECT_EQ(keyed.find("USW00001"), std::string::npos);
  EXPECT_NE(keyed.find("avgC "), std::string::npos);
}

TEST(Climate, MeanOfEmptyThrows) {
  EXPECT_THROW(referenceMeanCelsius({}), Error);
}

TEST(Csv, ParseBasic) {
  auto rows = parseCsv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
  EXPECT_EQ(rows[1][2], "3");
}

TEST(Csv, QuotedFields) {
  auto rows = parseCsv("\"a,b\",\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "say \"hi\"");
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(parseCsv("\"oops\n"), ParseError);
}

TEST(Csv, RoundTrip) {
  std::vector<CsvRow> rows = {{"station", "tempF"},
                              {"USW00001", "72.5"},
                              {"has,comma", "say \"hi\""}};
  auto parsed = parseCsv(writeCsv(rows));
  EXPECT_EQ(parsed, rows);
}

TEST(Csv, ListConversionsTypeFields) {
  auto list = csvToList(parseCsv("USW00001,72.5\nUSW00002,68\n"));
  ASSERT_EQ(list->length(), 2u);
  EXPECT_TRUE(list->item(1).asList()->item(1).isText());
  EXPECT_TRUE(list->item(1).asList()->item(2).isNumber());
  EXPECT_EQ(list->item(2).asList()->item(2).asNumber(), 68);
  auto rows = listToCsv(list);
  EXPECT_EQ(rows[0][0], "USW00001");
  EXPECT_EQ(rows[0][1], "72.5");
}

}  // namespace
}  // namespace psnap::data
