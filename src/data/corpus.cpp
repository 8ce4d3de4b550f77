#include "data/corpus.hpp"

#include <charconv>

#include "persist/snapshot.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace psnap::data {

namespace {

/// A compact base vocabulary; indices past its size synthesize words.
const char* const kBaseWords[] = {
    "the",      "of",       "and",      "to",       "in",      "is",
    "parallel", "computing", "snap",    "block",    "map",     "reduce",
    "worker",   "sprite",   "clone",    "script",   "data",    "code",
    "thread",   "program",  "student",  "teacher",  "cloud",   "core",
    "speed",    "time",     "list",     "value",    "stage",   "run",
};
constexpr size_t kBaseCount = sizeof(kBaseWords) / sizeof(kBaseWords[0]);

/// Append the word of rank `index` to `out`: a base word, or "w<index>"
/// past the base vocabulary.
void appendWordAt(std::string& out, size_t index) {
  if (index < kBaseCount) {
    out += kBaseWords[index];
    return;
  }
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof(digits), index).ptr;
  out += 'w';
  out.append(digits, end);
}

/// Zipf rank weights 1/r over `vocabulary` ranks.
std::vector<double> zipfWeights(size_t vocabulary) {
  std::vector<double> weights(vocabulary);
  for (size_t r = 0; r < vocabulary; ++r) {
    weights[r] = 1.0 / static_cast<double>(r + 1);
  }
  return weights;
}

}  // namespace

std::string sampleSentence() {
  return "the quick brown fox jumps over the lazy dog and the quick cat";
}

std::string generateText(size_t wordCount, size_t vocabulary,
                         uint64_t seed) {
  if (vocabulary == 0) throw Error("generateText: empty vocabulary");
  Rng rng(seed);
  const std::vector<double> weights = zipfWeights(vocabulary);
  const double total = Rng::totalWeight(weights);
  std::string out;
  for (size_t i = 0; i < wordCount; ++i) {
    if (i != 0) out += ' ';
    appendWordAt(out, rng.weighted(weights, total));
  }
  return out;
}

uint64_t writeWordsSnapshot(const std::string& path, size_t wordCount,
                            size_t vocabulary, uint64_t seed) {
  if (vocabulary == 0) throw Error("writeWordsSnapshot: empty vocabulary");
  Rng rng(seed);
  // Identical draw sequence to generateText: same weights, same picks.
  const std::vector<double> weights = zipfWeights(vocabulary);
  const double total = Rng::totalWeight(weights);
  persist::DatasetWriter writer(path);
  std::string word;
  for (size_t i = 0; i < wordCount; ++i) {
    word.clear();
    appendWordAt(word, rng.weighted(weights, total));
    writer.append(blocks::Value(std::string_view(word)));
  }
  writer.commit();
  return writer.count();
}

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> out;
  strings::forEachWord(text, [&](std::string_view word) {
    strings::toLower(word, out.emplace_back());
  });
  return out;
}

std::map<std::string, size_t> referenceWordCount(const std::string& text) {
  std::map<std::string, size_t> counts;
  std::string lowered;
  strings::forEachWord(text, [&](std::string_view word) {
    strings::toLower(word, lowered);
    ++counts[lowered];
  });
  return counts;
}

}  // namespace psnap::data
