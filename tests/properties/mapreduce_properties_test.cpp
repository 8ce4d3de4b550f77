// MapReduce invariants swept across corpus seeds, sizes, and worker
// widths: counts conserve input size, keys are unique and sorted,
// parallel ≡ sequential, and the block path equals the reference. A
// differential sweep pins every engine path (pooled at each width,
// sequential, degraded by a saturated pool) to a reference shuffle on
// seeded mixes of hard keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <iterator>
#include <tuple>
#include <utility>
#include <vector>

#include "blocks/builder.hpp"
#include "core/parallel_blocks.hpp"
#include "data/corpus.hpp"
#include "mapreduce/engine.hpp"
#include "sched/thread_manager.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace psnap::mr {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::List;
using blocks::ListPtr;
using blocks::Value;

ListPtr corpus(size_t words, uint64_t seed) {
  auto list = List::make();
  for (const std::string& w :
       data::tokenize(data::generateText(words, 40, seed))) {
    list->add(Value(w));
  }
  return list;
}

MapFn constOne() {
  return [](const Value&) { return Value(1); };
}
ReduceFn countValues() {
  return [](const ListPtr& values) { return Value(values->length()); };
}

class WordCountProperties
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WordCountProperties, InvariantsHold) {
  const auto [words, seed, workerCount] = GetParam();
  auto input = corpus(size_t(words), uint64_t(seed));
  auto result = run(input, constOne(), countValues(),
                    {.workers = size_t(workerCount)});

  // 1. Counts conserve the input size.
  double total = 0;
  for (const Value& pair : result->items()) {
    total += pair.asList()->item(2).asNumber();
  }
  EXPECT_EQ(total, double(words));

  // 2. Keys unique and sorted ascending.
  for (size_t i = 2; i <= result->length(); ++i) {
    const std::string prev =
        result->item(i - 1).asList()->item(1).asText();
    const std::string cur = result->item(i).asList()->item(1).asText();
    EXPECT_LT(prev, cur);
  }

  // 3. Parallel equals sequential bit-for-bit.
  auto sequential =
      run(input, constOne(), countValues(), {.sequential = true});
  EXPECT_EQ(result->display(), sequential->display());

  // 4. Equals the plain-C++ reference.
  auto reference =
      data::referenceWordCount(data::generateText(size_t(words), 40,
                                                  uint64_t(seed)));
  ASSERT_EQ(result->length(), reference.size());
  for (const Value& pair : result->items()) {
    const std::string word = pair.asList()->item(1).asText();
    ASSERT_TRUE(reference.count(word)) << word;
    EXPECT_EQ(size_t(pair.asList()->item(2).asNumber()),
              reference.at(word));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WordCountProperties,
    ::testing::Combine(::testing::Values(1, 10, 100, 2000),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 4)));

// The block-level mapReduce agrees with the engine across seeds.
class BlockEnginePairity : public ::testing::TestWithParam<int> {};

TEST_P(BlockEnginePairity, BlockPathMatchesEngine) {
  const uint64_t seed = uint64_t(GetParam());
  const std::string text = data::generateText(300, 40, seed);
  auto prims = core::fullPrimitiveTable();
  sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
  Value viaBlock = tm.evaluate(
      mapReduce(ring(In(1.0)), ring(lengthOf(empty())),
                splitText(text, "whitespace")),
      Environment::make());
  auto viaEngine = run(corpus(300, seed), constOne(), countValues(), {});
  EXPECT_EQ(viaBlock.display(), viaEngine->display());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockEnginePairity,
                         ::testing::Range(10, 16));

// Reduce associativity requirement: a sum reduce over numeric groups is
// independent of worker width.
class SumReduceStability : public ::testing::TestWithParam<int> {};

TEST_P(SumReduceStability, WorkerWidthInvariant) {
  const auto workerCount = size_t(GetParam());
  auto input = List::make();
  for (int i = 0; i < 500; ++i) input->add(Value(i % 10));
  MapFn mapper = [](const Value& v) {
    auto pair = List::make();
    pair->add(Value(std::fmod(v.asNumber(), 3.0)));
    pair->add(v);
    return Value(pair);
  };
  ReduceFn summer = [](const ListPtr& values) {
    double sum = 0;
    for (const Value& v : values->items()) sum += v.asNumber();
    return Value(sum);
  };
  auto result = run(input, mapper, summer, {.workers = workerCount});
  auto baseline = run(input, mapper, summer, {.sequential = true});
  EXPECT_EQ(result->display(), baseline->display());
}

INSTANTIATE_TEST_SUITE_P(Widths, SumReduceStability,
                         ::testing::Values(1, 2, 3, 4, 8));

// --- Differential: every engine path against a reference shuffle ----------

/// A kind-tagged rendering: unlike display(), it tells the number 1 from
/// the text "1", -0 from 0, and true from "true".
std::string exact(const Value& v) {
  if (v.isList()) {
    std::string out = "[";
    for (const Value& item : v.asList()->items()) {
      if (out.size() > 1) out += ",";
      out += exact(item);
    }
    return out + "]";
  }
  if (v.isNothing()) return "nothing";
  if (v.isText()) return "t\"" + v.asText() + "\"";
  return (v.isNumber() ? "n" : "b") + v.asText();
}

/// The documented key order, written out independently of the engine:
/// numeric keys first, by number (NaN after every other number), then
/// every other key by case-insensitive display text.
bool referenceLess(const Value& a, const Value& b) {
  double x = 0;
  double y = 0;
  const bool numericA = a.numericValue(x);
  const bool numericB = b.numericValue(y);
  if (numericA != numericB) return numericA;
  if (numericA) {
    if (std::isnan(x) || std::isnan(y)) {
      return !std::isnan(x) && std::isnan(y);
    }
    return x < y;
  }
  return strings::compareIgnoreCase(a.display(), b.display()) < 0;
}

/// The reference shuffle: one global stable sort of the pairs, then
/// adjacent grouping — a pair joins the open group when its key equals
/// the group's key and ties with it in the order.
ListPtr referenceMapReduce(const ListPtr& input, const MapFn& mapFn,
                           const ReduceFn& reduceFn) {
  std::vector<std::pair<Value, Value>> pairs;
  for (const Value& item : input->items()) {
    Value mapped = mapFn(item);
    if (mapped.isList() && mapped.asList()->length() == 2) {
      pairs.emplace_back(mapped.asList()->item(1), mapped.asList()->item(2));
    } else {
      pairs.emplace_back(item, mapped);
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) {
                     return referenceLess(a.first, b.first);
                   });
  auto out = List::make();
  size_t start = 0;  // the open group's first pair
  for (size_t i = 1; i <= pairs.size(); ++i) {
    const Value& key = pairs[start].first;
    if (i < pairs.size() && key.equals(pairs[i].first) &&
        !referenceLess(key, pairs[i].first)) {
      continue;
    }
    std::vector<Value> values;
    for (size_t j = start; j < i; ++j) values.push_back(pairs[j].second);
    out->add(Value(List::make({key, reduceFn(List::make(values))})));
    start = i;
  }
  return out;
}

/// Keys whose order and equality are easy to get wrong: case variants,
/// -0 and 0, numeric text, NaN, true against "true", list keys (among
/// them [1] and ["1.0"], equal but ordered apart), long text, nothing,
/// and numeric keys mixed with texts that start with digits.
std::vector<Value> trickyKeys() {
  return {Value("Apple"), Value("apple"), Value("APPLE"), Value("pear"),
          Value(0), Value(-0.0), Value(1), Value(2), Value(10),
          Value(-3.5), Value("1"), Value("1.0"), Value("10"), Value("2"),
          Value(" 2"), Value("-0"), Value("1a"), Value("a1"), Value(""),
          Value(), Value(true), Value(false), Value("true"), Value("TRUE"),
          Value(std::nan("")), Value("nan"), Value("Infinity"),
          Value("A fairly long key of text"),
          Value("a FAIRLY long key OF text"),
          Value(List::make({Value(1)})), Value(List::make({Value("1.0")})),
          Value(List::make({Value("a")})), Value(List::make({Value("A")})),
          Value(List::make({Value(true)})),
          Value(List::make({Value("true")})), Value(List::make())};
}

/// ["pair", key, tag] items emit the explicit pair [key, tag]; any other
/// item is its own key, valued by its display.
MapFn differentialMapper() {
  return [](const Value& item) -> Value {
    if (item.isList() && item.asList()->length() == 3) {
      return Value(
          List::make({item.asList()->item(2), item.asList()->item(3)}));
    }
    return Value("v:" + item.display());
  };
}

/// A seeded input: a random subset of the tricky keys, drawn with
/// repetition, each item either the key itself or an explicit pair.
ListPtr differentialInput(uint64_t seed) {
  Rng rng(seed);
  const std::vector<Value> pool = trickyKeys();
  std::vector<Value> keys;
  const size_t variety = 1 + rng.below(pool.size());
  for (size_t k = 0; k < variety; ++k) {
    keys.push_back(pool[rng.below(pool.size())]);
  }
  const size_t sizes[] = {0, 1, 2, 7, 40, 255, 256, 700};
  const size_t n = sizes[rng.below(std::size(sizes))];
  auto input = List::make();
  for (size_t i = 0; i < n; ++i) {
    const Value& key = keys[rng.below(keys.size())];
    if (rng.below(3) == 0) {
      input->add(Value(List::make({Value("pair"), key, Value(i)})));
    } else {
      input->add(key);
    }
  }
  return input;
}

ListPtr runJob(const ListPtr& input, const MapFn& mapFn,
               const ReduceFn& reduceFn, const Options& options,
               bool* degraded = nullptr) {
  Job job(input, mapFn, reduceFn, options);
  std::promise<void> settled;
  job.onComplete([&settled] { settled.set_value(); });
  settled.get_future().wait();
  if (job.failed()) throw Error(job.errorMessage());
  if (degraded) *degraded = job.wasDegraded();
  return job.result();
}

class ShuffleDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ShuffleDifferential, EveryPathMatchesTheReference) {
  const uint64_t seed = uint64_t(GetParam());
  const ListPtr input = differentialInput(seed);
  const MapFn mapper = differentialMapper();
  for (const ReduceFn& reduce : {identityReduce(), countValues()}) {
    const std::string expected =
        exact(Value(referenceMapReduce(input, mapper, reduce)));
    for (size_t width : {1, 2, 4}) {
      EXPECT_EQ(exact(Value(runJob(input, mapper, reduce,
                                   {.workers = width}))),
                expected)
          << "Job, width " << width;
    }
    EXPECT_EQ(exact(Value(runJob(input, mapper, reduce,
                                 {.sequential = true}))),
              expected)
        << "Job, sequential";
    {
      // Every stage submit is refused, so the Job drains its stages
      // inline on this thread.
      fault::Config saturated;
      saturated.seed = seed;
      saturated.rateNumerator = 1;
      saturated.rateDenominator = 1;
      saturated.pointMask = fault::maskOf(fault::Point::PoolSaturation);
      fault::ScopedFault armed(saturated);
      bool degraded = false;
      EXPECT_EQ(exact(Value(runJob(input, mapper, reduce, {.workers = 4},
                                   &degraded))),
                expected)
          << "Job, degraded";
      EXPECT_EQ(degraded, !input->empty());
    }
    EXPECT_EQ(exact(Value(run(input, mapper, reduce, {.workers = 4}))),
              expected)
        << "run, parallel";
    EXPECT_EQ(exact(Value(run(input, mapper, reduce, {.sequential = true}))),
              expected)
        << "run, sequential";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffleDifferential, ::testing::Range(1, 61));

// The mixed numeric/text input that used to order differently on the
// parallel and sequential paths: numbers first, then texts ("1.0" and
// "1" are one key, named by its first occurrence).
TEST(ShuffleDifferential, MixedNumericAndTextKeysHaveOneOrder) {
  auto input = List::make();
  for (int i = 0; i < 300; ++i) {
    for (const char* key : {"1a", "10", "2", "1.0", "1", "true"}) {
      input->add(Value(key));
    }
  }
  auto sequential =
      run(input, constOne(), countValues(), {.sequential = true});
  EXPECT_EQ(sequential->display(),
            "[[1.0, 600], [2, 300], [10, 300], [1a, 300], [true, 300]]");
  EXPECT_EQ(exact(Value(runJob(input, constOne(), countValues(),
                               {.workers = 4}))),
            exact(Value(sequential)));
}

}  // namespace
}  // namespace psnap::mr
