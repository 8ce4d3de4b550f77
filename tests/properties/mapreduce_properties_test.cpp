// MapReduce invariants swept across corpus seeds, sizes, and worker
// widths: counts conserve input size, keys are unique and sorted,
// parallel ≡ sequential, and the block path equals the reference. A
// differential sweep pins every engine path (pooled at each width,
// sequential, degraded by a saturated pool) to a reference shuffle on
// seeded mixes of hard keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <string>
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

/// Every engine path — pooled at widths 1/2/4, sequential, degraded by a
/// saturated pool, and run() — against the reference shuffle under one
/// reduce. `base` supplies the native entries, if any, for every path.
void expectEveryPathMatches(const ListPtr& input, const MapFn& mapper,
                            const ReduceFn& reduce, const Options& base,
                            uint64_t seed) {
  const std::string expected =
      exact(Value(referenceMapReduce(input, mapper, reduce)));
  const auto with = [&base](size_t width, bool sequential) {
    Options options = base;
    options.workers = width;
    options.sequential = sequential;
    return options;
  };
  for (size_t width : {1, 2, 4}) {
    EXPECT_EQ(exact(Value(runJob(input, mapper, reduce, with(width, false)))),
              expected)
        << "Job, width " << width;
  }
  EXPECT_EQ(exact(Value(runJob(input, mapper, reduce, with(0, true)))),
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
    EXPECT_EQ(exact(Value(runJob(input, mapper, reduce, with(4, false),
                                 &degraded))),
              expected)
        << "Job, degraded";
    EXPECT_EQ(degraded, !input->empty());
  }
  EXPECT_EQ(exact(Value(run(input, mapper, reduce, with(4, false)))),
            expected)
      << "run, parallel";
  EXPECT_EQ(exact(Value(run(input, mapper, reduce, with(0, true)))),
            expected)
      << "run, sequential";
}

/// expectEveryPathMatches under the identity and the counting reduce.
void expectEveryPathMatchesTheReference(const ListPtr& input,
                                        const MapFn& mapper, uint64_t seed) {
  for (const ReduceFn& reduce : {identityReduce(), countValues()}) {
    expectEveryPathMatches(input, mapper, reduce, {}, seed);
  }
}

class ShuffleDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ShuffleDifferential, EveryPathMatchesTheReference) {
  const uint64_t seed = uint64_t(GetParam());
  expectEveryPathMatchesTheReference(differentialInput(seed),
                                     differentialMapper(), seed);
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

// Thousands of distinct keys, so every slice's class table grows past its
// first capacity, and case variants whose first spelling sits in slice 0
// while another spelling dominates every later slice: the slices' classes
// must merge into one class per key, named by its first pair.
TEST(ShuffleDifferential, ManyKeysAcrossSlicesMatchTheReference) {
  constexpr int kFamilies = 40;
  constexpr int kDistinct = 5000;
  const std::vector<Value> hard = {
      Value(0), Value(-0.0), Value(std::nan("")), Value("NaN"),
      Value("1"), Value("1.0"), Value(1), Value("-0"),
      Value(List::make({Value(1)})), Value(List::make({Value("1.0")}))};
  Rng rng(5);
  auto input = List::make();
  for (int f = 0; f < kFamilies; ++f) {
    input->add(Value("Case" + std::to_string(f)));
  }
  for (int j = 0; j < kDistinct; ++j) {
    // Distinct keys, numeric and text, some as explicit pairs.
    const Value key = j % 3 == 0 ? Value(j * 1.5)
                                 : Value("key" + std::to_string(j));
    if (j % 5 == 0) {
      input->add(Value(List::make({Value("pair"), key, Value(j)})));
    } else {
      input->add(key);
    }
    if (j % 2 == 0) {
      const std::string family = std::to_string(rng.below(kFamilies));
      input->add(Value((j % 4 == 0 ? "CASE" : "case") + family));
    }
    if (j % 7 == 0) {
      const Value& special = hard[rng.below(hard.size())];
      if (j % 3 == 0) {
        input->add(Value(List::make({Value("pair"), special, Value(j)})));
      } else {
        input->add(special);
      }
    }
  }
  expectEveryPathMatchesTheReference(input, differentialMapper(), 5);
}

// Classes reached through different representations of one key, inside
// one slice and across slices: the stage-1 memo keys each representation
// apart (0 and false share their bits, true and the least subnormal
// too), and a class is one run only while every member is text, so
// `true` and the list ["a"], joining text classes late, must split off.
// Long text comes both as one shared rep and as a fresh rep per pair.
TEST(ShuffleDifferential, RepresentationsOfOneClassMatchTheReference) {
  const std::string longText = "A fairly long key of text";
  const Value sharedLong(longText);
  const Value list(List::make({Value("a")}));
  // ["fresh", key, tag] emits [key rebuilt from its text, tag]: a new rep
  // per pair for long text. Anything else maps as differentialMapper().
  const MapFn base = differentialMapper();
  const MapFn mapper = [base](const Value& item) -> Value {
    if (item.isList() && item.asList()->length() == 3 &&
        item.asList()->item(1).isText() &&
        item.asList()->item(1).textView() == "fresh") {
      return Value(List::make({Value(item.asList()->item(2).asText()),
                               item.asList()->item(3)}));
    }
    return base(item);
  };
  const std::vector<Value> everywhere = {
      Value(0),           Value(-0.0),      Value(false),
      Value("0"),         Value(std::nan("")), Value(-std::nan("")),
      Value("1"),         Value(1),         Value("1.0"),
      Value("true"),      Value("TRUE"),    Value("[a]"),
      Value("[A]"),       sharedLong,
      Value(std::numeric_limits<double>::denorm_min())};
  auto input = List::make();
  for (int i = 0; i < 1200; ++i) {
    input->add(everywhere[size_t(i) % everywhere.size()]);
    if (i % 5 == 0) {
      input->add(Value(List::make({Value("fresh"),
                                   Value(i % 10 == 0 ? longText
                                                     : "a FAIRLY long key "
                                                       "OF text"),
                                   Value(i)})));
    }
    if (i % 7 == 0) {
      input->add(Value(List::make({Value("pair"), sharedLong, Value(i)})));
    }
    // Late joiners: after the text members, within a slice and in the
    // later slices only.
    if (i % 97 == 96) input->add(Value(true));
    if (i > 600 && i % 89 == 0) {
      input->add(Value(List::make({Value("pair"), list, Value(i)})));
    }
  }
  expectEveryPathMatchesTheReference(input, mapper, 17);
}

// --- Differential: the numeric column ---------------------------------------
//
// Plain C++ entries stand in for the native tier's, so no compiler is
// needed: the map entry computes the boxed mapper's number for every item
// of a slice, the reduce entry sums each run as the boxed reduce does.

/// A number per item from its kind and display only, so the boxed mapper
/// and the map entry agree on every representation.
double numberOf(const Value& item) {
  double x = double(item.display().size()) * 0.25 + double(int(item.kind()));
  if (item.isNumber()) x += item.asNumber();
  return x;
}

MapFn numberMapper() {
  return [](const Value& item) { return Value(numberOf(item)); };
}

ReduceFn sumValues() {
  return [](const ListPtr& values) {
    double total = 0;
    for (const Value& v : values->items()) total += v.asNumber();
    return Value(total);
  };
}

/// Serves a slice unless one of its items satisfies `declines`.
MapNumericFn numberEntry(std::function<bool(const Value&)> declines,
                         std::atomic<int>* served) {
  return [declines, served](const Value* items, size_t n,
                            std::vector<double>& out) {
    for (size_t i = 0; i < n; ++i) {
      if (declines && declines(items[i])) return false;
    }
    out.resize(n);
    for (size_t i = 0; i < n; ++i) out[i] = numberOf(items[i]);
    served->fetch_add(1, std::memory_order_relaxed);
    return true;
  };
}

/// sumValues over each run of a shard, or a decline when `serve` is off.
ReduceNumericFn sumEntry(bool serve, std::atomic<int>* served) {
  return [serve, served](const double* values, const uint32_t* bounds,
                         size_t runs, Value* out) {
    if (!serve) return false;
    for (size_t r = 0; r < runs; ++r) {
      double total = 0;
      for (uint32_t k = bounds[r]; k < bounds[r + 1]; ++k) total += values[k];
      out[r] = Value(total);
    }
    served->fetch_add(1, std::memory_order_relaxed);
    return true;
  };
}

/// A seeded input of the tricky keys (no explicit pairs: a column pair is
/// keyed by its item), large enough for several shards.
ListPtr columnInput(uint64_t seed) {
  Rng rng(seed);
  const std::vector<Value> pool = trickyKeys();
  std::vector<Value> keys;
  const size_t variety = 1 + rng.below(pool.size());
  for (size_t k = 0; k < variety; ++k) {
    keys.push_back(pool[rng.below(pool.size())]);
  }
  const size_t sizes[] = {1, 40, 255, 256, 700, 1500};
  const size_t n = sizes[rng.below(std::size(sizes))];
  auto input = List::make();
  for (size_t i = 0; i < n; ++i) input->add(keys[rng.below(keys.size())]);
  return input;
}

// Every slice in a column, with the reduce entry folding the runs and
// with it declining, so each run's list is built from its range.
TEST_P(ShuffleDifferential, NumericColumnsMatchTheReference) {
  const uint64_t seed = uint64_t(GetParam());
  const ListPtr input = columnInput(seed);
  for (bool folds : {true, false}) {
    SCOPED_TRACE(folds ? "reduce entry folds" : "reduce entry declines");
    std::atomic<int> mapped{0};
    std::atomic<int> reduced{0};
    Options base;
    base.mapNumeric = numberEntry({}, &mapped);
    base.reduceNumeric = sumEntry(folds, &reduced);
    expectEveryPathMatches(input, numberMapper(), sumValues(), base, seed);
    base.reduceNumeric = nullptr;  // lists from ranges, for any reduce
    expectEveryPathMatches(input, numberMapper(), countValues(), base, seed);
    EXPECT_GT(mapped.load(), 0);
    EXPECT_EQ(reduced.load() > 0, folds);
  }
}

// The hard classes with every slice in a column: 0 and -0, NaN, "1" and
// 1, case variants, and `true` joining the class of "true" late.
TEST(ShuffleDifferential, NumericColumnsOfHardKeysMatchTheReference) {
  const std::vector<Value> keys = {
      Value(0),      Value(-0.0),   Value(std::nan("")), Value("NaN"),
      Value("1"),    Value(1),      Value("1.0"),        Value("Apple"),
      Value("apple"), Value("APPLE"), Value("true"),     Value("TRUE")};
  auto input = List::make();
  for (int i = 0; i < 1000; ++i) {
    input->add(keys[size_t(i) % keys.size()]);
    if (i % 61 == 60) input->add(Value(true));
  }
  std::atomic<int> mapped{0};
  std::atomic<int> reduced{0};
  Options base;
  base.mapNumeric = numberEntry({}, &mapped);
  base.reduceNumeric = sumEntry(true, &reduced);
  expectEveryPathMatches(input, numberMapper(), sumValues(), base, 3);
  base.reduceNumeric = nullptr;
  expectEveryPathMatches(input, numberMapper(), identityReduce(), base, 3);
  EXPECT_GT(mapped.load(), 0);
  EXPECT_GT(reduced.load(), 0);
}

// Some slices in columns and some boxed in one job: the map entry
// declines any slice holding a boolean, and booleans appear only in the
// input's second half, where `true` joins the class of "true" from the
// first half. Both halves share every other class too.
TEST(ShuffleDifferential, MixedColumnAndBoxedSlicesMatchTheReference) {
  const std::vector<Value> keys = {
      Value(0), Value(-0.0), Value(std::nan("")), Value("1"), Value(1),
      Value("Pear"), Value("pear"), Value("true"), Value("TRUE")};
  auto input = List::make();
  for (int i = 0; i < 1600; ++i) {
    input->add(keys[size_t(i) % keys.size()]);
    if (i >= 800 && i % 53 == 0) input->add(Value(i % 2 == 0));
  }
  std::atomic<int> mapped{0};
  std::atomic<int> reduced{0};
  Options base;
  base.mapNumeric = numberEntry(
      [](const Value& item) { return item.isBoolean(); }, &mapped);
  base.reduceNumeric = sumEntry(true, &reduced);
  expectEveryPathMatches(input, numberMapper(), sumValues(), base, 9);
  base.reduceNumeric = nullptr;
  for (const ReduceFn& reduce : {countValues(), identityReduce()}) {
    expectEveryPathMatches(input, numberMapper(), reduce, base, 9);
  }
  // The first half's slices served at widths 2 and 4; no job was all
  // columns, so the reduce entry never ran.
  EXPECT_GT(mapped.load(), 0);
  EXPECT_EQ(reduced.load(), 0);
}

}  // namespace
}  // namespace psnap::mr
