// MapReduce invariants swept across corpus seeds, sizes, and worker
// widths: counts conserve input size, keys are unique and sorted,
// parallel ≡ sequential, and the block path equals the reference. A
// differential sweep pins every engine path (pooled at each width,
// sequential, degraded by a saturated pool) to a reference shuffle on
// seeded mixes of hard keys, and pins lists loaded from a snapshot to
// their in-memory twins on every path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
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
#include "persist/snapshot.hpp"
#include "sched/thread_manager.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "workers/grain.hpp"

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

/// A settled job's output, stats and grain path, for comparing runs.
struct Outcome {
  std::string output;
  Stats stats;
  bool inlined = false;
};

Outcome settledOutcome(const ListPtr& input, const MapFn& mapFn,
                       const ReduceFn& reduceFn, const Options& options) {
  Job job(input, mapFn, reduceFn, options);
  job.wait();
  if (job.failed()) throw Error(job.errorMessage());
  return {exact(Value(job.result())), job.stats(), job.ranInline()};
}

void expectSameStats(const Stats& a, const Stats& b) {
  EXPECT_EQ(a.inputItems, b.inputItems);
  EXPECT_EQ(a.distinctKeys, b.distinctKeys);
  EXPECT_EQ(a.mapMakespan, b.mapMakespan);
  EXPECT_EQ(a.reduceMakespan, b.reduceMakespan);
  EXPECT_EQ(a.degraded, b.degraded);
}

/// A nominal known cost: the grain model drains any of these inputs on
/// the constructing thread.
constexpr double kTinyCostNs = 1e-9;

/// Every engine path — pooled at widths 1/2/4, drained on the caller by
/// the grain model at the same widths, sequential, degraded by a
/// saturated pool, and run() — against the reference shuffle under one
/// reduce. An inline run must match its pooled twin byte for byte and
/// stat for stat. `base` supplies the native entries, if any, for every
/// path.
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
    SCOPED_TRACE("width " + std::to_string(width));
    const Outcome pooled =
        settledOutcome(input, mapper, reduce, with(width, false));
    EXPECT_EQ(pooled.output, expected) << "Job, pooled";
    EXPECT_FALSE(pooled.inlined);
    Options drained = with(width, false);
    drained.itemCostNs = kTinyCostNs;
    const Outcome inlined = settledOutcome(input, mapper, reduce, drained);
    EXPECT_EQ(inlined.output, pooled.output) << "Job, inline";
    EXPECT_EQ(inlined.inlined, !input->empty());
    expectSameStats(inlined.stats, pooled.stats);
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

/// The largest input the grain model drains inline at `itemNs` per item
/// and `width` (its decision is monotone in the item count).
size_t lastInlineSize(double itemNs, size_t width) {
  size_t inlined = 0;               // drains inline
  size_t pooled = size_t(1) << 30;  // does not
  while (pooled - inlined > 1) {
    const size_t mid = inlined + (pooled - inlined) / 2;
    (workers::drainsInline(mid, itemNs, width) ? inlined : pooled) = mid;
  }
  return inlined;
}

// The grain threshold itself, at the shuffle's measured per-pair cost: the
// largest input below the crossover drains on the caller and one item
// more goes to the pool, at widths 2 and 4. Both runs match the unknown-
// cost pooled run byte for byte and stat for stat, and the reference.
TEST(ShuffleDifferential, BothSidesOfTheGrainThreshold) {
  const std::vector<Value> pool = trickyKeys();
  for (size_t width : {2, 4}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const size_t below = lastInlineSize(workers::kShufflePairNs, width);
    for (size_t n : {below, below + 1}) {
      SCOPED_TRACE("n " + std::to_string(n));
      auto input = List::make();
      for (size_t i = 0; i < n; ++i) {
        const Value& key = pool[(i * 7) % pool.size()];
        input->add(i % 3 == 0 ? Value(List::make({Value("pair"), key,
                                                  Value(double(i))}))
                              : key);
      }
      Options options;
      options.workers = width;
      const Outcome pooled =
          settledOutcome(input, differentialMapper(), countValues(), options);
      options.itemCostNs = workers::kShufflePairNs;
      const Outcome known =
          settledOutcome(input, differentialMapper(), countValues(), options);
      EXPECT_FALSE(pooled.inlined);
      EXPECT_EQ(known.inlined, n == below);
      EXPECT_EQ(known.output, pooled.output);
      expectSameStats(known.stats, pooled.stats);
      EXPECT_EQ(pooled.output,
                exact(Value(referenceMapReduce(input, differentialMapper(),
                                               countValues()))));
    }
  }
}

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

// --- Differential: lists loaded from a snapshot ------------------------------

/// Text keys whose class and equality are easy to get wrong: case
/// variants, numeric text in several spellings, "-0" against "0", "NaN",
/// text longer than the inline capacity, and empty text.
std::vector<Value> hardTextKeys() {
  return {Value("The"),  Value("the"),  Value("THE"), Value("1"),
          Value("1.0"),  Value("-0"),   Value("0"),   Value("NaN"),
          Value("nan"),  Value(""),     Value("10"),  Value("1a"),
          Value("A fairly long key of text"),
          Value("a FAIRLY long key OF text"), Value("true")};
}

/// `n` seeded draws from the hard text keys plus a tail of distinct words.
ListPtr hardTextList(size_t n, uint64_t seed) {
  Rng rng(seed);
  const std::vector<Value> keys = hardTextKeys();
  auto list = List::make();
  for (size_t i = 0; i < n; ++i) {
    if (rng.below(4) == 0) {
      list->add(Value("word" + std::to_string(rng.below(n))));
    } else {
      list->add(keys[rng.below(keys.size())]);
    }
  }
  return list;
}

/// Keys every item by itself through an explicit [item, 1] pair.
MapFn explicitPairMapper() {
  return [](const Value& item) {
    return Value(List::make({item, Value(1)}));
  };
}

/// A scratch directory for one test's snapshots, removed on scope exit.
struct SnapshotDir {
  explicit SnapshotDir(const std::string& tag)
      : dir(std::filesystem::temp_directory_path() /
            ("psnap-mrprop-" + tag + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  ~SnapshotDir() { std::filesystem::remove_all(dir); }
  std::string path(const std::string& name) const {
    return (dir / name).string();
  }
  std::filesystem::path dir;
};

/// Every engine path — pooled and drained inline at widths 1/2/4,
/// sequential, degraded by a saturated pool, and run() — gives `other`
/// exactly the output and stats it gives `twin`.
void expectTwinsMatch(const ListPtr& twin, const ListPtr& other,
                      const MapFn& mapper, const ReduceFn& reduce,
                      const Options& base, uint64_t seed) {
  const auto both = [&](const Options& options, const std::string& path) {
    SCOPED_TRACE(path);
    const Outcome a = settledOutcome(twin, mapper, reduce, options);
    const Outcome b = settledOutcome(other, mapper, reduce, options);
    EXPECT_EQ(b.output, a.output);
    EXPECT_EQ(b.inlined, a.inlined);
    expectSameStats(b.stats, a.stats);
  };
  for (size_t width : {1, 2, 4}) {
    Options options = base;
    options.workers = width;
    both(options, "pooled, width " + std::to_string(width));
    options.itemCostNs = kTinyCostNs;
    both(options, "inline, width " + std::to_string(width));
  }
  Options sequential = base;
  sequential.sequential = true;
  both(sequential, "sequential");
  {
    fault::Config saturated;
    saturated.seed = seed;
    saturated.rateNumerator = 1;
    saturated.rateDenominator = 1;
    saturated.pointMask = fault::maskOf(fault::Point::PoolSaturation);
    fault::ScopedFault armed(saturated);
    Options degraded = base;
    degraded.workers = 4;
    both(degraded, "degraded");
  }
  for (bool seq : {false, true}) {
    SCOPED_TRACE(seq ? "run, sequential" : "run, parallel");
    Options options = base;
    options.workers = 4;
    options.sequential = seq;
    Stats a;
    Stats b;
    const std::string left =
        exact(Value(run(twin, mapper, reduce, options, &a)));
    EXPECT_EQ(exact(Value(run(other, mapper, reduce, options, &b))), left);
    expectSameStats(b, a);
  }
}

/// expectTwinsMatch under a boxed keyed-by-item map (identity and
/// counting reduce), explicit [item, 1] pairs, a batch entry mapping
/// each slice in place, and the numeric column with the reduce entry
/// folding.
void expectTwinsMatchEverywhere(const ListPtr& twin, const ListPtr& other,
                                uint64_t seed) {
  for (const ReduceFn& reduce : {identityReduce(), countValues()}) {
    expectTwinsMatch(twin, other, differentialMapper(), reduce, {}, seed);
  }
  expectTwinsMatch(twin, other, explicitPairMapper(), countValues(), {},
                   seed);
  Options batch;
  batch.mapBatch = [](Value* items, size_t n) {
    for (size_t i = 0; i < n; ++i) items[i] = Value(numberOf(items[i]));
    return true;
  };
  expectTwinsMatch(twin, other, numberMapper(), countValues(), batch, seed);
  std::atomic<int> mapped{0};
  std::atomic<int> reduced{0};
  Options column;
  column.mapNumeric = numberEntry({}, &mapped);
  column.reduceNumeric = sumEntry(true, &reduced);
  expectTwinsMatch(twin, other, numberMapper(), sumValues(), column, seed);
  EXPECT_GT(mapped.load(), 0);
  EXPECT_GT(reduced.load(), 0);
}

// Text lists round-tripped through saveList/loadList, through the
// streaming DatasetWriter, and through writeWordsSnapshot give their
// in-memory twins' output and stats byte for byte on every path.
TEST(ShuffleDifferential, SnapshotListsMatchTheirInMemoryTwins) {
  const SnapshotDir dir("twins");
  for (uint64_t seed : {3, 8}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ListPtr twin = hardTextList(1500, seed);
    {
      SCOPED_TRACE("saveList");
      persist::saveList(dir.path("saved.psnap"), twin);
      expectTwinsMatchEverywhere(
          twin, persist::loadList(dir.path("saved.psnap")), seed);
    }
    {
      SCOPED_TRACE("DatasetWriter");
      persist::DatasetWriter writer(dir.path("streamed.psnap"));
      for (const Value& item : twin->items()) writer.append(item);
      writer.commit();
      expectTwinsMatchEverywhere(
          twin, persist::loadList(dir.path("streamed.psnap")), seed);
    }
  }
  SCOPED_TRACE("writeWordsSnapshot");
  data::writeWordsSnapshot(dir.path("words.psnap"), 3000, 200, 4);
  auto twin = List::make();
  for (const std::string& word :
       data::tokenize(data::generateText(3000, 200, 4))) {
    twin->add(Value(word));
  }
  expectTwinsMatchEverywhere(twin, persist::loadList(dir.path("words.psnap")),
                             4);
}

/// Loads `list` back from a snapshot written by saveList: a coded twin.
ListPtr codedTwin(const ListPtr& list, const SnapshotDir& dir) {
  const std::string path = dir.path("coded.psnap");
  persist::saveList(path, list);
  ListPtr loaded = persist::loadList(path);
  EXPECT_FALSE(loaded->coding().empty());
  return loaded;
}

/// Emits an explicit pair for a few texts only — "cat" keyed as "CAT",
/// "1" as the number 1, "NaN" as the boolean true — and a value keyed by
/// its item for every other text. A slice holding one of those texts
/// classes in its own table; the others class by code.
MapFn somePairsMapper() {
  return [](const Value& item) -> Value {
    const std::string_view text = item.textView();
    if (text == "cat") return Value(List::make({Value("CAT"), Value(1)}));
    if (text == "1") return Value(List::make({Value(1), Value(2)}));
    if (text == "NaN") return Value(List::make({Value(true), Value(3)}));
    return Value(double(text.size()));
  };
}

// A coded list and its uncoded twin agree on every path: with every pair
// keyed by its item, with explicit pairs everywhere, and with explicit
// pairs in the later slices only, whose classes then merge with the
// dictionary's. So do a list of one dictionary entry and a list whose
// entries are all distinct.
TEST(ShuffleDifferential, CodedListsMatchTheirUncodedTwins) {
  const SnapshotDir dir("coded");
  auto late = List::make();
  const std::vector<Value> keys = hardTextKeys();
  for (size_t i = 0; i < 1600; ++i) {
    late->add(keys[i % keys.size()]);
    if (i >= 900 && i % 11 == 0) {
      late->add(Value(i % 3 == 0 ? "cat" : i % 3 == 1 ? "1" : "NaN"));
    }
  }
  const ListPtr lateCoded = codedTwin(late, dir);
  expectTwinsMatchEverywhere(late, lateCoded, 21);
  for (const ReduceFn& reduce : {identityReduce(), countValues()}) {
    expectTwinsMatch(late, lateCoded, somePairsMapper(), reduce, {}, 21);
  }
  EXPECT_EQ(exact(Value(run(lateCoded, somePairsMapper(), countValues(),
                            {.workers = 4}))),
            exact(Value(referenceMapReduce(late, somePairsMapper(),
                                           countValues()))));

  auto same = List::make();
  for (int i = 0; i < 700; ++i) same->add(Value("Same"));
  const ListPtr sameCoded = codedTwin(same, dir);
  EXPECT_EQ(sameCoded->coding().entries.size(), 1u);
  expectTwinsMatchEverywhere(same, sameCoded, 22);

  auto distinct = List::make();
  for (int i = 0; i < 1500; ++i) {
    distinct->add(Value((i % 2 ? "Key" : "key") + std::to_string(i)));
  }
  const ListPtr distinctCoded = codedTwin(distinct, dir);
  EXPECT_EQ(distinctCoded->coding().entries.size(), 1500u);
  expectTwinsMatchEverywhere(distinct, distinctCoded, 23);
}

// With more shards than the input fills, the last slices start past its
// end: 300 items over 64 shards is 5 per slice, so slice 60 starts at
// the end and slices 61 to 63 past it. They map, class and bin nothing,
// over a coded list and its uncoded twin alike, on every map entry. The
// list has 5 distinct texts, so the coded one classes by code.
TEST(ShuffleDifferential, SlicesPastTheInputAreEmpty) {
  const SnapshotDir dir("past");
  const std::vector<Value> keys = {Value("The"), Value("the"), Value("-0"),
                                   Value("NaN"),
                                   Value("A fairly long key of text")};
  auto twin = List::make();
  for (size_t i = 0; i < 300; ++i) twin->add(keys[(i * 7 + i / 13) % 5]);
  const ListPtr coded = codedTwin(twin, dir);
  ASSERT_EQ(coded->coding().entries.size(), 5u);
  std::atomic<int> served{0};
  Options batch;
  batch.mapBatch = [](Value* items, size_t n) {
    for (size_t i = 0; i < n; ++i) items[i] = Value(numberOf(items[i]));
    return true;
  };
  Options column;
  column.mapNumeric = numberEntry({}, &served);
  const std::vector<std::pair<MapFn, Options>> entries = {
      {differentialMapper(), {}},
      {explicitPairMapper(), {}},
      {numberMapper(), batch},
      {numberMapper(), column}};
  for (size_t e = 0; e < entries.size(); ++e) {
    SCOPED_TRACE("entry " + std::to_string(e));
    const auto& [mapper, base] = entries[e];
    const std::string expected =
        exact(Value(referenceMapReduce(twin, mapper, countValues())));
    for (bool drained : {false, true}) {
      SCOPED_TRACE(drained ? "inline" : "pooled");
      Options options = base;
      options.workers = 64;
      if (drained) options.itemCostNs = kTinyCostNs;
      const Outcome a = settledOutcome(twin, mapper, countValues(), options);
      const Outcome b = settledOutcome(coded, mapper, countValues(), options);
      EXPECT_EQ(a.output, expected);
      EXPECT_EQ(b.output, expected);
      EXPECT_EQ(a.stats.mapMakespan, 5u);
      expectSameStats(b.stats, a.stats);
    }
  }
  EXPECT_GT(served.load(), 0);
}

// A coded list mutated after load (an add, a replace, a delete) loses its
// codes at the detach gate and still matches its twin mutated the same
// way; the list it was cloned from stays coded and matches the original.
TEST(ShuffleDifferential, CodedListsMutatedAfterLoadMatchTheirTwins) {
  const SnapshotDir dir("mutated");
  const ListPtr twin = hardTextList(900, 31);
  const ListPtr coded = codedTwin(twin, dir);
  const std::vector<std::function<void(List&)>> mutations = {
      [](List& l) { l.add(Value("the")); },
      [](List& l) { l.replaceAt(5, Value("NaN")); },
      [](List& l) { l.removeAt(1); }};
  for (size_t k = 0; k < mutations.size(); ++k) {
    SCOPED_TRACE("mutation " + std::to_string(k));
    const ListPtr mutatedTwin = twin->deepCopy();
    const ListPtr mutated = Value(coded).structuredClone().asList();
    ASSERT_FALSE(mutated->coding().empty());
    mutations[k](*mutatedTwin);
    mutations[k](*mutated);
    EXPECT_TRUE(mutated->coding().empty());
    expectTwinsMatchEverywhere(mutatedTwin, mutated, 31 + k);
  }
  EXPECT_FALSE(coded->coding().empty());
  expectTwinsMatch(twin, coded, differentialMapper(), countValues(), {}, 31);
}

}  // namespace
}  // namespace psnap::mr
