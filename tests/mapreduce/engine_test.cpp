// MapReduce engine semantics: pairing, sort-by-key shuffle, grouping,
// parallel/sequential parity, identity phases, and stats.
#include "mapreduce/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace psnap::mr {
namespace {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;

ListPtr words(std::initializer_list<const char*> ws) {
  auto list = List::make();
  for (const char* w : ws) list->add(Value(w));
  return list;
}

MapFn constOne() {
  return [](const Value&) { return Value(1); };
}

ReduceFn countValues() {
  return [](const ListPtr& values) { return Value(values->length()); };
}

ReduceFn sumValues() {
  return [](const ListPtr& values) {
    double total = 0;
    for (const Value& v : values->items()) total += v.asNumber();
    return Value(total);
  };
}

TEST(MapReduce, WordCountShape) {
  auto result = run(words({"b", "a", "b", "c", "a", "b"}), constOne(),
                    countValues());
  EXPECT_EQ(result->display(), "[[a, 2], [b, 3], [c, 1]]");
}

TEST(MapReduce, OutputSortedByKey) {
  auto result = run(words({"pear", "apple", "zebra", "apple"}), constOne(),
                    countValues());
  ASSERT_EQ(result->length(), 3u);
  EXPECT_EQ(result->item(1).asList()->item(1).asText(), "apple");
  EXPECT_EQ(result->item(3).asList()->item(1).asText(), "zebra");
}

TEST(MapReduce, NumericKeysSortNumerically) {
  auto input = List::make({Value(10), Value(2), Value(10), Value(2)});
  auto result = run(input, constOne(), countValues());
  EXPECT_EQ(result->item(1).asList()->item(1).asNumber(), 2);
  EXPECT_EQ(result->item(2).asList()->item(1).asNumber(), 10);
}

TEST(MapReduce, ExplicitPairsFromMapper) {
  // Mapper emits [key mod 2, value].
  MapFn mapper = [](const Value& v) {
    auto pair = List::make();
    pair->add(Value(std::fmod(v.asNumber(), 2.0)));
    pair->add(v);
    return Value(pair);
  };
  auto input = List::make();
  for (int i = 1; i <= 6; ++i) input->add(Value(i));
  auto result = run(input, mapper, sumValues());
  EXPECT_EQ(result->display(), "[[0, 12], [1, 9]]");
}

TEST(MapReduce, IdentityReducePassesValueLists) {
  auto result = run(words({"a", "b", "a"}), constOne(), identityReduce());
  EXPECT_EQ(result->display(), "[[a, [1, 1]], [b, [1]]]");
}

TEST(MapReduce, EmptyInput) {
  auto result = run(List::make(), constOne(), countValues());
  EXPECT_TRUE(result->empty());
}

TEST(MapReduce, SingleItem) {
  auto result = run(words({"solo"}), constOne(), countValues());
  EXPECT_EQ(result->display(), "[[solo, 1]]");
}

TEST(MapReduce, SequentialAndParallelAgree) {
  auto input = List::make();
  for (int i = 0; i < 500; ++i) input->add(Value(i % 13));
  auto par = run(input, constOne(), countValues(), {.workers = 4});
  auto seq = run(input, constOne(), countValues(), {.sequential = true});
  EXPECT_EQ(par->display(), seq->display());
}

// Pooled stage-1 tasks fill their slices' class tables and pooled stage-2
// tasks read every slice's table (the tsan preset runs this suite). Each
// of 3000 keys comes in several spellings spread over every slice.
TEST(MapReduce, ManyKeysAcrossSlicesAgreeWithSequential) {
  auto input = List::make();
  for (int i = 0; i < 12000; ++i) {
    const int k = (i * 7919) % 3000;  // every k once per 3000 items
    const int occurrence = i / 3000;
    if (k % 4 == 0) {
      // Numbers and numeric text of one value are one key.
      input->add(occurrence % 2 ? Value(k) : Value(std::to_string(k)));
    } else {
      const char* spelling[] = {"Key", "KEY", "key", "kEY"};
      input->add(Value(spelling[occurrence] + std::to_string(k)));
    }
  }
  auto seq = run(input, constOne(), countValues(), {.sequential = true});
  ASSERT_EQ(seq->length(), 3000u);
  for (size_t width : {2, 4, 8}) {
    Stats stats;
    auto par =
        run(input, constOne(), countValues(), {.workers = width}, &stats);
    EXPECT_EQ(par->display(), seq->display()) << "width " << width;
    EXPECT_EQ(stats.distinctKeys, 3000u);
  }
}

TEST(MapReduce, StatsAccounting) {
  Stats stats;
  auto input = List::make();
  for (int i = 0; i < 100; ++i) input->add(Value(i % 5));
  run(input, constOne(), countValues(), {.workers = 4}, &stats);
  EXPECT_EQ(stats.inputItems, 100u);
  EXPECT_EQ(stats.distinctKeys, 5u);
  EXPECT_GE(stats.mapMakespan, 25u);  // 100 items on ≤4 workers
  EXPECT_GE(stats.reduceMakespan, 1u);
}

TEST(MapReduce, SequentialStatsAreSerial) {
  Stats stats;
  run(words({"a", "b", "c"}), constOne(), countValues(),
      {.sequential = true}, &stats);
  EXPECT_EQ(stats.mapMakespan, 3u);
  EXPECT_EQ(stats.reduceMakespan, 3u);
}

TEST(MapReduce, MapperErrorPropagates) {
  MapFn bad = [](const Value& v) -> Value {
    if (v.asNumber() == 3) throw Error("mapper exploded");
    return Value(1);
  };
  auto input = List::make({Value(1), Value(3)});
  EXPECT_THROW(run(input, bad, countValues()), Error);
}

TEST(MapReduce, ReducerErrorPropagates) {
  ReduceFn bad = [](const ListPtr&) -> Value {
    throw Error("reducer exploded");
  };
  EXPECT_THROW(run(words({"a"}), constOne(), bad), Error);
}

TEST(MapReduce, MapperTypeErrorKeepsItsType) {
  MapFn bad = [](const Value&) -> Value {
    throw TypeError("not reducible");
  };
  EXPECT_THROW(run(words({"a", "b"}), bad, countValues()), TypeError);
}

TEST(MapReduce, PreCancelledTokenStopsPipeline) {
  Options options;
  options.workers = 4;
  options.cancel = CancelToken::create();
  options.cancel->cancel("pipeline stopped");
  auto input = List::make();
  for (int i = 0; i < 50; ++i) input->add(Value(i % 3));
  // Cancellation is not a degradable failure: the run surfaces it typed
  // instead of silently rerunning sequentially.
  EXPECT_THROW(run(input, constOne(), countValues(), options),
               CancelledError);
}

TEST(MapReduce, ExpiredDeadlineSurfacesTimeout) {
  Options options;
  options.workers = 4;
  options.deadlineSeconds = 1e-9;  // expires before the first chunk claim
  auto input = List::make();
  for (int i = 0; i < 50; ++i) input->add(Value(i % 3));
  EXPECT_THROW(run(input, constOne(), countValues(), options),
               TimeoutError);
}

TEST(MapReduce, ExpiredDeadlineSurfacesTimeoutOnTheSequentialPaths) {
  auto input = List::make();
  for (int i = 0; i < 1000; ++i) input->add(Value(i % 7));
  EXPECT_THROW(run(input, constOne(), countValues(),
                   {.sequential = true, .deadlineSeconds = 1e-9}),
               TimeoutError);
  // Every pooled task throws and nothing retries, so the Job degrades to
  // its sequential rerun, which outlives the deadline: 1000 items at
  // 200us each against 50ms. The rerun keeps the pipeline's token.
  MapFn slowOne = [](const Value&) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Value(1);
  };
  fault::Config config;
  config.rateNumerator = 1;
  config.rateDenominator = 1;
  config.pointMask = fault::maskOf(fault::Point::TaskThrow);
  fault::ScopedFault armed(config);
  Job job(input, slowOne, countValues(),
          {.workers = 4, .maxRetries = 0, .deadlineSeconds = 0.05});
  job.wait();
  ASSERT_TRUE(job.failed());
  EXPECT_EQ(job.errorClass(), ErrorClass::Timeout);
  EXPECT_THROW(std::rethrow_exception(job.error()), TimeoutError);
}

TEST(MapReduceJob, ErrorCarriesClassAndExceptionType) {
  MapFn bad = [](const Value&) -> Value { throw TypeError("bad item"); };
  Job job(words({"x"}), bad, countValues(), {});
  job.wait();
  ASSERT_TRUE(job.failed());
  EXPECT_EQ(job.errorClass(), ErrorClass::Type);
  ASSERT_TRUE(job.error());
  EXPECT_THROW(std::rethrow_exception(job.error()), TypeError);
}

TEST(MapReduce, NullInputThrows) {
  EXPECT_THROW(run(nullptr, constOne(), countValues()), Error);
}

TEST(MapReduceJob, AsyncCompletion) {
  auto input = List::make();
  for (int i = 0; i < 2000; ++i) input->add(Value(i % 7));
  Job job(input, constOne(), countValues(), {.workers = 4});
  job.wait();
  ASSERT_FALSE(job.failed()) << job.errorMessage();
  EXPECT_EQ(job.result()->length(), 7u);
  EXPECT_EQ(job.stats().inputItems, 2000u);
}

TEST(MapReduceJob, ConcurrentJobsMatchTheSequentialReference) {
  // Eight chained jobs in flight at once: their stages interleave freely
  // on the shared pool (no phase barriers), and each output is still
  // byte-identical to the sequential run's.
  const char* vocabulary[] = {"alpha", "bravo", "charlie", "delta",
                              "echo",  "foxtrot", "golf", "hotel",
                              "india", "juliet", "kilo", "lima", "mike"};
  auto input = List::make();
  for (int i = 0; i < 4000; ++i) input->add(Value(vocabulary[(i * 7) % 13]));
  const std::string reference =
      run(input, constOne(), countValues(), {.sequential = true})->display();
  std::vector<std::unique_ptr<Job>> inflight;
  for (int j = 0; j < 8; ++j) {
    inflight.push_back(std::make_unique<Job>(input, constOne(), countValues(),
                                             Options{.workers = 4}));
  }
  for (auto& job : inflight) {
    job->wait();
    ASSERT_FALSE(job->failed()) << job->errorMessage();
    EXPECT_EQ(job->result()->display(), reference);
  }
}

TEST(MapReduceJob, AsyncErrorCapture) {
  MapFn bad = [](const Value&) -> Value { throw Error("nope"); };
  Job job(words({"x"}), bad, countValues(), {});
  job.wait();
  EXPECT_TRUE(job.failed());
  EXPECT_NE(job.errorMessage().find("nope"), std::string::npos);
}

}  // namespace
}  // namespace psnap::mr
