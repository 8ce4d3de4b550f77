// End-to-end tests of the paper's parallel blocks running on the
// cooperative scheduler with real worker threads underneath.
#include "core/parallel_blocks.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blocks/builder.hpp"
#include "blocks/future.hpp"
#include "sched/thread_manager.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "workers/stats.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::EnvPtr;
using blocks::Value;
using sched::ThreadManager;

class ParallelBlocksTest : public ::testing::Test {
 protected:
  ParallelBlocksTest() : prims_(fullPrimitiveTable()) {}

  Value eval(blocks::BlockPtr expr, EnvPtr env = nullptr) {
    ThreadManager tm(&BlockRegistry::standard(), &prims_);
    return tm.evaluate(std::move(expr), env ? env : Environment::make());
  }

  vm::PrimitiveTable prims_;
};

// Paper Fig. 5/6: parallel map ((  ) × 10) over 1..1000 — first ten
// outputs are 10,20,…,100.
TEST_F(ParallelBlocksTest, Fig5ParallelMapTimesTen) {
  Value v = eval(parallelMap(ring(product(empty(), 10)),
                             numbersFromTo(1, 1000)));
  ASSERT_EQ(v.asList()->length(), 1000u);
  for (size_t i = 1; i <= 10; ++i) {
    EXPECT_EQ(v.asList()->item(i).asNumber(), 10.0 * double(i));
  }
  EXPECT_EQ(v.asList()->item(1000).asNumber(), 10000);
}

TEST_F(ParallelBlocksTest, ParallelMapExplicitWorkerCount) {
  Value v = eval(parallelMap(ring(sum(empty(), 1)), listOf({1, 2, 3}), 2));
  EXPECT_EQ(v.asList()->display(), "[2, 3, 4]");
}

TEST_F(ParallelBlocksTest, ParallelMapMatchesSequentialMap) {
  auto input = numbersFromTo(1, 257);
  Value par = eval(parallelMap(ring(product(empty(), empty())), input, 4));
  Value seq = eval(mapOver(ring(product(empty(), empty())), input));
  EXPECT_TRUE(par.equals(seq));
}

TEST_F(ParallelBlocksTest, ParallelMapEmptyList) {
  Value v = eval(parallelMap(ring(product(empty(), 10)), listOf({})));
  EXPECT_TRUE(v.asList()->empty());
}

TEST_F(ParallelBlocksTest, ParallelMapImpureRingFails) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  EXPECT_THROW(
      tm.evaluate(parallelMap(ring(In(blk("getTimer"))), listOf({1})),
                  Environment::make()),
      Error);
}

TEST_F(ParallelBlocksTest, ParallelMapWorkerErrorSurfaces) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  EXPECT_THROW(tm.evaluate(parallelMap(ring(quotient(1, empty())),
                                       listOf({1, 0, 2})),
                           Environment::make()),
               Error);
}

TEST_F(ParallelBlocksTest, ParallelMapKeepsSchedulerResponsive) {
  // While the workers grind, other processes must continue to run — the
  // whole point of Web Workers (Sec. 4.1: keeping the browser responsive).
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("ticks", Value(0));
  env->declare("result", Value());
  tm.spawnScript(scriptOf({setVar(
                     "result", parallelMap(ring(product(empty(), 3)),
                                           numbersFromTo(1, 20000), 2))}),
                 env);
  tm.spawnScript(scriptOf({forever(scriptOf({changeVar("ticks", 1)}))}),
                 env);
  // Run frames until the map result lands.
  for (int i = 0; i < 100000 && env->get("result").isNothing(); ++i) {
    tm.runFrame();
  }
  ASSERT_FALSE(env->get("result").isNothing());
  EXPECT_EQ(env->get("result").asList()->length(), 20000u);
  // The ticker advanced once per frame during the parallel job.
  EXPECT_GE(env->get("ticks").asNumber(), 1.0);
  tm.stopAll();
}

// Sequential mode of parallelForEach (Fig. 8b): collapsed slot.
TEST_F(ParallelBlocksTest, ForEachSequentialMode) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("log", Value(blocks::List::make()));
  auto handle = tm.spawnScript(
      scriptOf({parallelForEach("item", listOf({"a", "b", "c"}),
                                collapsed(),
                                scriptOf({addToList(getVar("item"),
                                                    getVar("log"))}))}),
      env);
  tm.runUntilIdle();
  EXPECT_FALSE(handle.status->errored) << handle.status->error;
  EXPECT_EQ(env->get("log").asList()->display(), "[a, b, c]");
}

// Parallel mode (Fig. 8a): one clone per item by default; items are
// processed concurrently on the cooperative scheduler.
TEST_F(ParallelBlocksTest, ForEachParallelMode) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("total", Value(0));
  auto handle = tm.spawnScript(
      scriptOf({parallelForEach("item", listOf({1, 2, 3, 4}), blank(),
                                scriptOf({changeVar("total",
                                                    getVar("item"))}))}),
      env);
  tm.runUntilIdle();
  EXPECT_FALSE(handle.status->errored) << handle.status->error;
  EXPECT_EQ(env->get("total").asNumber(), 10);
}

TEST_F(ParallelBlocksTest, ForEachParallelConcurrencySpeedup) {
  // 3 items, each needing 3 busy frames: sequential takes 9+ frames,
  // parallel overlaps them — the paper's concession-stand shape.
  auto makeScript = [](In mode) {
    return scriptOf({parallelForEach("item", listOf({"a", "b", "c"}),
                                     std::move(mode),
                                     scriptOf({busyWork(3)}))});
  };
  ThreadManager seqTm(&BlockRegistry::standard(), &prims_);
  seqTm.spawnScript(makeScript(collapsed()), Environment::make());
  uint64_t seqFrames = seqTm.runUntilIdle();

  ThreadManager parTm(&BlockRegistry::standard(), &prims_);
  parTm.spawnScript(makeScript(blank()), Environment::make());
  uint64_t parFrames = parTm.runUntilIdle();

  // A blank text slot (`<l></l>` loaded from project XML) is empty too:
  // one clone per item, not a single clone.
  ThreadManager textTm(&BlockRegistry::standard(), &prims_);
  textTm.spawnScript(makeScript(In("")), Environment::make());
  uint64_t textFrames = textTm.runUntilIdle();

  EXPECT_GE(seqFrames, 9u);
  EXPECT_LT(parFrames, seqFrames);
  EXPECT_EQ(textFrames, parFrames);
}

TEST_F(ParallelBlocksTest, ForEachParallelismLimitChunksItems) {
  // 6 items with parallelism 2: both clones must together process all 6.
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("total", Value(0));
  tm.spawnScript(
      scriptOf({parallelForEach("item", numbersFromTo(1, 6), 2,
                                scriptOf({changeVar("total",
                                                    getVar("item"))}))}),
      env);
  tm.runUntilIdle();
  EXPECT_EQ(env->get("total").asNumber(), 21);
}

TEST_F(ParallelBlocksTest, ForEachEmptyList) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  auto handle = tm.spawnScript(
      scriptOf({parallelForEach("item", listOf({}), blank(),
                                scriptOf({busyWork(1)}))}),
      env);
  tm.runUntilIdle();
  EXPECT_FALSE(handle.status->errored);
}

TEST_F(ParallelBlocksTest, ForEachBodyErrorPropagates) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  auto handle = tm.spawnScript(
      scriptOf({parallelForEach("item", listOf({1, 2}), blank(),
                                scriptOf({say(quotient(1, 0))}))}),
      env);
  tm.runUntilIdle();
  EXPECT_TRUE(handle.status->errored);
}

// Paper Fig. 11/12: word count.
TEST_F(ParallelBlocksTest, Fig11WordCount) {
  // map: word → 1 (keyed implicitly by the word itself);
  // reduce: length of the values list = occurrences.
  Value v = eval(mapReduce(
      ring(In(1.0)), ring(lengthOf(empty())),
      splitText("the quick the lazy the quick fox", "whitespace")));
  // Sorted unique words with counts.
  EXPECT_EQ(v.asList()->display(),
            "[[fox, 1], [lazy, 1], [quick, 2], [the, 3]]");
}

// Paper Fig. 13: Fahrenheit→Celsius average with an explicit key.
TEST_F(ParallelBlocksTest, Fig13ClimateAverage) {
  auto mapper = ring(listOf(
      {In("avgC"),
       In(quotient(product(5, difference(empty(), 32)), 9))}));
  auto reducer = ring(quotient(combineUsing(empty(),
                                            ring(sum(empty(), empty()))),
                               lengthOf(empty())));
  Value v = eval(mapReduce(mapper, reducer, listOf({32, 212, 50})));
  ASSERT_EQ(v.asList()->length(), 1u);
  EXPECT_EQ(v.asList()->item(1).asList()->item(1).asText(), "avgC");
  EXPECT_NEAR(v.asList()->item(1).asList()->item(2).asNumber(),
              (0.0 + 100.0 + 10.0) / 3.0, 1e-9);
}

TEST_F(ParallelBlocksTest, MapReduceIdentityReducePassesValuesThrough) {
  Value v = eval(mapReduce(ring(In(1.0)), identityRing(),
                           splitText("b a b", "whitespace")));
  EXPECT_EQ(v.asList()->display(), "[[a, [1]], [b, [1, 1]]]");
}

TEST_F(ParallelBlocksTest, MapReduceExplicitPairsGroupByKey) {
  // map emits explicit [key, value] pairs: key = parity.
  auto mapper = ring(listOf({In(modulus(empty(), 2)), In(empty())}));
  auto reducer = ring(combineUsing(empty(), ring(sum(empty(), empty()))));
  Value v = eval(mapReduce(mapper, reducer, numbersFromTo(1, 10)));
  // evens sum to 30 under key 0, odds to 25 under key 1.
  EXPECT_EQ(v.asList()->display(), "[[0, 30], [1, 25]]");
}

TEST_F(ParallelBlocksTest, MaxWorkersReflectsSchedulerSetting) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  tm.setMaxWorkers(7);
  Value v = tm.evaluate(maxWorkers(), Environment::make());
  EXPECT_EQ(v.asNumber(), 7);
}

// --- degrade and error contract ---------------------------------------------
//
// Under an injected substrate fault a report block still reports the exact
// result and records one downgrade, while its launch twin settles its
// future Failed with the substrate class, surfaced at the await. A report
// failure names its block and keeps its class; an error raised while the
// block builds its operation propagates as raised. The native tier is off
// in every run, so the interpreted rings carry no grain cost and each
// operation goes to the pool. scripts/check.sh --chaos runs this suite
// under asan and tsan.

/// Arm `point` to fire on every evaluation.
fault::Config everyTime(fault::Point point) {
  fault::Config config;
  config.rateNumerator = 1;
  config.rateDenominator = 1;
  config.pointMask = fault::maskOf(point);
  return config;
}

/// TransferFailure armed so that the clone-in draw passes and the
/// clone-out draw fires: at seed 16 and rate 1/2 the point's first draw
/// passes and its second fires.
fault::Config cloneOutOnly() {
  fault::Config config = everyTime(fault::Point::TransferFailure);
  config.seed = 16;
  config.rateDenominator = 2;
  return config;
}

/// One script run: its status, the scheduler's error log, the downgrades
/// it recorded, and its variables.
struct Outcome {
  std::shared_ptr<const vm::ProcessStatus> status;
  std::vector<ThreadManager::RecordedError> errors;
  uint64_t downgrades = 0;
  EnvPtr env;
};

class ChaosBlocks : public ::testing::Test {
 protected:
  ChaosBlocks() : prims_(fullPrimitiveTable({.enabled = false})) {}

  /// Run `script` as one process with the native tier off, under a
  /// local stats scope, with the variables `f` and `r` declared.
  Outcome run(blocks::ScriptPtr script) {
    workers::SubstrateStats stats;
    workers::StatsScope scope(stats);
    ThreadManager tm(&BlockRegistry::standard(), &prims_);
    auto env = Environment::make();
    env->declare("f", Value());
    env->declare("r", Value());
    auto handle = tm.spawnScript(std::move(script), env);
    tm.runUntilIdle();
    return {handle.status, tm.recordedErrors(),
            stats.downgrades.load(std::memory_order_relaxed), env};
  }

  /// Report `block` into `r`.
  Outcome report(blocks::BlockPtr block) {
    return run(scriptOf({setVar("r", std::move(block))}));
  }

  /// Launch `block` into `f`, then await it into `r`.
  Outcome launchAndAwait(blocks::BlockPtr block) {
    return run(scriptOf(
        {setVar("f", std::move(block)), setVar("r", awaitValue(getVar("f")))}));
  }

  vm::PrimitiveTable prims_;
};

constexpr int kItems = 300;

blocks::BlockPtr timesTenMap() {
  return parallelMap(ring(product(empty(), 10)), numbersFromTo(1, kItems), 4);
}

blocks::BlockPtr timesTenLaunch() {
  return launchParallelMap(ring(product(empty(), 10)),
                           numbersFromTo(1, kItems), 4);
}

/// Pairs keyed by the item's residue mod 3, summed per key; 300 items
/// give the pipeline four shards.
const char* const kResidueSums = "[[0, 15150], [1, 14950], [2, 15050]]";

blocks::BlockPtr residueSums(bool launch) {
  auto mapper = ring(listOf({In(modulus(empty(), 3)), In(empty())}));
  auto reducer = ring(combineUsing(empty(), ring(sum(empty(), empty()))));
  return launch ? launchMapReduce(mapper, reducer, numbersFromTo(1, kItems))
                : mapReduce(mapper, reducer, numbersFromTo(1, kItems));
}

void expectTimesTen(const Value& v) {
  ASSERT_TRUE(v.isList());
  ASSERT_EQ(v.asList()->length(), size_t(kItems));
  for (size_t i = 1; i <= size_t(kItems); ++i) {
    ASSERT_EQ(v.asList()->item(i).asNumber(), 10.0 * double(i)) << i;
  }
}

void expectDegradedExact(const Outcome& out) {
  ASSERT_FALSE(out.status->errored) << out.status->error;
  expectTimesTen(out.env->get("r"));
  EXPECT_EQ(out.downgrades, 1u);
}

void expectSubstrateAtAwait(const Outcome& out) {
  ASSERT_TRUE(out.status->errored);
  ASSERT_FALSE(out.errors.empty());
  EXPECT_EQ(out.errors.front().errorClass, ErrorClass::Substrate)
      << out.errors.front().message;
  ASSERT_TRUE(out.env->get("f").isFuture());
  EXPECT_EQ(out.env->get("f").asFuture()->state(),
            blocks::Future::State::Failed);
  EXPECT_EQ(out.env->get("f").asFuture()->errorClass(), ErrorClass::Substrate);
}

TEST_F(ChaosBlocks, ReportParallelMapDegradesWhenRetriesAreUsedUp) {
  fault::ScopedFault armed(everyTime(fault::Point::TaskThrow));
  expectDegradedExact(report(timesTenMap()));
}

TEST_F(ChaosBlocks, ReportParallelMapDegradesOnCloneInFailure) {
  fault::ScopedFault armed(everyTime(fault::Point::TransferFailure));
  expectDegradedExact(report(timesTenMap()));
}

TEST_F(ChaosBlocks, ReportParallelMapDegradesOnCloneOutFailure) {
  fault::ScopedFault armed(cloneOutOnly());
  expectDegradedExact(report(timesTenMap()));
  EXPECT_EQ(fault::evaluatedCount(fault::Point::TransferFailure), 2u);
  EXPECT_EQ(fault::firedCount(fault::Point::TransferFailure), 1u);
}

TEST_F(ChaosBlocks, ReportParallelMapDegradesOnPoolSaturation) {
  fault::ScopedFault armed(everyTime(fault::Point::PoolSaturation));
  expectDegradedExact(report(timesTenMap()));
}

TEST_F(ChaosBlocks, ReportMapReduceRerunsWhenRetriesAreUsedUp) {
  fault::ScopedFault armed(everyTime(fault::Point::TaskThrow));
  Outcome out = report(residueSums(false));
  ASSERT_FALSE(out.status->errored) << out.status->error;
  EXPECT_EQ(out.env->get("r").asList()->display(), kResidueSums);
}

TEST_F(ChaosBlocks, ReportMapReduceDrainsOnPoolSaturation) {
  fault::ScopedFault armed(everyTime(fault::Point::PoolSaturation));
  Outcome out = report(residueSums(false));
  ASSERT_FALSE(out.status->errored) << out.status->error;
  EXPECT_EQ(out.env->get("r").asList()->display(), kResidueSums);
}

TEST_F(ChaosBlocks, LaunchParallelMapFailsTypedWhenRetriesAreUsedUp) {
  fault::ScopedFault armed(everyTime(fault::Point::TaskThrow));
  expectSubstrateAtAwait(launchAndAwait(timesTenLaunch()));
}

TEST_F(ChaosBlocks, LaunchParallelMapFailsTypedOnCloneInFailure) {
  fault::ScopedFault armed(everyTime(fault::Point::TransferFailure));
  expectSubstrateAtAwait(launchAndAwait(timesTenLaunch()));
}

TEST_F(ChaosBlocks, LaunchParallelMapFailsTypedOnCloneOutFailure) {
  fault::ScopedFault armed(cloneOutOnly());
  expectSubstrateAtAwait(launchAndAwait(timesTenLaunch()));
  EXPECT_EQ(fault::firedCount(fault::Point::TransferFailure), 1u);
}

TEST_F(ChaosBlocks, LaunchParallelMapFailsTypedOnPoolSaturation) {
  fault::ScopedFault armed(everyTime(fault::Point::PoolSaturation));
  expectSubstrateAtAwait(launchAndAwait(timesTenLaunch()));
}

TEST_F(ChaosBlocks, LaunchMapReduceFailsTypedWhenRetriesAreUsedUp) {
  fault::ScopedFault armed(everyTime(fault::Point::TaskThrow));
  expectSubstrateAtAwait(launchAndAwait(residueSums(true)));
}

TEST_F(ChaosBlocks, LaunchMapReduceFailsTypedOnPoolSaturation) {
  fault::ScopedFault armed(everyTime(fault::Point::PoolSaturation));
  expectSubstrateAtAwait(launchAndAwait(residueSums(true)));
}

TEST_F(ChaosBlocks, ReportFailureNamesTheBlockAndKeepsItsClass) {
  // `item 5 of (item)` over [[1]]: an IndexError raised on a worker.
  auto badRing = [] { return ring(itemOf(In(5.0), empty())); };
  const std::pair<blocks::BlockPtr, std::string> cases[] = {
      {parallelMap(badRing(), listOf({listOf({1})})), "parallel map failed: "},
      {mapReduce(badRing(), ring(lengthOf(empty())), listOf({listOf({1})})),
       "mapReduce failed: "},
  };
  for (const auto& [block, prefix] : cases) {
    SCOPED_TRACE(prefix);
    Outcome out = report(block);
    ASSERT_TRUE(out.status->errored);
    ASSERT_FALSE(out.errors.empty());
    EXPECT_EQ(out.errors.front().errorClass, ErrorClass::Index);
    EXPECT_NE(out.errors.front().message.find(prefix), std::string::npos)
        << out.errors.front().message;
  }
}

TEST_F(ChaosBlocks, ConstructionPurityErrorStaysUnprefixed) {
  // An impure ring fails while the block compiles it, before any
  // operation exists: the error reaches the script as raised.
  auto impure = [] { return ring(In(blk("getTimer"))); };
  const blocks::BlockPtr cases[] = {
      parallelMap(impure(), listOf({1})),
      mapReduce(impure(), ring(lengthOf(empty())), listOf({1})),
  };
  for (const auto& block : cases) {
    Outcome out = report(block);
    ASSERT_TRUE(out.status->errored);
    ASSERT_FALSE(out.errors.empty());
    EXPECT_EQ(out.errors.front().errorClass, ErrorClass::Purity);
    EXPECT_EQ(out.errors.front().message.find("failed: "), std::string::npos)
        << out.errors.front().message;
  }
}

}  // namespace
}  // namespace psnap::core
