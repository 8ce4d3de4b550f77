// Seeded chaos suite: every substrate fault point armed against real
// parallel operations. The invariant under fault injection is
// *convergence*: a run either produces exactly the fault-free result
// (possibly via retries or a recorded downgrade) or fails with a typed
// substrate-class error — never a wrong answer, a hang, or a poisoned
// pool. Test names start with "Chaos" so `scripts/check.sh --chaos` can
// sweep them across seeds (PSNAP_CHAOS_SEED adds one) under asan + tsan.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/engine.hpp"
#include "persist/snapshot.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "workers/parallel.hpp"
#include "workers/stats.hpp"
#include "workers/task_group.hpp"

namespace psnap::workers {
namespace {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;

std::vector<uint64_t> chaosSeeds() {
  std::vector<uint64_t> seeds{1, 7, 42};
  if (const char* extra = std::getenv("PSNAP_CHAOS_SEED")) {
    seeds.push_back(std::strtoull(extra, nullptr, 10));
  }
  return seeds;
}

fault::Config configFor(uint64_t seed, fault::Point point, uint32_t num,
                        uint32_t den) {
  fault::Config config;
  config.seed = seed;
  config.rateNumerator = num;
  config.rateDenominator = den;
  config.pointMask = fault::maskOf(point);
  config.stallMicros = 100;
  return config;
}

std::vector<Value> numbers(int n) {
  std::vector<Value> out;
  out.reserve(size_t(n));
  for (int i = 1; i <= n; ++i) out.emplace_back(i);
  return out;
}

/// After a chaos scenario the shared pool must still run clean work.
void expectPoolUsable() {
  ASSERT_FALSE(fault::armed());
  Parallel p(numbers(16), {.maxWorkers = 2});
  p.map([](const Value& v) { return Value(v.asNumber() + 1); });
  const auto& data = p.data();
  ASSERT_EQ(data.size(), 16u);
  EXPECT_EQ(data[15].asNumber(), 17);
}

TEST(Chaos, TaskThrowMapConvergesOrFailsTyped) {
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      fault::ScopedFault armed(
          configFor(seed, fault::Point::TaskThrow, 1, 4));
      Parallel p(numbers(256),
                 {.maxWorkers = 4, .chunkSize = 8, .maxRetries = 4});
      p.map([](const Value& v) { return Value(v.asNumber() * 2); });
      p.wait();
      if (p.failed()) {
        // Retries exhausted: the failure must carry the substrate class,
        // never a corrupted result.
        EXPECT_TRUE(isSubstrateClass(p.errorClass()));
        EXPECT_THROW(p.data(), SubstrateError);
      } else {
        const auto& data = p.data();
        ASSERT_EQ(data.size(), 256u);
        for (int i = 0; i < 256; ++i) {
          ASSERT_EQ(data[size_t(i)].asNumber(), 2 * (i + 1));
        }
      }
    }
    expectPoolUsable();
  }
}

TEST(Chaos, TaskThrowCertainFailureKeepsSubstrateType) {
  const uint64_t retriesBefore =
      substrateStats().retries.load(std::memory_order_relaxed);
  {
    // Rate 1/1: every attempt throws, so retries are spent and the op
    // fails with the retryable class (post-launch substrate failures do
    // not degrade at this rung — the owner of the input does that).
    fault::ScopedFault armed(configFor(1, fault::Point::TaskThrow, 1, 1));
    Parallel p(numbers(32), {.maxWorkers = 2, .maxRetries = 1});
    p.map([](const Value& v) { return v; });
    p.wait();
    EXPECT_TRUE(p.failed());
    EXPECT_EQ(p.errorClass(), ErrorClass::Substrate);
    EXPECT_FALSE(p.wasDegraded());
    EXPECT_NE(p.errorMessage().find("injected fault"), std::string::npos);
    EXPECT_THROW(p.data(), SubstrateError);
  }
  EXPECT_GT(substrateStats().retries.load(std::memory_order_relaxed),
            retriesBefore);
  expectPoolUsable();
}

TEST(Chaos, WorkerStallsDelayButComplete) {
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      fault::ScopedFault armed(
          configFor(seed, fault::Point::WorkerStall, 1, 2));
      Parallel p(numbers(128), {.maxWorkers = 4});
      p.map([](const Value& v) { return Value(v.asNumber() + 3); });
      const auto& data = p.data();
      ASSERT_EQ(data.size(), 128u);
      for (int i = 0; i < 128; ++i) {
        ASSERT_EQ(data[size_t(i)].asNumber(), i + 4);
      }
    }
    expectPoolUsable();
  }
}

TEST(Chaos, TransferFailureAtCloneInSurfacesSubstrateError) {
  {
    fault::ScopedFault armed(
        configFor(1, fault::Point::TransferFailure, 1, 1));
    EXPECT_THROW(Parallel(numbers(4), {.maxWorkers = 2}), SubstrateError);
  }
  expectPoolUsable();
}

TEST(Chaos, TransferFailureAtCloneOutSurfacesSubstrateError) {
  Parallel p(numbers(8), {.maxWorkers = 2});
  p.map([](const Value& v) { return v; });
  p.wait();
  ASSERT_FALSE(p.failed());
  {
    // Arm only after the op is quiescent: the fault hits the clone-out
    // boundary in takeData(), not the already-finished workers.
    fault::ScopedFault armed(
        configFor(1, fault::Point::TransferFailure, 1, 1));
    EXPECT_THROW(p.takeData(), SubstrateError);
  }
  expectPoolUsable();
}

TEST(Chaos, PoolSaturationDegradesToCallerDrain) {
  const uint64_t downgradesBefore =
      substrateStats().downgrades.load(std::memory_order_relaxed);
  {
    fault::ScopedFault armed(
        configFor(1, fault::Point::PoolSaturation, 1, 1));
    Parallel p(numbers(64), {.maxWorkers = 4});
    p.map([](const Value& v) { return Value(v.asNumber() * 3); });
    const auto& data = p.data();
    EXPECT_TRUE(p.wasDegraded());
    EXPECT_FALSE(p.failed());
    ASSERT_EQ(data.size(), 64u);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(data[size_t(i)].asNumber(), 3 * (i + 1));
    }
  }
  EXPECT_GT(substrateStats().downgrades.load(std::memory_order_relaxed),
            downgradesBefore);
  expectPoolUsable();
}

TEST(Chaos, PoolSaturationWithoutDegradeFails) {
  {
    fault::ScopedFault armed(
        configFor(1, fault::Point::PoolSaturation, 1, 1));
    Parallel p(numbers(8), {.maxWorkers = 2, .allowDegrade = false});
    EXPECT_THROW(p.map([](const Value& v) { return v; }), SubstrateError);
  }
  expectPoolUsable();
}

TEST(Chaos, ExpiredDeadlineSurfacesTimeout) {
  const uint64_t timeoutsBefore =
      substrateStats().timeouts.load(std::memory_order_relaxed);
  ParallelOptions options;
  options.maxWorkers = 2;
  options.cancel = CancelToken::withDeadline(0);  // already expired
  Parallel p(numbers(64), options);
  p.map([](const Value& v) { return v; });
  p.wait();
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.errorClass(), ErrorClass::Timeout);
  EXPECT_THROW(p.data(), TimeoutError);
  EXPECT_GT(substrateStats().timeouts.load(std::memory_order_relaxed),
            timeoutsBefore);
  expectPoolUsable();
}

TEST(Chaos, PreCancelledTokenSurfacesCancelledWithReason) {
  ParallelOptions options;
  options.maxWorkers = 2;
  options.cancel = CancelToken::create();
  options.cancel->cancel("stop requested");
  Parallel p(numbers(64), options);
  p.map([](const Value& v) { return v; });
  p.wait();
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.errorClass(), ErrorClass::Cancelled);
  EXPECT_NE(p.errorMessage().find("stop requested"), std::string::npos);
  EXPECT_THROW(p.data(), CancelledError);
  expectPoolUsable();
}

TEST(Chaos, FailFastSkipsUnstartedSiblings) {
  const uint64_t skippedBefore =
      substrateStats().tasksSkipped.load(std::memory_order_relaxed);
  std::atomic<int> ran{0};
  std::vector<TaskGroup::Task> tasks;
  tasks.push_back([](size_t) -> void { throw TypeError("poison task"); });
  for (int i = 0; i < 31; ++i) {
    tasks.push_back([&ran](size_t) { ran.fetch_add(1); });
  }
  // Drain on this thread only: task 0 throws, cancels the group, and the
  // 31 siblings are skipped at claim time, never run.
  TaskGroup group(std::move(tasks));
  group.wait();
  EXPECT_TRUE(group.done());
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(group.errorClass(), ErrorClass::Type);
  EXPECT_THROW(std::rethrow_exception(group.failure()), TypeError);
  EXPECT_GE(substrateStats().tasksSkipped.load(std::memory_order_relaxed),
            skippedBefore + 31);
}

TEST(Chaos, MapReduceConvergesUnderTaskThrow) {
  auto input = List::make();
  for (int i = 0; i < 300; ++i) input->add(Value(i % 13));
  mr::MapFn one = [](const Value&) { return Value(1); };
  mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  // Fault-free reference, computed before arming.
  auto reference = mr::run(input, one, count, {.sequential = true});
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      fault::ScopedFault armed(
          configFor(seed, fault::Point::TaskThrow, 1, 4));
      mr::Stats stats;
      // The pipeline owns its input: whatever the faults do (retries
      // succeed, or the substrate error escalates and the whole pipeline
      // reruns sequentially), the output must equal the reference.
      auto out = mr::run(input, one, count,
                         {.workers = 4, .maxRetries = 2}, &stats);
      EXPECT_EQ(out->display(), reference->display())
          << "degraded=" << stats.degraded;
    }
    expectPoolUsable();
  }
}

TEST(Chaos, TaskThrowAfterBatchedSliceRewritesPairValues) {
  // The mapper emits [item mod 3, 2 * item + 1]. The batch stands in for
  // the native tier's kernel: it rewrites the slice's pair-value slots in
  // place, so a retry that reused those slots would map a pair again
  // (and fail the job on the list) instead of re-copying the items.
  std::atomic<int> batchCalls{0};
  auto mapOne = [](const Value& v) {
    return Value(List::make({Value(std::fmod(v.asNumber(), 3.0)),
                             Value(2 * v.asNumber() + 1)}));
  };
  MapBatchFn batch = [&batchCalls, mapOne](Value* data, size_t count) {
    batchCalls.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < count; ++i) data[i] = mapOne(data[i]);
    return true;
  };
  mr::ReduceFn sum = [](const ListPtr& values) {
    double total = 0;
    for (const Value& v : values->items()) total += v.asNumber();
    return Value(total);
  };
  auto input = List::make();
  for (int i = 0; i < 1024; ++i) input->add(Value(i));
  const std::string reference =
      mr::run(input, mapOne, sum, {.sequential = true})->display();
  constexpr int kRounds = 8;
  constexpr int kSlices = 4;
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const uint64_t retriesBefore =
        substrateStats().retries.load(std::memory_order_relaxed);
    batchCalls = 0;
    {
      fault::ScopedFault armed(
          configFor(seed, fault::Point::TaskThrow, 1, 4));
      for (int round = 0; round < kRounds; ++round) {
        // Retries to spare, so the run converges through the stage
        // retries rather than the sequential rerun (which never batches).
        mr::Job job(input, mapOne, sum,
                    {.workers = kSlices, .maxRetries = 40, .mapBatch = batch});
        std::promise<void> settled;
        job.onComplete([&settled] { settled.set_value(); });
        settled.get_future().wait();
        ASSERT_FALSE(job.failed()) << job.errorMessage();
        EXPECT_FALSE(job.wasDegraded());
        EXPECT_EQ(job.result()->display(), reference);
      }
    }
    // Every batch call beyond one per slice per round is a retried slice.
    EXPECT_GT(batchCalls.load(), kRounds * kSlices);
    EXPECT_GT(substrateStats().retries.load(std::memory_order_relaxed),
              retriesBefore);
    expectPoolUsable();
  }
}

TEST(Chaos, TaskThrowAfterNumericColumnAndFoldRestartsExactly) {
  // Plain C++ entries stand in for the native tier's numeric ones: the
  // map entry writes each slice's doubles into its column, the reduce
  // entry folds all of a shard's runs. TaskThrow fires after each served
  // entry, so a retried slice or shard must call its entry again and
  // rebuild exactly what the failed attempt built.
  std::atomic<int> mapCalls{0};
  std::atomic<int> foldCalls{0};
  auto mapOne = [](const Value& v) { return Value(2 * v.asNumber() + 1); };
  mr::MapNumericFn column = [&mapCalls](const Value* items, size_t n,
                                        std::vector<double>& out) {
    mapCalls.fetch_add(1, std::memory_order_relaxed);
    out.resize(n);
    for (size_t i = 0; i < n; ++i) out[i] = 2 * items[i].asNumber() + 1;
    return true;
  };
  mr::ReduceFn sum = [](const ListPtr& values) {
    double total = 0;
    for (const Value& v : values->items()) total += v.asNumber();
    return Value(total);
  };
  mr::ReduceNumericFn fold = [&foldCalls](const double* values,
                                          const uint32_t* bounds, size_t runs,
                                          Value* out) {
    foldCalls.fetch_add(1, std::memory_order_relaxed);
    for (size_t r = 0; r < runs; ++r) {
      double total = 0;
      for (uint32_t k = bounds[r]; k < bounds[r + 1]; ++k) total += values[k];
      out[r] = Value(total);
    }
    return true;
  };
  auto input = List::make();
  for (int i = 0; i < 1024; ++i) input->add(Value(i % 97));
  const std::string reference =
      mr::run(input, mapOne, sum, {.sequential = true})->display();
  constexpr int kRounds = 8;
  constexpr int kSlices = 4;
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const uint64_t retriesBefore =
        substrateStats().retries.load(std::memory_order_relaxed);
    mapCalls = 0;
    foldCalls = 0;
    {
      fault::ScopedFault armed(
          configFor(seed, fault::Point::TaskThrow, 1, 4));
      for (int round = 0; round < kRounds; ++round) {
        mr::Job job(input, mapOne, sum,
                    {.workers = kSlices,
                     .maxRetries = 40,
                     .mapNumeric = column,
                     .reduceNumeric = fold});
        std::promise<void> settled;
        job.onComplete([&settled] { settled.set_value(); });
        settled.get_future().wait();
        ASSERT_FALSE(job.failed()) << job.errorMessage();
        EXPECT_FALSE(job.wasDegraded());
        EXPECT_EQ(job.result()->display(), reference);
      }
    }
    // Every entry call beyond one per slice (or shard) per round is a
    // retry after a served entry.
    EXPECT_GT(mapCalls.load(), kRounds * kSlices);
    EXPECT_GT(foldCalls.load(), kRounds * kSlices);
    EXPECT_GT(substrateStats().retries.load(std::memory_order_relaxed),
              retriesBefore);
    expectPoolUsable();
  }
}

TEST(Chaos, TaskThrowOverCodedInputRestartsExactly) {
  // A text list loaded from a snapshot is dictionary-coded (141 entries
  // against 512 pairs per slice), so each stage-1 slice classes its
  // pairs through the job's one table of dictionary classes, which the
  // first slice builds under a lock and every slice then only reads.
  // Plain C++ entries stand in for the native tier's (a column of ones,
  // a fold counting each run), and TaskThrow at 1/4 fires once per slice
  // after its column and once per shard after its fold. A retried slice
  // restarts after an earlier attempt classed and binned, and must
  // rewrite its class counts and bins exactly.
  auto twin = List::make();
  const char* words[] = {"the", "The", "cat", "1", "1.0", "-0", "0", "NaN",
                         "", "a fairly long word of text"};
  for (int i = 0; i < 2048; ++i) {
    twin->add(Value(i % 3 == 0 ? std::string(words[(i * 7) % 10])
                               : "w" + std::to_string(i % 131)));
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("psnap-chaos-coded-" + std::to_string(::getpid()) + ".psnap"))
          .string();
  persist::saveList(path, twin);
  const ListPtr coded = persist::loadList(path);
  std::filesystem::remove(path);
  ASSERT_FALSE(coded->coding().empty());

  std::atomic<int> mapCalls{0};
  mr::MapFn one = [](const Value&) { return Value(1); };
  mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  mr::MapNumericFn column = [&mapCalls](const Value*, size_t n,
                                        std::vector<double>& out) {
    mapCalls.fetch_add(1, std::memory_order_relaxed);
    out.assign(n, 1.0);
    return true;
  };
  mr::ReduceNumericFn fold = [](const double*, const uint32_t* bounds,
                                size_t runs, Value* out) {
    for (size_t r = 0; r < runs; ++r) {
      out[r] = Value(double(bounds[r + 1] - bounds[r]));
    }
    return true;
  };
  const std::string reference =
      mr::run(twin, one, count, {.sequential = true})->display();
  constexpr int kRounds = 8;
  constexpr int kSlices = 4;
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const uint64_t retriesBefore =
        substrateStats().retries.load(std::memory_order_relaxed);
    mapCalls = 0;
    {
      fault::ScopedFault armed(
          configFor(seed, fault::Point::TaskThrow, 1, 4));
      for (int round = 0; round < kRounds; ++round) {
        mr::Job job(coded, one, count,
                    {.workers = kSlices,
                     .maxRetries = 40,
                     .mapNumeric = column,
                     .reduceNumeric = fold});
        std::promise<void> settled;
        job.onComplete([&settled] { settled.set_value(); });
        settled.get_future().wait();
        ASSERT_FALSE(job.failed()) << job.errorMessage();
        EXPECT_FALSE(job.wasDegraded());
        EXPECT_EQ(job.result()->display(), reference);
      }
    }
    EXPECT_GT(mapCalls.load(), kRounds * kSlices);
    EXPECT_GT(substrateStats().retries.load(std::memory_order_relaxed),
              retriesBefore);
    expectPoolUsable();
  }
}

TEST(Chaos, MapReducePoolSaturationDegradesSequentially) {
  const uint64_t downgradesBefore =
      substrateStats().downgrades.load(std::memory_order_relaxed);
  auto input = List::make();
  for (int i = 0; i < 100; ++i) input->add(Value(i % 5));
  mr::MapFn one = [](const Value&) { return Value(1); };
  mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  auto reference = mr::run(input, one, count, {.sequential = true});
  {
    fault::ScopedFault armed(
        configFor(1, fault::Point::PoolSaturation, 1, 1));
    mr::Stats stats;
    auto out = mr::run(input, one, count, {.workers = 4}, &stats);
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(out->display(), reference->display());
    // The Job behind run() reports the inline drain through both views.
    mr::Job job(input, one, count, {.workers = 4});
    job.wait();
    ASSERT_FALSE(job.failed()) << job.errorMessage();
    EXPECT_TRUE(job.wasDegraded());
    EXPECT_TRUE(job.stats().degraded);
    EXPECT_EQ(job.result()->display(), reference->display());
  }
  EXPECT_GT(substrateStats().downgrades.load(std::memory_order_relaxed),
            downgradesBefore);
  expectPoolUsable();
}

/// Completion callbacks run on the settling worker *after* wait()
/// observes the settle, so give the dispatch a moment before asserting.
void awaitCallback(const std::atomic<int>& fired) {
  for (int i = 0; i < 20000 && fired.load(std::memory_order_acquire) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

TEST(Chaos, CompletionDropDelaysButNeverLosesTheWakeup) {
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      // Rate 1/1: every settle in the run (the group's and the facade's)
      // stalls between claiming the settle and dispatching callbacks. The
      // wakeup must arrive late, not never.
      fault::ScopedFault armed(
          configFor(seed, fault::Point::CompletionDrop, 1, 1));
      Parallel p(numbers(64), {.maxWorkers = 4});
      std::atomic<int> fired{0};
      p.map([](const Value& v) { return Value(v.asNumber() * 2); });
      p.onComplete([&fired] { fired.fetch_add(1); });
      p.wait();
      awaitCallback(fired);
      EXPECT_EQ(fired.load(), 1);
      ASSERT_FALSE(p.failed());
      const auto& data = p.data();
      ASSERT_EQ(data.size(), 64u);
      for (int i = 0; i < 64; ++i) {
        ASSERT_EQ(data[size_t(i)].asNumber(), 2 * (i + 1));
      }
    }
    expectPoolUsable();
  }
}

TEST(Chaos, CompletionDropRacesExternalCancel) {
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      fault::ScopedFault armed(
          configFor(seed, fault::Point::CompletionDrop, 1, 1));
      ParallelOptions options;
      options.maxWorkers = 4;
      options.cancel = CancelToken::create();
      Parallel p(numbers(256), options);
      std::atomic<int> fired{0};
      p.map([](const Value& v) { return Value(v.asNumber() + 1); });
      p.onComplete([&fired] { fired.fetch_add(1); });
      // Cancel from the controlling thread while the settle is (with rate
      // 1/1) stalled inside the drop window: whichever side wins, the
      // callback fires exactly once and the op converges typed or exact.
      options.cancel->cancel("raced cancel");
      p.wait();
      awaitCallback(fired);
      EXPECT_EQ(fired.load(), 1);
      if (p.failed()) {
        EXPECT_TRUE(isSubstrateClass(p.errorClass()));
        EXPECT_THROW(p.data(), Error);
      } else {
        const auto& data = p.data();
        ASSERT_EQ(data.size(), 256u);
        for (int i = 0; i < 256; ++i) {
          ASSERT_EQ(data[size_t(i)].asNumber(), i + 2);
        }
      }
    }
    expectPoolUsable();
  }
}

TEST(Chaos, CompletionDropRacesDeadlineExpiry) {
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      // Stalled workers push the run toward the deadline while every
      // settle is delayed in the drop window — completion, timeout, and
      // callback dispatch all race. Convergence: exact data or a typed
      // substrate-family failure, and exactly one callback either way.
      fault::Config config = configFor(seed, fault::Point::CompletionDrop,
                                       1, 1);
      config.pointMask |= fault::maskOf(fault::Point::WorkerStall);
      config.stallMicros = 300;
      fault::ScopedFault armed(config);
      ParallelOptions options;
      options.maxWorkers = 4;
      options.cancel = CancelToken::withDeadline(0.002);
      Parallel p(numbers(128), options);
      std::atomic<int> fired{0};
      p.map([](const Value& v) { return Value(v.asNumber() - 1); });
      p.onComplete([&fired] { fired.fetch_add(1); });
      p.wait();
      awaitCallback(fired);
      EXPECT_EQ(fired.load(), 1);
      if (p.failed()) {
        EXPECT_TRUE(isSubstrateClass(p.errorClass()));
      } else {
        const auto& data = p.data();
        ASSERT_EQ(data.size(), 128u);
        for (int i = 0; i < 128; ++i) {
          ASSERT_EQ(data[size_t(i)].asNumber(), i);
        }
      }
    }
    expectPoolUsable();
  }
}

TEST(Chaos, CompletionDropOnPipelineChainKeepsOutputExact) {
  auto input = List::make();
  for (int i = 0; i < 300; ++i) input->add(Value(i % 11));
  mr::MapFn one = [](const Value&) { return Value(1); };
  mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  auto reference = mr::run(input, one, count, {.sequential = true});
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      // The chained pipeline settles a latch per stage plus the job's
      // own; dropping half of those dispatch windows delays the
      // stage1→stage2→merge chaining without ever detaching it.
      fault::ScopedFault armed(
          configFor(seed, fault::Point::CompletionDrop, 1, 2));
      mr::Job job(input, one, count, {.workers = 4});
      std::atomic<int> fired{0};
      job.onComplete([&fired] { fired.fetch_add(1); });
      awaitCallback(fired);
      EXPECT_EQ(fired.load(), 1);
      job.wait();
      ASSERT_FALSE(job.failed()) << job.errorMessage();
      EXPECT_EQ(job.result()->display(), reference->display());
    }
    expectPoolUsable();
  }
}

TEST(Chaos, CompletionDropLateRegistrationFiresInline) {
  Parallel p(numbers(16), {.maxWorkers = 2});
  p.map([](const Value& v) { return v; });
  p.wait();
  ASSERT_TRUE(p.resolved());
  {
    // Registering on an already-settled op runs the callback on this
    // thread before onComplete returns — the drop point is not on that
    // path (nothing to race), so arming it must change nothing.
    fault::ScopedFault armed(
        configFor(1, fault::Point::CompletionDrop, 1, 1));
    std::atomic<int> fired{0};
    p.onComplete([&fired] { fired.fetch_add(1); });
    EXPECT_EQ(fired.load(), 1);
  }
  expectPoolUsable();
}

TEST(Chaos, MixedFaultStormLeavesPoolHealthy) {
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      fault::Config config;
      config.seed = seed;
      config.rateNumerator = 1;
      config.rateDenominator = 6;
      config.stallMicros = 100;
      config.pointMask = fault::maskOf(fault::Point::TaskThrow) |
                         fault::maskOf(fault::Point::WorkerStall) |
                         fault::maskOf(fault::Point::TransferFailure) |
                         fault::maskOf(fault::Point::PoolSaturation);
      fault::ScopedFault armed(config);
      for (int round = 0; round < 4; ++round) {
        try {
          Parallel p(numbers(64), {.maxWorkers = 4, .maxRetries = 2});
          p.map([](const Value& v) { return Value(v.asNumber() + 1); });
          p.wait();
          if (!p.failed()) {
            const auto& data = p.data();
            ASSERT_EQ(data.size(), 64u);
            for (int i = 0; i < 64; ++i) {
              ASSERT_EQ(data[size_t(i)].asNumber(), i + 2);
            }
          } else {
            EXPECT_TRUE(isSubstrateClass(p.errorClass()));
          }
        } catch (const SubstrateError&) {
          // Construction died at a transfer/saturation point — allowed.
        }
      }
    }
    expectPoolUsable();
  }
}

// --- The inline side of the grain model ------------------------------------
//
// An operation with a known cost below the crossover (grain.hpp) drains
// its TaskGroup on the launching thread. Two fault points cannot reach
// that side: PoolSaturation fires only inside a pool submit, and
// WorkerStall only in a pool worker's loop, and an inline operation does
// neither. The points it does reach — TaskThrow in every chunk and stage
// task, TransferFailure at clone-in and clone-out, CompletionDrop at the
// settle — and its deadline and cancellation paths are covered here.

/// A nominal known cost: any size in these tests drains inline.
constexpr double kTinyCostNs = 1e-9;

TEST(Chaos, InlineTaskThrowRetriesRestartExactly) {
  const uint64_t retriesBefore =
      substrateStats().retries.load(std::memory_order_relaxed);
  auto input = List::make();
  for (int i = 0; i < 600; ++i) input->add(Value(i % 7));
  mr::MapFn one = [](const Value&) { return Value(1); };
  mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  const std::string reference =
      mr::run(input, one, count, {.sequential = true})->display();
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fault::ScopedFault armed(configFor(seed, fault::Point::TaskThrow, 1, 4));
    for (Distribution distribution :
         {Distribution::Dynamic, Distribution::Contiguous,
          Distribution::BlockCyclic}) {
      Parallel p(numbers(256), {.maxWorkers = 4,
                                .distribution = distribution,
                                .chunkSize = 8,
                                .maxRetries = 8,
                                .itemCostNs = kTinyCostNs});
      p.map([](const Value& v) { return Value(v.asNumber() * 2); });
      ASSERT_TRUE(p.ranInline());
      // Settled before map() returned: nothing is left running.
      EXPECT_TRUE(p.resolved());
      if (p.failed()) {
        EXPECT_TRUE(isSubstrateClass(p.errorClass()));
        continue;
      }
      const auto& data = p.data();
      ASSERT_EQ(data.size(), 256u);
      for (int i = 0; i < 256; ++i) {
        ASSERT_EQ(data[size_t(i)].asNumber(), 2 * (i + 1));
      }
    }
    // The pipeline restarts a faulted stage task from scratch; retries
    // exhausted rerun it sequentially. Either way the output is exact.
    mr::Job job(input, one, count,
                {.workers = 4, .maxRetries = 8, .itemCostNs = kTinyCostNs});
    EXPECT_TRUE(job.ranInline());
    ASSERT_FALSE(job.failed()) << job.errorMessage();
    EXPECT_EQ(job.result()->display(), reference);
  }
  EXPECT_GT(substrateStats().retries.load(std::memory_order_relaxed),
            retriesBefore);
  expectPoolUsable();
}

TEST(Chaos, InlineDeadlineTripRaisesTimeout) {
  const uint64_t timeoutsBefore =
      substrateStats().timeouts.load(std::memory_order_relaxed);
  const auto slow = [](const Value& v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return v;
  };
  Parallel p(numbers(200), {.maxWorkers = 2,
                            .cancel = CancelToken::withDeadline(0.02),
                            .itemCostNs = kTinyCostNs});
  p.map(slow);
  ASSERT_TRUE(p.ranInline());
  p.wait();
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.errorClass(), ErrorClass::Timeout);
  EXPECT_THROW(p.data(), TimeoutError);
  EXPECT_GT(substrateStats().timeouts.load(std::memory_order_relaxed),
            timeoutsBefore);

  // The map checks the deadline every 512 items of a slice.
  auto input = List::make();
  for (int i = 0; i < 2000; ++i) input->add(Value(i % 5));
  const auto slower = [](const Value& v) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return v;
  };
  const uint64_t jobTimeoutsBefore =
      substrateStats().timeouts.load(std::memory_order_relaxed);
  mr::Job job(input, slower, mr::identityReduce(),
              {.workers = 2, .cancel = CancelToken::withDeadline(0.02),
               .itemCostNs = kTinyCostNs});
  EXPECT_TRUE(job.ranInline());
  ASSERT_TRUE(job.failed());
  EXPECT_EQ(job.errorClass(), ErrorClass::Timeout);
  EXPECT_EQ(substrateStats().timeouts.load(std::memory_order_relaxed),
            jobTimeoutsBefore + 1);
  EXPECT_THROW(std::rethrow_exception(job.error()), TimeoutError);
  // A blown deadline never earns the sequential rerun.
  EXPECT_FALSE(job.wasDegraded());
  expectPoolUsable();
}

TEST(Chaos, InlineOwnerCancelLeavesNothingRunning) {
  // The owner (a script's token) is cancelled while its operation drains
  // on the owner's own thread: the drain stops at the next chunk, and the
  // operation is settled — nothing of it is left on any thread — by the
  // time the launch returns.
  CancelTokenPtr owner = CancelToken::create();
  std::atomic<int> calls{0};
  Parallel p(numbers(256), {.maxWorkers = 4,
                            .chunkSize = 4,
                            .cancel = owner,
                            .itemCostNs = kTinyCostNs});
  p.map([&](const Value& v) {
    if (calls.fetch_add(1) == 10) owner->cancel("owner terminated");
    return v;
  });
  ASSERT_TRUE(p.ranInline());
  EXPECT_TRUE(p.resolved());
  const int ran = calls.load();
  EXPECT_LT(ran, 256);
  p.wait();
  EXPECT_EQ(p.errorClass(), ErrorClass::Cancelled);
  EXPECT_NE(p.errorMessage().find("owner terminated"), std::string::npos);
  EXPECT_EQ(calls.load(), ran);  // no straggler ran after the launch

  CancelTokenPtr jobOwner = CancelToken::create();
  std::atomic<int> mapped{0};
  auto input = List::make();
  for (int i = 0; i < 3000; ++i) input->add(Value(i % 9));
  mr::Job job(
      input,
      [&](const Value& v) {
        if (mapped.fetch_add(1) == 10) jobOwner->cancel("owner terminated");
        return v;
      },
      mr::identityReduce(),
      {.workers = 4, .cancel = jobOwner, .itemCostNs = kTinyCostNs});
  EXPECT_TRUE(job.ranInline());
  std::atomic<int> fired{0};
  job.onComplete([&fired] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 1);  // already settled on this thread
  EXPECT_EQ(job.errorClass(), ErrorClass::Cancelled);
  EXPECT_LT(mapped.load(), 3000);
  expectPoolUsable();
}

TEST(Chaos, InlineOperationsNeverMeetPoolSaturation) {
  // Every submit would be refused, but an inline operation submits
  // nothing: it neither degrades nor fails.
  const uint64_t downgradesBefore =
      substrateStats().downgrades.load(std::memory_order_relaxed);
  fault::ScopedFault armed(configFor(1, fault::Point::PoolSaturation, 1, 1));
  Parallel p(numbers(64), {.maxWorkers = 2,
                           .allowDegrade = false,
                           .itemCostNs = kTinyCostNs});
  p.map([](const Value& v) { return Value(v.asNumber() + 1); });
  EXPECT_TRUE(p.ranInline());
  EXPECT_FALSE(p.wasDegraded());
  ASSERT_EQ(p.data().size(), 64u);
  auto input = List::make();
  for (int i = 0; i < 400; ++i) input->add(Value(i % 3));
  mr::Job job(input, [](const Value&) { return Value(1); },
              mr::identityReduce(),
              {.workers = 4, .allowDegrade = false,
               .itemCostNs = kTinyCostNs});
  ASSERT_FALSE(job.failed()) << job.errorMessage();
  EXPECT_TRUE(job.ranInline());
  EXPECT_FALSE(job.wasDegraded());
  EXPECT_EQ(substrateStats().downgrades.load(std::memory_order_relaxed),
            downgradesBefore);
}

}  // namespace
}  // namespace psnap::workers
