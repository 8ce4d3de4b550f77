// Edge cases for the pooled Parallel substrate: degenerate inputs,
// option normalization, error propagation mid-chunk in every
// distribution, misuse (double launch), and a stress run of many tiny
// pooled ops submitted from several threads at once — the workload that
// exercises the pool's cross-worker stealing and parking paths.
#include "workers/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "support/error.hpp"
#include "workers/worker_pool.hpp"

namespace psnap::workers {
namespace {

using blocks::Value;

std::vector<Value> numbers(int n) {
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 1; i <= n; ++i) out.emplace_back(i);
  return out;
}

Value identity(const Value& v) { return v; }

// --- degenerate inputs ------------------------------------------------------

TEST(ParallelEdge, EmptyInputResolvesEveryDistribution) {
  for (Distribution d : {Distribution::Dynamic, Distribution::Contiguous,
                         Distribution::BlockCyclic}) {
    Parallel p(std::vector<Value>{}, {.maxWorkers = 4, .distribution = d});
    p.map(identity);
    EXPECT_TRUE(p.data().empty());
    EXPECT_TRUE(p.resolved());
    EXPECT_FALSE(p.failed());
    auto per = p.itemsPerWorker();
    ASSERT_EQ(per.size(), 4u);  // logical workers exist even with no items
    EXPECT_EQ(std::accumulate(per.begin(), per.end(), uint64_t{0}), 0u);
  }
}

TEST(ParallelEdge, ChunkSizeZeroNormalizesToOne) {
  Parallel p(numbers(7), {.maxWorkers = 2,
                          .distribution = Distribution::BlockCyclic,
                          .chunkSize = 0});
  p.map([](const Value& v) { return Value(v.asNumber() * 3); });
  const auto& data = p.data();
  ASSERT_EQ(data.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(data[size_t(i)].asNumber(), (i + 1) * 3);
  }
}

TEST(ParallelEdge, MoreWorkersThanItems) {
  // 16 logical workers, 3 items: every item processed exactly once, the
  // accounting still reports a slot per logical worker, and no slot
  // serves more than one chunk.
  for (Distribution d : {Distribution::Dynamic, Distribution::Contiguous,
                         Distribution::BlockCyclic}) {
    Parallel p(numbers(3), {.maxWorkers = 16, .distribution = d});
    p.map([](const Value& v) { return Value(v.asNumber() + 100); });
    const auto& data = p.data();
    ASSERT_EQ(data.size(), 3u);
    EXPECT_EQ(data[2].asNumber(), 103);
    auto per = p.itemsPerWorker();
    ASSERT_EQ(per.size(), 16u);
    EXPECT_EQ(std::accumulate(per.begin(), per.end(), uint64_t{0}), 3u);
    if (d == Distribution::Dynamic) {
      // Claim-based: a fast worker may take every chunk, so only the
      // conservation bound holds.
      EXPECT_LE(p.virtualMakespan(), 3u);
    } else {
      // Static assignment pins one item per logical worker.
      EXPECT_EQ(p.virtualMakespan(), 1u);
    }
  }
}

// --- error propagation ------------------------------------------------------

TEST(ParallelEdge, MidChunkThrowSurfacesInEveryDistribution) {
  for (Distribution d : {Distribution::Dynamic, Distribution::Contiguous,
                         Distribution::BlockCyclic}) {
    Parallel p(numbers(64),
               {.maxWorkers = 4, .distribution = d, .chunkSize = 8});
    p.map([](const Value& v) -> Value {
      if (v.asNumber() == 37) throw Error("item 37 is cursed");
      return v;
    });
    p.wait();
    EXPECT_TRUE(p.failed());
    EXPECT_NE(p.errorMessage().find("cursed"), std::string::npos);
    EXPECT_THROW(p.data(), Error);
  }
}

TEST(ParallelEdge, SecondMapThrows) {
  Parallel p(numbers(8), {.maxWorkers = 2});
  p.map(identity);
  EXPECT_THROW(p.map(identity), Error);
  p.wait();  // the first op still completes cleanly
  EXPECT_FALSE(p.failed());
  EXPECT_EQ(p.data().size(), 8u);
}

TEST(ParallelEdge, OnCompleteBeforeLaunchThrows) {
  // The group that owns completion exists only once map() runs.
  Parallel p(numbers(8), {.maxWorkers = 2});
  EXPECT_THROW(p.onComplete([] {}), Error);
  p.map(identity);
  int fired = 0;
  p.wait();
  p.onComplete([&fired] { ++fired; });
  EXPECT_EQ(fired, 1);
}

// --- stress: many tiny pooled ops from several threads ----------------------

TEST(ParallelEdge, ThousandTinyOpsFromFourThreads) {
  // Four client threads each launch 250 tiny maps on the shared pool.
  // Ops are small enough that submission, stealing, and parking churn
  // constantly; every op must still complete with the right result.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 250;
  std::atomic<uint64_t> total{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&total, &failures, t] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        const int n = 1 + (op % 7);
        Parallel p(numbers(n), {.maxWorkers = size_t(1 + (t + op) % 4)});
        p.map([](const Value& v) { return Value(v.asNumber() * 2); });
        double sum = 0;
        for (const Value& v : p.data()) sum += v.asNumber();
        if (sum != n * (n + 1.0)) {
          failures.fetch_add(1);
        }
        total.fetch_add(uint64_t(n));
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  // Sum over op sizes: per thread, 250 ops cycling n in 1..7.
  uint64_t expected = 0;
  for (int op = 0; op < kOpsPerThread; ++op) expected += uint64_t(1 + op % 7);
  EXPECT_EQ(total.load(), expected * kThreads);
  // The pool executed real jobs on its workers (not everything drained
  // on the callers): with four clients parked in wait(), workers get a
  // share. Weak assertion — scheduling-dependent — but jobsCompleted is
  // monotonic, so at minimum the counter moved during this binary's run.
  EXPECT_GT(WorkerPool::shared().jobsCompleted(), 0u);
}

}  // namespace
}  // namespace psnap::workers
