// Property sweep: for every (list size × worker count × distribution ×
// function), the parallelMap block reports exactly what the sequential
// map block reports — the fundamental correctness contract of the
// paper's contribution.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "blocks/builder.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "sched/thread_manager.hpp"
#include "support/rng.hpp"
#include "tests/properties/generators.hpp"
#include "workers/grain.hpp"
#include "workers/parallel.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::Value;

// ---------------------------------------------------------------------------
// Block-level equivalence over (size × workers).
// ---------------------------------------------------------------------------
class ParallelMapEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelMapEquivalence, MatchesSequentialMap) {
  const auto [size, workerCount] = GetParam();
  auto prims = fullPrimitiveTable();
  sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
  auto fn = ring(sum(product(empty(), empty()), 1));  // x*x + 1
  Value par = tm.evaluate(
      parallelMap(fn, numbersFromTo(1, size), In(double(workerCount))),
      Environment::make());
  sched::ThreadManager tm2(&BlockRegistry::standard(), &prims);
  Value seq = tm2.evaluate(mapOver(fn, numbersFromTo(1, size)),
                           Environment::make());
  EXPECT_TRUE(par.equals(seq))
      << "size=" << size << " workers=" << workerCount;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelMapEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 3, 17, 100, 1000),
                       ::testing::Values(1, 2, 3, 4, 8)));

// ---------------------------------------------------------------------------
// Facade-level equivalence over distribution strategies.
// ---------------------------------------------------------------------------
class DistributionEquivalence
    : public ::testing::TestWithParam<
          std::tuple<workers::Distribution, int, int>> {};

TEST_P(DistributionEquivalence, AllStrategiesProduceSameResult) {
  const auto [distribution, size, chunk] = GetParam();
  std::vector<Value> input;
  for (int i = 1; i <= size; ++i) input.emplace_back(double(i));
  workers::Parallel job(input, {.maxWorkers = 3,
                                .distribution = distribution,
                                .chunkSize = size_t(chunk)});
  job.map([](const Value& v) {
    return Value(v.asNumber() * 2 - 1);
  });
  const auto& out = job.data();
  ASSERT_EQ(out.size(), size_t(size));
  for (int i = 0; i < size; ++i) {
    EXPECT_EQ(out[size_t(i)].asNumber(), 2.0 * (i + 1) - 1) << i;
  }
  // Conservation: every item processed exactly once.
  uint64_t total = 0;
  for (uint64_t c : job.itemsPerWorker()) total += c;
  EXPECT_EQ(total, uint64_t(size));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributionEquivalence,
    ::testing::Combine(
        ::testing::Values(workers::Distribution::Dynamic,
                          workers::Distribution::Contiguous,
                          workers::Distribution::BlockCyclic),
        ::testing::Values(1, 7, 64, 257),
        ::testing::Values(1, 3, 16)));

// ---------------------------------------------------------------------------
// The grain model: an operation drained on the launching thread (a known
// cost below the crossover) against its pooled twin (unknown cost). Same
// bytes out; for the static distributions the same itemsPerWorker and
// virtual makespan (Dynamic's split depends on which thread claims
// first, on either side, so only its total is fixed).
// ---------------------------------------------------------------------------
class GrainEquivalence
    : public ::testing::TestWithParam<
          std::tuple<workers::Distribution, int, int, int>> {};

/// A nominal known cost: every size here drains inline.
constexpr double kTinyCostNs = 1e-9;

TEST_P(GrainEquivalence, InlineMatchesPooled) {
  const auto [distribution, size, chunk, width] = GetParam();
  std::vector<Value> input;
  for (int i = 1; i <= size; ++i) input.emplace_back(double(i));
  const auto run = [&](double itemCostNs) {
    auto job = std::make_unique<workers::Parallel>(
        input, workers::ParallelOptions{.maxWorkers = size_t(width),
                                        .distribution = distribution,
                                        .chunkSize = size_t(chunk),
                                        .itemCostNs = itemCostNs});
    job->map([](const Value& v) { return Value(v.asNumber() * 3 - 1); });
    job->wait();
    return job;
  };
  const auto pooled = run(0);
  const auto inlined = run(kTinyCostNs);
  EXPECT_FALSE(pooled->ranInline());
  EXPECT_TRUE(inlined->ranInline());
  EXPECT_EQ(Value(blocks::List::make(inlined->data())).display(),
            Value(blocks::List::make(pooled->data())).display());
  uint64_t total = 0;
  for (uint64_t c : inlined->itemsPerWorker()) total += c;
  EXPECT_EQ(total, uint64_t(size));
  if (distribution != workers::Distribution::Dynamic) {
    EXPECT_EQ(inlined->itemsPerWorker(), pooled->itemsPerWorker());
    EXPECT_EQ(inlined->virtualMakespan(), pooled->virtualMakespan());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GrainEquivalence,
    ::testing::Combine(
        ::testing::Values(workers::Distribution::Dynamic,
                          workers::Distribution::Contiguous,
                          workers::Distribution::BlockCyclic),
        ::testing::Values(1, 64, 1000), ::testing::Values(1, 16),
        ::testing::Values(2, 4)));

// Both sides of the threshold at the map's measured per-item cost: the
// largest list below the crossover drains inline, one item more is
// pooled, and both report what the unknown-cost pooled run reports.
TEST(GrainEquivalence, BothSidesOfTheThreshold) {
  for (size_t width : {2, 4}) {
    size_t below = 0;                // drains inline
    size_t above = size_t(1) << 30;  // does not
    while (above - below > 1) {
      const size_t mid = below + (above - below) / 2;
      (workers::drainsInline(mid, workers::kMapItemNs, width) ? below
                                                              : above) = mid;
    }
    for (size_t n : {below, above}) {
      std::vector<Value> input;
      for (size_t i = 0; i < n; ++i) input.emplace_back(double(i));
      const auto run = [&](double itemCostNs) {
        auto job = std::make_unique<workers::Parallel>(
            input, workers::ParallelOptions{
                       .maxWorkers = width,
                       .distribution = workers::Distribution::Contiguous,
                       .itemCostNs = itemCostNs});
        job->map([](const Value& v) { return Value(v.asNumber() + 0.5); });
        job->wait();
        return job;
      };
      const auto pooled = run(0);
      const auto known = run(workers::kMapItemNs);
      EXPECT_EQ(known->ranInline(), n == below) << "width " << width;
      EXPECT_EQ(Value(blocks::List::make(known->data())).display(),
                Value(blocks::List::make(pooled->data())).display());
      EXPECT_EQ(known->itemsPerWorker(), pooled->itemsPerWorker());
    }
  }
}

// ---------------------------------------------------------------------------
// Random pure rings: compiled worker function ≡ interpreter, across seeds.
// ---------------------------------------------------------------------------
class RandomRingEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RandomRingEquivalence, CompiledPureFnMatchesInterpreter) {
  Rng rng{uint64_t(GetParam())};
  auto prims = fullPrimitiveTable();
  for (int trial = 0; trial < 10; ++trial) {
    auto expr = testgen::randomArithmetic(rng, 3);
    auto reify = ring(In(expr));

    sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
    auto ringValue =
        tm.evaluate(reify, Environment::make()).asRing();
    auto compiled = compileUnary(ringValue);

    for (double x : {-3.0, 0.0, 1.0, 2.5, 10.0}) {
      sched::ThreadManager tm2(&BlockRegistry::standard(), &prims);
      Value viaInterpreter = tm2.evaluate(
          callRing(ring(In(expr)), {In(x)}), Environment::make());
      Value viaWorkerFn = compiled(Value(x));
      EXPECT_TRUE(viaWorkerFn.equals(viaInterpreter))
          << "seed=" << GetParam() << " trial=" << trial << " x=" << x
          << " expr=" << expr->display();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRingEquivalence,
                         ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// parallelForEach: sequential and parallel modes converge to the same
// final state for commutative bodies, across sizes and parallelism caps.
// ---------------------------------------------------------------------------
class ForEachEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ForEachEquivalence, ModesAgreeOnCommutativeBody) {
  const auto [size, parallelism] = GetParam();
  auto prims = fullPrimitiveTable();
  auto runMode = [&](In mode) {
    sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
    auto env = Environment::make();
    env->declare("total", Value(0));
    auto handle = tm.spawnScript(
        scriptOf({parallelForEach(
            "item", numbersFromTo(1, size), std::move(mode),
            scriptOf({changeVar("total", getVar("item"))}))}),
        env);
    tm.runUntilIdle();
    EXPECT_FALSE(handle.status->errored) << handle.status->error;
    return env->get("total").asNumber();
  };
  double seq = runMode(collapsed());
  double par = runMode(In(double(parallelism)));
  double expected = double(size) * (size + 1) / 2.0;
  EXPECT_EQ(seq, expected);
  EXPECT_EQ(par, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForEachEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 5, 12, 30),
                       ::testing::Values(1, 2, 3, 8)));

}  // namespace
}  // namespace psnap::core
