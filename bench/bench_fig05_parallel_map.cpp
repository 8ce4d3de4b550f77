// E2 — paper Fig. 5/6: the parallelMap block.
//
// Reproduction: parallel map ((  ) × 10) over 1..1000 reports 10,20,…
// (Fig. 6's input/output columns), with the worker-count slot honoured
// and defaulting to 4.
//
// Measurement: the *virtual makespan* (max items processed by any one
// worker, unit cost per item) carries the paper's speedup shape whatever
// the host's core count: makespan ≈ ceil(n / workers). Wall-clock time
// depends on the host's cores and load; the makespan does not.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "blocks/builder.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "sched/thread_manager.hpp"
#include "workers/parallel.hpp"

namespace {

using namespace psnap;
using namespace psnap::build;

const vm::PrimitiveTable& prims() {
  static const vm::PrimitiveTable table = core::fullPrimitiveTable();
  return table;
}

void printReproduction() {
  std::printf("# E2 / Fig. 5-6 — parallelMap block\n");
  sched::ThreadManager tm(&blocks::BlockRegistry::standard(), &prims());
  blocks::Value v = tm.evaluate(
      parallelMap(ring(product(empty(), 10)), numbersFromTo(1, 1000)),
      blocks::Environment::make());
  std::printf("#   input 1..10   -> 1 2 3 4 5 6 7 8 9 10\n#   output 1..10 ->");
  for (size_t i = 1; i <= 10; ++i) {
    std::printf(" %s", v.asList()->item(i).display().c_str());
  }
  std::printf("   (paper Fig. 6: 10 20 ... 100)\n");

  // Worker sweep in virtual makespan (n = 1000 unit-cost items).
  std::printf("#\n#   workers  virtual-makespan  ideal ceil(n/w)  speedup\n");
  auto fn = core::compileUnary(
      tm.evaluate(ring(product(empty(), 10)), blocks::Environment::make())
          .asRing());
  std::vector<blocks::Value> input;
  for (int i = 1; i <= 1000; ++i) input.emplace_back(i);
  uint64_t serial = 0;
  for (size_t w : {1u, 2u, 4u, 8u, 16u}) {
    workers::Parallel job(input,
                          {.maxWorkers = w,
                           .distribution = workers::Distribution::Contiguous});
    job.map(fn);
    job.wait();
    uint64_t makespan = job.virtualMakespan();
    if (w == 1) serial = makespan;
    std::printf("#   %7zu  %16llu  %15zu  %6.2fx\n", w,
                (unsigned long long)makespan, (1000 + w - 1) / w,
                double(serial) / double(makespan));
  }
  std::printf("\n");
}

/// Full block-level parallelMap through the scheduler (includes compile,
/// ship, poll).
void BM_ParallelMapBlock(benchmark::State& state) {
  const auto n = state.range(0);
  const auto workerCount = state.range(1);
  for (auto _ : state) {
    sched::ThreadManager tm(&blocks::BlockRegistry::standard(), &prims());
    blocks::Value v = tm.evaluate(
        parallelMap(ring(product(empty(), 10)), numbersFromTo(1, n),
                    In(double(workerCount))),
        blocks::Environment::make());
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["workers"] = double(workerCount);
}
BENCHMARK(BM_ParallelMapBlock)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 4})
    ->Args({10000, 4});

/// The raw Parallel.js-analog facade (no interpreter in the loop).
void BM_ParallelFacade(benchmark::State& state) {
  const auto n = state.range(0);
  const auto workerCount = state.range(1);
  std::vector<blocks::Value> input;
  for (int64_t i = 1; i <= n; ++i) input.emplace_back(double(i));
  for (auto _ : state) {
    workers::Parallel job(input, {.maxWorkers = size_t(workerCount)});
    job.map([](const blocks::Value& v) {
      return blocks::Value(v.asNumber() * 10);
    });
    job.wait();
    benchmark::DoNotOptimize(job.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["workers"] = double(workerCount);
}
BENCHMARK(BM_ParallelFacade)->Args({10000, 1})->Args({10000, 4});

/// Sequential map block at the same sizes: the Fig. 4 baseline for the
/// crossover comparison.
void BM_SequentialBaseline(benchmark::State& state) {
  const auto n = state.range(0);
  for (auto _ : state) {
    sched::ThreadManager tm(&blocks::BlockRegistry::standard(), &prims());
    blocks::Value v = tm.evaluate(
        mapOver(ring(product(empty(), 10)), numbersFromTo(1, n)),
        blocks::Environment::make());
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SequentialBaseline)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  printReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
