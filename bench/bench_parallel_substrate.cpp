// Parallel-substrate benchmark: per-operation cost and throughput of the
// pooled executor. Three workloads, wall-clock timed (the work runs on
// pool threads), rates in items_per_second:
//
//   * oplaunch/n:<k>      — ops/s for a complete Parallel::map round trip
//                           (construct, map, wait) on tiny inputs: pure
//                           per-operation overhead (pooled task submission).
//   * mapthroughput/n:<k> — items/s for one Parallel::map at n = 10'000.
//   * wordcount/n:<k>     — words/s for an end-to-end mapReduce word count
//                           (map, sharded shuffle, reduce) on a Zipf corpus.
//   * mapreduce_distinct/snapshot:<0|1>/n:<k> — keys/s for the same count
//                           over mostly distinct keys (9 in 10 keys appear
//                           once), built in memory (snapshot:0) or loaded
//                           from a dataset snapshot, and so dictionary-
//                           coded (snapshot:1).
//   * grain_mapreduce/inline:<0|1>/w:<w>/n:<k>, grain_map/… — the grain
//                           model's sweep: one operation timed both ways,
//                           drained on the calling thread (inline:1) and
//                           pooled (inline:0), at widths 2 and 4 and sizes
//                           on both sides of the crossover. mapReduce
//                           counts 8-key text (classroom's vocabulary) with
//                           a plain C++ map and reduce; map doubles
//                           numbers. Time is wall clock, CPU is the whole
//                           process's. The caller waits on the completion
//                           without claiming tasks, as a parked block does.
//                           DESIGN.md derives workers/grain.hpp's constants
//                           from these rows.
//
// Usage: bench_parallel_substrate [google-benchmark flags], e.g.
//   --benchmark_out=FILE --benchmark_out_format=json
// (the JSON records the host: CPUs, MHz, caches, build type, date).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include "blocks/value.hpp"
#include "data/corpus.hpp"
#include "mapreduce/engine.hpp"
#include "persist/snapshot.hpp"
#include "support/completion.hpp"
#include "workers/parallel.hpp"

namespace {

using psnap::blocks::List;
using psnap::blocks::ListPtr;
using psnap::blocks::Value;

std::vector<Value> numbers(size_t n) {
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 1; i <= n; ++i) out.emplace_back(double(i));
  return out;
}

Value doubleIt(const Value& v) { return Value(v.asNumber() * 2); }

void mapOnce(const std::vector<Value>& input) {
  psnap::workers::ParallelOptions options;
  options.maxWorkers = 4;
  psnap::workers::Parallel p(input, options);
  p.map(doubleIt);
  p.wait();
}

void BM_OpLaunch(benchmark::State& state) {
  const std::vector<Value> input = numbers(size_t(state.range(0)));
  for (auto _ : state) mapOnce(input);
  state.SetItemsProcessed(state.iterations());  // one op per iteration
}
BENCHMARK(BM_OpLaunch)
    ->Name("oplaunch")
    ->ArgName("n")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->UseRealTime();

void BM_MapThroughput(benchmark::State& state) {
  const std::vector<Value> input = numbers(size_t(state.range(0)));
  for (auto _ : state) mapOnce(input);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MapThroughput)
    ->Name("mapthroughput")
    ->ArgName("n")
    ->Arg(10'000)
    ->UseRealTime();

void BM_WordCount(benchmark::State& state) {
  const size_t words = size_t(state.range(0));
  auto list = List::make();
  for (const std::string& w : psnap::data::tokenize(
           psnap::data::generateText(words, 200, /*seed=*/7))) {
    list->add(Value(w));
  }
  psnap::mr::MapFn one = [](const Value&) { return Value(1); };
  psnap::mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  psnap::mr::Options options;
  options.workers = 4;
  for (auto _ : state) {
    auto result = psnap::mr::run(list, one, count, options);
    if (result->empty()) std::abort();  // keep it honest
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WordCount)
    ->Name("wordcount")
    ->ArgName("n")
    ->Arg(20'000)
    ->UseRealTime();

void BM_MapReduceDistinct(benchmark::State& state) {
  const size_t n = size_t(state.range(1));
  // A permutation of [0, n) folded onto 9n/10 keys: each of the first n/10
  // keys appears twice, every other key once.
  auto list = List::make();
  for (size_t i = 0; i < n; ++i) {
    list->add(Value("key" + std::to_string((i * 7919) % n % (n - n / 10))));
  }
  if (state.range(0)) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("psnap-bench-distinct-" + std::to_string(::getpid()) + ".psnap"))
            .string();
    psnap::persist::saveList(path, list);
    list = psnap::persist::loadList(path);
    std::filesystem::remove(path);  // the mapping keeps the inode
  }
  psnap::mr::MapFn one = [](const Value&) { return Value(1); };
  psnap::mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  psnap::mr::Options options;
  options.workers = 4;
  for (auto _ : state) {
    auto result = psnap::mr::run(list, one, count, options);
    if (result->empty()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_MapReduceDistinct)
    ->Name("mapreduce_distinct")
    ->ArgNames({"snapshot", "n"})
    ->Args({0, 20'000})
    ->Args({1, 20'000})
    ->UseRealTime();

/// A nominal known per-item cost: every size below falls under the grain
/// crossover, so the operation drains on the caller. 0 (unknown) keeps
/// it pooled.
double grainCost(int64_t drained) { return drained ? 1e-9 : 0; }

void grainArgs(benchmark::internal::Benchmark* b,
               std::initializer_list<int64_t> sizes) {
  b->ArgNames({"inline", "w", "n"});
  for (int64_t width : {2, 4}) {
    for (int64_t n : sizes) {
      for (int64_t drained : {0, 1}) b->Args({drained, width, n});
    }
  }
  b->UseRealTime()->MeasureProcessCPUTime();
}

void BM_GrainMapReduce(benchmark::State& state) {
  const size_t n = size_t(state.range(2));
  auto list = List::make();
  for (const std::string& w : psnap::data::tokenize(
           psnap::data::generateText(n, 8, /*seed=*/13))) {
    list->add(Value(w));
  }
  psnap::mr::MapFn one = [](const Value&) { return Value(1); };
  psnap::mr::ReduceFn count = [](const ListPtr& values) {
    return Value(values->length());
  };
  psnap::mr::Options options;
  options.workers = size_t(state.range(1));
  options.itemCostNs = grainCost(state.range(0));
  for (auto _ : state) {
    auto result = psnap::mr::run(list, one, count, options);
    if (result->empty()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
}
BENCHMARK(BM_GrainMapReduce)
    ->Name("grain_mapreduce")
    ->Apply([](benchmark::internal::Benchmark* b) {
      grainArgs(b, {250, 1000, 2000, 4000, 6000, 8000, 12000, 16000, 24000,
                    32000, 48000, 64000, 100000});
    });

void BM_GrainMap(benchmark::State& state) {
  const std::vector<Value> input = numbers(size_t(state.range(2)));
  psnap::workers::ParallelOptions options;
  options.maxWorkers = size_t(state.range(1));
  options.itemCostNs = grainCost(state.range(0));
  for (auto _ : state) {
    psnap::workers::Parallel p(input, options);
    psnap::CompletionLatch done;
    p.map(doubleIt);
    p.onComplete([&done] { done.settle(); });
    done.wait();
    if (p.failed()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
}
BENCHMARK(BM_GrainMap)
    ->Name("grain_map")
    ->Apply([](benchmark::internal::Benchmark* b) {
      grainArgs(b, {120, 500, 2000, 8000, 32000, 128000});
    });

}  // namespace

BENCHMARK_MAIN();
