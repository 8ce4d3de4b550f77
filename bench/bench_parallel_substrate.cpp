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
//
// Usage: bench_parallel_substrate [google-benchmark flags], e.g.
//   --benchmark_out=FILE --benchmark_out_format=json
// (the JSON records the host: CPUs, MHz, caches, build type, date).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "blocks/value.hpp"
#include "data/corpus.hpp"
#include "mapreduce/engine.hpp"
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

}  // namespace

BENCHMARK_MAIN();
