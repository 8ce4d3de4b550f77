// Value-plane benchmark: the copy-on-write value representation. Rates
// are items_per_second (one clone, comparison or op per iteration):
//
//   * clone/flat_numbers/n:<k>  — structuredClone of a flat numeric list
//                                 (O(1) buffer share).
//   * clone/flat_text/n:<k>     — same, list of 64-byte texts (shared
//                                 immutable TextRep).
//   * clone/nested_pairs/n:<k>  — list of [text, number] pairs: the spine
//                                 is rebuilt, leaf buffers/texts shared.
//   * entry/parallel_text/n:<k> — a full Parallel constructor (clone-in):
//                                 the worker-boundary cost the paper's
//                                 Listing 1 pays before map() starts.
//   * equals/num_text           — numeric-text equality (parsed once,
//                                 cached).
//   * equals/longtext_ci        — case-insensitive text equality.
//   * asNumber/longtext         — repeated coercion of one long text value
//                                 (cached parse on the shared rep).
//
// The equals/asNumber rows also report `allocs_per_rep`, heap allocations
// per iteration from a global operator-new counter (single-threaded rows
// only; the COW plane's hot comparisons must not allocate).
//
// Usage: bench_value_plane [google-benchmark flags], e.g.
//   --benchmark_out=FILE --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "blocks/value.hpp"
#include "support/rng.hpp"
#include "workers/parallel.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every scalar/array operator new in the binary bumps
// one relaxed atomic. The array and sized-delete forms default to these.
// ---------------------------------------------------------------------------
namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
// The replaced operator new is malloc-backed, so free() is the matching
// release; gcc pairs inlined deletes with the builtin new and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using psnap::Rng;
using psnap::blocks::List;
using psnap::blocks::ListPtr;
using psnap::blocks::Value;

ListPtr flatNumbers(size_t n) {
  auto list = List::make();
  list->reserve(n);
  for (size_t i = 0; i < n; ++i) list->add(Value(double(i)));
  return list;
}

ListPtr flatTexts(size_t n) {
  Rng rng(99);
  auto list = List::make();
  list->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string text(64, 'x');
    for (char& c : text) c = char('a' + rng.below(26));
    list->add(Value(std::move(text)));
  }
  return list;
}

ListPtr nestedPairs(size_t n) {
  auto list = List::make();
  list->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    list->add(Value(List::make(
        {Value("key-with-some-padding-" + std::to_string(i % 1024)),
         Value(double(i))})));
  }
  return list;
}

template <ListPtr (*Make)(size_t)>
void BM_Clone(benchmark::State& state) {
  const Value source(Make(size_t(state.range(0))));
  for (auto _ : state) {
    Value clone = source.structuredClone();
    benchmark::DoNotOptimize(clone);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Clone<flatNumbers>)
    ->Name("clone/flat_numbers")
    ->ArgName("n")
    ->Arg(1'000'000);
BENCHMARK(BM_Clone<flatTexts>)
    ->Name("clone/flat_text")
    ->ArgName("n")
    ->Arg(100'000);
BENCHMARK(BM_Clone<nestedPairs>)
    ->Name("clone/nested_pairs")
    ->ArgName("n")
    ->Arg(100'000);

void BM_ParallelEntry(benchmark::State& state) {
  const ListPtr list = flatTexts(size_t(state.range(0)));
  psnap::workers::ParallelOptions options;
  options.maxWorkers = 4;
  for (auto _ : state) {
    psnap::workers::Parallel p(list, options);
    benchmark::DoNotOptimize(p.workerCount());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelEntry)
    ->Name("entry/parallel_text")
    ->ArgName("n")
    ->Arg(100'000)
    ->UseRealTime();

/// Time `op` per iteration and report its heap allocations per iteration.
template <typename F>
void countingAllocs(benchmark::State& state, F op) {
  op();  // warm-up: the first call fills the lazy caches
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) benchmark::DoNotOptimize(op());
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_rep"] = benchmark::Counter(
      double(after - before), benchmark::Counter::kAvgIterations);
}

void BM_EqualsNumText(benchmark::State& state) {
  const Value text("3.14159");
  const Value number(3.14159);
  countingAllocs(state, [&] { return text.equals(number); });
}
BENCHMARK(BM_EqualsNumText)->Name("equals/num_text");

void BM_EqualsLongTextCi(benchmark::State& state) {
  const std::string base(100, 'q');
  const Value a(base + "SUFFIXCASE");
  const Value b(base + "suffixCASE");
  countingAllocs(state, [&] { return a.equals(b); });
}
BENCHMARK(BM_EqualsLongTextCi)->Name("equals/longtext_ci");

void BM_AsNumberLongText(benchmark::State& state) {
  // > 15 bytes so it lives in a shared TextRep with a cached parse.
  const Value v("        31415.926535897932        ");
  countingAllocs(state, [&] { return v.asNumber(); });
}
BENCHMARK(BM_AsNumberLongText)->Name("asNumber/longtext");

}  // namespace

BENCHMARK_MAIN();
