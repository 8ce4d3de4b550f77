// Native execution tier benchmark.
//
// Three claims are measured end to end:
//
//   * map throughput — the paper's Fig. 11 word-count mapper (ring(1.0))
//     and the Fig. 13 climate mapper ((5*(x-32))/9) over large arrays,
//     interpreted vs native-batch, with every output bit-compared;
//     acceptance is >= 10x on the word-count mapper with byte-identical
//     results.
//   * non-blocking promotion — with an asynchronous compile in flight,
//     the hot path keeps serving interpreter calls; the compile latency
//     (threshold crossing to install) is reported, along with the
//     slowest single call observed while the compiler ran — which must
//     stay far below the compile latency itself (the caller never waits
//     on gcc).
//   * end-to-end word count — the full mapReduce engine wired like the
//     mapReduce block (numeric map column, batch entry, shard fold), both
//     kernels Trusted, vs the interpreter-only tier, byte-identical output.
//
// Prints one table and exits non-zero unless every acceptance condition
// holds. Usage: bench_native [--quick]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "blocks/builder.hpp"
#include "codegen/toolchain.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "core/tiering.hpp"
#include "mapreduce/engine.hpp"
#include "native/marshal.hpp"
#include "native/tier.hpp"
#include "vm/process.hpp"

namespace {

using namespace psnap::build;
using psnap::blocks::BlockRegistry;
using psnap::blocks::Environment;
using psnap::blocks::EnvPtr;
using psnap::blocks::List;
using psnap::blocks::ListPtr;
using psnap::blocks::RingPtr;
using psnap::blocks::Value;
using psnap::codegen::KernelShape;
using psnap::core::TieredUnary;
using psnap::native::KernelState;
using psnap::native::RingKernel;
using psnap::native::TierConfig;
using psnap::native::TierManager;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

RingPtr makeRing(psnap::blocks::BlockPtr reify) {
  static psnap::vm::PrimitiveTable prims =
      psnap::vm::PrimitiveTable::standard();
  static psnap::vm::NullHost host;
  psnap::vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.startExpression(std::move(reify), Environment::make());
  return p.runToCompletion().asRing();
}

bool sameBits(const Value& a, const Value& b) {
  return psnap::native::byteIdentical(a, b);
}

/// Drive a tiered function to Trusted with a synchronous low threshold.
void heat(const TieredUnary& tiered, RingKernel* kernel) {
  for (int i = 0; i < 8 && kernel->currentState() != KernelState::Trusted;
       ++i) {
    tiered.fn(Value(double(i + 1)));
  }
}

struct MapResult {
  double interpSeconds = 0;
  double nativeSeconds = 0;
  double speedup = 0;
  bool byteIdentical = false;
  bool trusted = false;
};

/// Interpreted loop vs tiered batch over `n` items, `reps` repetitions
/// each, outputs bit-compared element by element.
MapResult measureMapper(psnap::blocks::BlockPtr reify, size_t n,
                        size_t reps) {
  MapResult r;
  RingPtr ring = makeRing(std::move(reify));
  psnap::core::PureFn reference = psnap::core::compileRing(ring);

  TierConfig cfg;
  cfg.hotThreshold = 4;
  cfg.synchronousCompile = true;
  TieredUnary tiered = psnap::core::tieredUnary(ring, cfg);
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);
  heat(tiered, kernel);
  r.trusted = kernel->currentState() == KernelState::Trusted;
  if (!r.trusted) return r;

  std::vector<Value> input;
  input.reserve(n);
  for (size_t i = 0; i < n; ++i) input.emplace_back(double(i) + 0.5);

  // Correctness first (untimed): one native batch over a fresh copy,
  // bit-compared element-wise against the interpreter.
  std::vector<Value> interpOut(input);
  for (size_t i = 0; i < n; ++i) interpOut[i] = reference({input[i]});
  std::vector<Value> nativeOut = input;
  if (!tiered.batch(nativeOut.data(), nativeOut.size())) return r;
  r.byteIdentical = true;
  for (size_t i = 0; i < n; ++i) {
    r.byteIdentical = r.byteIdentical && sameBits(interpOut[i], nativeOut[i]);
  }

  // Throughput: in-place transform of the data array, exactly what the
  // Parallel facade's map does with each chunk. (Re-transforming already
  // transformed values is the same per-element work — the mappers here
  // are closed over finite doubles.)
  std::vector<Value> buffer = input;
  const auto interpStart = Clock::now();
  for (size_t rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < n; ++i) buffer[i] = reference({buffer[i]});
  }
  r.interpSeconds = secondsSince(interpStart) / double(reps);

  buffer = input;
  const auto nativeStart = Clock::now();
  for (size_t rep = 0; rep < reps; ++rep) {
    if (!tiered.batch(buffer.data(), buffer.size())) return r;
  }
  r.nativeSeconds = secondsSince(nativeStart) / double(reps);
  r.speedup = r.nativeSeconds > 0 ? r.interpSeconds / r.nativeSeconds : 0;
  return r;
}

MapResult benchMapper(const char* label, psnap::blocks::BlockPtr reify,
                      size_t n, size_t reps) {
  const MapResult r = measureMapper(std::move(reify), n, reps);
  std::printf(
      "#   %s mapper  %zu items: interp %.1fms  native %.2fms  (%.1fx, %s)\n",
      label, n, r.interpSeconds * 1e3, r.nativeSeconds * 1e3, r.speedup,
      r.byteIdentical ? "byte-identical" : "MISMATCH");
  return r;
}

const char* kWords[] = {
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
    "oscar", "papa", "quebec", "romeo", "sierra", "tango", "uniform",
    "victor", "whiskey", "xray", "yankee", "zulu"};

ListPtr wordList(size_t n) {
  auto list = List::make();
  for (size_t i = 0; i < n; ++i) {
    list->add(Value(std::string(kWords[(i * 7) % 26])));
  }
  return list;
}

}  // namespace

int main(int argc, char** argv) {
  size_t mapItems = 200'000;
  size_t mapReps = 20;
  size_t words = 60'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      mapItems = 40'000;
      mapReps = 5;
      words = 15'000;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  if (!psnap::codegen::Toolchain::compilerAvailable()) {
    std::printf("# bench_native: no C compiler on PATH; skipping\n");
    return 0;
  }

  std::printf("# bench_native — hot rings compiled to C and swapped in\n");

  // --- Fig. 11 word-count mapper: item -> 1 ------------------------------
  const MapResult wordcountMap =
      benchMapper("fig11", ring(In(1.0)), mapItems, mapReps);

  // --- Fig. 13 climate mapper: (5 * (x - 32)) / 9 ------------------------
  const MapResult climateMap = benchMapper(
      "fig13", ring(quotient(product(5.0, difference(empty(), 32.0)), 9.0)),
      mapItems, mapReps);

  // --- non-blocking promotion: async compile vs the hot path -------------
  double compileSeconds = 0;
  double slowestHotCallMs = 0;
  bool asyncInstalled = false;
  {
    RingPtr hotRing = makeRing(
        ring(sum(product(empty(), 1.00048828125), 0.5)));
    TierConfig cfg;
    cfg.hotThreshold = 256;
    cfg.synchronousCompile = false;
    TieredUnary tiered = psnap::core::tieredUnary(hotRing, cfg);
    RingKernel* kernel =
        TierManager::instance().lookup(*hotRing, KernelShape::Unary);
    Clock::time_point crossing{};
    int i = 0;
    for (; i < 2'000'000; ++i) {
      const auto callStart = Clock::now();
      tiered.fn(Value(double(i)));
      const KernelState state = kernel->currentState();
      if (state == KernelState::Compiling && crossing == Clock::time_point{}) {
        crossing = callStart;
      }
      if (crossing != Clock::time_point{}) {
        // A call issued while gcc runs: it must return at interpreter
        // speed, never wait on the compiler.
        slowestHotCallMs =
            std::max(slowestHotCallMs, secondsSince(callStart) * 1e3);
      }
      if (state == KernelState::Ready || state == KernelState::Trusted) {
        compileSeconds = secondsSince(crossing);
        asyncInstalled = true;
        break;
      }
    }
    TierManager::instance().waitForCompile(kernel);
  }
  std::printf(
      "#   async compile: %.0fms threshold-to-install; slowest hot-path "
      "call while compiling %.3fms (%s)\n",
      compileSeconds * 1e3, slowestHotCallMs,
      asyncInstalled ? "installed" : "NEVER INSTALLED");

  // --- end-to-end word count through the mapReduce engine ----------------
  auto input = wordList(words);
  RingPtr mapRing = makeRing(ring(In(1.0)));
  RingPtr reduceRing = makeRing(ring(lengthOf(empty())));
  std::string interpDisplay, tieredDisplay;
  double e2eInterpSeconds = 0, e2eTieredSeconds = 0;
  {
    TierConfig off;
    off.enabled = false;
    TieredUnary mapper = psnap::core::tieredUnary(mapRing, off);
    auto reducer = psnap::core::tieredListReduce(reduceRing, off);
    psnap::mr::MapFn mapFn = mapper.fn;
    const auto start = Clock::now();
    auto out = psnap::mr::run(input, mapFn, reducer, {.workers = 4});
    e2eInterpSeconds = secondsSince(start);
    interpDisplay = out->display();
  }
  bool e2eTrusted = false;
  {
    TierConfig cfg;
    cfg.hotThreshold = 4;
    cfg.synchronousCompile = true;  // steady-state: kernels ready up front
    TieredUnary mapper = psnap::core::tieredUnary(mapRing, cfg);
    RingKernel* kernel =
        TierManager::instance().lookup(*mapRing, KernelShape::Unary);
    heat(mapper, kernel);
    psnap::core::TieredReduce reducer =
        psnap::core::tieredReduce(reduceRing, cfg);
    RingKernel* fold =
        TierManager::instance().lookup(*reduceRing, KernelShape::Fold);
    for (int i = 0; i < 8 && fold->currentState() != KernelState::Trusted;
         ++i) {
      reducer.fn(List::make({Value(1.0)}));
    }
    e2eTrusted = kernel->currentState() == KernelState::Trusted &&
                 fold->currentState() == KernelState::Trusted;
    // The mapReduce block's wiring: the map's numeric column and batch
    // entries, and the reduce's shard fold.
    psnap::mr::Options options{.workers = 4};
    options.mapBatch = mapper.batch;
    options.mapNumeric = mapper.numeric;
    options.reduceNumeric = reducer.numeric;
    const auto start = Clock::now();
    auto out = psnap::mr::run(input, mapper.fn, reducer.fn, options);
    e2eTieredSeconds = secondsSince(start);
    tieredDisplay = out->display();
  }
  const bool e2eIdentical =
      !interpDisplay.empty() && interpDisplay == tieredDisplay;
  const double e2eSpeedup =
      e2eTieredSeconds > 0 ? e2eInterpSeconds / e2eTieredSeconds : 0;
  std::printf(
      "#   wordcount end-to-end %zu words: interp %.1fms  tiered %.1fms  "
      "(%.2fx, %s%s)\n",
      words, e2eInterpSeconds * 1e3, e2eTieredSeconds * 1e3, e2eSpeedup,
      e2eIdentical ? "byte-identical" : "MISMATCH",
      e2eTrusted ? "" : ", KERNELS NOT TRUSTED");

  const psnap::native::TierStats tierStats = TierManager::instance().stats();
  std::printf(
      "#   tier: %llu kernels, %llu compiles, %llu installs, %llu "
      "promotions, %llu downgrades, %llu native items; toolchain cache "
      "hits %llu\n",
      (unsigned long long)tierStats.kernels,
      (unsigned long long)tierStats.compiles,
      (unsigned long long)tierStats.installs,
      (unsigned long long)tierStats.promotions,
      (unsigned long long)tierStats.downgrades,
      (unsigned long long)tierStats.nativeItems,
      (unsigned long long)psnap::codegen::Toolchain::cacheHits());

  const bool pass = wordcountMap.byteIdentical && climateMap.byteIdentical &&
                    wordcountMap.speedup >= 10.0 && asyncInstalled &&
                    e2eIdentical && e2eTrusted &&
                    slowestHotCallMs < compileSeconds * 1e3;
  std::printf("#   acceptance: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
