// Dispatch microbenchmark: how fast can one Process step blocks, and how
// fast can the worker-side pure evaluator walk a ring body?
//
// The interned-opcode layer (blocks/opcodes.hpp) dispatches both by dense
// integer indexing:
//
//   * BM_Vm*ById   — Process::runSlice with the default id dispatch
//   * BM_PureEval* — compileRing'd bodies through the pure evaluator
//
// Counters are blocks/sec (items_per_second), the number the EXPERIMENTS
// table records. The workloads are warped tight loops so the scheduler
// never interleaves: pure dispatch cost, nothing else.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "blocks/builder.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "vm/process.hpp"

namespace {

using namespace psnap;
using namespace psnap::build;
using blocks::Environment;
using blocks::Value;

const vm::PrimitiveTable& prims() {
  static const vm::PrimitiveTable table = core::fullPrimitiveTable();
  return table;
}

// -------------------------------------------------------------------------
// VM dispatch: a warped arithmetic loop.
//
//   warp { repeat N { set acc to ((acc + 1) * 1) } }
//
// Each iteration dispatches doRepeat, doSetVar, reportProduct, reportSum,
// reportGetVar = 5 block dispatches (plus literal slot evaluations).
// -------------------------------------------------------------------------

constexpr int64_t kBlocksPerArithIteration = 5;

blocks::ScriptPtr arithLoop(int64_t n) {
  return scriptOf({warp(scriptOf({repeat(
      double(n),
      scriptOf({setVar("acc", product(sum(getVar("acc"), 1), 1))}))}))});
}

// repeat N { add (item ((k mod 8) + 1) of lst) to out }  — list blocks.
constexpr int64_t kBlocksPerListIteration = 8;

blocks::ScriptPtr listLoop(int64_t n) {
  return scriptOf({warp(scriptOf({repeat(
      double(n),
      scriptOf({
          changeVar("k", 1),
          addToList(itemOf(sum(modulus(getVar("k"), 8), 1), getVar("lst")),
                    getVar("out")),
      }))}))});
}

blocks::EnvPtr freshEnv(bool withLists) {
  blocks::EnvPtr env = Environment::make();
  env->declare("acc", Value(0.0));
  if (withLists) {
    env->declare("k", Value(0.0));
    auto lst = blocks::List::make();
    for (int i = 1; i <= 8; ++i) lst->add(Value(double(i)));
    env->declare("lst", Value(lst));
    env->declare("out", Value(blocks::List::make()));
  }
  return env;
}

void runVmLoop(benchmark::State& state, const blocks::ScriptPtr& script,
               bool withLists, int64_t blocksPerIteration) {
  const int64_t n = state.range(0);
  for (auto _ : state) {
    vm::NullHost host;
    vm::Process proc(&blocks::BlockRegistry::standard(), &prims(), &host);
    proc.startScript(script, freshEnv(withLists));
    proc.runToCompletion();
    benchmark::DoNotOptimize(proc.state());
  }
  state.SetItemsProcessed(state.iterations() * n * blocksPerIteration);
}

void BM_VmArithById(benchmark::State& state) {
  runVmLoop(state, arithLoop(state.range(0)), false,
            kBlocksPerArithIteration);
}
BENCHMARK(BM_VmArithById)->Arg(10000)->Arg(100000);

void BM_VmListById(benchmark::State& state) {
  runVmLoop(state, listLoop(state.range(0)), true, kBlocksPerListIteration);
}
BENCHMARK(BM_VmListById)->Arg(10000);

// -------------------------------------------------------------------------
// Pure evaluator: the worker-thread half of parallelMap. One compiled
// ring applied per item, as Parallel.js would per list element.
// -------------------------------------------------------------------------

// ((x * 2) + (x - 1)) * (x + 3) — 9 block nodes per application.
constexpr int64_t kNodesPerPureArithCall = 9;

void BM_PureEvalArith(benchmark::State& state) {
  blocks::RingPtr fn = blocks::Ring::reporter(
      product(sum(product(empty(), 2), difference(empty(), 1)),
              sum(empty(), 3)));
  core::PureFn compiled = core::compileRing(fn);
  double x = 0;
  for (auto _ : state) {
    Value v = compiled({Value(x)});
    benchmark::DoNotOptimize(v);
    x += 1;
  }
  state.SetItemsProcessed(state.iterations() * kNodesPerPureArithCall);
}
BENCHMARK(BM_PureEvalArith);

// map ((x) * 2) over (numbers 1..64) then combine with + : one call walks
// 64 ring applications plus the list plumbing (~200 nodes).
constexpr int64_t kNodesPerPureListCall =
    4 + 64 * 3 + 63 * 3;  // outer blocks + map bodies + combine bodies

void BM_PureEvalList(benchmark::State& state) {
  blocks::RingPtr fn = blocks::Ring::reporter(
      combineUsing(mapOver(ring(product(empty(), 2)),
                           numbersFromTo(1, sum(empty(), 63))),
                   ring(sum(empty(), empty()))));
  core::PureFn compiled = core::compileRing(fn);
  for (auto _ : state) {
    Value v = compiled({Value(1.0)});
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations() * kNodesPerPureListCall);
}
BENCHMARK(BM_PureEvalList);

}  // namespace

int main(int argc, char** argv) {
  std::printf("# dispatch microbenchmark — blocks/sec through Process and "
              "pure_eval\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
