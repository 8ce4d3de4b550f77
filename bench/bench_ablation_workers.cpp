// A2 — ablation: worker-pool distribution strategies.
//
// The paper's Parallel.js workers "systematically process the remaining
// elements" (dynamic self-scheduling). This ablation compares that
// default against static contiguous and block-cyclic assignment:
//
//   * the reproduction table is a deterministic simulation in *weighted
//     virtual time* (each item has a known cost; workers complete work at
//     unit speed), which isolates the balance effect from the host's
//     core count and load;
//   * the google-benchmark section measures the real threaded facade.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <queue>
#include <vector>

#include "workers/parallel.hpp"

namespace {

using psnap::blocks::Value;
using psnap::workers::Distribution;
using psnap::workers::Parallel;
using psnap::workers::ParallelOptions;

std::vector<double> uniformCosts(size_t n) {
  return std::vector<double>(n, 1.0);
}

/// Front-loaded imbalance: the first half of the items cost 9 units.
std::vector<double> skewedCosts(size_t n) {
  std::vector<double> out(n, 1.0);
  for (size_t i = 0; i < n / 2; ++i) out[i] = 9.0;
  return out;
}

/// Deterministic virtual-time makespan of a distribution policy.
double simulateMakespan(const std::vector<double>& costs,
                        Distribution distribution, size_t workerCount,
                        size_t chunk) {
  const size_t n = costs.size();
  std::vector<double> load(workerCount, 0.0);
  switch (distribution) {
    case Distribution::Contiguous: {
      const size_t per = (n + workerCount - 1) / workerCount;
      for (size_t i = 0; i < n; ++i) load[std::min(i / per, workerCount - 1)] += costs[i];
      break;
    }
    case Distribution::BlockCyclic: {
      for (size_t i = 0; i < n; ++i) {
        load[(i / chunk) % workerCount] += costs[i];
      }
      break;
    }
    case Distribution::Dynamic: {
      // Self-scheduling: the earliest-free worker grabs the next chunk.
      std::priority_queue<double, std::vector<double>,
                          std::greater<double>> free;
      for (size_t w = 0; w < workerCount; ++w) free.push(0.0);
      for (size_t begin = 0; begin < n; begin += chunk) {
        double at = free.top();
        free.pop();
        for (size_t i = begin; i < std::min(begin + chunk, n); ++i) {
          at += costs[i];
        }
        free.push(at);
      }
      double makespan = 0;
      while (!free.empty()) {
        makespan = std::max(makespan, free.top());
        free.pop();
      }
      return makespan;
    }
  }
  return *std::max_element(load.begin(), load.end());
}

void printReproduction() {
  std::printf("# A2 — distribution ablation (1000 items, 4 workers,\n");
  std::printf("#       weighted virtual-time simulation)\n");
  std::printf("#   strategy        uniform   skewed   (ideal skewed = %g)\n",
              (9.0 * 500 + 1.0 * 500) / 4);
  struct Strategy {
    const char* name;
    Distribution distribution;
    size_t chunk;
  } strategies[] = {
      {"dynamic(1)", Distribution::Dynamic, 1},
      {"dynamic(16)", Distribution::Dynamic, 16},
      {"contiguous", Distribution::Contiguous, 1},
      {"blockcyclic(8)", Distribution::BlockCyclic, 8},
  };
  for (const Strategy& s : strategies) {
    std::printf("#   %-14s %8.0f %8.0f\n", s.name,
                simulateMakespan(uniformCosts(1000), s.distribution, 4,
                                 s.chunk),
                simulateMakespan(skewedCosts(1000), s.distribution, 4,
                                 s.chunk));
  }
  std::printf(
      "#   (dynamic self-scheduling — the paper's Parallel.js policy —\n"
      "#    stays near the ideal even under 9:1 cost skew; contiguous\n"
      "#    assigns all the heavy items to the first two workers)\n\n");
}

std::vector<Value> itemsFrom(const std::vector<double>& costs) {
  std::vector<Value> out;
  out.reserve(costs.size());
  for (double c : costs) out.emplace_back(c);
  return out;
}

void BM_Distribution(benchmark::State& state) {
  const Distribution distributions[] = {
      Distribution::Dynamic, Distribution::Contiguous,
      Distribution::BlockCyclic};
  const char* names[] = {"dynamic", "contiguous", "blockcyclic"};
  const auto which = state.range(0);
  auto items = itemsFrom(skewedCosts(size_t(state.range(1))));
  for (auto _ : state) {
    Parallel job(items, ParallelOptions{
                            .maxWorkers = 4,
                            .distribution = distributions[which],
                            .chunkSize = 8});
    job.map([](const Value& v) {
      volatile double x = 0;
      for (int i = 0; i < int(v.asNumber()) * 50; ++i) x += i;
      return v;
    });
    job.wait();
    benchmark::DoNotOptimize(job.data());
  }
  state.SetLabel(names[which]);
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_Distribution)
    ->Args({0, 2000})
    ->Args({1, 2000})
    ->Args({2, 2000});

void BM_WorkerCountSweep(benchmark::State& state) {
  auto items = itemsFrom(uniformCosts(4000));
  const auto workerCount = size_t(state.range(0));
  for (auto _ : state) {
    Parallel job(items, ParallelOptions{.maxWorkers = workerCount});
    job.map([](const Value& v) { return Value(v.asNumber() * 2); });
    job.wait();
    benchmark::DoNotOptimize(job.data());
  }
  state.counters["workers"] = double(workerCount);
  state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_WorkerCountSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_StructuredCloneCost(benchmark::State& state) {
  // The per-job cost of the structured-clone isolation.
  auto items = itemsFrom(uniformCosts(size_t(state.range(0))));
  for (auto _ : state) {
    Parallel job(items, ParallelOptions{.maxWorkers = 1});
    benchmark::DoNotOptimize(job.workerCount());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StructuredCloneCost)->Arg(1000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  printReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
