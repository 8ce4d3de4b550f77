#include "workers/grain.hpp"

#include "support/error.hpp"
#include "workers/worker_pool.hpp"

namespace psnap::workers {

namespace {

/// The crossover of bench_parallel_substrate's grain_mapreduce rows, as
/// estimated work in ns: the largest size at which the stage drained on
/// the caller still finished no later than the pooled one in every sweep
/// (32000 pairs at width 2, 4000 at width 4), times kShufflePairNs. The
/// grain_map rows never crossed over (the pooled map lost at every size
/// up to 128000 items), so the mapReduce crossover bounds both shapes.
/// Width 1 shares the width-2 budget; every launch wider than 2 uses the
/// width-4 one.
constexpr double kNarrowBudgetNs = 32000 * kShufflePairNs;  // 1.6 ms
constexpr double kWideBudgetNs = 4000 * kShufflePairNs;     // 200 us

}  // namespace

bool drainsInline(size_t items, double itemNs, size_t width) {
  if (itemNs <= 0) return false;
  const double budget = width <= 2 ? kNarrowBudgetNs : kWideBudgetNs;
  return double(items) * itemNs < budget;
}

Started startGroup(const std::shared_ptr<TaskGroup>& group, bool drainHere,
                   bool allowDegrade) {
  Started started = Started::Inline;
  if (!drainHere) {
    try {
      WorkerPool::shared().submit(group);
      return Started::Pooled;
    } catch (const SubstrateError&) {
      // The pool cannot take the group (stopped or saturated); submit is
      // all-or-nothing, so the group is untouched.
      if (!allowDegrade) throw;
      started = Started::Degraded;
    }
  }
  group->drain();
  return started;
}

}  // namespace psnap::workers
