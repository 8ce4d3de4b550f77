// The grain model: small parallel work runs on the calling thread.
//
// A pooled stage pays a submit, a worker wake and, for a scheduler
// process, a park and a resume. When the stage's work is smaller than that
// overhead is worth, its TaskGroup is drained on the calling thread
// instead: the same tasks, the same shard count, the same logical-worker
// indices, so virtual makespans, itemsPerWorker (for the static
// distributions), retries and output bytes are exactly those of the
// pooled run. Only the threads that execute the tasks differ.
//
// The estimate is items × per-item cost, and the cost is known only where
// it was measured: an item of a map served by a Trusted native kernel
// (kMapItemNs) and a pair through mapReduce's shuffle and reduce
// (kShufflePairNs). Everything else — interpreted rings, kernels not yet
// Trusted, plain C++ callers — leaves the cost unknown (0) and stays
// pooled. The constants and the per-width budgets come from
// bench_parallel_substrate's `grain_*` rows; DESIGN.md ("Executor
// architecture") has the sweep and the rule.
#pragma once

#include <cstddef>
#include <memory>

#include "workers/task_group.hpp"

namespace psnap::workers {

/// Measured cost of one item of a map drained on the caller, in ns: a
/// plain C++ function over numbers (grain_map rows, 38–47 ns per item from
/// 2000 items up) standing in for a natively served ring.
inline constexpr double kMapItemNs = 45;
/// Measured cost of one input item through mapReduce drained on the
/// caller — map, shuffle and reduce — in ns: 8-key text with a plain C++
/// map and reduce (grain_mapreduce rows, 39–53 ns per item from 2000
/// items up).
inline constexpr double kShufflePairNs = 50;

/// The grain decision: does a stage of `items` items at an estimated
/// `itemNs` each (0 = unknown) cost less on the calling thread than
/// dispatching it to `width` logical workers on the pool?
bool drainsInline(size_t items, double itemNs, size_t width);

/// How startGroup ran a group.
enum class Started { Pooled, Inline, Degraded };

/// Start `group`: drain it on the calling thread when `drainHere` (the
/// grain decision), else submit it to the shared pool. When the pool
/// refuses the submit, drain it here as well and report Degraded if
/// `allowDegrade`, else rethrow the SubstrateError with the group
/// untouched. A drained group is settled when this returns.
Started startGroup(const std::shared_ptr<TaskGroup>& group, bool drainHere,
                   bool allowDegrade);

}  // namespace psnap::workers
