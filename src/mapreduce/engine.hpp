// The MapReduce engine behind the mapReduce block (paper Sec. 3.4).
//
// Semantics, matching the paper's description and examples:
//
//   * The map function runs on every input item in parallel. Its result
//     becomes the intermediate pair: if the result is itself a two-element
//     list it is taken as [key, value]; otherwise the pair is
//     [item, result] ("a two-element list with the item as the key and the
//     result as the value").
//   * "The elements of the intermediate result are sorted by the value of
//     the key in between the map function and the reduce function, as
//     required by the semantics of MapReduce" (paper footnote 6). The
//     order: numeric keys first, by number (NaN last), then all other
//     keys by case-insensitive text; pairs whose keys tie keep their
//     input order, and adjacent pairs with Value::equals keys form one
//     group.
//   * The reduce function runs once per distinct key, in parallel across
//     keys, receiving the list of that key's values and reporting the
//     reduced value. The identity reduce passes the values list through.
//   * The output is the sorted list of [key, reduced] pairs — exactly the
//     word-count readout of paper Fig. 12.
//
// Fault model: the pipeline owns its input, so it sits on the outermost
// rung of the degradation ladder (parallel.hpp) — when the pooled stages
// die with a *transient* substrate error (retries exhausted), the Job
// reruns the whole pipeline sequentially and reports Stats::degraded (as
// it does when it drains a stage the pool refused). Deadline expiry and
// cancellation do NOT degrade (a sequential rerun after a blown deadline
// would only blow it further); they surface as TimeoutError /
// CancelledError, and a timeout counts one SubstrateStats::timeouts for
// the constructing tenant, as Parallel's does. A deadline rides the
// cancel token (Options::cancel = CancelToken::withDeadline(s)). Each
// stage's TaskGroup owns that stage's outcome; the Job reads its
// failure(). User-script errors from the map/reduce functions are
// deterministic and always propagate with their original type.
//
// "Although conceptually simple, MapReduce implementations can be quite
// complex to set up and use. Fortunately, these details are hidden in the
// implementation of the MapReduce block" — this file is those details.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "blocks/value.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "workers/parallel.hpp"
#include "workers/task_group.hpp"

namespace psnap::mr {

/// item → mapped value (or explicit [key, value] pair).
using MapFn = std::function<blocks::Value(const blocks::Value&)>;
/// values-of-one-key → reduced value.
using ReduceFn = std::function<blocks::Value(const blocks::ListPtr&)>;
/// A slice of items → their map results as raw doubles: either writes
/// all `n` results into `out` (sizing it) and returns true, or returns
/// false with `out` untouched.
using MapNumericFn = std::function<bool(const blocks::Value* items,
                                        size_t n, std::vector<double>& out)>;
/// A shard's runs, reduced straight from their doubles: run r's values
/// are values[bounds[r], bounds[r + 1]). Either writes every run's reduced
/// value to out[r] and returns true, or returns false writing nothing.
using ReduceNumericFn =
    std::function<bool(const double* values, const uint32_t* bounds,
                       size_t runs, blocks::Value* out)>;

struct Options {
  /// Shard count for both stages; 0 means workers::kDefaultWorkers.
  size_t workers = 0;
  /// Run the whole pipeline on the constructing thread at one shard (for
  /// the sequential baseline rows of the benches). Never calls mapBatch,
  /// mapNumeric or reduceNumeric: it is the boxed reference path.
  bool sequential = false;
  /// Per-task retries inside each pooled stage (substrate errors only;
  /// see ParallelOptions::maxRetries).
  int maxRetries = 2;
  /// Permit the sequential rerun after a transient substrate failure.
  bool allowDegrade = true;
  /// External cancellation for the whole pipeline (map + shuffle +
  /// reduce); CancelToken::withDeadline(s) gives it a wall-clock budget
  /// whose expiry fails the run with TimeoutError.
  CancelTokenPtr cancel;
  /// Optional chunk-at-a-time fast path for the map phase (the native
  /// tier's compiled kernel). Same contract as workers::MapBatchFn:
  /// all-or-nothing in-place transform, false when not servable. The
  /// pipeline keys pairs by the ORIGINAL items, so the batch transform
  /// runs on a copy of each slice written straight into its map-result
  /// slots, from which stage 1 reads each pair in place.
  workers::MapBatchFn mapBatch;
  /// Optional unboxed fast path for the map phase, tried before
  /// mapBatch. A slice it serves keeps its results as doubles in the
  /// slice's own column: no item copy, no boxing, and its pairs are keyed
  /// by their items. A slice it declines takes the mapBatch path, then
  /// the per-item loop.
  MapNumericFn mapNumeric;
  /// Optional unboxed fast path for the reduce phase. When every slice's
  /// results are in columns, each shard lays its members' doubles out
  /// flat in key order and hands all of its runs to this entry at once.
  /// A shard it declines (or any shard of a job with a boxed slice)
  /// builds each run's values list and calls the reduce function.
  ReduceNumericFn reduceNumeric;
  /// Estimated cost of one input item through the whole pipeline in ns,
  /// for the grain model (workers/grain.hpp): 0 means unknown and always
  /// submits the stages to the pool. A known cost whose total falls below
  /// the crossover drains each stage on the thread that starts it.
  double itemCostNs = 0;
};

struct Stats {
  size_t inputItems = 0;
  size_t distinctKeys = 0;
  uint64_t mapMakespan = 0;     ///< virtual: max items mapped by one worker
  uint64_t reduceMakespan = 0;  ///< virtual: max groups reduced by one worker
  /// True when the run completed through the sequential fallback.
  bool degraded = false;
};

/// Run a complete MapReduce synchronously: a Job plus a wait. Returns the
/// sorted list of [key, value] pairs and rethrows a failure with its
/// original type. `stats`, when non-null, receives phase accounting.
/// Blocks the calling thread, so call it off the worker pool.
blocks::ListPtr run(const blocks::ListPtr& input, const MapFn& mapFn,
                    const ReduceFn& reduceFn, const Options& options = {},
                    Stats* stats = nullptr);

/// The identity reduce: reports the values list unchanged (the paper notes
/// either phase may be the identity).
ReduceFn identityReduce();

/// An asynchronous MapReduce job for integration with the cooperative
/// scheduler — a completion-chained pipeline with no phase barriers:
///
///   stage 1   W slice tasks: map each item of the slice into the
///             slice's map results — or, where Options::mapNumeric serves
///             the slice, the whole slice into a column of raw doubles —
///             then class every pair's key (read in place, through the
///             slice's memo of key representations and its hash table of
///             order classes), then bin each pair's index by its class's
///             shard (the map phase and the shuffle's key pass, fused).
///             A dictionary-coded input (blocks::TextCoding, a text list
///             loaded from a snapshot) whose dictionary has no more
///             entries than a slice has pairs has each entry classed
///             once per job, by the first slice whose pairs are all keyed
///             by their items; every such slice then classes pair i by
///             its code alone, with no hash and no compare;
///   stage 2   W shard tasks: merge the slices' classes for the shard,
///             sort the class heads, lay the members out flat in key
///             order (with their doubles, when every slice is a column),
///             split each class into runs of equal keys, each a range of
///             that layout, and reduce each run — all runs at once
///             through Options::reduceNumeric when it serves the shard,
///             else one values list per run (the shuffle's group and the
///             reduce phase, fused);
///   merge     a serial W-way merge of the per-shard sorted outputs, run
///             by whichever worker finishes stage 2 last.
///
/// Each stage is launched by its predecessor's completion callback — no
/// thread ever sits in a wait() between phases, and no pool worker is
/// pinned for the pipeline's duration. Every path calls one grouping
/// routine, equivalent keys always share a shard, and the per-group
/// reduce is independent of grouping, so the output does not depend on
/// the shard count (the ordering argument is in DESIGN.md).
///
/// The constructor takes a snapshotClone() of the input (O(1) for flat
/// and mapped lists), and every stage reads that snapshot: a caller that
/// mutates its list while the job runs changes nothing the job sees. An
/// input holding a ring or a future settles the job with PurityError; a
/// coded input with a code past its dictionary settles it with
/// SubstrateError (each code is checked as a slice reads it).
///
/// The block primitive registers onComplete() and parks; the callback
/// fires exactly once, from the worker that settles the pipeline (or
/// immediately on the registering thread if already settled).
/// Options::sequential runs both stage bodies inline on the constructing
/// thread at one shard, and the Job is settled when the constructor
/// returns. So is a job the grain model drains (Options::itemCostNs):
/// both stages keep their shards and tasks but run on the constructing
/// thread, one after the other. Degradation: a stage the pool refuses
/// (with allowDegrade) is drained inline; a transient substrate failure
/// reruns that same sequential pass on the thread that observed the
/// failure, under the same deadline. With degradation forbidden, failures
/// settle the job typed — constructors do not throw.
class Job {
 public:
  Job(blocks::ListPtr input, MapFn mapFn, ReduceFn reduceFn,
      Options options);
  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Register a completion callback: fires exactly once, from the worker
  /// that settles the pipeline, or immediately if already settled.
  void onComplete(CompletionLatch::Callback cb);

  /// Cancel the pipeline: stage tasks not yet claimed are skipped and the
  /// job settles with CancelledError (unless it already completed).
  void cancel(const std::string& reason = "mapReduce pipeline cancelled");

  /// Block until the pipeline settles. Synchronous callers only (run(),
  /// tests, benches): the scheduler registers onComplete() instead, and a
  /// pool worker must not block on its own pool's work.
  void wait() { latch_.wait(); }

  // The accessors below are meaningful once settled.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  std::string errorMessage() const {
    return exceptionMessage(errorPtr_, "unknown mapReduce error");
  }
  /// The failure's class tag (None while clean).
  ErrorClass errorClass() const { return classifyError(errorPtr_); }
  /// The original exception (null while clean).
  const std::exception_ptr& error() const { return errorPtr_; }
  /// Did the pipeline complete through a sequential fallback (an inline
  /// drain of a refused stage, or the sequential rerun)?
  bool wasDegraded() const { return stats_.degraded; }
  /// Did the grain model drain the stages on the constructing thread?
  bool ranInline() const { return inline_; }
  /// Valid when not failed.
  const blocks::ListPtr& result() const { return result_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Heap-held pipeline state shared by the stage tasks (defined in
  /// engine.cpp). Tasks capture the owning Job*, which is safe because
  /// ~Job blocks on the latch and every path settles it last.
  struct Pipeline;

  /// Stage 1's body for one slice: map each item into its result slot
  /// (or the whole slice into its numeric column), class its pair's key
  /// where the item and result hold it, bin it. Stage 2's body for one
  /// shard: group its pairs into runs, reduce each run (or fold them all
  /// through the numeric reduce entry). `pooled` is false on the
  /// sequential pass, which never calls the native entries and fires no
  /// task fault.
  void mapSlice(size_t slice, bool pooled);
  void reduceShard(size_t shard, bool pooled);
  /// Submit one pooled stage: a task per shard running `body` under the
  /// retry rung. Once every task is done, `next` runs, or failOrDegrade()
  /// if the stage failed or the token tripped.
  void launch(void (Job::*body)(size_t, bool), void (Job::*next)());
  void startStage2();
  /// Start a stage: drain it on this thread when the grain model says so,
  /// else submit it; on pool refusal either drain it inline on this
  /// thread (allowDegrade) or settle the job with the SubstrateError.
  void submitStage(const std::shared_ptr<workers::TaskGroup>& stage,
                   CompletionLatch::Callback continuation);
  /// The sequential pass: both stage bodies inline at one shard, with the
  /// same token checkpoints as the chained stages, then settle.
  void runSequential();
  /// Merge the shards into result_, fill the stats and settle.
  void finish();
  void markDegraded();
  /// Sequential rerun (same token, so the deadline does not restart) for
  /// a transient substrate failure; otherwise settle the error typed.
  void failOrDegrade(std::exception_ptr error);
  void settleError(std::exception_ptr error);

  std::unique_ptr<Pipeline> pipe_;
  CompletionLatch latch_;
  CancelTokenPtr token_;  // always non-null: the job's cancel() handle
  std::atomic<bool> failed_{false};
  std::exception_ptr errorPtr_;
  blocks::ListPtr result_;
  Stats stats_;
  bool inline_ = false;
};

}  // namespace psnap::mr
