// The Parallel.js facade (paper Listing 1):
//
//   var p = new Parallel([1,2,3,4], {maxWorkers: 2});
//   p.map(mydouble);
//   console.log(p.data);
//
// becomes
//
//   Parallel p(values, {.maxWorkers = 2});
//   p.map(mydouble);          // asynchronous: onComplete() fires once
//   p.wait();
//   use(p.data());
//
// Semantics preserved from the paper:
//   * data is structured-cloned into the job (workers never share state
//     with the main thread);
//   * "if fewer workers are created than there are list elements, the
//     workers systematically process the remaining elements from the list
//     until completed" — the default distribution is dynamic
//     self-scheduling over an atomic cursor;
//   * completion is observed through onComplete() callbacks (the
//     completion-driven successor of Listing 2's `operation._resolved`
//     poll flag): the parallelMap block parks its process on the
//     callback and the finishing worker re-readies it. resolved() still
//     answers the instantaneous question for tests and wait() fast
//     paths, but nothing in the runtime spins on it.
//
// A Parallel is its TaskGroup plus its data. The group owns the outcome:
// chunk bodies throw straight into it (it keeps the first error and
// cancels the siblings), its completion latch is the operation's, and
// failed()/errorClass()/data() read its failure() — valid from the
// moment the operation resolves, with or without wait().
//
// Execution substrate: operations no longer spawn threads. Each logical
// worker becomes one chunk task in a TaskGroup submitted to the shared
// WorkerPool, so op launch costs a queue push instead of maxWorkers
// thread spawns, and wait() joins by draining the group (running
// unclaimed chunks on the calling thread) instead of std::thread::join.
// Logical workers are decoupled from pool width: maxWorkers = 16 still
// yields 16 chunk tasks (and 16 itemsPerWorker slots) however many OS
// threads the pool owns.
//
// Fault model (the degradation ladder, outermost rung last):
//   1. *retry*: a chunk that dies with a SubstrateError is retried in
//      place up to maxRetries times with bounded deterministic backoff
//      (withRetries below, the one retry loop, which mr::Job's stage
//      tasks share).
//      Safe because map functions are pure by construction (the
//      core module only compiles pure rings to MapFn) and the chunk loops
//      write each element exactly once — a throw from fn leaves the
//      element unwritten, so resuming at the failed index re-applies fn
//      to original input, never to an already-mapped value;
//   2. *fail-fast*: the first unretryable failure cancels the group —
//      unstarted sibling chunks are skipped, not drained;
//   3. *degrade*: if the pool cannot accept the launch (stopped, or the
//      pool-saturation fault fires), the chunk tasks are drained
//      synchronously on the caller instead — the op completes on the
//      sequential rung and records the downgrade. A substrate error that
//      survives retries fails the op with errorClass() == Substrate, and
//      a refused clone-in or clone-out throws SubstrateError; Parallel
//      itself never reruns. The owner of the input does (the C++
//      realisation of collapsing the paper's "in parallel" slot): the
//      report parallelMap block maps its O(1) list snapshot once more
//      with its own sequentialMap (core/parallel_blocks.cpp), and mr::Job
//      reruns its pipeline sequentially. User-script errors (TypeError,
//      …) never retry or degrade — they surface with their original
//      exception type.
// Deadlines ride the cancel token: the operation's own token is a child
// of ParallelOptions::cancel (pass CancelToken::withDeadline(s) for a
// budget), chunk claims poll it, and a trip surfaces as the token's typed
// TimeoutError or CancelledError — unless every item had already been
// processed, in which case the late trip is not a failure.
//
// In addition to wall-clock execution, the facade tracks items-per-worker
// so benches can report *virtual makespan* (max items on any worker) —
// the metric that carries the paper's speedup shape whatever the host's
// core count.
//
// Grain: an operation whose estimated work (ParallelOptions::itemCostNs
// per item) is below the measured crossover drains its chunk tasks on
// the launching thread (grain.hpp) — same tasks and logical workers, no
// pool submit, settled before map() returns.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blocks/value.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "workers/stats.hpp"
#include "workers/task_group.hpp"

namespace psnap::workers {

/// The retry rung of the fault model, shared by Parallel's map chunks and
/// mr::Job's stage tasks: run `body`; when it throws a retryable
/// (substrate-class) error, count the retry in `stats`, back off
/// 100us, 200us, 400us, … capped at 2ms, and run `body` again — at most
/// `maxRetries` times. Anything else, or a fault past the last retry,
/// rethrows with its original type. The backoff is fixed (no jitter) so
/// chaos runs are reproducible; the cap keeps a doomed task from stalling
/// its group. Each caller's `body` makes a rerun exact: it either resumes
/// where the failed attempt stopped or restarts from scratch.
template <typename Body>
void withRetries(int maxRetries, SubstrateStats* stats, const Body& body) {
  for (int attempt = 0;;) {
    try {
      body();
      return;
    } catch (...) {
      std::exception_ptr error = std::current_exception();
      if (!isRetryableClass(classifyError(error)) || attempt >= maxRetries) {
        std::rethrow_exception(error);
      }
      ++attempt;
      stats->bump(&SubstrateStats::retries);
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<int64_t>(int64_t{100} << std::min(attempt - 1, 8), 2000)));
    }
  }
}

/// A unary function shipped to workers. Must be thread-safe and must not
/// touch interpreter state (the core module compiles *pure* rings to this
/// type, mirroring Listing 2's mappedCode()-to-Function step).
using MapFn = std::function<blocks::Value(const blocks::Value&)>;
/// An optional chunk-at-a-time fast path for map (the native tier's
/// compiled kernels): transform `count` values in place and return true,
/// or return false WITHOUT writing anything — the caller then applies the
/// per-item MapFn. The all-or-nothing write contract is what keeps the
/// chunk retry loop exact (every element written at most once).
using MapBatchFn = std::function<bool(blocks::Value*, size_t count)>;

/// How list elements are assigned to workers (ablation A2 in DESIGN.md).
enum class Distribution {
  Dynamic,     ///< self-scheduling: workers claim guided chunks (default)
  Contiguous,  ///< static contiguous chunks of ceil(n/w)
  BlockCyclic, ///< static round-robin by chunkSize
};

struct ParallelOptions {
  /// Number of logical workers; 0 uses kDefaultWorkers.
  size_t maxWorkers = 0;
  Distribution distribution = Distribution::Dynamic;
  /// Chunk granularity for BlockCyclic, and the smallest claim under
  /// Dynamic, whose claims shrink from remaining / (2 · tasks) down to
  /// this floor (0 normalizes to 1).
  size_t chunkSize = 1;
  /// Retries per chunk on SubstrateError (0 disables). Only the
  /// substrate class retries; user-script errors are deterministic.
  int maxRetries = 2;
  /// Drain the chunk tasks on the caller when the pool cannot accept the
  /// launch, instead of failing the operation.
  bool allowDegrade = true;
  /// External cancellation (e.g. the owning script's token, or
  /// CancelToken::withDeadline for a wall-clock budget): a trip cancels
  /// this operation at its next chunk boundary.
  CancelTokenPtr cancel;
  /// Estimated cost of one item in ns, for the grain model (grain.hpp):
  /// 0 means unknown and always launches on the pool. A known cost whose
  /// total falls below the crossover drains the chunk tasks on the
  /// launching thread instead.
  double itemCostNs = 0;
};

class Parallel {
 public:
  /// Clone `data` into the job (structured-clone semantics; throws
  /// PurityError if a value is not transferable, SubstrateError if the
  /// transfer fault point fires). Physically this is a COW snapshot —
  /// flat lists share their item buffer, text shares its immutable rep —
  /// so entry costs O(elements) refcount bumps instead of a deep copy.
  /// The snapshot is anchored before the constructor returns: later
  /// mutation of the source detaches at the COW gate and never leaks
  /// into the job. Accepts any item view — an owned vector binds
  /// implicitly, and a mapped (mmap-backed) list's buffer enters without
  /// materializing first.
  Parallel(blocks::ItemSpan data, ParallelOptions options);
  explicit Parallel(const blocks::ListPtr& list,
                    ParallelOptions options = {});
  ~Parallel();

  Parallel(const Parallel&) = delete;
  Parallel& operator=(const Parallel&) = delete;

  size_t workerCount() const { return workers_; }

  /// Launch an asynchronous parallel map. May be called once per Parallel.
  /// `batch`, when given, is tried once per chunk before the per-item
  /// loop (see MapBatchFn).
  void map(MapFn fn, MapBatchFn batch = {});

  /// Has the running operation finished? (Listing 2's `_resolved`.)
  /// Kept for tests and assertions; scheduler integration registers
  /// onComplete() instead of polling this per frame.
  bool resolved() const;

  /// Register a completion callback: fires exactly once, from the worker
  /// that finishes the operation (or immediately if already resolved, or
  /// on the caller when the launch degrades to an inline drain). Throws
  /// Error before map(): there is nothing to complete yet.
  void onComplete(std::function<void()> cb);

  /// Block until resolved (draining unclaimed chunk tasks on this
  /// thread). Failures are captured, not thrown (see failed()/data()).
  void wait();

  /// Cancel the operation: remaining chunks are skipped and the
  /// operation fails with CancelledError (unless it already completed).
  void cancel(const std::string& reason = "parallel operation cancelled");

  /// True once resolved if the operation failed; errorMessage() holds the
  /// first error and errorClass() its type tag.
  bool failed() const { return failure() != nullptr; }
  std::string errorMessage() const {
    return exceptionMessage(failure(), "unknown worker error");
  }
  ErrorClass errorClass() const { return classifyError(failure()); }

  /// Did the operation complete through the sequential fallback?
  bool wasDegraded() const { return degraded_.load(); }

  /// Did the grain model drain the operation on the launching thread?
  bool ranInline() const { return inline_; }

  /// Result data: the element-wise map results. Calls wait() internally.
  /// Rethrows the worker's error with its original exception type if the
  /// operation failed.
  const std::vector<blocks::Value>& data();

  /// Move the result out instead of copying (the MapReduce engine's
  /// phases hand multi-thousand-element vectors between stages). Same
  /// wait/throw behaviour as data(); the Parallel is spent afterwards.
  std::vector<blocks::Value> takeData();

  /// Items processed by each logical worker during the last operation.
  std::vector<uint64_t> itemsPerWorker() const;

  /// Virtual makespan: the maximum number of items any single worker
  /// processed — the completion time in idealized unit-cost timesteps.
  uint64_t virtualMakespan() const;

 private:
  // One counter slot per logical worker, cache-line padded: workers flush
  // a chunk's item count with one relaxed add instead of a per-item
  // fetch_add into a shared array.
  struct alignas(64) CounterSlot {
    std::atomic<uint64_t> items{0};
  };

  void cloneIn(blocks::ItemSpan source);
  /// Submit `taskCount` chunk tasks running `body(logicalWorker)`.
  void launch(TaskGroup::Task body, size_t taskCount);
  /// The group's failure once resolved, or null: a cancellation that
  /// trips after every item was processed is not a failure.
  std::exception_ptr failure() const;
  /// Map one range in place under the retry rung. Returns normally or
  /// rethrows the unretryable / retry-exhausted error.
  void mapRange(const MapFn& fn, size_t begin, size_t end, size_t w);
  /// Should the task keep claiming chunks? False once the group is
  /// cancelled: by a failing sibling, cancel(), or the token.
  bool keepGoing() const { return !group_->cancelRequested(); }
  /// Total items processed across all logical workers.
  uint64_t processedItems() const;

  std::vector<blocks::Value> data_;
  size_t workers_;
  ParallelOptions options_;

  std::shared_ptr<TaskGroup> group_;  // set once, at launch
  CancelTokenPtr token_;  // child of options.cancel: the cancel() handle
  SubstrateStats* stats_;  // the constructing thread's scope, never null
  std::vector<CounterSlot> perWorker_;
  std::atomic<size_t> cursor_{0};
  std::atomic<bool> degraded_{false};
  MapBatchFn batch_;  // optional native chunk path
  size_t inputSize_ = 0;
  bool joined_ = false;
  bool inline_ = false;
};

}  // namespace psnap::workers
