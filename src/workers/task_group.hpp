// A batch of tasks with a completion handle — the unit of work the
// persistent WorkerPool executes on behalf of a Parallel operation.
//
// The design point that makes nested pooled work deadlock-free: tasks are
// *claimed* from the group (an atomic cursor), not assigned to specific
// threads. Pool workers claim tasks through runner closures, and any
// thread blocked in wait() first drains every unclaimed task itself.
// After the drain, the only outstanding tasks are ones actively executing
// on other threads, so blocking on the condition variable cannot deadlock
// — even when the waiter is itself a pool worker (mr::Job runs its whole
// pipeline on the pool and waits on child groups from inside it).
//
// Fault model: groups are fail-fast. The first task that throws cancels
// the group's CancelToken; unstarted siblings are then *skipped* at claim
// time (they still count down `pending_`, so waiters always complete)
// instead of being drained to completion on a substrate that is already
// known to be failing. The captured error keeps its exception type — a
// TypeError thrown on a worker resurfaces as a TypeError, not a flattened
// string. An external token (a deadline, a script's stop) cancels the
// group the same way. The group owns its operation's outcome: failure()
// is the first task error, else the token's typed trip, else the group's
// own cancellation — Parallel and mr::Job read it instead of keeping
// their own error slots.
//
// Completion model: the group settles a CompletionLatch when its last task
// finishes. onComplete() callbacks fire exactly once, from the worker that
// finished the final task (or immediately if the group is already done) —
// this is the edge the scheduler's parked processes wake on, replacing the
// per-frame done() poll of the paper's Listing 2.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "support/cancel.hpp"
#include "support/completion.hpp"
#include "support/error.hpp"
#include "workers/stats.hpp"

namespace psnap::workers {

/// The paper's default worker count ("By default, four Web Workers are
/// created"): the width of a Parallel, an mr::Job or a WorkerPool asked
/// for 0.
inline constexpr size_t kDefaultWorkers = 4;

class TaskGroup {
 public:
  /// A task body; the argument is the task's index within the group.
  using Task = std::function<void(size_t)>;

  /// `token`, when given, cancels the group from outside (deadline or
  /// caller stop); the group always also honours its own fail-fast flag.
  /// The group records skips and cancellations into `stats`, its owner's
  /// ledger: by default the *constructing thread's* scope, so pool workers
  /// charge the tenant that submitted the group, not their own thread's
  /// scope. An owner that builds a group on a pool worker (mr::Job's
  /// stage 2) passes its own ledger.
  explicit TaskGroup(std::vector<Task> tasks, CancelTokenPtr token = nullptr,
                     SubstrateStats* stats = &substrateStats())
      : tasks_(std::move(tasks)),
        pending_(tasks_.size()),
        token_(std::move(token)),
        stats_(stats) {
    if (tasks_.empty()) latch_.settle();
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  size_t size() const { return tasks_.size(); }

  /// Request cancellation: tasks not yet claimed are skipped. Running
  /// tasks finish (cooperative model — they observe the token themselves).
  void cancel() {
    if (!cancelled_.exchange(true, std::memory_order_acq_rel)) {
      stats_->bump(&SubstrateStats::cancellations);
    }
  }

  /// Cancelled by a failing sibling, cancel(), or the external token?
  bool cancelRequested() const {
    return cancelled_.load(std::memory_order_acquire) ||
           (token_ && token_->cancelled());
  }

  /// Claim and run one unclaimed task on the calling thread. Returns
  /// false once every task has been claimed (not necessarily finished).
  /// Claims made after cancellation skip the task body.
  bool runOne() {
    const size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= tasks_.size()) return false;
    if (cancelRequested()) {
      stats_->bump(&SubstrateStats::tasksSkipped);
    } else {
      try {
        tasks_[index](index);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (!error_) error_ = std::current_exception();
        }
        cancel();  // fail-fast: unstarted siblings are skipped
      }
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task down: settle on this (worker) thread. Callbacks fire
      // here, after the error slot and every task's outputs are visible.
      latch_.settle();
    }
    return true;
  }

  /// Register a completion callback: fires exactly once, from the worker
  /// that finishes the last task, or immediately if already done.
  void onComplete(CompletionLatch::Callback cb) {
    latch_.onSettle(std::move(cb));
  }

  /// All tasks finished? Lock-free; kept for assertions and internal
  /// gates — scheduler code registers onComplete() instead of polling.
  bool done() const {
    return pending_.load(std::memory_order_acquire) == 0;
  }

  /// Run every unclaimed task on the calling thread. A group no other
  /// thread has claimed from (one never submitted, or one the pool
  /// refused) is settled when this returns.
  void drain() {
    while (runOne()) {
    }
  }

  /// Drain unclaimed tasks on the calling thread, then block until the
  /// claimed-but-running remainder completes. Never throws; task
  /// exceptions are captured (see failure()).
  void wait() {
    drain();
    latch_.wait();
  }

  /// First exception thrown by a task (null when all tasks were clean).
  /// Meaningful once done().
  std::exception_ptr error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return error_;
  }

  /// The error's class in tagged form (None when clean). Meaningful once
  /// done().
  ErrorClass errorClass() const { return classifyError(error()); }

  /// The group's outcome, with its original exception type: the first
  /// task error; else the token's typed trip (TimeoutError, or
  /// CancelledError with the token's reason); else CancelledError after
  /// cancel(); else null. Meaningful once done().
  std::exception_ptr failure() const {
    if (std::exception_ptr first = error()) return first;
    if (std::exception_ptr tripped = token_ ? token_->error() : nullptr) {
      return tripped;
    }
    if (cancelled_.load(std::memory_order_acquire)) {
      return std::make_exception_ptr(CancelledError("task group cancelled"));
    }
    return nullptr;
  }

 private:
  std::vector<Task> tasks_;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> pending_;
  std::atomic<bool> cancelled_{false};
  CancelTokenPtr token_;
  SubstrateStats* stats_;  // the submitting thread's scope, never null
  CompletionLatch latch_;
  mutable std::mutex mutex_;
  std::exception_ptr error_;       // guarded by mutex_
};

}  // namespace psnap::workers
