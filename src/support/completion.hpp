// One-shot completion latch: the substrate's callback registration point.
//
// Every asynchronous handle (TaskGroup and the Parallel it backs, mr::Job,
// and the blocks' Future) settles exactly once — when its last task
// finishes, when it degrades to an inline drain, or when its outcome is
// recorded. CompletionLatch is that edge, the one settle-once primitive:
// callbacks registered before the edge run on the thread that settles the
// latch (normally the pool worker that finished the final task); callbacks
// registered after it run immediately on the registering thread.
// Either way a callback runs exactly once, and never under the latch's lock,
// so a callback may re-enter the substrate (submit work, wake a scheduler,
// register further callbacks elsewhere).
//
// Memory-order contract: settle() publishes with release semantics (the
// mutex) and callbacks observe with acquire, so everything the settling
// thread wrote before settle() — task outputs, the error slot, stats — is
// visible inside the callback and to any thread that observed settled().
// This is the contract the scheduler's parked-process wakeups rely on (see
// DESIGN.md "Completion model").
//
// The CompletionDrop fault point fires between swapping the callbacks out
// and marking the latch settled, widening the completion-vs-cancellation
// race window for the chaos suite. It is sleep-type by construction: a
// throw here would lose the wakeup forever.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "support/fault.hpp"

namespace psnap {

class CompletionLatch {
 public:
  using Callback = std::function<void()>;

  /// Register a callback. Fires exactly once: from the settling thread if
  /// the latch is still open, immediately on the caller if already settled.
  void onSettle(Callback cb) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!settled_) {
        callbacks_.push_back(std::move(cb));
        return;
      }
    }
    cb();
  }

  /// Settle the latch. First call wins; later calls are no-ops (the
  /// degrade paths can race the pool's own completion). Callbacks run on
  /// the settling thread, outside the lock, in registration order.
  void settle() {
    std::vector<Callback> pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (settled_) return;
      pending.swap(callbacks_);
      // Delay point between claiming the settle and publishing it: a
      // parked waiter's cancel/deadline can now race ahead of the wakeup.
      fault::inject(fault::Point::CompletionDrop);
      settled_ = true;
      // Notify while still holding the lock: a destructor blocked in
      // wait() is free to destroy this latch the instant it observes
      // settled_, so the condvar must not be touched after the unlock.
      cv_.notify_all();
    }
    for (auto& cb : pending) cb();
  }

  bool settled() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return settled_;
  }

  /// Block until settled. Used by destructors and the synchronous join
  /// paths; scheduler code parks on a callback instead of waiting here.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return settled_; });
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool settled_ = false;
  std::vector<Callback> callbacks_;
};

}  // namespace psnap
