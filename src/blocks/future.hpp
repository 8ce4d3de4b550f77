// Future: a first-class promise Value (the paper's "choose your own
// adventure" extended with deferred joins, in the style of Parsl's app
// futures).
//
// A Future is created pending by a launch block (`launch parallel map …`,
// `launch mapReduce …`), resolved or rejected exactly once by the
// substrate's completion callback, and joined by the `await` reporter.
// Scripts hold it by reference: copying the Value shares the same
// settlement, so double-join is idempotent — a second await returns the
// same value or rethrows the same typed error.
//
// Purity rules: a Future is identity-equal (like a ring), is NOT
// transferable across the worker boundary (structuredClone raises
// PurityError — a promise is a handle into this process's substrate, not
// data), and cancellation of the owning process cancels the future
// through its cancel hook.
//
// Threading: resolve/reject/cancel/onSettle may race (completion fires on
// a pool worker while the owning process awaits or dies on the scheduler
// thread). First settle wins; callbacks fire exactly once, outside the
// lock, on the settling thread — or immediately on the registering thread
// when already settled. The mutex publishes the settled value/error to
// whichever thread observes the settlement.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "blocks/value.hpp"
#include "support/error.hpp"

namespace psnap::blocks {

class Future {
 public:
  enum class State { Pending, Resolved, Failed };

  static FuturePtr make() { return std::make_shared<Future>(); }

  State state() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
  }
  bool settled() const { return state() != State::Pending; }

  /// Settle with a value. First settle wins; later calls are no-ops.
  void resolve(Value value) {
    std::vector<std::function<void()>> pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (state_ != State::Pending) return;
      value_ = std::move(value);
      state_ = State::Resolved;
      pending.swap(callbacks_);
      cancelHook_ = nullptr;  // break the hook's ownership cycle
      settledCv_.notify_all();
    }
    for (auto& cb : pending) cb();
  }

  /// Settle with an error (keeps the original exception type). First
  /// settle wins.
  void reject(std::exception_ptr error) {
    std::vector<std::function<void()>> pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (state_ != State::Pending) return;
      error_ = std::move(error);
      state_ = State::Failed;
      pending.swap(callbacks_);
      cancelHook_ = nullptr;
      settledCv_.notify_all();
    }
    for (auto& cb : pending) cb();
  }

  /// Register a settlement callback: fires exactly once, from the thread
  /// that settles the future, or immediately if already settled.
  void onSettle(std::function<void()> cb) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (state_ == State::Pending) {
        callbacks_.push_back(std::move(cb));
        return;
      }
    }
    cb();
  }

  /// The resolved value. Only meaningful once state() == Resolved.
  const Value& value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != State::Resolved) {
      throw Error("future value read before resolution");
    }
    return value_;
  }

  /// The rejection error. Only meaningful once state() == Failed.
  std::exception_ptr error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return error_;
  }

  ErrorClass errorClass() const { return classifyError(error()); }

  /// Install the cancellation hook (the launch block wires this to the
  /// underlying operation's cancel). Cleared automatically on settle.
  void setCancelHook(std::function<void(const std::string&)> hook) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ == State::Pending) cancelHook_ = std::move(hook);
  }

  /// Cancel the underlying operation if still pending. The future itself
  /// settles through the operation's completion path (typically with a
  /// CancelledError), keeping one settlement order for all observers.
  void cancel(const std::string& reason) {
    std::function<void(const std::string&)> hook;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (state_ != State::Pending) return;
      hook = std::move(cancelHook_);
      cancelHook_ = nullptr;
    }
    if (hook) hook(reason);
  }

  /// cancel(), then block until the future settles. An owner that is about
  /// to free what the operation charges (a dying process, its tenant's
  /// stats ledger, a report frame holding the operation) joins it here, so
  /// no pool work outlives it.
  void cancelAndJoin(const std::string& reason) {
    cancel(reason);
    std::unique_lock<std::mutex> lock(mutex_);
    settledCv_.wait(lock, [this] { return state_ != State::Pending; });
  }

  /// Watcher/say-bubble rendering.
  std::string display() const {
    switch (state()) {
      case State::Pending: return "(future: pending)";
      case State::Resolved: return "(future: resolved)";
      case State::Failed: return "(future: failed)";
    }
    return "(future)";
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable settledCv_;
  State state_ = State::Pending;
  Value value_;
  std::exception_ptr error_;
  std::vector<std::function<void()>> callbacks_;
  std::function<void(const std::string&)> cancelHook_;
};

}  // namespace psnap::blocks
