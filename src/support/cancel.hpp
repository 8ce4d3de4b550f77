// Cooperative cancellation with deadlines.
//
// The paper's parallel blocks run inside a poll-and-yield loop (Listing 2)
// over a worker substrate, so cancellation here is cooperative by design:
// nothing preempts a task; instead tasks and interpreter processes check a
// shared CancelToken at their natural polling points (per chunk claim, per
// yield marker) and unwind with a typed CancelledError / TimeoutError.
//
// Tokens form a single-level chain: a Parallel operation's own token can
// be parented to its caller's (e.g. the script's), so stopping a script
// cancels its in-flight parallel jobs on their next checkpoint. Fail-fast
// TaskGroups use the same mechanism: the first failing task cancels the
// group token and unstarted siblings are skipped instead of drained.
//
// Thread-safety: cancel() may race with cancelled()/checkpoint() from any
// thread. The reason message is written before the state flag is published
// (release) and read only after observing the flag (acquire).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "support/error.hpp"

namespace psnap {

class CancelToken;
using CancelTokenPtr = std::shared_ptr<CancelToken>;

class CancelToken {
 public:
  /// A plain token: cancelled only by an explicit cancel() (or a parent).
  static CancelTokenPtr create(CancelTokenPtr parent = nullptr) {
    return std::make_shared<CancelToken>(Clock::time_point::max(),
                                         std::move(parent));
  }

  /// A token that additionally trips `seconds` from now (steady clock).
  /// `seconds <= 0` means "already expired" — useful for deterministic
  /// timeout tests.
  static CancelTokenPtr withDeadline(double seconds,
                                     CancelTokenPtr parent = nullptr) {
    return std::make_shared<CancelToken>(
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds)),
        std::move(parent));
  }

  using Clock = std::chrono::steady_clock;

  CancelToken(Clock::time_point deadline, CancelTokenPtr parent)
      : deadline_(deadline),
        hasDeadline_(deadline != Clock::time_point::max()),
        parent_(std::move(parent)) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request cancellation. The first call wins; later calls (and a later
  /// deadline trip) do not overwrite the reason.
  void cancel(const std::string& reason = "operation cancelled") {
    trip(ErrorClass::Cancelled, reason);
  }

  /// Trip the token with the Timeout class — a watchdog's verdict that
  /// the work exceeded a budget the token itself cannot measure (e.g. the
  /// serving layer's per-tenant frame budget). First trip wins, exactly
  /// like cancel(); checkpoints then raise TimeoutError with `reason`.
  void timeoutNow(const std::string& reason = "budget exceeded") {
    trip(ErrorClass::Timeout, reason);
  }

  /// Cancelled, timed out, or parented to a token that is? One relaxed
  /// atomic load on the fast path; the deadline is consulted only when one
  /// was set.
  bool cancelled() const {
    if (state_.load(std::memory_order_acquire) != uint8_t(ErrorClass::None)) {
      return true;
    }
    if (hasDeadline_ && Clock::now() >= deadline_) {
      // Latch the timeout so the reason is stable from here on.
      const_cast<CancelToken*>(this)->trip(ErrorClass::Timeout,
                                           "deadline exceeded");
      return true;
    }
    return parent_ && parent_->cancelled();
  }

  /// Why the token tripped: Cancelled, Timeout, or None when still live.
  /// A parent's reason wins only if this token itself is untripped.
  ErrorClass reason() const {
    const auto own = ErrorClass(state_.load(std::memory_order_acquire));
    if (own != ErrorClass::None) return own;
    if (hasDeadline_ && Clock::now() >= deadline_) return ErrorClass::Timeout;
    return parent_ ? parent_->reason() : ErrorClass::None;
  }

  /// The reason message (meaningful once cancelled()).
  std::string reasonMessage() const {
    if (state_.load(std::memory_order_acquire) != uint8_t(ErrorClass::None)) {
      std::lock_guard<std::mutex> lock(mutex_);
      return message_;
    }
    if (hasDeadline_ && Clock::now() >= deadline_) return "deadline exceeded";
    return parent_ ? parent_->reasonMessage() : std::string();
  }

  /// The typed error for the trip reason — TimeoutError or CancelledError
  /// carrying reasonMessage() — or null while still live.
  std::exception_ptr error() const {
    if (!cancelled()) return nullptr;
    if (reason() == ErrorClass::Timeout) {
      return std::make_exception_ptr(TimeoutError(reasonMessage()));
    }
    return std::make_exception_ptr(CancelledError(reasonMessage()));
  }

  /// Throw error(), or return if still live. This is the cancellation
  /// point tasks and processes call.
  void checkpoint() const {
    if (std::exception_ptr tripped = error()) std::rethrow_exception(tripped);
  }

  bool hasDeadline() const { return hasDeadline_; }

  /// Seconds until the nearest deadline on this token's parent chain
  /// (negative once past; +inf when no token in the chain has one). A
  /// sleeping scheduler bounds its wait with this so a parked process's
  /// deadline — even one inherited from a parent — fires on time.
  double remainingSeconds() const {
    double remaining = std::numeric_limits<double>::infinity();
    if (hasDeadline_) {
      remaining =
          std::chrono::duration<double>(deadline_ - Clock::now()).count();
    }
    if (parent_) {
      remaining = std::min(remaining, parent_->remainingSeconds());
    }
    return remaining;
  }

 private:
  void trip(ErrorClass why, const std::string& reason) {
    uint8_t expected = uint8_t(ErrorClass::None);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // compare_exchange under the lock so the winning reason and its
      // message publish together.
      if (!state_.compare_exchange_strong(expected, uint8_t(why),
                                          std::memory_order_acq_rel)) {
        return;
      }
      message_ = reason;
    }
  }

  std::atomic<uint8_t> state_{uint8_t(ErrorClass::None)};
  const Clock::time_point deadline_;
  const bool hasDeadline_;
  const CancelTokenPtr parent_;
  mutable std::mutex mutex_;
  std::string message_;  // guarded by mutex_, published by state_
};

}  // namespace psnap
