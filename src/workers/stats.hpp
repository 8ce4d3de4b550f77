// Substrate health counters, scoped per tenant.
//
// The fault model's observable ledger: every retry, sequential downgrade,
// group cancellation, and deadline trip is recorded here so tests (and the
// serving layer's per-tenant accounting) can assert that a fault was
// *handled*, not merely survived. Counters are monotone relaxed atomics —
// they order nothing, they only count.
//
// Scoping model (the serving layer's attribution backbone):
//
//   * `processSubstrateStats()` is the process-wide root ledger — the
//     only ledger that existed when stats were a mutable global.
//   * `substrateStats()` returns the *current scope*: a thread-local
//     pointer that defaults to the root ledger and is redirected by a
//     StatsScope (RAII). A session server installs one scope per tenant
//     around everything that tenant executes.
//   * recording goes through `bump(&SubstrateStats::field)`, which also
//     walks the `parent` chain — a tenant-scoped count still rolls up
//     into the root ledger, so process-wide assertions keep working.
//
// Recording sites that hand work to pool threads (TaskGroup, Parallel,
// mr::Job) capture `&substrateStats()` once, at construction on the
// submitting thread, and record through the captured pointer — a chunk
// retried on a stolen worker is still charged to the tenant that
// launched it, not to whatever scope the worker thread happens to carry.
// Such a site must not outlive the tenant's ledger. Work that may (the
// native tier's fire-and-forget compile is the one case) holds no tenant
// pointer at all and records into the root ledger.
#pragma once

#include <atomic>
#include <cstdint>

namespace psnap::workers {

struct SubstrateStats {
  /// Chunk retries after a substrate error (per attempt, not per chunk).
  std::atomic<uint64_t> retries{0};
  /// Operations that fell back to their sequential path.
  std::atomic<uint64_t> downgrades{0};
  /// Task-group cancellations (fail-fast or external).
  std::atomic<uint64_t> cancellations{0};
  /// Deadline trips surfaced as TimeoutError.
  std::atomic<uint64_t> timeouts{0};
  /// Tasks skipped unstarted because their group was already cancelled.
  std::atomic<uint64_t> tasksSkipped{0};
  /// Rings the native tier gave up on permanently (unsupported block,
  /// compiler failure, or a validation mismatch) — those rings run on the
  /// interpreter forever after.
  std::atomic<uint64_t> nativeDowngrades{0};

  /// One counter field, e.g. `&SubstrateStats::retries`.
  using Counter = std::atomic<uint64_t> SubstrateStats::*;

  /// Record one event into this scope and every ancestor scope.
  void bump(Counter field) {
    for (SubstrateStats* scope = this; scope; scope = scope->parent_) {
      (scope->*field).fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Explicit reset of *this scope only* (a parent keeps its rollup —
  /// counts already recorded there describe events that did happen).
  void reset() {
    retries.store(0, std::memory_order_relaxed);
    downgrades.store(0, std::memory_order_relaxed);
    cancellations.store(0, std::memory_order_relaxed);
    timeouts.store(0, std::memory_order_relaxed);
    tasksSkipped.store(0, std::memory_order_relaxed);
    nativeDowngrades.store(0, std::memory_order_relaxed);
  }

  /// Chain this scope under `parent` so bump() rolls up. Set once, before
  /// the scope sees concurrent traffic (it is read unsynchronized).
  void setParent(SubstrateStats* parent) { parent_ = parent; }
  SubstrateStats* parent() const { return parent_; }

 private:
  SubstrateStats* parent_ = nullptr;
};

namespace detail {
/// The process-wide root ledger, storage for processSubstrateStats().
inline SubstrateStats& rootStats() {
  static SubstrateStats stats;
  return stats;
}
/// The current scope for this thread (null = root).
inline thread_local SubstrateStats* tStatsScope = nullptr;
}  // namespace detail

/// The process-wide root ledger. Every scoped count rolls up here.
inline SubstrateStats& processSubstrateStats() { return detail::rootStats(); }

/// The calling thread's current stats scope — the root ledger unless a
/// StatsScope has redirected it.
inline SubstrateStats& substrateStats() {
  return detail::tStatsScope ? *detail::tStatsScope : detail::rootStats();
}

/// RAII scope: redirects substrateStats() on this thread for the scope's
/// lifetime. Does not touch `stats.parent()` — the owner decides the
/// rollup chain (a session server parents each tenant's stats to the
/// root ledger once, at admission).
class StatsScope {
 public:
  explicit StatsScope(SubstrateStats& stats)
      : previous_(detail::tStatsScope) {
    detail::tStatsScope = &stats;
  }
  ~StatsScope() { detail::tStatsScope = previous_; }

  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

 private:
  SubstrateStats* previous_;
};

}  // namespace psnap::workers
