// The native execution tier: hotness accounting, async kernel compiles,
// and id-indexed dispatch records (DESIGN.md "Native tier").
//
// Life of a hot ring:
//
//   Cold ──(calls cross hotThreshold)──► Compiling ──► Ready ──► Trusted
//     │                                      │
//     └──────────────(emit/compile/dlopen fails, fault point fires,
//                     or validation mismatches)──────► Downgraded (final)
//
//   * Cold: every call runs the interpreter; marshalable calls bump the
//     kernel's counter. Crossing the threshold CASes Cold→Compiling and
//     submits ONE compile task to the shared WorkerPool — the hot path
//     never blocks on the compiler; the interpreter keeps serving until
//     the install completes through the task group's CompletionLatch.
//   * Compiling: interpreter serves. If the pool refuses the submit
//     (saturation fault, stopped), the kernel reverts to Cold and retries
//     on a later threshold crossing, up to maxCompileAttempts, then
//     downgrades.
//   * Ready: the function pointers are installed but unproven. The next
//     call runs BOTH native and interpreter and bit-compares
//     (marshal.hpp's byteIdentical); a match promotes to Trusted, any
//     divergence downgrades and the interpreter's result is the one
//     returned — a miscompiled kernel can never leak a wrong value.
//   * Trusted: native serves; the err out-parameter falls back to the
//     interpreter per call so error cases raise their exact typed error.
//   * Downgraded: permanent. Counted once per ring shape in
//     SubstrateStats::nativeDowngrades (kernels are keyed by structural
//     content, so a re-built ring with the same shape shares the record
//     and does not re-count): in the calling thread's scope when the
//     caller sees the failure, in the root ledger when a compile on the
//     pool does (it may outlive the tenant that heated the ring).
//
// Dispatch records are RingKernel entries in a process-lifetime deque;
// raw RingKernel* handles are stable forever (never deleted, libraries
// never dlclose'd — loader.hpp). That promotion state is process-wide;
// the policy is not. A TierConfig is a plain value that reaches the tier
// as an argument: core::fullPrimitiveTable(cfg) binds one into the
// parallel blocks, so a palette built with the tier disabled never even
// counts calls. defaultTierConfig() is the read-only default, and the
// PSNAP_NATIVE_TIER=0 environment variable disables it, the process-wide
// kill switch.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "blocks/value.hpp"
#include "codegen/native_emit.hpp"
#include "workers/stats.hpp"
#include "workers/task_group.hpp"

namespace psnap::native {

enum class KernelState : uint8_t {
  Cold = 0,
  Compiling,
  Ready,      ///< installed, not yet validated against the interpreter
  Trusted,    ///< validated: native serves
  Downgraded, ///< permanent interpreter fallback
};

const char* kernelStateName(KernelState state);

using UnaryFn = double (*)(double, int*);
using UnaryBatchFn = long (*)(const double*, double*, long);
using FoldFn = double (*)(const double*, long, int*);

/// One ring shape's dispatch record. Function pointers are written by the
/// compile task before the Ready store (release) and read after an
/// acquire load of state, so a caller that observes Ready/Trusted sees
/// the pointers.
struct RingKernel {
  uint64_t key = 0;
  codegen::KernelShape shape = codegen::KernelShape::Unary;
  std::atomic<KernelState> state{KernelState::Cold};

  // Written by the compile task before publishing Ready.
  bool paramUsed = true;
  bool returnsBool = false;
  UnaryFn unary = nullptr;
  UnaryBatchFn unaryBatch = nullptr;
  FoldFn fold = nullptr;

  std::atomic<uint64_t> calls{0};        ///< hotness counter
  std::atomic<uint64_t> nativeCalls{0};  ///< items served natively
  std::atomic<int> attempts{0};          ///< compile submits tried

  KernelState currentState() const {
    return state.load(std::memory_order_acquire);
  }
};

struct TierConfig {
  bool enabled = true;
  /// Interpreted calls of one ring shape before a compile is requested.
  uint64_t hotThreshold = 1024;
  /// Pool-refused submits tolerated before a permanent downgrade.
  int maxCompileAttempts = 3;
  /// Run the compile inline on the requesting thread (deterministic
  /// tests; production stays async).
  bool synchronousCompile = false;
};

/// The process default: a TierConfig whose `enabled` is off when
/// PSNAP_NATIVE_TIER=0 (read once, at first use).
const TierConfig& defaultTierConfig();

/// Process-wide tier counters (bench/diagnostic surface; the per-tenant
/// downgrade stat lives in SubstrateStats).
struct TierStats {
  uint64_t kernels = 0;       ///< dispatch records created
  uint64_t compiles = 0;      ///< compile tasks that ran
  uint64_t installs = 0;      ///< kernels that reached Ready
  uint64_t promotions = 0;    ///< Ready → Trusted validations passed
  uint64_t downgrades = 0;    ///< kernels retired to the interpreter
  uint64_t nativeItems = 0;   ///< items served by native code
};

class TierManager {
 public:
  static TierManager& instance();

  /// The dispatch record for this ring shape (created on first sight).
  /// The pointer is valid for the process lifetime. Never throws —
  /// ineligible rings get a record too; their first compile attempt
  /// rejects in the emitter and caches the rejection as Downgraded.
  RingKernel* lookup(const blocks::Ring& ring, codegen::KernelShape shape);

  /// Bump the hotness counter by `count` calls; crossing the threshold
  /// requests one async compile (or an inline one under
  /// cfg.synchronousCompile). `ring` is retained by the compile task.
  void recordCalls(RingKernel* kernel, const blocks::RingPtr& ring,
                   uint64_t count, const TierConfig& cfg);

  /// Validation passed: publish Trusted (no-op unless currently Ready).
  void promote(RingKernel* kernel);

  /// Permanent downgrade; the first call per kernel counts in TierStats
  /// and in the calling thread's SubstrateStats::nativeDowngrades.
  void downgrade(RingKernel* kernel);

  /// Block until the in-flight compile task for `kernel` (if any) has
  /// settled. Test hook — production code never waits on the tier.
  void waitForCompile(RingKernel* kernel);

  /// Join every in-flight compile group (the exit-order guard; see
  /// tier.cpp). Safe to call any time.
  void joinInflightCompiles();

  TierStats stats() const;
  void noteNativeItems(uint64_t n) {
    nativeItems_.fetch_add(n, std::memory_order_relaxed);
  }

 private:
  TierManager() = default;

  void startCompile(RingKernel* kernel, blocks::RingPtr ring,
                    const TierConfig& cfg);
  void compileTask(RingKernel* kernel, const blocks::RingPtr& ring,
                   workers::SubstrateStats& stats);
  void downgradeTo(RingKernel* kernel, workers::SubstrateStats& stats);

  mutable std::mutex mutex_;
  std::deque<RingKernel> kernels_;                    // stable addresses
  std::unordered_map<uint64_t, RingKernel*> byKey_;
  // In-flight compile groups, for waitForCompile(); settled entries are
  // pruned opportunistically.
  std::unordered_map<RingKernel*, std::shared_ptr<workers::TaskGroup>>
      inflight_;

  std::atomic<uint64_t> compiles_{0};
  std::atomic<uint64_t> installs_{0};
  std::atomic<uint64_t> promotions_{0};
  std::atomic<uint64_t> downgrades_{0};
  std::atomic<uint64_t> nativeItems_{0};
};

}  // namespace psnap::native
