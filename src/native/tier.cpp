#include "native/tier.hpp"

#include <cstdlib>
#include <utility>
#include <vector>

#include "native/cache.hpp"
#include "native/loader.hpp"
#include "support/fault.hpp"
#include "workers/worker_pool.hpp"

namespace psnap::native {

using blocks::Ring;
using blocks::RingPtr;
using codegen::KernelShape;
using workers::SubstrateStats;
using workers::TaskGroup;

const char* kernelStateName(KernelState state) {
  switch (state) {
    case KernelState::Cold: return "cold";
    case KernelState::Compiling: return "compiling";
    case KernelState::Ready: return "ready";
    case KernelState::Trusted: return "trusted";
    case KernelState::Downgraded: return "downgraded";
  }
  return "unknown";
}

// --- config -----------------------------------------------------------------

const TierConfig& defaultTierConfig() {
  static const TierConfig config = [] {
    TierConfig c;
    const char* env = std::getenv("PSNAP_NATIVE_TIER");
    if (env && env[0] == '0' && env[1] == '\0') c.enabled = false;
    return c;
  }();
  return config;
}

// --- manager ----------------------------------------------------------------

TierManager& TierManager::instance() {
  // Leaked singleton: dispatch records and the kernels they point into
  // must outlive every static-destruction-order race with pool threads.
  static TierManager* manager = new TierManager();
  return *manager;
}

RingKernel* TierManager::lookup(const Ring& ring, KernelShape shape) {
  const uint64_t key = codegen::kernelContentKey(ring, shape);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = byKey_.find(key);
  if (it != byKey_.end()) return it->second;
  kernels_.emplace_back();
  RingKernel* kernel = &kernels_.back();
  kernel->key = key;
  kernel->shape = shape;
  byKey_.emplace(key, kernel);
  return kernel;
}

void TierManager::recordCalls(RingKernel* kernel, const RingPtr& ring,
                              uint64_t count, const TierConfig& cfg) {
  if (!cfg.enabled || !ring) return;
  const uint64_t total =
      kernel->calls.fetch_add(count, std::memory_order_relaxed) + count;
  if (total < cfg.hotThreshold) return;
  KernelState expected = KernelState::Cold;
  if (!kernel->state.compare_exchange_strong(expected, KernelState::Compiling,
                                             std::memory_order_acq_rel)) {
    return;  // already compiling, installed, or retired
  }
  startCompile(kernel, ring, cfg);
}

namespace {

/// Exit-order guard for the async compile path. The function-local static
/// below is constructed on the first async compile — AFTER the kernel
/// cache and the shared pool statics it forces into existence — so its
/// destructor (which joins every in-flight compile group) runs BEFORE
/// either of them is torn down. Without it, a fire-and-forget compile can
/// still be running gcc while static destructors dismantle the world
/// under it: this is the only group in the substrate nobody waits on.
struct InflightCompileJoin {
  ~InflightCompileJoin() { TierManager::instance().joinInflightCompiles(); }
};

}  // namespace

void TierManager::startCompile(RingKernel* kernel, RingPtr ring,
                               const TierConfig& cfg) {
  if (cfg.synchronousCompile) {
    // Synchronous (test) path: the compile runs on the tenant's thread,
    // so its downgrade accounting lands in the tenant's scope.
    compileTask(kernel, ring, workers::substrateStats());
    return;
  }
  KernelCache::instance();
  workers::WorkerPool::shared();
  static InflightCompileJoin exitJoin;
  // The compile outlives this frame, and may outlive the tenant, so it
  // holds nothing of the tenant's: the group and the task both charge
  // the root ledger, which every tenant's counts roll up into.
  auto task = [this, kernel, ring](size_t) {
    compileTask(kernel, ring, workers::processSubstrateStats());
  };
  auto group = std::make_shared<TaskGroup>(
      std::vector<TaskGroup::Task>{std::move(task)}, nullptr,
      &workers::processSubstrateStats());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Prune settled groups so the map stays bounded by in-flight work.
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      it = it->second->done() ? inflight_.erase(it) : std::next(it);
    }
    inflight_[kernel] = group;
  }
  try {
    workers::WorkerPool::shared().submit(group);
  } catch (const SubstrateError&) {
    // Pool refused the launch. Revert to Cold so a later threshold
    // crossing retries, bounded by maxCompileAttempts.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(kernel);
    }
    const int attempt =
        kernel->attempts.fetch_add(1, std::memory_order_relaxed) + 1;
    if (attempt >= cfg.maxCompileAttempts) {
      // The refusal is observed on the tenant's thread, so this one IS
      // attributable to the tenant's scope.
      downgradeTo(kernel, workers::substrateStats());
    } else {
      kernel->calls.store(0, std::memory_order_relaxed);
      kernel->state.store(KernelState::Cold, std::memory_order_release);
    }
  }
}

void TierManager::compileTask(RingKernel* kernel, const RingPtr& ring,
                              SubstrateStats& stats) {
  compiles_.fetch_add(1, std::memory_order_relaxed);
  try {
    // The chaos suite's hook: a NativeCompileFailure here must leave the
    // tier permanently on the interpreter for this ring, with the
    // downgrade accounted — never a crash, never a wrong value.
    fault::inject(fault::Point::NativeCompileFailure);
    codegen::NativeKernelSource source =
        codegen::emitNativeKernel(*ring, kernel->shape);
    std::filesystem::path lib =
        KernelCache::instance().compile(source.sources, kernel->key);
    SharedLibrary library = SharedLibrary::open(lib);
    kernel->paramUsed = source.paramUsed;
    kernel->returnsBool = source.returnsBool;
    switch (kernel->shape) {
      case KernelShape::Unary:
        kernel->unary = library.require<UnaryFn>("psnap_kernel");
        kernel->unaryBatch =
            library.require<UnaryBatchFn>("psnap_kernel_batch");
        break;
      case KernelShape::Fold:
        kernel->fold = library.require<FoldFn>("psnap_kernel_fold");
        break;
    }
    // Release-publish: pointer writes above happen-before any caller's
    // acquire load that observes Ready.
    kernel->state.store(KernelState::Ready, std::memory_order_release);
    installs_.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // Emission outside the subset, compiler failure, dlopen failure, or
    // the injected fault: this ring shape is interpreter-only forever.
    downgradeTo(kernel, stats);
  }
}

void TierManager::promote(RingKernel* kernel) {
  KernelState expected = KernelState::Ready;
  if (kernel->state.compare_exchange_strong(expected, KernelState::Trusted,
                                            std::memory_order_acq_rel)) {
    promotions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TierManager::downgrade(RingKernel* kernel) {
  downgradeTo(kernel, workers::substrateStats());
}

void TierManager::downgradeTo(RingKernel* kernel, SubstrateStats& stats) {
  if (kernel->state.exchange(KernelState::Downgraded,
                             std::memory_order_acq_rel) !=
      KernelState::Downgraded) {
    downgrades_.fetch_add(1, std::memory_order_relaxed);
    stats.bump(&SubstrateStats::nativeDowngrades);
  }
}

void TierManager::waitForCompile(RingKernel* kernel) {
  std::shared_ptr<TaskGroup> group;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(kernel);
    if (it != inflight_.end()) group = it->second;
  }
  if (group) group->wait();
}

void TierManager::joinInflightCompiles() {
  std::vector<std::shared_ptr<TaskGroup>> groups;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    groups.reserve(inflight_.size());
    for (auto& [kernel, group] : inflight_) groups.push_back(group);
    inflight_.clear();
  }
  // wait() drains unclaimed tasks on this thread, so the join completes
  // even if the pool never picked the runner up.
  for (auto& group : groups) group->wait();
}

TierStats TierManager::stats() const {
  TierStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.kernels = kernels_.size();
  }
  out.compiles = compiles_.load(std::memory_order_relaxed);
  out.installs = installs_.load(std::memory_order_relaxed);
  out.promotions = promotions_.load(std::memory_order_relaxed);
  out.downgrades = downgrades_.load(std::memory_order_relaxed);
  out.nativeItems = nativeItems_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace psnap::native
