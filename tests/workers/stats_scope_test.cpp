// SubstrateStats scoping (the per-tenant attribution backbone): scope
// redirection and restoration, parent-chain rollup, explicit reset, and
// capture-at-construction attribution for work that runs on pool threads.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "blocks/value.hpp"
#include "workers/parallel.hpp"
#include "workers/stats.hpp"
#include "workers/task_group.hpp"

namespace psnap::workers {
namespace {

using blocks::Value;

TEST(StatsScope, RedirectsAndRestores) {
  EXPECT_EQ(&substrateStats(), &processSubstrateStats());
  SubstrateStats tenantA;
  SubstrateStats tenantB;
  {
    StatsScope outer(tenantA);
    EXPECT_EQ(&substrateStats(), &tenantA);
    {
      StatsScope inner(tenantB);
      EXPECT_EQ(&substrateStats(), &tenantB);
    }
    EXPECT_EQ(&substrateStats(), &tenantA);
  }
  EXPECT_EQ(&substrateStats(), &processSubstrateStats());
}

TEST(StatsScope, BumpRollsUpTheParentChain) {
  SubstrateStats root;
  SubstrateStats tenant;
  tenant.setParent(&root);
  tenant.bump(&SubstrateStats::retries);
  tenant.bump(&SubstrateStats::retries);
  tenant.bump(&SubstrateStats::downgrades);
  EXPECT_EQ(tenant.retries.load(), 2u);
  EXPECT_EQ(root.retries.load(), 2u);
  EXPECT_EQ(tenant.downgrades.load(), 1u);
  EXPECT_EQ(root.downgrades.load(), 1u);
  // Recording directly on the parent does not touch the child.
  root.bump(&SubstrateStats::retries);
  EXPECT_EQ(tenant.retries.load(), 2u);
  EXPECT_EQ(root.retries.load(), 3u);
}

TEST(StatsScope, ResetClearsOnlyThatScope) {
  SubstrateStats root;
  SubstrateStats tenant;
  tenant.setParent(&root);
  tenant.bump(&SubstrateStats::cancellations);
  tenant.reset();
  EXPECT_EQ(tenant.cancellations.load(), 0u);
  // The parent keeps its rollup: the event did happen.
  EXPECT_EQ(root.cancellations.load(), 1u);
}

TEST(StatsScope, TaskGroupChargesTheConstructingScope) {
  SubstrateStats tenant;
  TaskGroup* group = nullptr;
  std::vector<TaskGroup::Task> tasks;
  tasks.emplace_back([](size_t) {});
  {
    StatsScope scope(tenant);
    group = new TaskGroup(std::move(tasks));
  }
  // The cancel happens *outside* the tenant's scope (as it would on a
  // pool worker thread) yet is still charged to the constructing tenant.
  const auto rootBefore =
      processSubstrateStats().cancellations.load();
  group->cancel();
  EXPECT_EQ(tenant.cancellations.load(), 1u);
  EXPECT_EQ(processSubstrateStats().cancellations.load(), rootBefore);
  delete group;
}

TEST(StatsScope, ParallelTimeoutChargesTheConstructingScope) {
  SubstrateStats tenant;
  tenant.setParent(&processSubstrateStats());
  std::vector<Value> input;
  for (int i = 0; i < 8; ++i) input.emplace_back(i);
  {
    StatsScope scope(tenant);
    // A deadline that expires almost immediately, against a map slow
    // enough that it cannot finish first: wait() trips as a timeout, and
    // the trip is recorded into the scope captured at construction.
    Parallel p(input,
               {.maxWorkers = 2, .cancel = CancelToken::withDeadline(1e-6)});
    p.map([](const Value& v) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return v;
    });
    p.wait();
    EXPECT_TRUE(p.failed());
    EXPECT_EQ(p.errorClass(), ErrorClass::Timeout);
  }
  EXPECT_GE(tenant.timeouts.load(), 1u);
}

// ---- generation-stamped leases (the checkpoint/recycle race fix) -------
//
// An async recording site (the native tier's fire-and-forget compile)
// can outlive its tenant: by the time the pooled task records its
// downgrade, the session may have been finalized and its slot recycled.
// AsyncStatsHandle must charge the tenant only while its lease is
// current, and fall back to the root ledger afterwards — never a freed
// scope, never the *next* tenant occupying the same address.

TEST(StatsLease, ChargesWhileLeasedThenFallsBackToRoot) {
  SubstrateStats tenant;
  registerStatsScope(tenant);
  AsyncStatsHandle handle;
  {
    StatsScope scope(tenant);
    handle = AsyncStatsHandle::capture();
  }
  EXPECT_TRUE(handle.scoped());
  handle.bump(&SubstrateStats::nativeDowngrades);
  EXPECT_EQ(tenant.nativeDowngrades.load(), 1u);

  const auto rootBefore = processSubstrateStats().nativeDowngrades.load();
  retireStatsScope(tenant);
  // The session is gone; a late async completion must not touch it.
  handle.bump(&SubstrateStats::nativeDowngrades);
  EXPECT_EQ(tenant.nativeDowngrades.load(), 1u);
  EXPECT_EQ(processSubstrateStats().nativeDowngrades.load(), rootBefore + 1);
}

TEST(StatsLease, RecycledAddressDoesNotInheritTheOldLease) {
  // The PR-8 regression: tenant A's scope is retired and the *same
  // address* is re-registered for tenant B (a recycled session slot). A
  // handle captured under A's lease must not charge B.
  SubstrateStats slot;
  registerStatsScope(slot);
  AsyncStatsHandle stale;
  {
    StatsScope scope(slot);
    stale = AsyncStatsHandle::capture();
  }
  retireStatsScope(slot);
  registerStatsScope(slot);  // tenant B moves in; fresh generation
  const auto rootBefore = processSubstrateStats().nativeDowngrades.load();
  stale.bump(&SubstrateStats::nativeDowngrades);
  EXPECT_EQ(slot.nativeDowngrades.load(), 0u);
  EXPECT_EQ(processSubstrateStats().nativeDowngrades.load(), rootBefore + 1);
  retireStatsScope(slot);
}

TEST(StatsLease, UnleasedScopeCapturesAsRootHandle) {
  SubstrateStats unleased;
  StatsScope scope(unleased);
  const AsyncStatsHandle handle = AsyncStatsHandle::capture();
  // No liveness guarantee without a lease: the handle degrades to root.
  EXPECT_FALSE(handle.scoped());
  const auto rootBefore = processSubstrateStats().retries.load();
  handle.bump(&SubstrateStats::retries);
  EXPECT_EQ(unleased.retries.load(), 0u);
  EXPECT_EQ(processSubstrateStats().retries.load(), rootBefore + 1);
}

TEST(StatsLease, DirectHandleChargesWithoutARegistryLease) {
  SubstrateStats scope;
  const AsyncStatsHandle handle = AsyncStatsHandle::direct(scope);
  handle.bump(&SubstrateStats::downgrades);
  EXPECT_EQ(scope.downgrades.load(), 1u);
}

}  // namespace
}  // namespace psnap::workers
