// Chaos for the native tier: injected compile failures, pool-refused
// compile submits, and the async install racing live dispatch and
// fault-ridden parallel maps. The invariant under every fault is the
// same as the substrate's: the computed values are exactly the
// interpreter's, and every failure lands in a typed, accounted state.
#include <gtest/gtest.h>

#include <memory>

#include "blocks/builder.hpp"
#include "codegen/toolchain.hpp"
#include "core/pure_eval.hpp"
#include "core/tiering.hpp"
#include "native/tier.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "vm/process.hpp"
#include "workers/parallel.hpp"
#include "workers/stats.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::EnvPtr;
using blocks::RingPtr;
using blocks::Value;
using codegen::KernelShape;
using codegen::Toolchain;
using native::KernelState;
using native::RingKernel;
using native::TierConfig;
using native::TierManager;

RingPtr makeRing(blocks::BlockPtr reify, EnvPtr env = nullptr) {
  static vm::PrimitiveTable prims = vm::PrimitiveTable::standard();
  static vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.startExpression(std::move(reify), env ? env : Environment::make());
  return p.runToCompletion().asRing();
}

KernelState stateOf(const RingPtr& ring, KernelShape shape) {
  return TierManager::instance().lookup(*ring, shape)->currentState();
}

TEST(NativeChaos, InjectedCompileFailureDowngradesPermanently) {
  // No compiler needed: the fault fires before the emitter runs.
  workers::SubstrateStats local;
  workers::StatsScope statsScope(local);
  RingPtr ring = makeRing(build::ring(sum(product(empty(), 5.0), 8087.0)));
  TierConfig cfg;
  cfg.hotThreshold = 2;
  cfg.synchronousCompile = true;
  TieredUnary tiered = tieredUnary(ring, cfg);

  fault::Config chaos;
  chaos.pointMask = fault::maskOf(fault::Point::NativeCompileFailure);
  chaos.rateNumerator = 1;
  chaos.rateDenominator = 1;
  {
    fault::ScopedFault arm(chaos);
    EXPECT_EQ(tiered.fn(Value(1.0)).asNumber(), 8092.0);
    EXPECT_EQ(tiered.fn(Value(2.0)).asNumber(), 8097.0);
    EXPECT_EQ(fault::firedCount(fault::Point::NativeCompileFailure), 1u);
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Downgraded);
  EXPECT_EQ(local.nativeDowngrades.load(), 1u);
  // Permanent: with the fault disarmed (and a compiler possibly
  // available), the kernel never retries — the interpreter serves, the
  // values stay right, the downgrade stays counted once.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(tiered.fn(Value(double(i))).asNumber(), i * 5.0 + 8087.0);
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Downgraded);
  EXPECT_EQ(local.nativeDowngrades.load(), 1u);
}

TEST(NativeChaos, PoolRefusalRetriesThenDowngrades) {
  // Every async compile submit is refused by the saturated pool: the
  // kernel reverts to Cold and retries on later threshold crossings,
  // bounded by maxCompileAttempts, then downgrades with accounting.
  workers::SubstrateStats local;
  workers::StatsScope statsScope(local);
  RingPtr ring = makeRing(build::ring(difference(empty(), 9973.0)));
  TierConfig cfg;
  cfg.hotThreshold = 2;
  cfg.maxCompileAttempts = 3;
  cfg.synchronousCompile = false;
  TieredUnary tiered = tieredUnary(ring, cfg);

  fault::Config chaos;
  chaos.pointMask = fault::maskOf(fault::Point::PoolSaturation);
  chaos.rateNumerator = 1;
  chaos.rateDenominator = 1;
  fault::ScopedFault arm(chaos);

  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);
  int calls = 0;
  while (kernel->currentState() != KernelState::Downgraded && calls < 64) {
    Value v(double(++calls));
    EXPECT_EQ(tiered.fn(v).asNumber(), calls - 9973.0);
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Downgraded);
  EXPECT_EQ(kernel->attempts.load(), 3);
  EXPECT_EQ(local.nativeDowngrades.load(), 1u);
  // Three refused submits = three threshold crossings of 2 calls each,
  // plus the final call that observed Downgraded.
  EXPECT_LE(calls, 8);
}

TEST(NativeChaos, AsyncInstallRacesLiveDispatch) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // The production path: the compile runs on a pool worker while the
  // caller keeps dispatching. Every value produced during Cold,
  // Compiling, the install instant, Ready validation, and Trusted
  // service must be identical.
  RingPtr ring = makeRing(build::ring(sum(product(empty(), 7.0), 0.375)));
  TierConfig cfg;
  cfg.hotThreshold = 64;
  cfg.synchronousCompile = false;
  TieredUnary tiered = tieredUnary(ring, cfg);

  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);
  int i = 0;
  // Race the install: keep calling until well after the compile lands.
  for (; i < 20000 && kernel->currentState() != KernelState::Trusted; ++i) {
    ASSERT_EQ(tiered.fn(Value(double(i))).asNumber(), i * 7.0 + 0.375) << i;
  }
  TierManager::instance().waitForCompile(kernel);
  for (int j = 0; j < 64; ++j, ++i) {
    ASSERT_EQ(tiered.fn(Value(double(i))).asNumber(), i * 7.0 + 0.375);
  }
  EXPECT_EQ(kernel->currentState(), KernelState::Trusted);
  EXPECT_GT(kernel->nativeCalls.load(), 0u);
}

TEST(NativeChaos, InstallRacesFaultRiddenParallelMap) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // The full stack under chaos: a Parallel map using the tiered batch
  // while TaskThrow kills chunks at random AND the compile install lands
  // mid-operation. The map's exact-retry invariant plus the batch's
  // all-or-nothing contract must keep the output exactly right.
  RingPtr ring = makeRing(build::ring(sum(product(empty(), 3.0), 0.0625)));
  TierConfig cfg;
  cfg.hotThreshold = 500;
  cfg.synchronousCompile = false;
  TieredUnary tiered = tieredUnary(ring, cfg);

  fault::Config chaos;
  chaos.seed = 404;
  chaos.pointMask = fault::maskOf(fault::Point::TaskThrow);
  chaos.rateNumerator = 1;
  chaos.rateDenominator = 8;
  fault::ScopedFault arm(chaos);

  int converged = 0;
  for (int round = 0; round < 6; ++round) {
    constexpr int kN = 600;
    std::vector<Value> values;
    values.reserve(kN);
    for (int i = 0; i < kN; ++i) values.emplace_back(double(i));
    workers::Parallel p(std::move(values),
                        {.maxWorkers = 4, .maxRetries = 6});
    p.map(tiered.fn, tiered.batch);
    p.wait();
    if (p.failed()) {
      // Retries exhausted: a typed substrate failure, never a corrupted
      // or partially-native result.
      EXPECT_THROW(p.data(), SubstrateError);
      continue;
    }
    ++converged;
    const auto& data = p.data();
    ASSERT_EQ(data.size(), size_t(kN));
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(data[size_t(i)].asNumber(), i * 3.0 + 0.0625)
          << "round " << round << " item " << i;
    }
  }
  EXPECT_GT(converged, 0);
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);
  TierManager::instance().waitForCompile(kernel);
  const KernelState state = kernel->currentState();
  // 3600 hot calls across the rounds: the kernel must have left Cold.
  // (Trusted on the happy path; Ready if the last round never revisited
  // it after install.)
  EXPECT_TRUE(state == KernelState::Trusted || state == KernelState::Ready)
      << native::kernelStateName(state);
}

TEST(NativeChaos, TenantFreedWhileItsCompileIsOnThePoolChargesTheRoot) {
  // No compiler needed: the fault fires before the emitter runs. The
  // tenant that heats the ring is gone before its async compile settles,
  // so the compile may touch nothing of it: the downgrade is charged to
  // the root ledger (the asan build checks the rest).
  RingPtr ring = makeRing(build::ring(sum(product(empty(), 7.0), 8161.0)));
  TierConfig cfg;
  cfg.hotThreshold = 2;
  cfg.synchronousCompile = false;

  fault::Config chaos;
  chaos.pointMask = fault::maskOf(fault::Point::NativeCompileFailure);
  chaos.rateNumerator = 1;
  chaos.rateDenominator = 1;
  fault::ScopedFault arm(chaos);

  workers::SubstrateStats& root = workers::processSubstrateStats();
  const uint64_t before = root.nativeDowngrades.load();
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);
  {
    auto tenant = std::make_unique<workers::SubstrateStats>();
    tenant->setParent(&root);
    workers::StatsScope statsScope(*tenant);
    TieredUnary tiered = tieredUnary(ring, cfg);
    EXPECT_EQ(tiered.fn(Value(1.0)).asNumber(), 8168.0);
    EXPECT_EQ(tiered.fn(Value(2.0)).asNumber(), 8175.0);
  }
  TierManager::instance().waitForCompile(kernel);
  EXPECT_EQ(fault::firedCount(fault::Point::NativeCompileFailure), 1u);
  EXPECT_EQ(kernel->currentState(), KernelState::Downgraded);
  EXPECT_EQ(root.nativeDowngrades.load() - before, 1u);
}

}  // namespace
}  // namespace psnap::core
