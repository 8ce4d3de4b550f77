// Completion-driven async suite: Future semantics (launch/compute/join),
// parked-process frame accounting and wake latency, and scheduler
// attribution for processes that fail while parked.
//
// The launch blocks return a pending Future immediately; `await` joins
// it, parking the process on the future's settlement instead of polling.
// These tests pin the semantics the paper's poll loop never had to
// define: join-after-resolve vs join-before-resolve, typed error
// rethrow, double-join idempotence, cancellation propagation from the
// owning process, and non-transferability across the worker boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blocks/builder.hpp"
#include "blocks/future.hpp"
#include "core/parallel_blocks.hpp"
#include "sched/thread_manager.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::EnvPtr;
using blocks::Future;
using blocks::FuturePtr;
using blocks::Value;
using sched::ThreadManager;

// --- Future unit semantics --------------------------------------------------

TEST(Future, ResolveFirstSettleWinsAndLateCallbackFiresInline) {
  FuturePtr fut = Future::make();
  EXPECT_EQ(fut->state(), Future::State::Pending);
  EXPECT_EQ(fut->display(), "(future: pending)");

  std::atomic<int> fired{0};
  fut->onSettle([&fired] { fired.fetch_add(1); });
  fut->resolve(Value(42));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(fut->state(), Future::State::Resolved);
  EXPECT_EQ(fut->value().asNumber(), 42);
  EXPECT_EQ(fut->display(), "(future: resolved)");

  // Later settles are no-ops: the first settlement is the settlement.
  fut->reject(std::make_exception_ptr(TypeError("too late")));
  EXPECT_EQ(fut->state(), Future::State::Resolved);
  fut->resolve(Value(7));
  EXPECT_EQ(fut->value().asNumber(), 42);

  // A callback registered after the edge runs before onSettle returns.
  fut->onSettle([&fired] { fired.fetch_add(1); });
  EXPECT_EQ(fired.load(), 2);
}

TEST(Future, RejectKeepsTheOriginalExceptionType) {
  FuturePtr fut = Future::make();
  fut->reject(std::make_exception_ptr(IndexError("item 5 of a 1-item list")));
  EXPECT_EQ(fut->state(), Future::State::Failed);
  EXPECT_EQ(fut->errorClass(), ErrorClass::Index);
  EXPECT_THROW(std::rethrow_exception(fut->error()), IndexError);
  // The value slot never existed.
  EXPECT_THROW(fut->value(), Error);
}

TEST(Future, CancelRunsHookOncePendingOnly) {
  FuturePtr fut = Future::make();
  std::atomic<int> hookRuns{0};
  std::string reasonSeen;
  fut->setCancelHook([&](const std::string& reason) {
    hookRuns.fetch_add(1);
    reasonSeen = reason;
    // The operation's cancel path settles the future — model that.
    fut->reject(std::make_exception_ptr(CancelledError(reason)));
  });
  fut->cancel("owner died");
  EXPECT_EQ(hookRuns.load(), 1);
  EXPECT_EQ(reasonSeen, "owner died");
  EXPECT_EQ(fut->errorClass(), ErrorClass::Cancelled);
  // Cancelling a settled future is a no-op (the hook is already gone).
  fut->cancel("again");
  EXPECT_EQ(hookRuns.load(), 1);
}

TEST(Future, IdentityEqualityAndNotTransferable) {
  FuturePtr fut = Future::make();
  Value a(fut);
  Value b(fut);
  Value other(Future::make());
  EXPECT_TRUE(a.equals(b));        // same settlement → equal
  EXPECT_FALSE(a.equals(other));   // distinct futures are never equal
  EXPECT_FALSE(a.equals(Value(1)));
  EXPECT_FALSE(a.isTransferable());
  EXPECT_THROW(a.structuredClone(), PurityError);
}

// --- launch / compute / join on the scheduler -------------------------------

class AsyncBlocksTest : public ::testing::Test {
 protected:
  AsyncBlocksTest() : prims_(fullPrimitiveTable()) {}
  vm::PrimitiveTable prims_;
};

TEST_F(AsyncBlocksTest, LaunchComputeJoinOverlapsWork) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("f", Value());
  env->declare("meanwhile", Value(0));
  env->declare("result", Value());
  auto handle = tm.spawnScript(
      scriptOf({setVar("f", launchParallelMap(ring(product(empty(), 2)),
                                              numbersFromTo(1, 500), 4)),
                // The launch returned immediately: the script computes
                // while the workers grind.
                setVar("meanwhile", sum(20, 22)),
                setVar("result", awaitValue(getVar("f")))}),
      env);
  tm.runUntilIdle();
  ASSERT_FALSE(handle.status->errored) << handle.status->error;
  EXPECT_EQ(env->get("meanwhile").asNumber(), 42);
  ASSERT_EQ(env->get("result").asList()->length(), 500u);
  EXPECT_EQ(env->get("result").asList()->item(500).asNumber(), 1000);
  // The variable still holds the (now resolved) future handle.
  ASSERT_TRUE(env->get("f").isFuture());
  EXPECT_EQ(env->get("f").asFuture()->state(), Future::State::Resolved);
}

TEST_F(AsyncBlocksTest, DoubleJoinReturnsTheSameValue) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("f", Value());
  env->declare("first", Value());
  env->declare("second", Value());
  auto handle = tm.spawnScript(
      scriptOf({setVar("f", launchMapReduce(
                                ring(In(1.0)), ring(lengthOf(empty())),
                                splitText("b a b a b", "whitespace"))),
                setVar("first", awaitValue(getVar("f"))),
                // Join-after-resolve: the second await must not park; it
                // reads the same settlement.
                setVar("second", awaitValue(getVar("f")))}),
      env);
  tm.runUntilIdle();
  ASSERT_FALSE(handle.status->errored) << handle.status->error;
  EXPECT_EQ(env->get("first").asList()->display(), "[[a, 2], [b, 3]]");
  EXPECT_TRUE(env->get("first").equals(env->get("second")));
}

TEST_F(AsyncBlocksTest, AwaitNonFutureIsIdentity) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  Value v = tm.evaluate(awaitValue(sum(40, 2)), Environment::make());
  EXPECT_EQ(v.asNumber(), 42);
}

TEST_F(AsyncBlocksTest, JoinFailedFutureRethrowsTypedError) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("f", Value());
  // map fn = `item 5 of (item)` over [[1]]: a deterministic user-script
  // IndexError on the worker, captured into the future.
  auto handle = tm.spawnScript(
      scriptOf({setVar("f", launchParallelMap(
                                ring(itemOf(In(5.0), empty())),
                                listOf({listOf({1})}))),
                say(awaitValue(getVar("f")))}),
      env);
  tm.runUntilIdle();
  ASSERT_TRUE(handle.status->errored);
  // The await rethrew the worker's error with its original class — not a
  // substrate wrapper, not a degrade (launch never runs sequentially).
  ASSERT_FALSE(tm.recordedErrors().empty());
  const auto& record = tm.recordedErrors().front();
  EXPECT_EQ(record.errorClass, ErrorClass::Index);
  ASSERT_TRUE(env->get("f").isFuture());
  EXPECT_EQ(env->get("f").asFuture()->state(), Future::State::Failed);
}

TEST_F(AsyncBlocksTest, FutureIsNotTransferableToWorkers) {
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("f", Value());
  auto handle = tm.spawnScript(
      scriptOf({setVar("f", launchParallelMap(ring(product(empty(), 2)),
                                              listOf({1, 2}))),
                // Shipping the future itself into a parallel block's data
                // must fail typed at the clone-in boundary.
                say(parallelMap(ring(empty()), listOf({getVar("f")})))}),
      env);
  tm.runUntilIdle();
  ASSERT_TRUE(handle.status->errored);
  ASSERT_FALSE(tm.recordedErrors().empty());
  EXPECT_EQ(tm.recordedErrors().front().errorClass, ErrorClass::Purity);
}

TEST_F(AsyncBlocksTest, TerminatingTheOwnerCancelsItsFutures) {
  // Stall every worker claim so the operation is still in flight when the
  // owning process dies; its adopted future must be cancelled through the
  // hook, and the cancel settles the future typed.
  fault::Config config;
  config.seed = 1;
  config.rateNumerator = 1;
  config.rateDenominator = 1;
  config.pointMask = fault::maskOf(fault::Point::WorkerStall);
  config.stallMicros = 2000;
  fault::ScopedFault armed(config);

  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto env = Environment::make();
  env->declare("f", Value());
  tm.spawnScript(
      scriptOf({setVar("f", launchParallelMap(ring(product(empty(), 2)),
                                              numbersFromTo(1, 64), 4)),
                forever(scriptOf({say(In("alive"))}))}),
      env);
  for (int i = 0; i < 3; ++i) tm.runFrame();
  ASSERT_TRUE(env->get("f").isFuture());
  FuturePtr fut = env->get("f").asFuture();
  tm.stopAll();
  tm.runUntilIdle();
  // The settle arrives from the pool as the cancelled chunks unwind.
  for (int i = 0; i < 20000 && !fut->settled(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(fut->settled());
  EXPECT_EQ(fut->state(), Future::State::Failed);
  EXPECT_TRUE(isSubstrateClass(fut->errorClass()));
}

// --- parked frame accounting and attribution --------------------------------

TEST_F(AsyncBlocksTest, ParkedAwaitConsumesZeroFrames) {
  // launch + await in one expression: the process launches, parks, and is
  // woken by the completion callback. However long the pool takes, the
  // scheduler executes only the handful of frames around the park — the
  // parked wait itself burns none (runUntilIdle sleeps on the wake hub).
  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  auto handle = tm.spawnExpression(
      awaitValue(launchParallelMap(ring(product(empty(), 3)),
                                   numbersFromTo(1, 20000), 2)),
      Environment::make());
  const uint64_t frames = tm.runUntilIdle();
  ASSERT_FALSE(handle.status->errored) << handle.status->error;
  EXPECT_EQ(handle.status->result.asList()->length(), 20000u);
  EXPECT_LE(frames, 8u);
}

TEST_F(AsyncBlocksTest, WakeFromParkBeatsTheHubWaitBound) {
  // The wake is notify-driven: a parked scheduler re-checks on its own
  // only every parkedWaitBound(), so a settle-to-finish latency below
  // that bound (p99 over the rounds) can only come from the completion
  // callback's hub notify, not from the wait timing out. No frame runs
  // while the only live process is parked.
  constexpr size_t kRounds = 40;
  constexpr double kItems = 8000;
  using Clock = std::chrono::steady_clock;
  std::vector<double> wakeSeconds;
  double boundSeconds = 0;
  uint64_t framesWhileParked = 0;
  for (size_t round = 0; round < kRounds; ++round) {
    ThreadManager tm(&BlockRegistry::standard(), &prims_);
    auto env = Environment::make();
    env->declare("f", Value());
    env->declare("result", Value());
    tm.spawnScript(
        scriptOf({setVar("f", launchParallelMap(ring(product(empty(), 3)),
                                                numbersFromTo(1, kItems), 4)),
                  setVar("result", awaitValue(getVar("f")))}),
        env);
    // The launch and the park happen in the process's first slice.
    for (int guard = 0; !env->get("f").isFuture() && guard < 8; ++guard) {
      tm.runFrame();
    }
    ASSERT_TRUE(env->get("f").isFuture()) << "round " << round;
    if (round == 0) boundSeconds = tm.parkedWaitBound();
    // This callback runs after the park's wake functor, possibly after
    // the process has finished, so it owns its slot (never this frame).
    auto settledAt = std::make_shared<std::atomic<int64_t>>(0);
    env->get("f").asFuture()->onSettle([settledAt] {
      settledAt->store(Clock::now().time_since_epoch().count());
    });
    const uint64_t executed = tm.runUntilIdle();
    const int64_t finishedAt = Clock::now().time_since_epoch().count();
    while (settledAt->load() == 0) std::this_thread::yield();
    const Clock::duration wake(finishedAt - settledAt->load());
    wakeSeconds.push_back(
        std::max(0.0, std::chrono::duration<double>(wake).count()));
    ASSERT_TRUE(env->get("result").isList()) << "round " << round;
    ASSERT_EQ(env->get("result").asList()->length(), size_t(kItems));
    // One frame resumes and finishes the woken process; any more ran
    // while it was parked.
    framesWhileParked += executed > 1 ? executed - 1 : 0;
  }
  std::sort(wakeSeconds.begin(), wakeSeconds.end());
  const double rank = 0.99 * double(kRounds - 1);
  const size_t lo = size_t(rank);
  const double p99 =
      wakeSeconds[lo] +
      (wakeSeconds[lo + 1] - wakeSeconds[lo]) * (rank - double(lo));
  EXPECT_GT(boundSeconds, 0.0);
  EXPECT_LT(p99, boundSeconds);
  EXPECT_EQ(framesWhileParked, 0u);
}

TEST_F(AsyncBlocksTest, DeadlineWhileParkedFailsWithOwnAttribution) {
  // Regression: a process that dies *while parked* (its deadline trips
  // during an in-flight completion wait) must land in the scheduler's
  // error log under its own id and opcode, exactly like a process that
  // fails mid-slice. The stall is longer than the deadline and sits
  // inside a worker claim, so the token trips while the op cannot
  // observe it — only pollParked() can fail the process.
  fault::Config config;
  config.seed = 1;
  config.rateNumerator = 1;
  config.rateDenominator = 1;
  config.pointMask = fault::maskOf(fault::Point::WorkerStall);
  config.stallMicros = 20000;
  fault::ScopedFault armed(config);

  ThreadManager tm(&BlockRegistry::standard(), &prims_);
  tm.setDefaultCancelToken(CancelToken::withDeadline(0.001));
  auto handle = tm.spawnExpression(
      awaitValue(launchParallelMap(ring(product(empty(), 2)),
                                   numbersFromTo(1, 8), 2)),
      Environment::make());
  const uint64_t processId = handle.process->id();
  tm.runUntilIdle();
  ASSERT_TRUE(handle.status->errored);
  ASSERT_FALSE(tm.recordedErrors().empty());
  const auto& record = tm.recordedErrors().front();
  EXPECT_EQ(record.processId, processId);
  EXPECT_EQ(record.errorClass, ErrorClass::Timeout);
  EXPECT_EQ(record.opcode, "reportAwait");
}

}  // namespace
}  // namespace psnap::core
