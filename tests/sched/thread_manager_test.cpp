// Scheduler semantics: frame interleaving, virtual clock, interference
// theft, broadcast bookkeeping, launch/poll, and error collection.
#include "sched/thread_manager.hpp"

#include <gtest/gtest.h>

#include "blocks/builder.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace psnap::sched {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::Value;

class SchedTest : public ::testing::Test {
 protected:
  SchedTest() : prims_(vm::PrimitiveTable::standard()) {}

  ThreadManager makeTm() {
    return ThreadManager(&BlockRegistry::standard(), &prims_);
  }

  vm::PrimitiveTable prims_;
};

TEST_F(SchedTest, ProcessesInterleavePerFrame) {
  auto tm = makeTm();
  auto env = Environment::make();
  env->declare("log", Value(blocks::List::make()));
  tm.spawnScript(scriptOf({repeat(3, scriptOf({addToList("A",
                                               getVar("log"))}))}),
                 env);
  tm.spawnScript(scriptOf({repeat(3, scriptOf({addToList("B",
                                               getVar("log"))}))}),
                 env);
  tm.runUntilIdle();
  // Round-robin within each frame: A B A B A B.
  EXPECT_EQ(env->get("log").asList()->display(), "[A, B, A, B, A, B]");
}

TEST_F(SchedTest, VirtualClockAdvancesPerFrame) {
  auto tm = makeTm();
  EXPECT_EQ(tm.nowSeconds(), 0.0);
  tm.runFrame();
  tm.runFrame();
  EXPECT_EQ(tm.nowSeconds(), 2.0);
  tm.setSecondsPerFrame(0.5);
  tm.runFrame();
  EXPECT_EQ(tm.nowSeconds(), 2.5);
}

TEST_F(SchedTest, ClockStateRoundTripsIntoFreshManager) {
  auto tm = makeTm();
  tm.setSecondsPerFrame(0.5);
  tm.runFrame();
  tm.runFrame();
  tm.resetTimer();
  tm.runFrame();
  const ThreadManager::ClockState state = tm.clockState();
  EXPECT_EQ(state.frame, 3u);
  EXPECT_EQ(state.now, 1.5);

  auto fresh = makeTm();
  fresh.setSecondsPerFrame(0.5);
  fresh.restoreClockState(state);
  EXPECT_EQ(fresh.frameCount(), 3u);
  EXPECT_EQ(fresh.nowSeconds(), 1.5);
  EXPECT_EQ(fresh.timerSeconds(), 0.5);  // timerStart carried over
  fresh.runFrame();
  EXPECT_EQ(fresh.frameCount(), 4u);
  EXPECT_EQ(fresh.nowSeconds(), 2.0);
}

TEST_F(SchedTest, TimerResets) {
  auto tm = makeTm();
  tm.runFrame();
  tm.runFrame();
  tm.resetTimer();
  tm.runFrame();
  EXPECT_EQ(tm.timerSeconds(), 1.0);
}

TEST_F(SchedTest, BusyProcessTakesExpectedFrames) {
  auto tm = makeTm();
  tm.spawnScript(scriptOf({busyWork(5)}), Environment::make());
  EXPECT_EQ(tm.runUntilIdle(), 5u);
}

TEST_F(SchedTest, InterferenceStealsFrames) {
  // Paper Fig. 10 footnote: a 9-frame sequential workload under the
  // default interference model observes 12 timesteps.
  auto tm = makeTm();
  tm.setInterference(InterferenceModel::paperDefault());
  tm.spawnScript(scriptOf({forEach("cup", listOf({"a", "b", "c"}),
                                   scriptOf({busyWork(3)}))}),
                 Environment::make());
  EXPECT_EQ(tm.runUntilIdle(), 12u);
}

TEST_F(SchedTest, NoInterferenceIsIdealNine) {
  auto tm = makeTm();
  tm.spawnScript(scriptOf({forEach("cup", listOf({"a", "b", "c"}),
                                   scriptOf({busyWork(3)}))}),
                 Environment::make());
  EXPECT_EQ(tm.runUntilIdle(), 9u);
}

TEST_F(SchedTest, InterferenceModelPredicate) {
  InterferenceModel model{3, 4};
  EXPECT_FALSE(model.steals(1));
  EXPECT_FALSE(model.steals(3));
  EXPECT_TRUE(model.steals(4));
  EXPECT_TRUE(model.steals(7));
  EXPECT_TRUE(model.steals(10));
  EXPECT_FALSE(model.steals(11));
  EXPECT_FALSE(InterferenceModel::none().steals(4));
}

TEST_F(SchedTest, SpawnedProcessStartsNextFrame) {
  auto tm = makeTm();
  auto env = Environment::make();
  env->declare("n", Value(0));
  // The outer script spawns nothing; but a process spawned mid-frame by a
  // primitive must not run in the same frame. We emulate by spawning
  // between frames and checking one frame runs one iteration.
  tm.spawnScript(scriptOf({changeVar("n", 1)}), env);
  EXPECT_EQ(env->get("n").asNumber(), 0);  // not yet run
  tm.runFrame();
  EXPECT_EQ(env->get("n").asNumber(), 1);
}

TEST_F(SchedTest, EvaluateReturnsExpressionResult) {
  auto tm = makeTm();
  Value v = tm.evaluate(sum(product(6, 7), 0), Environment::make());
  EXPECT_EQ(v.asNumber(), 42);
}

TEST_F(SchedTest, EvaluateThrowsOnError) {
  auto tm = makeTm();
  EXPECT_THROW(tm.evaluate(quotient(1, 0), Environment::make()), Error);
  EXPECT_EQ(tm.errors().size(), 1u);
}

TEST_F(SchedTest, StatusCarriesResult) {
  auto tm = makeTm();
  auto handle = tm.spawnExpression(sum(1, 2), Environment::make());
  tm.runUntilIdle();
  EXPECT_TRUE(handle.status->done);
  EXPECT_FALSE(handle.status->errored);
  EXPECT_EQ(handle.status->result.asNumber(), 3);
}

TEST_F(SchedTest, LaunchScriptStatusPolling) {
  auto tm = makeTm();
  auto status = tm.launchScript(scriptOf({busyWork(3)}),
                                Environment::make(), nullptr);
  EXPECT_FALSE(status->done);
  tm.runFrame();
  EXPECT_FALSE(status->done);
  tm.runUntilIdle();
  EXPECT_TRUE(status->done);
  EXPECT_FALSE(status->errored);
}

TEST_F(SchedTest, ErrorsAreCollected) {
  auto tm = makeTm();
  auto handle = tm.spawnScript(scriptOf({say(quotient(1, 0))}),
                               Environment::make());
  tm.runUntilIdle();
  EXPECT_TRUE(handle.status->errored);
  ASSERT_EQ(tm.errors().size(), 1u);
  EXPECT_NE(tm.errors()[0].find("division by zero"), std::string::npos);
}

TEST_F(SchedTest, RecordedErrorsCarryAttribution) {
  auto tm = makeTm();
  auto handle = tm.spawnScript(scriptOf({say(quotient(1, 0))}),
                               Environment::make());
  tm.runUntilIdle();
  ASSERT_TRUE(handle.status->errored);
  ASSERT_EQ(tm.recordedErrors().size(), 1u);
  const auto& record = tm.recordedErrors()[0];
  EXPECT_GT(record.processId, 0u);
  EXPECT_FALSE(record.opcode.empty());
  EXPECT_NE(record.message.find("division by zero"), std::string::npos);
  EXPECT_NE(record.errorClass, ErrorClass::None);
  // The string log carries the same attribution as a prefix.
  ASSERT_EQ(tm.errors().size(), 1u);
  EXPECT_EQ(tm.errors()[0].rfind("process ", 0), 0u);
  EXPECT_NE(tm.errors()[0].find(record.opcode), std::string::npos);
}

TEST_F(SchedTest, ErrorLogIsCapped) {
  auto tm = makeTm();
  const size_t spawned = ThreadManager::kMaxRecordedErrors + 5;
  for (size_t i = 0; i < spawned; ++i) {
    tm.spawnScript(scriptOf({say(quotient(1, 0))}), Environment::make());
  }
  tm.runUntilIdle();
  EXPECT_EQ(tm.errors().size(), ThreadManager::kMaxRecordedErrors);
  EXPECT_EQ(tm.recordedErrors().size(), ThreadManager::kMaxRecordedErrors);
  EXPECT_EQ(tm.droppedErrorCount(), 5u);
}

TEST_F(SchedTest, StopAllTerminatesEverything) {
  auto tm = makeTm();
  tm.spawnScript(scriptOf({forever(scriptOf({}))}), Environment::make());
  tm.spawnScript(scriptOf({forever(scriptOf({}))}), Environment::make());
  tm.runFrame();
  EXPECT_EQ(tm.runnableCount(), 2u);
  tm.stopAll();
  EXPECT_TRUE(tm.idle());
}

TEST_F(SchedTest, RunUntilIdleGuardsAgainstRunaways) {
  auto tm = makeTm();
  tm.spawnScript(scriptOf({forever(scriptOf({}))}), Environment::make());
  EXPECT_THROW(tm.runUntilIdle(100), Error);
  tm.stopAll();
}

TEST_F(SchedTest, FrameBudgetOverrunIsTypedAndNamesProcesses) {
  auto tm = makeTm();
  tm.spawnScript(scriptOf({forever(scriptOf({}))}), Environment::make());
  try {
    tm.runUntilIdle(50);
    FAIL() << "runUntilIdle should have exceeded its budget";
  } catch (const TimeoutError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frame budget"), std::string::npos);
    EXPECT_NE(what.find("still runnable: process "), std::string::npos);
  }
  tm.stopAll();
}

TEST_F(SchedTest, SayLogSurvivesReaping) {
  auto tm = makeTm();
  tm.spawnScript(scriptOf({say("first")}), Environment::make());
  tm.runUntilIdle();
  tm.spawnScript(scriptOf({say("second")}), Environment::make());
  tm.runUntilIdle();
  auto log = tm.collectSayLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "first");
  EXPECT_EQ(log[1], "second");
}

TEST_F(SchedTest, BroadcastWithoutListenersFinishesImmediately) {
  auto tm = makeTm();
  uint64_t token = tm.broadcast("nobody-home");
  EXPECT_TRUE(tm.broadcastFinished(token));
}

TEST_F(SchedTest, WaitBlockUsesSchedulerClock) {
  auto tm = makeTm();
  auto env = Environment::make();
  tm.spawnScript(scriptOf({wait(3), say("done")}), env);
  uint64_t frames = tm.runUntilIdle();
  EXPECT_EQ(frames, 4u);
  EXPECT_EQ(tm.collectSayLog().size(), 1u);
}

TEST_F(SchedTest, ErrorLogCapsAtSixtyFourAndDrains) {
  auto tm = makeTm();
  auto env = Environment::make();
  // 70 deterministic failures: 64 land in the capped log, 6 are dropped.
  constexpr size_t kFailures = ThreadManager::kMaxRecordedErrors + 6;
  for (size_t i = 0; i < kFailures; ++i) {
    tm.spawnExpression(itemOf(In(9.0), listOf({In(1.0)})), env);
  }
  tm.runUntilIdle();
  EXPECT_EQ(tm.recordedErrors().size(), ThreadManager::kMaxRecordedErrors);
  EXPECT_EQ(tm.errors().size(), ThreadManager::kMaxRecordedErrors);
  EXPECT_EQ(tm.droppedErrorCount(), 6u);

  ThreadManager::ErrorDrain drain = tm.drainErrors();
  EXPECT_EQ(drain.entries.size(), ThreadManager::kMaxRecordedErrors);
  EXPECT_EQ(drain.dropped, 6u);
  EXPECT_EQ(drain.entries.front().errorClass, ErrorClass::Index);
  EXPECT_NE(drain.entries.front().message.find("index error"),
            std::string::npos);

  // The drain resets everything: entries, string log, dropped count.
  EXPECT_TRUE(tm.recordedErrors().empty());
  EXPECT_TRUE(tm.errors().empty());
  EXPECT_EQ(tm.droppedErrorCount(), 0u);

  // And frees the cap's capacity: a fresh failure is recorded again.
  tm.spawnExpression(itemOf(In(9.0), listOf({In(1.0)})), env);
  tm.runUntilIdle();
  ASSERT_EQ(tm.recordedErrors().size(), 1u);
  EXPECT_EQ(tm.recordedErrors()[0].errorClass, ErrorClass::Index);
  EXPECT_EQ(tm.drainErrors().entries.size(), 1u);
}

// `pick random` draws from its manager's own stream, seeded 0x5eed: a
// manager's numbers do not depend on what another manager on the same
// thread drew before or between its frames.
TEST_F(SchedTest, EachManagerDrawsItsOwnRandomStream) {
  constexpr int kDraws = 6;
  struct Drawer {
    explicit Drawer(const vm::PrimitiveTable& prims)
        : tm(&BlockRegistry::standard(), &prims), env(Environment::make()) {
      env->declare("draws", Value(blocks::List::make()));
      tm.spawnScript(
          scriptOf({repeat(kDraws, scriptOf({addToList(
                                       pickRandom(1, 1000000),
                                       getVar("draws"))}))}),
          env);
    }
    std::string draws() const { return env->get("draws").display(); }
    ThreadManager tm;
    blocks::EnvPtr env;
  };

  Rng reference(0x5eedULL);
  auto expected = blocks::List::make();
  for (int i = 0; i < kDraws; ++i) {
    expected->add(Value(double(reference.between(1, 1000000))));
  }

  Drawer alone(prims_);
  alone.tm.runUntilIdle();
  EXPECT_EQ(alone.draws(), Value(expected).display());

  Drawer a(prims_);
  Drawer b(prims_);
  while (!a.tm.idle() || !b.tm.idle()) {
    a.tm.runFrame();
    b.tm.runFrame();
  }
  EXPECT_EQ(a.draws(), alone.draws());
  EXPECT_EQ(b.draws(), alone.draws());
}

}  // namespace
}  // namespace psnap::sched
