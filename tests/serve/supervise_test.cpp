// Supervision unit suite: checkpoint round-trips and pruning, the
// content-hash skip, restart-from-checkpoint with backoff and budget
// exhaustion, restart eligibility, drain + cold restart, and the
// supervision accounting — all deterministic (the chaos half lives in
// supervise_chaos_test.cpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "blocks/builder.hpp"
#include "scenarios/serve.hpp"
#include "serve/session_server.hpp"
#include "serve/supervise.hpp"
#include "support/fault.hpp"

namespace psnap::serve {
namespace {

class SuperviseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("psnap-supervise-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  ServerConfig supervisedConfig() const {
    ServerConfig config;
    config.checkpointDir = dir_.string();
    config.checkpointIntervalFrames = 2;
    config.restartPolicy.maxRestarts = 3;
    config.restartPolicy.backoffBaseFrames = 1;
    config.restartPolicy.backoffCapFrames = 8;
    return config;
  }

  size_t filesInDir() const {
    size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      (void)entry;
      ++count;
    }
    return count;
  }

  std::filesystem::path dir_;
};

SessionRecord recordOf(const SessionServer& server, uint64_t id) {
  for (const SessionRecord& record : server.records()) {
    if (record.id == id) return record;
  }
  ADD_FAILURE() << "no record for session " << id;
  return {};
}

TEST(SupervisePolicy, BackoffIsExponentialAndSaturates) {
  RestartPolicy policy;
  policy.backoffBaseFrames = 2;
  policy.backoffCapFrames = 64;
  EXPECT_EQ(policy.backoffFrames(0), 0u);
  EXPECT_EQ(policy.backoffFrames(1), 2u);
  EXPECT_EQ(policy.backoffFrames(2), 4u);
  EXPECT_EQ(policy.backoffFrames(5), 32u);
  EXPECT_EQ(policy.backoffFrames(6), 64u);
  EXPECT_EQ(policy.backoffFrames(7), 64u);   // cap holds
  EXPECT_EQ(policy.backoffFrames(200), 64u); // and survives shift overflow
}

TEST_F(SuperviseTest, CheckpointRoundTripsMetaAndProject) {
  project::Project project;
  project.name = "round-trip";
  project.globals.emplace_back("answer", blocks::Value(42.0));
  CheckpointMeta meta;
  meta.sessionId = 7;
  meta.seq = 3;
  meta.label = "ticker:12";
  meta.framesRun = 29;
  meta.restarts = 2;
  meta.clock = {29, 1.25, 0.5};
  writeCheckpoint(dir_.string(), meta, project);

  const auto loaded = loadNewestCheckpoint(dir_.string(), 7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.sessionId, 7u);
  EXPECT_EQ(loaded->meta.seq, 3u);
  EXPECT_EQ(loaded->meta.label, "ticker:12");
  EXPECT_EQ(loaded->meta.framesRun, 29u);
  EXPECT_EQ(loaded->meta.restarts, 2u);
  EXPECT_EQ(loaded->meta.clock.frame, 29u);
  EXPECT_DOUBLE_EQ(loaded->meta.clock.now, 1.25);
  EXPECT_DOUBLE_EQ(loaded->meta.clock.timerStart, 0.5);
  // The meta record travels as a reserved global and is stripped on load.
  ASSERT_EQ(loaded->project.globals.size(), 1u);
  EXPECT_EQ(loaded->project.globals[0].first, "answer");
  EXPECT_EQ(loaded->project.globals[0].second.asNumber(), 42.0);

  EXPECT_EQ(removeCheckpoints(dir_.string(), 7), 1u);
  EXPECT_FALSE(loadNewestCheckpoint(dir_.string(), 7).has_value());
}

TEST_F(SuperviseTest, WriterPrunesPastTheKeepHorizon) {
  project::Project project;
  CheckpointMeta meta;
  meta.sessionId = 4;
  for (uint64_t seq = 0; seq < 5; ++seq) {
    meta.seq = seq;
    meta.framesRun = seq * 10;
    writeCheckpoint(dir_.string(), meta, project);
  }
  const auto refs = listCheckpoints(dir_.string(), 4);
  ASSERT_EQ(refs.size(), kKeepGenerations);
  EXPECT_EQ(refs[0].seq, 4u);  // newest first
  EXPECT_EQ(refs[1].seq, 3u);
  const auto loaded = loadNewestCheckpoint(dir_.string(), 4);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.framesRun, 40u);
}

TEST_F(SuperviseTest, FingerprintSkipsUnchangedState) {
  // An idempotent workload captures the same project every interval:
  // exactly one generation is ever written, the rest are hash-skipped.
  SessionServer server(supervisedConfig());
  const uint64_t id = server.admit(scenarios::serveConcessionWorkload(2));
  server.runUntilQuiet(100000);
  const SessionRecord record = recordOf(server, id);
  EXPECT_EQ(record.state, SessionState::Completed);
  EXPECT_TRUE(record.outputOk);
  EXPECT_EQ(record.output, "Cup1=full;Cup2=full;Pitcher=pitcher");
  EXPECT_LE(record.checkpointsWritten, 1u);
  EXPECT_EQ(server.metrics().checkpointsSkipped, record.checkpointsSkipped);
  // Terminal completion removed the session's checkpoints.
  EXPECT_TRUE(listCheckpoints(dir_.string(), id).empty());
}

TEST_F(SuperviseTest, TickerWritesProgressCheckpoints) {
  SessionServer server(supervisedConfig());
  const uint64_t id = server.admit(scenarios::serveTickerWorkload(16));
  server.runUntilQuiet(100000);
  const SessionRecord record = recordOf(server, id);
  EXPECT_EQ(record.state, SessionState::Completed);
  EXPECT_TRUE(record.outputOk);
  EXPECT_EQ(record.output, "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16");
  // The list grows every frame, so intervals never hash-skip; at least
  // one pooled write settles (writes are async — frames never block on
  // disk, so a slow disk legitimately coalesces the rest).
  EXPECT_GE(record.checkpointsWritten, 1u);
  EXPECT_EQ(record.checkpointsSkipped, 0u);
  EXPECT_TRUE(listCheckpoints(dir_.string(), id).empty());
}

TEST_F(SuperviseTest, CheckpointCarriesTheMidRunPrefix) {
  SessionServer server(supervisedConfig());
  const uint64_t id = server.admit(scenarios::serveTickerWorkload(16));
  for (int f = 0; f < 9; ++f) server.runFrame();
  ASSERT_EQ(server.drain(), 1u);
  const auto loaded = loadNewestCheckpoint(dir_.string(), id);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->meta.label, "ticker:16");
  EXPECT_GE(loaded->meta.framesRun, 1u);
  // The snapshot holds exactly the prefix the session had built: the
  // mid-run state, not the input and not the final answer.
  const blocks::Value* ticks = nullptr;
  for (const auto& [name, value] : loaded->project.globals) {
    if (name == "ticks") ticks = &value;
  }
  ASSERT_NE(ticks, nullptr);
  ASSERT_TRUE(ticks->isList());
  const size_t length = ticks->asList()->length();
  EXPECT_GE(length, 1u);
  EXPECT_LT(length, 16u);
  for (size_t i = 1; i <= length; ++i) {
    EXPECT_EQ(ticks->asList()->item(i).asNumber(), double(i));
  }
}

TEST_F(SuperviseTest, UnsupervisedServerNeverTouchesDisk) {
  ServerConfig config;  // checkpointDir empty: supervision off
  SessionServer server(config);
  const uint64_t id = server.admit(scenarios::serveTickerWorkload(12));
  server.runUntilQuiet(100000);
  EXPECT_EQ(recordOf(server, id).checkpointsWritten, 0u);
  EXPECT_EQ(server.metrics().checkpointsWritten, 0u);
  EXPECT_EQ(filesInDir(), 0u);
}

TEST_F(SuperviseTest, SubstrateFailureRestartsFromCheckpoint) {
  SessionServer server(supervisedConfig());
  const uint64_t victim = server.admit(scenarios::serveTickerWorkload(24));
  const uint64_t clean = server.admit(scenarios::serveConcessionWorkload(2));
  // Let the ticker make (and checkpoint) real progress…
  for (int f = 0; f < 8; ++f) server.runFrame();
  {
    // …then kill its next frame slice with a targeted substrate fault.
    fault::Config config;
    config.rateNumerator = 1;
    config.rateDenominator = 1;
    config.pointMask = fault::maskOf(fault::Point::TenantStall);
    config.targetTag = victim;
    fault::ScopedFault armed(config);
    server.runFrame();
  }
  // The session is parked for backoff, not finished: still reported
  // Active, and the server is not quiet.
  EXPECT_EQ(server.pendingRestarts(), 1u);
  EXPECT_FALSE(server.quiet());
  EXPECT_EQ(recordOf(server, victim).state, SessionState::Active);

  server.runUntilQuiet(100000);
  const SessionRecord record = recordOf(server, victim);
  EXPECT_EQ(record.state, SessionState::Completed) << record.error;
  EXPECT_TRUE(record.outputOk);
  EXPECT_EQ(record.restarts, 1u);
  // The revived life inherited checkpointed progress.
  EXPECT_GE(record.recoveredFrames, 1u);
  EXPECT_EQ(record.output,
            "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24");
  EXPECT_EQ(server.metrics().restarts, 1u);
  EXPECT_EQ(server.metrics().restartsExhausted, 0u);
  EXPECT_EQ(recordOf(server, clean).state, SessionState::Completed);
  EXPECT_TRUE(listCheckpoints(dir_.string(), victim).empty());
}

TEST_F(SuperviseTest, RestartBudgetExhaustsWithTypedError) {
  ServerConfig config = supervisedConfig();
  config.restartPolicy.maxRestarts = 2;
  SessionServer server(config);
  const uint64_t victim = server.admit(scenarios::serveTickerWorkload(24));
  const uint64_t clean = server.admit(scenarios::serveConcessionWorkload(2));
  {
    // Every frame slice of the victim dies, in every life: the budget
    // burns down and the session finalizes RestartsExhausted.
    fault::Config chaos;
    chaos.rateNumerator = 1;
    chaos.rateDenominator = 1;
    chaos.pointMask = fault::maskOf(fault::Point::TenantStall);
    chaos.targetTag = victim;
    fault::ScopedFault armed(chaos);
    server.runUntilQuiet(100000);
  }
  const SessionRecord record = recordOf(server, victim);
  EXPECT_EQ(record.state, SessionState::Failed);
  EXPECT_EQ(record.errorClass, ErrorClass::RestartsExhausted);
  EXPECT_NE(record.error.find("restarts exhausted"), std::string::npos)
      << record.error;
  EXPECT_EQ(record.restarts, 2u);
  EXPECT_EQ(server.metrics().restartsExhausted, 1u);
  EXPECT_EQ(server.metrics().restarts, 2u);
  // Terminal failure cleans the disk; the bystander finished untouched.
  EXPECT_TRUE(listCheckpoints(dir_.string(), victim).empty());
  EXPECT_EQ(recordOf(server, clean).state, SessionState::Completed);
}

TEST_F(SuperviseTest, UserScriptErrorsNeverRestart) {
  SessionServer server(supervisedConfig());
  SessionWorkload broken = scenarios::serveTickerWorkload(8);
  broken.label = "ticker:8";
  broken.start = [](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    using namespace psnap::build;
    // A deterministic user-script IndexError: replaying it from a
    // checkpoint would reproduce it, so no restart may be attempted.
    tm.spawnExpression(itemOf(In(5.0), listOf({In(1.0)})),
                       blocks::Environment::make());
    return nullptr;
  };
  const uint64_t id = server.admit(broken);
  server.runUntilQuiet(100000);
  const SessionRecord record = recordOf(server, id);
  EXPECT_EQ(record.state, SessionState::Failed);
  EXPECT_EQ(record.errorClass, ErrorClass::Index);
  EXPECT_EQ(record.restarts, 0u);
  EXPECT_EQ(server.metrics().restarts, 0u);
}

TEST_F(SuperviseTest, DrainClosesAdmissionAndKeepsCheckpoints) {
  SessionServer server(supervisedConfig());
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < 4; ++i) {
    ids.push_back(server.admit(scenarios::serveTickerWorkload(40 + i * 8)));
  }
  for (int f = 0; f < 6; ++f) server.runFrame();
  EXPECT_EQ(server.drain(), 4u);
  EXPECT_TRUE(server.draining());
  EXPECT_TRUE(server.quiet());
  EXPECT_EQ(server.metrics().drained, 4u);
  for (uint64_t id : ids) {
    EXPECT_EQ(recordOf(server, id).state, SessionState::Drained);
    // The hand-off: every drained session left a loadable checkpoint.
    EXPECT_FALSE(listCheckpoints(dir_.string(), id).empty());
  }
  try {
    server.admit(scenarios::serveTickerWorkload(8));
    FAIL() << "admission after drain must throw";
  } catch (const SubstrateError& e) {
    EXPECT_NE(std::string(e.what()).find("draining"), std::string::npos);
  }
  EXPECT_EQ(server.metrics().rejected, 1u);
}

TEST_F(SuperviseTest, ColdRestartResumesByteIdentical) {
  // Reference: the same workloads, uninterrupted.
  std::map<uint64_t, std::string> reference;
  {
    ServerConfig config;
    SessionServer uninterrupted(config);
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < 6; ++i) {
      ids.push_back(
          uninterrupted.admit(scenarios::serveMixedRecoverableWorkload(i)));
    }
    uninterrupted.runUntilQuiet(200000);
    for (uint64_t id : ids) {
      const SessionRecord record = recordOf(uninterrupted, id);
      ASSERT_EQ(record.state, SessionState::Completed) << record.label;
      reference[id] = record.output;
    }
  }
  // Interrupted: run a few frames, drain, and hand off to a successor.
  size_t drained = 0;
  {
    SessionServer first(supervisedConfig());
    for (size_t i = 0; i < 6; ++i) {
      first.admit(scenarios::serveMixedRecoverableWorkload(i));
    }
    for (int f = 0; f < 5; ++f) first.runFrame();
    drained = first.drain();
    EXPECT_EQ(drained + first.metrics().completed, 6u);
    EXPECT_EQ(first.metrics().checkpointFailures, 0u);
  }
  SessionServer successor(supervisedConfig());
  const std::vector<uint64_t> recovered =
      successor.recoverSessions(scenarios::serveRecoveryFactory);
  EXPECT_EQ(successor.metrics().recovered, recovered.size());
  EXPECT_GE(recovered.size(), 1u);
  // The successor resumes exactly the drained population.
  EXPECT_EQ(recovered.size(), drained);
  successor.runUntilQuiet(200000);
  for (uint64_t id : recovered) {
    const SessionRecord record = recordOf(successor, id);
    EXPECT_EQ(record.state, SessionState::Completed)
        << record.label << ": " << record.error;
    EXPECT_TRUE(record.outputOk) << record.label;
    // The recovered run's output is byte-identical to the uninterrupted
    // run's.
    EXPECT_EQ(record.output, reference[id]) << record.label;
  }
  // Ids continue past the recovered ones.
  const uint64_t fresh =
      successor.admit(scenarios::serveTickerWorkload(8));
  EXPECT_GT(fresh, recovered.empty() ? 0 : recovered.back());
  successor.runUntilQuiet(200000);
}

TEST_F(SuperviseTest, SupervisedMixedStormCompletesWithoutWriteFailures) {
  // Checkpointing rides the fault-free path of a 200-session recoverable
  // storm: every session completes with its self-check intact, writes
  // land, and none fails.
  constexpr size_t kSessions = 200;
  ServerConfig config = supervisedConfig();
  config.maxSessions = kSessions;
  config.maxWorkers = 2;
  SessionServer server(config);
  for (size_t i = 0; i < kSessions; ++i) {
    server.admit(scenarios::serveMixedRecoverableWorkload(i));
  }
  server.runUntilQuiet(200000);
  EXPECT_EQ(server.metrics().completed, kSessions);
  for (const SessionRecord& record : server.records()) {
    EXPECT_EQ(record.state, SessionState::Completed)
        << record.label << ": " << record.error;
    EXPECT_TRUE(record.outputOk) << record.label;
  }
  EXPECT_GT(server.metrics().checkpointsWritten, 0u);
  EXPECT_EQ(server.metrics().checkpointFailures, 0u);
}

TEST_F(SuperviseTest, RecordsCarryCumulativeStatsAcrossRestart) {
  SessionServer server(supervisedConfig());
  const uint64_t victim = server.admit(scenarios::serveTickerWorkload(20));
  for (int f = 0; f < 6; ++f) server.runFrame();
  {
    fault::Config config;
    config.rateNumerator = 1;
    config.rateDenominator = 1;
    config.pointMask = fault::maskOf(fault::Point::TenantStall);
    config.targetTag = victim;
    fault::ScopedFault armed(config);
    server.runFrame();
  }
  server.runUntilQuiet(100000);
  const SessionRecord record = recordOf(server, victim);
  EXPECT_EQ(record.state, SessionState::Completed);
  // The failed life's checkpoint accounting survives into the final
  // record (written checkpoints from life 1 plus life 2).
  EXPECT_GE(record.checkpointsWritten, 1u);
  EXPECT_EQ(record.restarts, 1u);
}

TEST_F(SuperviseTest, RecordsCarrySubstrateCountsAcrossRestart) {
  // The first life never ends: the frame-budget watchdog bumps its
  // `timeouts` and trips it, and the TimeoutError makes it restartable.
  // The revived life resumes into a short script that finishes inside
  // the budget. The parked record carries the first life's counts; the
  // final record adds the second life's to them.
  using namespace psnap::build;
  ServerConfig config = supervisedConfig();
  config.frameBudget = 12;
  SessionServer server(config);
  SessionWorkload stubborn;
  stubborn.label = "stubborn";
  stubborn.start = [](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    tm.spawnScript(scriptOf({forever(scriptOf({busyWork(1)}))}),
                   blocks::Environment::make());
    return nullptr;
  };
  stubborn.capture = [](sched::ThreadManager&, const std::shared_ptr<void>&) {
    project::Project project;
    project.name = "stubborn";
    return project;
  };
  stubborn.resume = [](sched::ThreadManager& tm,
                       const project::Project&) -> std::shared_ptr<void> {
    tm.spawnScript(scriptOf({repeat(4, scriptOf({busyWork(1)}))}),
                   blocks::Environment::make());
    return nullptr;
  };
  const uint64_t id = server.admit(stubborn);
  while (server.pendingRestarts() == 0 && !server.quiet()) server.runFrame();
  ASSERT_EQ(server.pendingRestarts(), 1u);
  const SessionRecord parked = recordOf(server, id);
  EXPECT_EQ(parked.state, SessionState::Active);
  EXPECT_EQ(parked.timeouts, 1u);
  EXPECT_EQ(parked.restarts, 1u);
  EXPECT_GE(parked.checkpointsWritten, 1u);

  server.runUntilQuiet(100000);
  const SessionRecord record = recordOf(server, id);
  EXPECT_EQ(record.state, SessionState::Completed) << record.error;
  EXPECT_EQ(record.timeouts, parked.timeouts);
  EXPECT_EQ(record.restarts, parked.restarts);
  EXPECT_GE(record.checkpointsWritten, parked.checkpointsWritten);
  EXPECT_GT(record.recoveredFrames, 0u);
}

TEST_F(SuperviseTest, FramesRunCountsTheCurrentLife) {
  // Every record's framesRun is the frames of one life — the current
  // one, or the one that just failed while parked; progress inherited
  // from checkpoints is recoveredFrames alone. The second park is the
  // one that tells them apart: its life started from a checkpoint.
  SessionServer server(supervisedConfig());
  const uint64_t victim = server.admit(scenarios::serveTickerWorkload(40));
  fault::Config chaos;
  chaos.rateNumerator = 1;
  chaos.rateDenominator = 1;
  chaos.pointMask = fault::maskOf(fault::Point::TenantStall);
  chaos.targetTag = victim;
  for (int life = 1; life <= 2; ++life) {
    SCOPED_TRACE("life " + std::to_string(life));
    while (server.pendingRestarts() > 0) server.runFrame();
    for (int f = 0; f < 6; ++f) server.runFrame();
    const SessionRecord running = recordOf(server, victim);
    ASSERT_EQ(running.state, SessionState::Active);
    ASSERT_GE(running.framesRun, 6u);
    {
      fault::ScopedFault armed(chaos);
      server.runFrame();
    }
    ASSERT_EQ(server.pendingRestarts(), 1u);
    const SessionRecord parked = recordOf(server, victim);
    EXPECT_EQ(parked.framesRun, running.framesRun);
    EXPECT_EQ(parked.recoveredFrames, running.recoveredFrames);
    if (life == 2) {
      EXPECT_GT(parked.recoveredFrames, 0u);
    }
  }
  server.runUntilQuiet(100000);
  const SessionRecord record = recordOf(server, victim);
  EXPECT_EQ(record.state, SessionState::Completed) << record.error;
  EXPECT_EQ(record.restarts, 2u);
  EXPECT_GT(record.recoveredFrames, 0u);
  EXPECT_LT(record.framesRun, 40u);
}

}  // namespace
}  // namespace psnap::serve
