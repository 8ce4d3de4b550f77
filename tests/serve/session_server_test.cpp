// SessionServer unit suite: admission control, fair slicing, per-tenant
// watchdog/deadline isolation, crash containment, and shedding — all
// deterministic (fault injection lives in serve_chaos_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "blocks/builder.hpp"
#include "codegen/toolchain.hpp"
#include "core/parallel_blocks.hpp"
#include "core/tiering.hpp"
#include "native/tier.hpp"
#include "scenarios/serve.hpp"
#include "sched/thread_manager.hpp"
#include "serve/session_server.hpp"
#include "support/fault.hpp"
#include "workers/stats.hpp"

namespace psnap::serve {
namespace {

using namespace psnap::build;

/// The record for `id`, which must exist.
SessionRecord recordOf(const SessionServer& server, uint64_t id) {
  for (const SessionRecord& record : server.records()) {
    if (record.id == id) return record;
  }
  ADD_FAILURE() << "no record for session " << id;
  return {};
}

TEST(SessionServer, AdmissionCapRejectsTyped) {
  ServerConfig config;
  config.maxSessions = 2;
  SessionServer server(config);
  server.admit(scenarios::serveSpinWorkload());
  server.admit(scenarios::serveSpinWorkload());
  ASSERT_EQ(server.activeSessions(), 2u);
  try {
    server.admit(scenarios::serveSpinWorkload());
    FAIL() << "over-admission must throw";
  } catch (const SubstrateError& e) {
    EXPECT_NE(std::string(e.what()).find("high-water"), std::string::npos);
  }
  EXPECT_EQ(server.metrics().rejected, 1u);
  EXPECT_EQ(server.metrics().admitted, 2u);
  // Rejection is not queued: the table still holds exactly two sessions.
  EXPECT_EQ(server.activeSessions(), 2u);
  server.cancelSession(1, "test done");
  server.cancelSession(2, "test done");
}

TEST(SessionServer, MixedSessionsCompleteAndVerify) {
  SessionServer server;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < 9; ++i) {
    ids.push_back(server.admit(scenarios::serveMixedWorkload(i)));
  }
  server.runUntilQuiet(100000);
  EXPECT_EQ(server.metrics().completed, 9u);
  EXPECT_EQ(server.metrics().failed, 0u);
  for (uint64_t id : ids) {
    const SessionRecord record = recordOf(server, id);
    EXPECT_EQ(record.state, SessionState::Completed) << record.label;
    EXPECT_TRUE(record.outputOk) << record.label;
    EXPECT_TRUE(record.error.empty()) << record.error;
  }
}

TEST(SessionServer, RoundRobinSlicesAreFair) {
  SessionServer server;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(server.admit(scenarios::serveSpinWorkload()));
  }
  for (int f = 0; f < 20; ++f) server.runFrame();
  std::vector<uint64_t> slices;
  for (uint64_t id : ids) {
    const SessionRecord record = recordOf(server, id);
    EXPECT_EQ(record.state, SessionState::Active);
    slices.push_back(record.framesRun);
    EXPECT_EQ(record.framesRun, 20u);
  }
  EXPECT_DOUBLE_EQ(SessionServer::fairnessSpread(slices), 1.0);
  for (uint64_t id : ids) server.cancelSession(id, "test done");
  EXPECT_TRUE(server.quiet());
}

TEST(SessionServer, WatchdogCancelsOnlyTheOffender) {
  ServerConfig config;
  // Generous enough for any real workload; the spinner never finishes,
  // so it is the only session the watchdog can reach.
  config.frameBudget = 2000;
  SessionServer server(config);
  const uint64_t spinner = server.admit(scenarios::serveSpinWorkload());
  const uint64_t worker = server.admit(scenarios::serveWordCountWorkload());
  server.runUntilQuiet(100000);

  const SessionRecord bad = recordOf(server, spinner);
  EXPECT_EQ(bad.state, SessionState::Failed);
  EXPECT_EQ(bad.errorClass, ErrorClass::Timeout);
  // The TimeoutError is attributed to the offending session id.
  EXPECT_NE(bad.error.find("session " + std::to_string(spinner)),
            std::string::npos)
      << bad.error;
  EXPECT_NE(bad.error.find("frame budget"), std::string::npos) << bad.error;
  EXPECT_EQ(bad.timeouts, 1u);

  const SessionRecord good = recordOf(server, worker);
  EXPECT_EQ(good.state, SessionState::Completed);
  EXPECT_TRUE(good.outputOk);
  EXPECT_EQ(good.timeouts, 0u);
}

TEST(SessionServer, SessionDeadlineTripsAsTimeout) {
  ServerConfig config;
  config.sessionDeadlineSeconds = 1e-9;  // effectively already expired
  SessionServer server(config);
  const uint64_t id = server.admit(scenarios::serveSpinWorkload());
  server.runUntilQuiet(100000);
  const SessionRecord record = recordOf(server, id);
  EXPECT_EQ(record.state, SessionState::Failed);
  EXPECT_EQ(record.errorClass, ErrorClass::Timeout);
  EXPECT_NE(record.error.find("deadline"), std::string::npos)
      << record.error;
}

TEST(SessionServer, LaunchCrashIsContained) {
  SessionServer server;
  SessionWorkload bomb;
  bomb.label = "bomb";
  bomb.start = [](sched::ThreadManager&) -> std::shared_ptr<void> {
    throw std::runtime_error("boom at launch");
  };
  const uint64_t bombId = server.admit(bomb);
  // The slot was recycled immediately; the server keeps serving.
  EXPECT_EQ(server.activeSessions(), 0u);
  const SessionRecord record = recordOf(server, bombId);
  EXPECT_EQ(record.state, SessionState::Failed);
  EXPECT_EQ(record.errorClass, ErrorClass::Foreign);
  EXPECT_NE(record.error.find("boom at launch"), std::string::npos);
  EXPECT_FALSE(record.outputOk);

  const uint64_t next = server.admit(scenarios::serveWordCountWorkload());
  server.runUntilQuiet(100000);
  EXPECT_EQ(recordOf(server, next).state, SessionState::Completed);
  EXPECT_EQ(server.metrics().failed, 1u);
  EXPECT_EQ(server.metrics().completed, 1u);
}

TEST(SessionServer, ScriptErrorFailsOnlyItsSession) {
  SessionServer server;
  SessionWorkload broken;
  broken.label = "broken";
  broken.start = [](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    // item 5 of a 1-element list: a deterministic user-script IndexError.
    tm.spawnExpression(itemOf(In(5.0), listOf({In(1.0)})),
                       blocks::Environment::make());
    return nullptr;
  };
  const uint64_t brokenId = server.admit(broken);
  const uint64_t goodId = server.admit(scenarios::serveClimateWorkload());
  server.runUntilQuiet(100000);

  const SessionRecord bad = recordOf(server, brokenId);
  EXPECT_EQ(bad.state, SessionState::Failed);
  EXPECT_EQ(bad.errorClass, ErrorClass::Index);
  EXPECT_FALSE(bad.outputOk);

  const SessionRecord good = recordOf(server, goodId);
  EXPECT_EQ(good.state, SessionState::Completed);
  EXPECT_TRUE(good.outputOk);
}

TEST(SessionServer, ShedNewestOnPoolSaturation) {
  // Arm PoolSaturation at rate 1 but *targeted* at the third admission's
  // candidate id: earlier admissions probe the same point and stay clean.
  fault::Config config;
  config.seed = 9;
  config.rateNumerator = 1;
  config.rateDenominator = 1;
  config.pointMask = fault::maskOf(fault::Point::PoolSaturation);
  config.targetTag = 3;
  SessionServer server;
  uint64_t first = 0, second = 0, third = 0;
  {
    fault::ScopedFault armed(config);
    first = server.admit(scenarios::serveSpinWorkload());
    second = server.admit(scenarios::serveSpinWorkload());
    EXPECT_EQ(server.activeSessions(), 2u);
    third = server.admit(scenarios::serveSpinWorkload());
  }
  // The overloaded admission shed the *newest* active tenant (LIFO): the
  // oldest session's sunk work is protected, the incomer still lands.
  EXPECT_EQ(server.metrics().overloadSheds, 1u);
  EXPECT_EQ(server.activeSessions(), 2u);
  const SessionRecord victim = recordOf(server, second);
  EXPECT_EQ(victim.state, SessionState::Shed);
  EXPECT_EQ(victim.errorClass, ErrorClass::Cancelled);
  EXPECT_NE(victim.error.find("overload shed"), std::string::npos)
      << victim.error;
  EXPECT_EQ(recordOf(server, first).state, SessionState::Active);
  EXPECT_EQ(recordOf(server, third).state, SessionState::Active);
  server.cancelSession(first, "test done");
  server.cancelSession(third, "test done");
}

TEST(SessionServer, CancelSessionLeavesSiblingsRunning) {
  SessionServer server;
  const uint64_t doomed = server.admit(scenarios::serveSpinWorkload());
  const uint64_t survivor = server.admit(scenarios::serveWordCountWorkload());
  server.runFrame();
  server.cancelSession(doomed, "user pressed stop");
  const SessionRecord record = recordOf(server, doomed);
  EXPECT_EQ(record.state, SessionState::Shed);
  EXPECT_EQ(record.errorClass, ErrorClass::Cancelled);
  EXPECT_EQ(record.error, "user pressed stop");
  EXPECT_EQ(server.metrics().shed, 1u);

  server.runUntilQuiet(100000);
  const SessionRecord good = recordOf(server, survivor);
  EXPECT_EQ(good.state, SessionState::Completed);
  EXPECT_TRUE(good.outputOk);
}

TEST(SessionServer, PerTenantStatsAreIsolatedAndRollUp) {
  ServerConfig config;
  config.frameBudget = 2000;
  SessionServer server(config);
  const auto before = workers::processSubstrateStats().timeouts.load();
  const uint64_t spinner = server.admit(scenarios::serveSpinWorkload());
  const uint64_t clean = server.admit(scenarios::serveConcessionWorkload());
  server.runUntilQuiet(100000);
  // The watchdog's timeout lands in the offender's ledger only…
  EXPECT_EQ(recordOf(server, spinner).timeouts, 1u);
  EXPECT_EQ(recordOf(server, clean).timeouts, 0u);
  // …and rolls up into the process-wide root ledger.
  EXPECT_GE(workers::processSubstrateStats().timeouts.load(), before + 1);
}

TEST(SessionServer, MixedStormAllConcurrentCompletesFairly) {
  // 300 sessions of the mixed workload, all admitted before the first
  // frame so the whole storm is live at once. Every session completes
  // with a verified output, and round-robin keeps each workload kind's
  // max/min frames-to-finish within 2x.
  constexpr size_t kSessions = 300;
  ServerConfig config;
  config.maxSessions = kSessions;
  config.maxWorkers = 2;
  SessionServer server(config);
  for (size_t i = 0; i < kSessions; ++i) {
    server.admit(scenarios::serveMixedWorkload(i));
  }
  ASSERT_EQ(server.activeSessions(), kSessions);
  server.runUntilQuiet(100000);

  EXPECT_EQ(server.metrics().completed, kSessions);
  // Labels carry generator parameters after a ':' ("wordcount:24:7");
  // fairness compares sessions of one workload kind.
  std::map<std::string, std::vector<uint64_t>> framesByKind;
  for (const SessionRecord& record : server.records()) {
    EXPECT_EQ(record.state, SessionState::Completed)
        << record.label << ": " << record.error;
    EXPECT_TRUE(record.outputOk) << record.label;
    framesByKind[record.label.substr(0, record.label.find(':'))].push_back(
        record.framesRun);
  }
  EXPECT_EQ(framesByKind.size(), 3u);
  for (const auto& [kind, frames] : framesByKind) {
    const double spread = SessionServer::fairnessSpread(frames);
    EXPECT_GT(spread, 0.0) << kind;
    EXPECT_LE(spread, 2.0) << kind;
  }
}

/// Frames-to-finish of `sessions` equal climate sessions (one 12-reading
/// parallelMap each) on a width-2 server.
std::vector<uint64_t> climateFramesToFinish(size_t sessions, bool nativeTier) {
  ServerConfig config;
  config.maxSessions = sessions;
  config.maxWorkers = 2;
  config.nativeTier = nativeTier;
  SessionServer server(config);
  for (size_t i = 0; i < sessions; ++i) {
    server.admit(scenarios::serveClimateWorkload(1, 100 + i));
  }
  server.runUntilQuiet(100000);
  std::vector<uint64_t> frames;
  for (const SessionRecord& record : server.records()) {
    EXPECT_EQ(record.state, SessionState::Completed) << record.error;
    EXPECT_TRUE(record.outputOk) << record.label;
    frames.push_back(record.framesRun);
  }
  EXPECT_EQ(frames.size(), sessions);
  return frames;
}

// The bound DESIGN.md ("Fair time-slicing") gives for equal workloads: a
// parked process is charged no frames while its operation runs, and its
// wake costs at most the one frame that resumes it. Equal sessions whose
// parallelMap goes to the pool finish within one frame of each other (the
// op may settle before the park is registered, or after); equal sessions
// whose parallelMap drains inline (grain model) never park and finish in
// equal frames.
TEST(SessionServer, ParkCostsAtMostOneFrame) {
  constexpr size_t kSessions = 24;
  // Tier off: the map's cost is unknown, so every op is pooled.
  const std::vector<uint64_t> pooled = climateFramesToFinish(kSessions, false);
  ASSERT_FALSE(pooled.empty());
  const auto [low, high] = std::minmax_element(pooled.begin(), pooled.end());
  EXPECT_LE(*high - *low, 1u);

  if (!codegen::Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // Make the climate ring's kernel Trusted first (a synchronous compile,
  // then one validated call), so the sessions' maps have a known cost.
  const vm::PrimitiveTable prims = core::fullPrimitiveTable();
  sched::ThreadManager tm(&blocks::BlockRegistry::standard(), &prims);
  const blocks::RingPtr celsius =
      tm.evaluate(ring(quotient(product(difference(empty(), In(32.0)),
                                        In(5.0)),
                                In(9.0))),
                  blocks::Environment::make())
          .asRing();
  // An earlier test in this process may have left the same kernel
  // compiling on the pool: let that compile settle first, so the
  // validated calls below promote the kernel it installs.
  native::TierManager& tier = native::TierManager::instance();
  tier.waitForCompile(tier.lookup(*celsius, codegen::KernelShape::Unary));
  {
    native::TierConfig sync;
    sync.hotThreshold = 1;
    sync.synchronousCompile = true;
    const core::TieredUnary tiered = core::tieredUnary(celsius, sync);
    for (int call = 0; call < 4; ++call) tiered.fn(blocks::Value(50.0));
  }
  ASSERT_EQ(native::TierManager::instance()
                .lookup(*celsius, codegen::KernelShape::Unary)
                ->currentState(),
            native::KernelState::Trusted);
  const std::vector<uint64_t> inlined = climateFramesToFinish(kSessions, true);
  EXPECT_DOUBLE_EQ(SessionServer::fairnessSpread(inlined), 1.0);
  EXPECT_LE(inlined.front(), *low);
}

// The server's runaway guard: past `maxFrames` server frames it throws a
// TimeoutError naming the sessions still active, at most eight of them.
TEST(SessionServer, QuietBudgetNamesAtMostEightActiveSessions) {
  SessionServer server;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(server.admit(scenarios::serveSpinWorkload()));
  }
  std::string message;
  try {
    server.runUntilQuiet(5);
    ADD_FAILURE() << "spinning tenants must exhaust the budget";
  } catch (const TimeoutError& e) {
    message = e.what();
  }
  EXPECT_EQ(server.frameCount(), 5u);
  std::string named;
  for (size_t i = 0; i < 8; ++i) {
    if (i > 0) named += ", ";
    named += "session " + std::to_string(ids[i]) + " ('spin')";
  }
  EXPECT_EQ(message, "timeout: server exceeded its frame budget (5 frames); "
                     "still active: " + named + ", …");
  for (uint64_t id : ids) server.cancelSession(id, "test done");
  EXPECT_TRUE(server.quiet());
}

// Frame accounting for tenants that never leave the server thread (the
// ticker and the concession stand start no pool work), with the native
// tier off: each session's frames, admission and finish frames, the
// server's frame count and runUntilQuiet's return are exact.
TEST(SessionServer, InlineWorkloadFrameCountsArePinned) {
  ServerConfig config;
  config.nativeTier = false;
  SessionServer server(config);
  const uint64_t ticker = server.admit(scenarios::serveTickerWorkload(12));
  const uint64_t stand = server.admit(scenarios::serveConcessionWorkload(3));
  for (int f = 0; f < 4; ++f) server.runFrame();
  const uint64_t late = server.admit(scenarios::serveTickerWorkload(5));
  const uint64_t small = server.admit(scenarios::serveConcessionWorkload(1));
  EXPECT_EQ(server.runUntilQuiet(1000), 8u);
  EXPECT_EQ(server.frameCount(), 12u);
  struct Expected {
    uint64_t id, framesRun, admittedAt, finishedAt;
  };
  for (const Expected& want : {Expected{ticker, 12, 0, 12},
                               Expected{stand, 3, 0, 3},
                               Expected{late, 5, 4, 9},
                               Expected{small, 3, 4, 7}}) {
    const SessionRecord record = recordOf(server, want.id);
    SCOPED_TRACE(record.label);
    EXPECT_EQ(record.state, SessionState::Completed) << record.error;
    EXPECT_TRUE(record.outputOk);
    EXPECT_EQ(record.framesRun, want.framesRun);
    EXPECT_EQ(record.admittedAtFrame, want.admittedAt);
    EXPECT_EQ(record.finishedAtFrame, want.finishedAt);
  }
}

TEST(SessionServer, FairnessSpreadEdgeCases) {
  EXPECT_DOUBLE_EQ(SessionServer::fairnessSpread({}), 0.0);
  EXPECT_DOUBLE_EQ(SessionServer::fairnessSpread({0, 5}), 0.0);
  EXPECT_DOUBLE_EQ(SessionServer::fairnessSpread({5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(SessionServer::fairnessSpread({4, 8}), 2.0);
}

}  // namespace
}  // namespace psnap::serve
