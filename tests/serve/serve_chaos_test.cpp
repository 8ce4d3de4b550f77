// Multi-tenant chaos suite: fault injection armed against a server
// hosting several sessions at once. The isolation invariant: a fault
// aimed at (or reachable only through) one tenant degrades or fails
// *that tenant alone* — every other session completes with its exact
// fault-free output, and the shared pool stays usable afterwards.
// Test names start with "ServeChaos" so `scripts/check.sh --serve` can
// sweep them across seeds (PSNAP_CHAOS_SEED adds one) under asan + tsan.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "blocks/builder.hpp"
#include "scenarios/serve.hpp"
#include "serve/session_server.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "workers/parallel.hpp"

namespace psnap::serve {
namespace {

using blocks::Value;

std::vector<uint64_t> chaosSeeds() {
  std::vector<uint64_t> seeds{1, 7, 42};
  if (const char* extra = std::getenv("PSNAP_CHAOS_SEED")) {
    seeds.push_back(std::strtoull(extra, nullptr, 10));
  }
  return seeds;
}

fault::Config configFor(uint64_t seed, uint32_t pointMask, uint32_t num,
                        uint32_t den, uint64_t targetTag = 0) {
  fault::Config config;
  config.seed = seed;
  config.rateNumerator = num;
  config.rateDenominator = den;
  config.pointMask = pointMask;
  config.stallMicros = 100;
  config.targetTag = targetTag;
  return config;
}

SessionRecord recordOf(const SessionServer& server, uint64_t id) {
  for (const SessionRecord& record : server.records()) {
    if (record.id == id) return record;
  }
  ADD_FAILURE() << "no record for session " << id;
  return {};
}

/// After a chaos scenario the shared pool must still run clean work.
void expectPoolUsable() {
  ASSERT_FALSE(fault::armed());
  std::vector<Value> numbers;
  for (int i = 1; i <= 16; ++i) numbers.emplace_back(i);
  workers::Parallel p(numbers, {.maxWorkers = 2});
  p.map([](const Value& v) { return Value(v.asNumber() + 1); });
  const auto& data = p.data();
  ASSERT_EQ(data.size(), 16u);
  EXPECT_EQ(data[15].asNumber(), 17);
}

/// And the server itself must still admit and complete a fresh tenant.
void expectServerUsable(SessionServer& server) {
  const uint64_t id = server.admit(scenarios::serveWordCountWorkload(16, 5));
  server.runUntilQuiet(200000);
  const SessionRecord record = recordOf(server, id);
  EXPECT_EQ(record.state, SessionState::Completed);
  EXPECT_TRUE(record.outputOk);
}

TEST(ServeChaos, AdmitFailureRejectsTypedNeverQueues) {
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SessionServer server;
    size_t caught = 0;
    std::vector<uint64_t> admitted;
    {
      fault::ScopedFault armed(configFor(
          seed, fault::maskOf(fault::Point::SessionAdmitFailure), 1, 2));
      for (size_t i = 0; i < 16; ++i) {
        try {
          admitted.push_back(
              server.admit(scenarios::serveMixedWorkload(i)));
        } catch (const SubstrateError&) {
          ++caught;  // typed rejection, nothing queued
        }
      }
    }
    EXPECT_EQ(server.metrics().rejected, caught);
    EXPECT_EQ(server.metrics().admitted, admitted.size());
    EXPECT_EQ(server.activeSessions(), admitted.size());
    // Every session that *was* admitted completes with exact output.
    server.runUntilQuiet(200000);
    for (uint64_t id : admitted) {
      const SessionRecord record = recordOf(server, id);
      EXPECT_EQ(record.state, SessionState::Completed) << record.label;
      EXPECT_TRUE(record.outputOk) << record.label;
    }
    expectServerUsable(server);
  }
  expectPoolUsable();
}

TEST(ServeChaos, TenantStallKillsOnlyTheVictim) {
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SessionServer server;
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < 4; ++i) {
      ids.push_back(server.admit(scenarios::serveMixedWorkload(i)));
    }
    const uint64_t victim = ids[1];
    {
      // Rate 1/1 but targeted: only the victim's frame slice ever stalls.
      fault::ScopedFault armed(configFor(
          seed, fault::maskOf(fault::Point::TenantStall), 1, 1, victim));
      server.runUntilQuiet(200000);
    }
    const SessionRecord dead = recordOf(server, victim);
    EXPECT_EQ(dead.state, SessionState::Failed);
    EXPECT_TRUE(isSubstrateClass(dead.errorClass))
        << errorClassName(dead.errorClass);
    EXPECT_NE(dead.error.find("tenant-stall"), std::string::npos)
        << dead.error;
    for (uint64_t id : ids) {
      if (id == victim) continue;
      const SessionRecord record = recordOf(server, id);
      EXPECT_EQ(record.state, SessionState::Completed) << record.label;
      EXPECT_TRUE(record.outputOk) << record.label;
    }
    expectServerUsable(server);
  }
  expectPoolUsable();
}

TEST(ServeChaos, TaskThrowDegradesVictimOthersStayExact) {
  // Workload asymmetry as the targeting mechanism: only the victim uses
  // the worker pool (wordcount → mr::Job), every other tenant runs the
  // pure cooperative interpreter (concession), which has no injection
  // points. TaskThrow therefore can only reach the victim.
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SessionServer server;
    std::vector<uint64_t> bystanders;
    for (int i = 0; i < 3; ++i) {
      bystanders.push_back(server.admit(scenarios::serveConcessionWorkload()));
    }
    const uint64_t victim =
        server.admit(scenarios::serveWordCountWorkload(24, seed));
    {
      fault::ScopedFault armed(
          configFor(seed, fault::maskOf(fault::Point::TaskThrow), 1, 3));
      server.runUntilQuiet(200000);
    }
    const SessionRecord hit = recordOf(server, victim);
    if (hit.state == SessionState::Completed) {
      // Converged through the degradation ladder: the output is exact and
      // the handling is visible in the victim's own ledger.
      EXPECT_TRUE(hit.outputOk);
      EXPECT_GE(hit.retries + hit.downgrades, 1u);
    } else {
      EXPECT_EQ(hit.state, SessionState::Failed);
      EXPECT_TRUE(isSubstrateClass(hit.errorClass))
          << errorClassName(hit.errorClass);
    }
    for (uint64_t id : bystanders) {
      const SessionRecord record = recordOf(server, id);
      EXPECT_EQ(record.state, SessionState::Completed);
      EXPECT_TRUE(record.outputOk);
      // Per-tenant attribution: the bystanders' ledgers stay clean.
      EXPECT_EQ(record.retries, 0u);
      EXPECT_EQ(record.downgrades, 0u);
    }
    expectServerUsable(server);
  }
  expectPoolUsable();
}

TEST(ServeChaos, MixedStormConvergesOrFailsTyped) {
  // Broad, untargeted faults over a 12-tenant mixed storm: every session
  // either completes with exact output or fails with a substrate-class
  // error — never a wrong answer, and the server survives to serve more.
  for (uint64_t seed : chaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SessionServer server;
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < 12; ++i) {
      ids.push_back(server.admit(scenarios::serveMixedWorkload(i)));
    }
    {
      fault::ScopedFault armed(configFor(
          seed,
          fault::maskOf(fault::Point::TaskThrow) |
              fault::maskOf(fault::Point::WorkerStall) |
              fault::maskOf(fault::Point::TransferFailure),
          1, 8));
      server.runUntilQuiet(400000);
    }
    for (uint64_t id : ids) {
      const SessionRecord record = recordOf(server, id);
      if (record.state == SessionState::Completed) {
        EXPECT_TRUE(record.outputOk) << record.label;
      } else {
        EXPECT_EQ(record.state, SessionState::Failed) << record.label;
        EXPECT_TRUE(isSubstrateClass(record.errorClass))
            << record.label << ": " << record.error;
      }
    }
    EXPECT_EQ(server.metrics().completed + server.metrics().failed, 12u);
    expectServerUsable(server);
  }
  expectPoolUsable();
}

TEST(ServeChaos, ShedJoinsTheTenantsLaunchedPoolWork) {
  // A launched map still queued on the pool when its tenant is shed: the
  // map's task group charges each skipped task to the tenant's ledger
  // from a pool runner, so the shed must join the map before the ledger
  // is freed. Stalled runners keep the tasks unclaimed at shed time; the
  // native tier is off so the ring never turns hot and runs inline.
  ServerConfig config;
  config.nativeTier = false;
  SessionServer server(config);
  SessionWorkload launcher;
  launcher.label = "launcher";
  launcher.start = [](sched::ThreadManager& tm) -> std::shared_ptr<void> {
    using namespace psnap::build;
    auto env = blocks::Environment::make();
    env->declare("f", Value());
    tm.spawnScript(
        scriptOf({setVar("f", launchParallelMap(ring(product(empty(), 2)),
                                                numbersFromTo(1, 256), 16)),
                  forever(scriptOf({say(In("alive"))}))}),
        env);
    return nullptr;
  };
  fault::Config stall =
      configFor(1, fault::maskOf(fault::Point::WorkerStall), 1, 1);
  stall.stallMicros = 2000;
  {
    fault::ScopedFault armed(stall);
    const uint64_t id = server.admit(launcher);
    server.runFrame();
    server.cancelSession(id, "shed under test");
    const SessionRecord record = recordOf(server, id);
    EXPECT_EQ(record.state, SessionState::Shed);
    EXPECT_EQ(record.errorClass, ErrorClass::Cancelled);
  }
  // Let the pool's runners claim (and skip) whatever is still queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  expectPoolUsable();
}

}  // namespace
}  // namespace psnap::serve
