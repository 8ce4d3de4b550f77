// The workloads' check hooks compare results exactly: a count or tick that
// is off by a fraction, negative, or NaN must fail the check rather than
// truncate to a matching integer.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "blocks/builder.hpp"
#include "blocks/registry.hpp"
#include "core/parallel_blocks.hpp"
#include "data/corpus.hpp"
#include "scenarios/serve.hpp"
#include "sched/thread_manager.hpp"

namespace psnap::scenarios {
namespace {

using namespace psnap::build;
using blocks::Value;

/// The corruptions of an expected integer `n`: a fraction that truncates
/// to n, a negative number, and NaN.
std::vector<double> corruptionsOf(double n) {
  return {n + 0.5, -1.0, std::nan("")};
}

class WorkloadCheck : public ::testing::Test {
 protected:
  vm::PrimitiveTable prims_ = core::fullPrimitiveTable();
  sched::ThreadManager tm_{&blocks::BlockRegistry::standard(), &prims_};
};

TEST_F(WorkloadCheck, WordCountRejectsCorruptCounts) {
  const size_t words = 24;
  const uint64_t seed = 7;
  serve::SessionWorkload workload = serveWordCountWorkload(words, seed);
  const auto state = workload.start(tm_);
  tm_.runUntilIdle();
  ASSERT_TRUE(workload.check(tm_, state));

  // The tenant's program and text (vocabulary 8), re-run for a result the
  // test can reach; the hook checks its own through wordCountMatches.
  const std::string text = data::generateText(words, 8, seed);
  const Value result =
      tm_.evaluate(mapReduce(ring(In(1.0)), ring(lengthOf(empty())),
                             splitText(text, "whitespace")),
                   blocks::Environment::make());
  ASSERT_TRUE(wordCountMatches(result, text));
  const size_t pairs = result.asList()->length();
  ASSERT_GT(pairs, 1u);
  for (size_t at = 1; at <= pairs; ++at) {
    const double count = result.asList()->item(at).asList()->item(2).asNumber();
    for (double bad : corruptionsOf(count)) {
      const Value corrupt(result.asList()->deepCopy());
      corrupt.asList()->item(at).asList()->replaceAt(2, Value(bad));
      EXPECT_FALSE(wordCountMatches(corrupt, text))
          << "pair " << at << " count " << count << " replaced by " << bad;
    }
  }
}

TEST_F(WorkloadCheck, TickerRejectsCorruptTicks) {
  const size_t target = 6;
  serve::SessionWorkload workload = serveTickerWorkload(target);
  const auto state = workload.start(tm_);
  tm_.runUntilIdle();
  ASSERT_TRUE(workload.check(tm_, state));

  // A captured, complete list resumes with nothing left to run, so the
  // resumed session's check sees exactly the captured list.
  const auto resumeWith = [&](size_t at, double tick) {
    project::Project project = workload.capture(tm_, state);
    for (auto& [name, value] : project.globals) {
      if (name == "ticks") value.asList()->replaceAt(at, Value(tick));
    }
    const auto resumed = workload.resume(tm_, project);
    tm_.runUntilIdle();
    return workload.check(tm_, resumed);
  };
  ASSERT_TRUE(resumeWith(1, 1.0));
  for (size_t at = 1; at <= target; ++at) {
    for (double bad : corruptionsOf(double(at))) {
      EXPECT_FALSE(resumeWith(at, bad)) << "tick " << at << " replaced by "
                                        << bad;
    }
  }
}

}  // namespace
}  // namespace psnap::scenarios
