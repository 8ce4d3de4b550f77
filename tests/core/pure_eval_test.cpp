// Tests for the ring → worker-function compiler (the Listing 2
// `mappedCode()` analog): purity checking, lexical snapshots, and the
// pure mini-evaluator.
#include "core/pure_eval.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "blocks/builder.hpp"
#include "support/error.hpp"
#include "vm/process.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::EnvPtr;
using blocks::RingPtr;
using blocks::Value;

/// Evaluate a reifyReporter block into a RingPtr via the interpreter (so
/// lexical capture happens exactly as in a real script).
RingPtr makeRing(blocks::BlockPtr reify, EnvPtr env = nullptr) {
  static vm::PrimitiveTable prims = vm::PrimitiveTable::standard();
  static vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.startExpression(std::move(reify), env ? env : Environment::make());
  return p.runToCompletion().asRing();
}

TEST(CompileRing, TimesTen) {
  auto fn = compileUnary(makeRing(ring(product(empty(), 10))));
  EXPECT_EQ(fn(Value(7)).asNumber(), 70);
  EXPECT_EQ(fn(Value("3")).asNumber(), 30);
}

TEST(CompileRing, NamedFormals) {
  auto fn = compileRing(
      makeRing(ring(difference(getVar("a"), getVar("b")), {"a", "b"})));
  EXPECT_EQ(fn({Value(10), Value(4)}).asNumber(), 6);
}

TEST(CompileRing, MultipleBlanksPositional) {
  auto fn = compileRing(makeRing(ring(difference(empty(), empty()))));
  EXPECT_EQ(fn({Value(10), Value(3)}).asNumber(), 7);
}

TEST(CompileRing, SingleArgFillsAllBlanks) {
  auto fn = compileRing(makeRing(ring(product(empty(), empty()))));
  EXPECT_EQ(fn({Value(5)}).asNumber(), 25);
}

TEST(CompileRing, CapturesLexicalVariables) {
  auto env = Environment::make();
  env->declare("offset", Value(100));
  auto fn = compileUnary(makeRing(ring(sum(getVar("offset"), empty())), env));
  EXPECT_EQ(fn(Value(1)).asNumber(), 101);
}

TEST(CompileRing, SnapshotIsolatesCapturedState) {
  // The worker sees the value at compile time, not later mutations —
  // structured-clone semantics.
  auto env = Environment::make();
  env->declare("offset", Value(100));
  auto fn = compileUnary(makeRing(ring(sum(getVar("offset"), empty())), env));
  env->set("offset", Value(0));
  EXPECT_EQ(fn(Value(1)).asNumber(), 101);
}

TEST(CompileRing, CapturedListIsCloned) {
  auto env = Environment::make();
  auto table = blocks::List::make({Value(10), Value(20)});
  env->declare("table", Value(table));
  auto fn = compileUnary(
      makeRing(ring(itemOf(empty(), getVar("table"))), env));
  table->replaceAt(1, Value(-1));
  EXPECT_EQ(fn(Value(1)).asNumber(), 10);
}

TEST(CompileRing, FahrenheitToCelsius) {
  // The paper's climate mapper: (5 * (x - 32)) / 9.
  auto fn = compileUnary(makeRing(
      ring(quotient(product(5, difference(empty(), 32)), 9))));
  EXPECT_EQ(fn(Value(212)).asNumber(), 100);
  EXPECT_EQ(fn(Value(32)).asNumber(), 0);
  EXPECT_NEAR(fn(Value(98.6)).asNumber(), 37.0, 1e-9);
}

TEST(CompileRing, NestedRingViaCombine) {
  // reduce-style body: combine (values) using (+) — a ring inside a ring.
  auto fn = compileRing(makeRing(
      ring(combineUsing(empty(), ring(sum(empty(), empty()))))));
  auto values = blocks::List::make({Value(1), Value(2), Value(3)});
  EXPECT_EQ(fn({Value(values)}).asNumber(), 6);
}

TEST(CompileRing, NestedMapInsideWorkerCode) {
  auto fn = compileUnary(makeRing(
      ring(mapOver(ring(product(empty(), 2)), empty()))));
  auto values = blocks::List::make({Value(1), Value(2)});
  EXPECT_EQ(fn(Value(values)).display(), "[2, 4]");
}

TEST(CompileRing, KeepInsideWorkerCode) {
  auto fn = compileUnary(makeRing(
      ring(keepFrom(ring(greaterThan(empty(), 2)), empty()))));
  auto values = blocks::List::make({Value(1), Value(3), Value(5)});
  EXPECT_EQ(fn(Value(values)).display(), "[3, 5]");
}

TEST(CompileRing, TextOpsWork) {
  auto fn = compileUnary(makeRing(ring(join({In(empty()), In("!")}))));
  EXPECT_EQ(fn(Value("snap")).asText(), "snap!");
}

TEST(CompileRing, ErrorsSurfaceAtCallTime) {
  auto fn = compileUnary(makeRing(ring(quotient(1, empty()))));
  EXPECT_THROW(fn(Value(0)), Error);
}

TEST(CompileRing, UnresolvedVariableErrorsAtCallTime) {
  auto fn = compileUnary(makeRing(ring(sum(getVar("nope"), empty()))));
  EXPECT_THROW(fn(Value(1)), Error);
}

TEST(Purity, RejectsImpureBlocks) {
  // `say` touches the stage: not worker-shippable.
  auto impure = makeRing(ring(In(blk("getTimer"))));
  EXPECT_EQ(findImpureBlock(impure), "getTimer");
  EXPECT_THROW(compileRing(impure), PurityError);
}

TEST(Purity, RejectsRandom) {
  auto impure = makeRing(ring(pickRandom(1, empty())));
  EXPECT_THROW(compileRing(impure), PurityError);
}

TEST(Purity, RejectsCommandRings) {
  auto env = Environment::make();
  static vm::PrimitiveTable prims = vm::PrimitiveTable::standard();
  static vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.startExpression(ringScript(scriptOf({say("hi")})), env);
  auto ring = p.runToCompletion().asRing();
  EXPECT_EQ(findImpureBlock(ring), "<command ring>");
  EXPECT_THROW(compileRing(ring), PurityError);
}

TEST(Purity, RejectsNonTransferableCapture) {
  auto env = Environment::make();
  env->declare("f", Value(blocks::Ring::reporter(
                        blocks::Block::make("reportIdentity",
                                            {blocks::Input::empty()}))));
  auto r = makeRing(ring(sum(textLength(getVar("f")), empty())), env);
  (void)r;
  // 'f' holds a ring: the capture snapshot must refuse it.
  EXPECT_THROW(compileRing(r), PurityError);
}

TEST(CompileRing, ThreadSafetyUnderConcurrentCalls) {
  auto fn = compileUnary(makeRing(ring(product(empty(), empty()))));
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fn, &ok] {
      for (int i = 1; i < 2000; ++i) {
        if (fn(Value(i)).asNumber() != double(i) * i) ok.store(false);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace psnap::core
