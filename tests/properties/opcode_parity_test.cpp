// Opcode parity: for every pure opcode in the palette, a sample
// expression is evaluated by the interpreter AND by the worker-side pure
// evaluator (compileRing) — the two execution engines must agree, since
// parallelMap's correctness rests on that agreement.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "blocks/builder.hpp"
#include "blocks/opcodes.hpp"
#include "blocks/pure_ops.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "sched/thread_manager.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tests/properties/generators.hpp"
#include "vm/process.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::Value;

struct Sample {
  const char* opcode;       // documented coverage target
  blocks::BlockPtr expr;    // expression using the opcode, over one blank
};

std::vector<Sample> samples() {
  return {
      {"reportSum", sum(empty(), 2)},
      {"reportDifference", difference(empty(), 2)},
      {"reportProduct", product(empty(), 3)},
      {"reportQuotient", quotient(empty(), 4)},
      {"reportModulus", modulus(empty(), 3)},
      {"reportPower", power(empty(), 2)},
      {"reportRound", round_(empty())},
      {"reportMonadic", monadic("abs", empty())},
      {"reportMonadic", monadic("sqrt", empty())},
      {"reportMonadic", monadic("atan", empty())},
      {"reportMonadic", monadic("floor", quotient(empty(), 2.5))},
      {"reportEquals", equals(empty(), 5)},
      {"reportLessThan", lessThan(empty(), 5)},
      {"reportGreaterThan", greaterThan(empty(), 5)},
      {"reportAnd", and_(greaterThan(empty(), 0), true)},
      {"reportOr", or_(lessThan(empty(), 0), false)},
      {"reportNot", not_(equals(empty(), 5))},
      {"reportIfElse", ifElseReporter(greaterThan(empty(), 0), "pos",
                                      "nonpos")},
      {"reportJoinWords", join({In("v="), In(empty())})},
      {"reportLetter", letter(1, join({In("x"), In(empty())}))},
      {"reportStringSize", textLength(join({In("n"), In(empty())}))},
      {"reportUnicode", blk("reportUnicode", {In("A")})},
      {"reportUnicodeAsLetter", blk("reportUnicodeAsLetter", {In(66)})},
      {"reportSplit", splitText(join({In("a b "), In(empty())}), " ")},
      {"reportIsA", isA(empty(), "number")},
      {"reportIdentity", identity(empty())},
      {"reportNewList", listOf({In(empty()), In(2)})},
      {"reportListItem", itemOf(1, listOf({In(empty()), In(2)}))},
      {"reportListLength", lengthOf(listOf({In(empty()), In(2)}))},
      {"reportListContainsItem",
       contains(listOf({1, 2, 3}), empty())},
      {"reportListIndex", indexOf(empty(), listOf({5, 7, 9}))},
      {"reportCONS", blk("reportCONS", {In(empty()), In(listOf({1}))})},
      {"reportCDR", blk("reportCDR", {In(listOf({In(empty()), In(2)}))})},
      {"reportNumbers", numbersFromTo(1, sum(empty(), 1))},
      {"reportSorted", sorted(listOf({In(empty()), In(3), In(-1)}))},
      {"reportMap", mapOver(ring(product(empty(), 2)),
                            listOf({In(empty()), In(4)}))},
      {"reportKeep", keepFrom(ring(greaterThan(empty(), 2)),
                              listOf({In(empty()), In(5)}))},
      {"reportCombine", combineUsing(listOf({In(empty()), In(4), In(6)}),
                                     ring(sum(empty(), empty())))},
      {"evaluate", callRing(ring(sum(empty(), 100)), {In(empty())})},
      {"reportSplit", splitText(join({In("a--b--"), In(empty())}), "--")},
  };
}

class OpcodeParity : public ::testing::TestWithParam<size_t> {};

TEST_P(OpcodeParity, InterpreterAndPureEvaluatorAgree) {
  Sample sample = samples()[GetParam()];
  // The interpreted reference palette: fullPrimitiveTable() would run
  // the map, keep and combine samples on the pure evaluator too.
  static vm::PrimitiveTable prims = vm::PrimitiveTable::standard();

  // Note: inner rings capture their own blanks, so pass a blank-free
  // argument set — the sample's outermost blanks positionally.
  for (double x : {1.0, 3.0, 7.0}) {
    sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
    blocks::RingPtr ringValue =
        tm.evaluate(ring(In(sample.expr)), Environment::make()).asRing();

    sched::ThreadManager tm2(&BlockRegistry::standard(), &prims);
    Value viaInterpreter = tm2.evaluate(
        callRing(ring(In(sample.expr)), {In(x)}), Environment::make());
    Value viaPure = compileRing(ringValue)({Value(x)});
    EXPECT_TRUE(viaPure.equals(viaInterpreter))
        << sample.opcode << " x=" << x
        << "\n  interpreter: " << viaInterpreter.display()
        << "\n  pure:        " << viaPure.display();
  }
}

INSTANTIATE_TEST_SUITE_P(AllPureOpcodes, OpcodeParity,
                         ::testing::Range<size_t>(0, samples().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(samples()[info.param].opcode) +
                                  "_" + std::to_string(info.param);
                         });

// Error parity: an input that makes a pure op raise must raise the same
// ErrorClass on both engines, and the interpreter's message must contain
// the worker's (the VM may only add context around it). Each expression
// raises for the argument 1.
std::vector<Sample> errorSamples() {
  return {
      {"reportCDR",
       blk("reportCDR", {In(blk("reportCDR", {In(listOf({In(empty())}))}))})},
      {"reportListItem", itemOf(0, listOf({In(empty()), In(2)}))},
      {"reportListItem", itemOf(-1, listOf({In(empty()), In(2)}))},
      {"reportListItem", itemOf(3, listOf({In(empty()), In(2)}))},
      {"reportMonadic", monadic("cube", empty())},
      {"reportQuotient", quotient(empty(), 0)},
      {"reportMonadic", monadic("sqrt", difference(empty(), 2))},
      {"reportUnicode",
       blk("reportUnicode", {In(letter(2, join({In(empty())})))})},
  };
}

class OpcodeParityErrors : public ::testing::TestWithParam<size_t> {};

TEST_P(OpcodeParityErrors, InterpreterAndPureEvaluatorRaiseAlike) {
  Sample sample = errorSamples()[GetParam()];
  static vm::PrimitiveTable prims = vm::PrimitiveTable::standard();
  vm::NullHost host;
  vm::Process ringMaker(&BlockRegistry::standard(), &prims, &host);
  ringMaker.startExpression(ring(In(sample.expr)), Environment::make());
  blocks::RingPtr ringValue = ringMaker.runToCompletion().asRing();

  vm::Process vmProcess(&BlockRegistry::standard(), &prims, &host);
  vmProcess.startExpression(callRing(ring(In(sample.expr)), {In(1)}),
                            Environment::make());
  EXPECT_THROW(vmProcess.runToCompletion(), Error) << sample.opcode;

  ErrorClass workerClass = ErrorClass::None;
  std::string workerMessage;
  try {
    compileRing(ringValue)({Value(1)});
  } catch (const Error& e) {
    workerClass = classifyError(std::current_exception());
    workerMessage = e.what();
  }
  ASSERT_NE(workerClass, ErrorClass::None) << sample.opcode;
  EXPECT_EQ(errorClassName(vmProcess.errorClass()),
            std::string(errorClassName(workerClass)))
      << sample.opcode << "\n  interpreter: " << vmProcess.error()
      << "\n  pure:        " << workerMessage;
  EXPECT_NE(vmProcess.error().find(workerMessage), std::string::npos)
      << sample.opcode << "\n  interpreter: " << vmProcess.error()
      << "\n  pure:        " << workerMessage;
}

INSTANTIATE_TEST_SUITE_P(AllPureOpcodes, OpcodeParityErrors,
                         ::testing::Range<size_t>(0, errorSamples().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(
                                      errorSamples()[info.param].opcode) +
                                  "_" + std::to_string(info.param);
                         });

// Every sample above names a real registered pure opcode, and every op in
// the pure-op table is registered pure, has a VM handler and has a parity
// sample — so an op cannot join the table without parity coverage.
TEST(OpcodeParityTable, CoversOnlyRegisteredPureOpcodes) {
  const BlockRegistry& registry = BlockRegistry::standard();
  for (const Sample& sample : samples()) {
    ASSERT_TRUE(registry.has(sample.opcode)) << sample.opcode;
    if (std::string(sample.opcode) != "evaluate") {
      EXPECT_TRUE(registry.get(sample.opcode).pure) << sample.opcode;
    }
  }
  const vm::PrimitiveTable prims = vm::PrimitiveTable::standard();
  const std::vector<Sample> all = samples();
  for (const blocks::Op op : blocks::kPureOps) {
    const std::string& opcode = blocks::opcodeName(blocks::id(op));
    const blocks::BlockSpec* spec = registry.specOf(blocks::id(op));
    ASSERT_NE(spec, nullptr) << opcode;
    EXPECT_TRUE(spec->pure) << opcode;
    EXPECT_NE(prims.findById(blocks::id(op)), nullptr) << opcode;
    EXPECT_TRUE(std::any_of(
        all.begin(), all.end(),
        [&](const Sample& sample) { return opcode == sample.opcode; }))
        << opcode << " has no parity sample";
  }
}

// ---------------------------------------------------------------------------
// Dispatch-table integrity: the interned-id tables (registry, primitive
// table) must agree with each other and with the string surface.
// ---------------------------------------------------------------------------

// Specs that intentionally have no primitive handler: hat blocks are
// matched by the stage's event dispatcher and the code-mapping pair is
// expanded by the code generator, so none of them ever reach
// Process::stepBlock.
const std::set<std::string>& handlerlessOpcodes() {
  static const std::set<std::string> kHandlerless = {
      "doMapToCode",       "reportMappedCode", "receiveCloneStart",
      "receiveGo",         "receiveKey",       "receiveMessage",
  };
  return kHandlerless;
}

TEST(DispatchTables, HandlersAndSpecsAgreeById) {
  const BlockRegistry& registry = BlockRegistry::standard();
  vm::PrimitiveTable prims = fullPrimitiveTable();

  // Every registered handler id names a registered spec, and the spec
  // carries that same id.
  for (blocks::OpcodeId opId : prims.registeredIds()) {
    const blocks::BlockSpec* spec = registry.specOf(opId);
    ASSERT_NE(spec, nullptr) << blocks::opcodeName(opId);
    EXPECT_EQ(spec->id, opId) << spec->opcode;
  }

  // Every spec either has a handler under its id or is on the known
  // handlerless list — no opcode silently falls through both tables.
  for (const std::string& opcode : registry.opcodes()) {
    const blocks::OpcodeId opId = registry.idOf(opcode);
    if (prims.findById(opId) == nullptr) {
      EXPECT_TRUE(handlerlessOpcodes().count(opcode))
          << opcode << " has a spec but no handler";
    } else {
      EXPECT_FALSE(handlerlessOpcodes().count(opcode))
          << opcode << " gained a handler; update handlerlessOpcodes()";
    }
  }
}

TEST(DispatchTables, IdOfAndSpecOfRoundTripForEveryOpcode) {
  const BlockRegistry& registry = BlockRegistry::standard();
  const std::vector<std::string>& opcodes = registry.opcodes();
  EXPECT_TRUE(std::is_sorted(opcodes.begin(), opcodes.end()));

  for (const std::string& opcode : opcodes) {
    const blocks::OpcodeId opId = registry.idOf(opcode);
    ASSERT_NE(opId, blocks::kInvalidOpcodeId) << opcode;
    EXPECT_EQ(blocks::lookupOpcode(opcode), opId) << opcode;
    EXPECT_EQ(blocks::opcodeName(opId), opcode);
    const blocks::BlockSpec* spec = registry.specOf(opId);
    ASSERT_NE(spec, nullptr) << opcode;
    EXPECT_EQ(spec->opcode, opcode);
    EXPECT_EQ(spec->id, opId);
    // Blocks constructed with this opcode intern to the same id.
    EXPECT_EQ(blk(opcode)->opcodeId(), opId) << opcode;
  }
}

// ---------------------------------------------------------------------------
// Dispatch parity: the id-dispatch fast path and the string-dispatch
// reference path must be observationally identical on random programs.
// ---------------------------------------------------------------------------

Value runExpression(vm::DispatchMode mode, const blocks::BlockPtr& expr) {
  static vm::PrimitiveTable prims = fullPrimitiveTable();
  vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.setDispatchMode(mode);
  p.startExpression(expr, Environment::make());
  return p.runToCompletion();
}

void runScript(vm::DispatchMode mode, const blocks::ScriptPtr& script,
               const blocks::EnvPtr& env) {
  static vm::PrimitiveTable prims = fullPrimitiveTable();
  vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.setDispatchMode(mode);
  p.startScript(script, env);
  p.runToCompletion();
}

TEST(DispatchParity, RandomExpressionsAgreeAcrossDispatchModes) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    blocks::BlockPtr expr = testgen::randomArithmetic(rng, 4);
    for (double x : {1.0, 3.0, 7.0}) {
      blocks::BlockPtr call = callRing(ring(In(expr)), {In(x)});
      Value byId = runExpression(vm::DispatchMode::ById, call);
      Value byString = runExpression(vm::DispatchMode::ByString, call);
      EXPECT_TRUE(byId.equals(byString))
          << "seed=" << seed << " x=" << x << "\n  expr:     "
          << expr->display() << "\n  byId:     " << byId.display()
          << "\n  byString: " << byString.display();
    }
  }
}

TEST(DispatchParity, RandomScriptsAgreeAcrossDispatchModes) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    auto initial = [&](const blocks::EnvPtr& env) {
      env->declare("a", Value(double(seed)));
      env->declare("b", Value(-3.0));
      env->declare("c", Value(0.5));
    };
    Rng rngA(seed);
    blocks::ScriptPtr script = testgen::randomScript(rngA, 8);

    blocks::EnvPtr envById = Environment::make();
    initial(envById);
    runScript(vm::DispatchMode::ById, script, envById);

    blocks::EnvPtr envByString = Environment::make();
    initial(envByString);
    runScript(vm::DispatchMode::ByString, script, envByString);

    for (const char* name : {"a", "b", "c"}) {
      EXPECT_TRUE(envById->get(name).equals(envByString->get(name)))
          << "seed=" << seed << " var=" << name
          << "\n  byId:     " << envById->get(name).display()
          << "\n  byString: " << envByString->get(name).display()
          << "\n  script:\n" << script->display();
    }
  }
}

}  // namespace
}  // namespace psnap::core
