// Sequential HOF differential: map, keep and combine run under the
// interpreted reference palette (PrimitiveTable::standard(), one VM ring
// call per item) and under the full palette (fullPrimitiveTable(), whose
// handlers hand a pure reporter ring's whole list to core::runHof in one
// step). Over a sweep of rings and inputs the two must agree on the
// result's exact bytes, the error class and message, and the scheduler
// frames run. Each case also pins whether runHof takes the ring at all,
// so a sweep that quietly fell back everywhere would fail.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "blocks/builder.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "sched/thread_manager.hpp"
#include "support/error.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockPtr;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::EnvPtr;
using blocks::List;
using blocks::Value;

/// The root environment every case runs under: a number, a list and a
/// ring value the rings may capture.
EnvPtr caseEnv() {
  auto env = Environment::make();
  env->declare("offset", Value(100));
  env->declare("table", Value(List::make({Value(10), Value(20), Value(30)})));
  env->declare("f", Value(blocks::Ring::reporter(sum(empty(), 1))));
  return env;
}

/// A value's exact bytes: numbers by their bit pattern, lists recursively.
std::string bytes(const Value& v) {
  if (v.isNumber()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "n%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<uint64_t>(v.asNumber())));
    return buf;
  }
  if (v.isList()) {
    std::string out = "[";
    for (const Value& item : v.asList()->items()) out += bytes(item) + ",";
    return out + "]";
  }
  if (v.isRing()) return "<ring>";
  if (v.isBoolean()) return v.asBoolean() ? "T" : "F";
  if (v.isNothing()) return "_";
  return "t'" + v.asText() + "'";
}

struct Outcome {
  std::string result;
  bool errored = false;
  std::string error;
  ErrorClass errorClass = ErrorClass::None;
  uint64_t frames = 0;
};

Outcome runUnder(const vm::PrimitiveTable& prims, const BlockPtr& expr) {
  sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
  auto handle = tm.spawnExpression(expr, caseEnv());
  tm.runUntilIdle();
  Outcome out;
  out.frames = tm.frameCount();
  out.errored = handle.status->errored;
  out.error = handle.status->error;
  out.result = bytes(handle.status->result);
  if (!tm.recordedErrors().empty()) {
    out.errorClass = tm.recordedErrors().front().errorClass;
  }
  return out;
}

struct Case {
  const char* name;
  Hof hof;
  BlockPtr ring;  // the ring slot's expression (usually a literal ring)
  BlockPtr list;  // the list slot's expression
  bool compiled;  // does runHof take this ring?
};

BlockPtr hofBlock(const Case& c) {
  switch (c.hof) {
    case Hof::Map:
      return mapOver(c.ring, c.list);
    case Hof::Keep:
      return keepFrom(c.ring, c.list);
    case Hof::Combine:
      return combineUsing(c.list, c.ring);
  }
  return nullptr;
}

BlockPtr nums(std::vector<In> items) { return listOf(std::move(items)); }

std::vector<Case> cases() {
  const Hof M = Hof::Map, K = Hof::Keep, C = Hof::Combine;
  return {
      // Arithmetic, text and predicates.
      {"map_times_two", M, ring(product(empty(), 2)), nums({1, 2, 3.5, -4}),
       true},
      {"map_climate", M,
       ring(quotient(product(difference(empty(), 32), 5), 9)),
       nums({212, 32, 98.6}), true},
      {"map_join", M, ring(join({In(empty()), In("!")})),
       nums({"a", "bc", ""}), true},
      {"map_letter", M, ring(letter(1, empty())), nums({"snap", "xy"}),
       true},
      {"keep_greater", K, ring(greaterThan(empty(), 2)),
       nums({1, 3, 5, 2}), true},
      {"keep_is_number", K, ring(isA(empty(), "number")),
       nums({1, "x", 3}), true},
      {"combine_sum", C, ring(sum(empty(), empty())),
       nums({0.1, 0.2, 0.3, 1e16, -1e16}), true},
      {"combine_join", C, ring(join({In(empty()), In(empty())})),
       nums({"a", "b", "c"}), true},
      {"combine_max", C,
       ring(ifElseReporter(greaterThan(empty(), empty()), empty(), empty())),
       nums({3, 9, 2}), true},
      // Formals and blanks.
      {"map_formal", M, ring(product(getVar("x"), getVar("x")), {"x"}),
       nums({2, 3}), true},
      {"combine_formals", C,
       ring(difference(getVar("a"), getVar("b")), {"a", "b"}),
       nums({10, 3, 2}), true},
      {"combine_repeated_formal", C, ring(getVar("x"), {"x", "x"}),
       nums({1, 2, 3}), true},
      {"map_missing_formal_arg", M,
       ring(join({In(getVar("a")), In(getVar("b"))}), {"a", "b"}),
       nums({"p", "q"}), true},
      {"map_one_arg_fills_blanks", M, ring(product(empty(), empty())),
       nums({3, 4}), true},
      {"combine_more_blanks_than_args", C,
       ring(sum(sum(empty(), empty()), empty())), nums({1, 2, 3}), true},
      {"combine_one_blank_two_args", C, ring(product(empty(), 2)),
       nums({1, 2}), true},
      {"map_blank_in_formal_ring", M, ring(sum(getVar("x"), empty()), {"x"}),
       nums({1, 2}), false},
      // Captured variables.
      {"map_captured_number", M, ring(sum(getVar("offset"), empty())),
       nums({1, 2}), true},
      {"map_captured_list", M, ring(itemOf(empty(), getVar("table"))),
       nums({1, 3}), true},
      {"map_unresolvable", M, ring(sum(getVar("nope"), empty())),
       nums({1, 2}), false},
      // No item calls the ring, so its unresolvable name never matters.
      {"keep_unresolvable_on_empty", K, ring(getVar("nope")), nums({}),
       true},
      {"combine_unresolvable_on_one", C, ring(getVar("nope")), nums({4}),
       true},
      {"map_ring_variable", M, getVar("f"), nums({1, 2}), true},
      {"map_call_ring_variable", M, ring(callRing(getVar("f"), {empty()})),
       nums({1, 2}), false},
      // Nested HOFs.
      {"map_combine_rows", M,
       ring(combineUsing(empty(), ring(sum(empty(), empty())))),
       nums({In(nums({1, 2})), In(nums({3, 4, 5})), In(nums({}))}), true},
      {"map_map_rows", M, ring(mapOver(ring(product(empty(), 10)), empty())),
       nums({In(nums({1})), In(nums({2, 3}))}), true},
      {"keep_nested_keep", K,
       ring(greaterThan(lengthOf(keepFrom(ring(greaterThan(empty(), 1)),
                                          empty())),
                        0)),
       nums({In(nums({1})), In(nums({2, 3}))}), true},
      {"map_inner_reads_outer_formal", M,
       ring(mapOver(ring(sum(empty(), getVar("x"))), nums({1, 2})), {"x"}),
       nums({10, 20}), true},
      {"map_inner_formal_ring", M,
       ring(mapOver(ring(product(getVar("y"), 2), {"y"}), empty())),
       nums({In(nums({1, 2}))}), true},
      {"map_inner_blank_in_formal_ring", M,
       ring(mapOver(ring(sum(getVar("y"), empty()), {"y"}), empty())),
       nums({In(nums({1, 2}))}), false},
      {"map_call_literal_ring", M, ring(callRing(ring(sum(empty(), 1)),
                                                 {empty()})),
       nums({1, 2}), true},
      {"map_ring_escapes", M, ring(ring(sum(empty(), 1))), nums({1, 2}),
       false},
      {"map_inner_not_a_list", M, ring(mapOver(ring(empty()), empty())),
       nums({1}), true},
      // A command ring and impure rings.
      {"map_command_ring", M, ringScript(scriptOf({changeVar("offset", 1)})),
       nums({1, 2}), false},
      {"map_random", M, ring(pickRandom(1, empty())), nums({5, 50}), false},
      {"map_timer", M, ring(sum(timer(), empty())), nums({1}), false},
      // Items that raise.
      {"map_division_by_zero", M, ring(quotient(1, empty())),
       nums({1, 0, 2}), true},
      {"map_type_error", M, ring(sum(empty(), 1)), nums({1, "abc", 2}), true},
      {"keep_non_boolean", K, ring(product(empty(), 1)), nums({1, 2}), true},
      {"combine_item_error", C, ring(quotient(empty(), empty())),
       nums({1, 0}), true},
      {"map_sqrt_negative", M, ring(monadic("sqrt", empty())),
       nums({4, -1}), true},
      // Empty and one-item lists, and slots of the wrong type.
      {"map_empty", M, ring(product(empty(), 2)), nums({}), true},
      {"keep_empty", K, ring(greaterThan(empty(), 2)), nums({}), true},
      {"combine_empty", C, ring(sum(empty(), empty())), nums({}), true},
      {"map_one", M, ring(product(empty(), 2)), nums({7}), true},
      {"keep_one", K, ring(greaterThan(empty(), 2)), nums({7}), true},
      {"combine_one", C, ring(sum(empty(), empty())), nums({"5"}), true},
      {"combine_non_ring_empty", C, identity(5), nums({}), false},
      {"map_non_list", M, ring(product(empty(), 2)), identity(5), false},
  };
}

class HofDifferential : public ::testing::TestWithParam<size_t> {};

TEST_P(HofDifferential, CompiledMatchesInterpreted) {
  const Case c = cases()[GetParam()];
  static const vm::PrimitiveTable reference = vm::PrimitiveTable::standard();
  static const vm::PrimitiveTable full = fullPrimitiveTable();
  const BlockPtr expr = hofBlock(c);

  const Outcome vm = runUnder(reference, expr);
  const Outcome compiled = runUnder(full, expr);
  EXPECT_EQ(compiled.result, vm.result);
  EXPECT_EQ(compiled.errored, vm.errored);
  EXPECT_EQ(compiled.error, vm.error);
  EXPECT_EQ(errorClassName(compiled.errorClass), errorClassName(vm.errorClass));
  EXPECT_EQ(compiled.frames, vm.frames);

  // Does runHof take the ring? Evaluate the slots as the handler sees
  // them (the ring captures the root environment), then ask.
  sched::ThreadManager tm(&BlockRegistry::standard(), &reference);
  const EnvPtr env = caseEnv();
  const Value ring = tm.evaluate(c.ring, env);
  const Value list = tm.evaluate(c.list, env);
  bool taken = false;
  if (ring.isRing() && list.isList()) {
    try {
      taken = runHof(c.hof, ring.asRing(), list.asList(), nullptr,
                     BlockRegistry::standard())
                  .has_value();
    } catch (const Error&) {
      taken = true;  // it ran, and an item raised
    }
  }
  EXPECT_EQ(taken, c.compiled);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HofDifferential,
                         ::testing::Range<size_t>(0, cases().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(cases()[info.param].name);
                         });

// A captured value keeps its identity through a compiled map, as on the
// VM: both palettes report the environment's own list object, not a copy.
TEST(HofDifferentialIdentity, CapturedListIsNotCopied) {
  for (const vm::PrimitiveTable& prims :
       {vm::PrimitiveTable::standard(), fullPrimitiveTable()}) {
    sched::ThreadManager tm(&BlockRegistry::standard(), &prims);
    const EnvPtr env = caseEnv();
    const Value out =
        tm.evaluate(mapOver(ring(getVar("table")), listOf({1, 2})), env);
    ASSERT_TRUE(out.isList());
    EXPECT_EQ(out.asList()->item(1).asList().get(),
              env->get("table").asList().get());
  }
}

}  // namespace
}  // namespace psnap::core
