// The pure-block palette: one body per strict, frame-free pure reporter.
//
// The paper's rings mean the same thing whether `map` runs them on the
// scheduler or `parallelMap` ships them to a Web Worker. psnap keeps that
// promise by construction: the VM's primitive handlers (vm/primitives.cpp)
// and the worker-side evaluator (core/pure_eval.cpp) both call
// applyPure() for every op listed here, so what each op computes, and how
// it fails, is written down once, in pure_ops.cpp.
//
// Table ops are *strict* (every input is evaluated before the op runs) and
// *frame-free* (they need no environment, ring frame, RNG or scheduler).
// Pure blocks that need more stay with their evaluator: reportGetVar and
// reifyReporter read the frame, reportRandom the RNG, and the HOFs
// (map/keep/combine/evaluate) call rings.
//
// Error contract. Every op inherits the TypeError of the Value accessor it
// applies to an input (asNumber on non-numeric text, asInteger on a
// non-finite number, asList on a non-list, …). Beyond that, exactly these
// inputs raise:
//
//   op              raising input       class       message
//   reportQuotient  divisor == 0 (-0)   Error       division by zero
//   reportModulus   divisor == 0 (-0)   Error       modulus by zero
//   reportMonadic   sqrt of x < 0       Error       sqrt of a negative number
//                   ln of x <= 0        Error       ln of a non-positive
//                                                   number
//                   log of x <= 0       Error       log of a non-positive
//                                                   number
//                   other selector fn   Error       unknown monadic
//                                                   function "<fn>"
//   reportUnicode   empty text          Error       unicode of empty text
//   reportListItem  index < 1           IndexError  item <index> of a list
//                   index > length      IndexError  item <index> of a list
//                                                   of <length>
//   reportCDR       empty list          IndexError  all but first of empty
//                                                   list
//
// NaN is not an error: it passes through arithmetic, sqrt, ln and log as
// NaN (every comparison above is false for it). List indices round to the
// nearest integer first (asInteger), so `item 1.5` is item 2. The native
// tier's C helpers (codegen/native_emit.cpp) set their `err` flag on
// exactly the raising inputs and re-run the interpreter, which raises.
#pragma once

#include <cstddef>

#include "blocks/opcodes.hpp"
#include "blocks/value.hpp"

namespace psnap::blocks {

// X(op) for every table op, in palette order.
#define PSNAP_FOR_EACH_PURE_OP(X)                                        \
  /* arithmetic */                                                       \
  X(reportSum) X(reportDifference) X(reportProduct) X(reportQuotient)    \
  X(reportModulus) X(reportPower) X(reportRound) X(reportMonadic)        \
  /* comparison and logic */                                             \
  X(reportEquals) X(reportLessThan) X(reportGreaterThan) X(reportAnd)    \
  X(reportOr) X(reportNot) X(reportIfElse) X(reportIsA)                  \
  X(reportIdentity)                                                      \
  /* text */                                                             \
  X(reportJoinWords) X(reportLetter) X(reportStringSize)                 \
  X(reportUnicode) X(reportUnicodeAsLetter) X(reportSplit)               \
  /* lists */                                                            \
  X(reportNewList) X(reportListItem) X(reportListLength)                 \
  X(reportListContainsItem) X(reportListIndex) X(reportCONS)             \
  X(reportCDR) X(reportNumbers) X(reportSorted)

/// Every table op, in palette order.
inline constexpr Op kPureOps[] = {
#define PSNAP_PURE_OP_ENTRY(name) Op::name,
    PSNAP_FOR_EACH_PURE_OP(PSNAP_PURE_OP_ENTRY)
#undef PSNAP_PURE_OP_ENTRY
};

/// Is `op` in the table (can applyPure evaluate it)?
constexpr bool isPureOp(Op op) {
  switch (op) {
#define PSNAP_PURE_OP_CASE(name) case Op::name:
    PSNAP_FOR_EACH_PURE_OP(PSNAP_PURE_OP_CASE)
#undef PSNAP_PURE_OP_CASE
    return true;
    default:
      return false;
  }
}

/// Apply table op `op` to its `n` evaluated inputs, raising as the error
/// contract above says. An op outside the table raises BlockError.
Value applyPure(Op op, const Value* in, size_t n);

/// Snap!'s ordering: numeric when both sides look numeric, else
/// case-insensitive text. `<`, `>` and `sorted` all order by it.
bool lessThanValues(const Value& a, const Value& b);

}  // namespace psnap::blocks
