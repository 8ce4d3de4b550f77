// Compiling rings into worker-safe functions.
//
// Paper Listing 2 turns the user's ringed reporter into a JavaScript
// function with
//
//   body = 'return ' + aContext.expression.mappedCode() + ';';
//   aFunction = new Function(aContext.inputs[0], body);
//
// and ships it to a Web Worker. The essential property is that the shipped
// function is *pure*: a Web Worker cannot touch the DOM, the stage, or the
// interpreter, so only side-effect-free blocks survive the translation.
//
// compileRing() reproduces this: it validates that every block in the ring
// body is pure (per the BlockRegistry), snapshots the transferable
// variables the body captures lexically, and returns a thread-safe
// std::function that evaluates the body with a small re-entrant pure
// evaluator (no Process, no yielding). Impure blocks raise PurityError at
// compile time — the same moment Snap! would fail to mappedCode() them.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocks/block.hpp"
#include "blocks/environment.hpp"
#include "blocks/registry.hpp"

namespace psnap::core {

/// A compiled pure function of N values.
using PureFn = std::function<blocks::Value(const std::vector<blocks::Value>&)>;

/// Compile a reporter ring into a thread-safe function.
///
/// Throws PurityError when the body contains a block whose spec is not
/// `pure` (it would touch the stage/scheduler) or when a lexically
/// captured variable holds a non-transferable value (a ring).
/// The `env` fallback is consulted for captured names when the ring has no
/// captured environment of its own (C++-constructed rings).
PureFn compileRing(const blocks::RingPtr& ring,
                   const blocks::BlockRegistry& registry =
                       blocks::BlockRegistry::standard());

/// Convenience adapter for the worker facade's MapFn.
std::function<blocks::Value(const blocks::Value&)> compileUnary(
    const blocks::RingPtr& ring,
    const blocks::BlockRegistry& registry =
        blocks::BlockRegistry::standard());

/// Check purity without compiling: returns the offending opcode or an
/// empty string when the ring body is fully pure.
std::string findImpureBlock(const blocks::RingPtr& ring,
                            const blocks::BlockRegistry& registry =
                                blocks::BlockRegistry::standard());

}  // namespace psnap::core
