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
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocks/block.hpp"
#include "blocks/environment.hpp"
#include "blocks/registry.hpp"
#include "support/cancel.hpp"

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

/// The list HOFs a sequential handler can run whole in one call.
enum class Hof { Map, Keep, Combine };

/// Run the sequential `hof` (map, keep or combine) of `ring` over `list`
/// in one call on this thread, with the evaluator compileRing ships to
/// workers and the same loop its nested map, keep and combine run. Unlike
/// a worker it reads the names the ring captures from the ring's live
/// environment, so values keep their identity, as on the VM. Checks
/// `token` (when set) every few thousand items and throws its typed
/// error once tripped.
///
/// Returns nullopt, having run nothing, when this evaluator would not run
/// the ring exactly as the VM does: a command ring, a block that is not
/// pure, a name neither a formal nor declared in the ring's captured
/// environment, a blank inside a ring with formals, or a ring slot that
/// is not a literal ring. The caller then runs its interpreted loop.
std::optional<blocks::Value> runHof(Hof hof, const blocks::RingPtr& ring,
                                    const blocks::ListPtr& list,
                                    const CancelToken* token,
                                    const blocks::BlockRegistry& registry);

/// Check purity without compiling: returns the offending opcode or an
/// empty string when the ring body is fully pure.
std::string findImpureBlock(const blocks::RingPtr& ring,
                            const blocks::BlockRegistry& registry =
                                blocks::BlockRegistry::standard());

}  // namespace psnap::core
