// Tier-aware ring compilation: the dispatch glue between core's pure
// interpreter (pure_eval.hpp) and the native tier (native/tier.hpp).
//
// Every function built here carries BOTH execution paths. The interpreter
// closure (compileRing's output) is the reference semantics and the
// permanent fallback; the native kernel, once hot, compiled, installed,
// and validated, serves the marshalable calls. Call sites need no new
// protocol: compileUnary() in pure_eval.hpp already
// returns these tiered functions, so parallelMap, launch blocks, and
// mapReduce all upgrade behind their existing signatures.
//
// The tier config is snapshotted when the function is BUILT (on the
// scheduler thread, where the session's TierScope is installed), not when
// it is called (on a pool worker, which has no scope) — that is how
// per-session tier enablement reaches worker-side execution.
#pragma once

#include <functional>

#include "blocks/block.hpp"
#include "blocks/registry.hpp"
#include "blocks/value.hpp"

namespace psnap::core {

/// A tiered unary map function: `fn` is the per-item path (always valid);
/// `batch` transforms a chunk of values in place and returns true, or
/// returns false WITHOUT writing anything when the chunk is not natively
/// servable (kernel not installed, unmarshalable element, an element
/// erred, or validation failed) — the caller then runs its per-item loop.
struct TieredUnary {
  std::function<blocks::Value(const blocks::Value&)> fn;
  std::function<bool(blocks::Value*, size_t)> batch;
};

TieredUnary tieredUnary(const blocks::RingPtr& ring,
                        const blocks::BlockRegistry& registry =
                            blocks::BlockRegistry::standard());

/// The mapReduce reducer shape: ring applied to one key's values list
/// (compiled to a Fold kernel: psnap_kernel_fold over gathered doubles).
std::function<blocks::Value(const blocks::ListPtr&)> tieredListReduce(
    const blocks::RingPtr& ring,
    const blocks::BlockRegistry& registry =
        blocks::BlockRegistry::standard());

}  // namespace psnap::core
