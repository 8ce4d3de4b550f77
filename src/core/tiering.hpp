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
#include "mapreduce/engine.hpp"

namespace psnap::core {

/// A tiered unary map function: `fn` is the per-item path (always valid);
/// `batch` transforms a chunk of values in place and returns true, or
/// returns false WITHOUT writing anything when the chunk is not natively
/// servable (kernel not installed, unmarshalable element, an element
/// erred, or validation failed) — the caller then runs its per-item loop.
/// `numeric` is the same chunk entry with unboxed results (the mapReduce
/// map column, mr::MapNumericFn): it serves only a Ready or Trusted
/// kernel that returns numbers, and sizes `out` only once it serves.
/// Declining entries record no calls; the per-item path counts what it
/// interprets.
/// `itemNs` is the grain model's per-item cost for mapping `items`
/// (workers/grain.hpp): workers::kMapItemNs while a Trusted kernel would
/// serve every one of them natively, else 0 (unknown). It is read once,
/// when a block launches its operation.
struct TieredUnary {
  std::function<blocks::Value(const blocks::Value&)> fn;
  std::function<bool(blocks::Value*, size_t)> batch;
  mr::MapNumericFn numeric;
  std::function<double(blocks::ItemSpan items)> itemNs;
};

TieredUnary tieredUnary(const blocks::RingPtr& ring,
                        const blocks::BlockRegistry& registry =
                            blocks::BlockRegistry::standard());

/// A tiered mapReduce reducer: `fn` is the ring applied to one key's
/// values list (a Fold kernel, psnap_kernel_fold over gathered doubles,
/// once hot); `numeric` folds every run of a shard straight from the
/// shuffle's flat array (mr::ReduceNumericFn), all-or-nothing, and only
/// for a Trusted kernel; `trusted` says whether the kernel is Trusted
/// now, so that `numeric` will fold the runs.
struct TieredReduce {
  mr::ReduceFn fn;
  mr::ReduceNumericFn numeric;
  std::function<bool()> trusted;
};

TieredReduce tieredReduce(const blocks::RingPtr& ring,
                          const blocks::BlockRegistry& registry =
                              blocks::BlockRegistry::standard());

/// tieredReduce(ring).fn: the reducer shape alone.
mr::ReduceFn tieredListReduce(const blocks::RingPtr& ring,
                              const blocks::BlockRegistry& registry =
                                  blocks::BlockRegistry::standard());

}  // namespace psnap::core
