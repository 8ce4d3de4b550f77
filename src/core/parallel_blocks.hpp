// The paper's contribution: the parallelMap, parallelForEach, and
// mapReduce blocks (Sections 3–4), as interpreter primitives.
//
//   * reportParallelMap — Fig. 5 / Listing 2: compiles the ring to a pure
//     function, ships it to a Parallel job over real worker threads, and
//     parks the process on the job's completion callback (the
//     completion-driven successor of Listing 2's resolved() poll loop).
//     The optional workers slot defaults to the host's worker width
//     (`aCount || navigator.hardwareConcurrency || 4`).
//   * doParallelForEach — Fig. 8–10: in parallel mode, spawns sprite
//     clones that each run the C-slot body over a share of the list
//     *concurrently on the cooperative scheduler* (the pedagogical
//     visualization: three Pitcher clones pouring at once); the collapsed
//     mode runs the body sequentially like forEach.
//   * reportMapReduce — Fig. 11–13: compiles both rings and parks on the
//     engine's completion-chained pipeline.
//   * launchParallelMap / launchMapReduce / reportAwait — the deferred
//     forms: launch returns a pending Future value immediately (the
//     script keeps computing) and `await` joins it, parking only if the
//     operation is still in flight.
//
// Each operation is built once: the report block is its launch block
// plus a park on the same Future (DESIGN.md, "Completion model").
//
// Fault model (DESIGN.md, "Fault model"): the report blocks are the
// outermost rung of the degradation ladder. When the worker substrate
// fails transiently — launch refused, transfer fault, chunk retries
// exhausted — they complete the script's work anyway on a sequential
// path (the C++ realisation of the paper's collapsed "in parallel"
// slot); the launch blocks settle their future typed instead.
// User-script errors and deadline/cancellation trips never degrade; they
// fail the process with their error class preserved in the message.
#pragma once

#include "native/tier.hpp"
#include "vm/process.hpp"

namespace psnap::core {

/// Register reportParallelMap, doParallelForEach, reportMapReduce, the
/// future-returning launch blocks with reportAwait, and the internal
/// __foreachDriver into `table`. The four parallel-block handlers keep a
/// copy of `cfg`, the native-tier policy for every ring they compile: a
/// palette built with the tier disabled never counts hotness and never
/// compiles.
void registerParallelPrimitives(
    vm::PrimitiveTable& table,
    const native::TierConfig& cfg = native::defaultTierConfig());

/// A PrimitiveTable with both the standard palette and the parallel
/// blocks under `cfg` — the table a full psnap environment runs with.
/// Its sequential map, keep and combine run a pure reporter ring over the
/// whole list in one interpreter step (core::runHof), falling back to the
/// standard per-item handlers for any other ring; the native tier stays
/// out of them. PrimitiveTable::standard() is the interpreted reference.
vm::PrimitiveTable fullPrimitiveTable(
    const native::TierConfig& cfg = native::defaultTierConfig());

}  // namespace psnap::core
