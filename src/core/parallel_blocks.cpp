#include "core/parallel_blocks.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "blocks/future.hpp"
#include "core/pure_eval.hpp"
#include "core/tiering.hpp"
#include "mapreduce/engine.hpp"
#include "support/error.hpp"
#include "vm/host.hpp"
#include "workers/parallel.hpp"
#include "workers/stats.hpp"

namespace psnap::core {

using blocks::Block;
using blocks::Input;
using blocks::List;
using blocks::ListPtr;
using blocks::RingPtr;
using blocks::Value;
using vm::Context;
using vm::Process;

namespace {

/// Items mapped per slice on the sequential fallback path — the block
/// stays cooperative (other processes keep running) while it works off
/// the list without the worker substrate.
constexpr size_t kFallbackSliceItems = 256;

/// State stashed in the context across yields for doParallelForEach.
struct ForEachJob {
  std::vector<std::shared_ptr<const vm::ProcessStatus>> statuses;
  std::vector<vm::SpriteApi*> clones;
};

/// State stashed in the context across yields for reportParallelMap:
/// either a live worker-substrate job, or the sequential fallback's
/// cursor after a degrade.
struct MapJob {
  std::shared_ptr<workers::Parallel> parallel;  // null once degraded
  workers::MapFn fn;
  ListPtr source;
  std::vector<Value> out;  // fallback results, filled slice by slice
  size_t next = 0;         // fallback cursor (0-based)
};

/// Resolve the optional worker/parallelism slot: collapsed or blank means
/// "use the default".
bool slotIsDefault(const Context& c, size_t index) {
  return c.isCollapsed(index) || c.inputs[index].isNothing() ||
         (c.inputs[index].isText() && c.inputs[index].asText().empty());
}

/// The count in an optional worker/parallelism slot: `fallback` when the
/// slot is default, else its integer value floored at 1.
size_t slotCount(const Context& c, size_t index, size_t fallback) {
  if (slotIsDefault(c, index)) return fallback;
  return static_cast<size_t>(
      std::max<long long>(1, c.inputs[index].asInteger()));
}

/// Substrate options for a parallel-map block: the worker slot (default:
/// the host's worker width), chained under the process's own token (null
/// when the process has none) — stopping the script, or shedding the
/// tenant that owns it, cancels the in-flight pool work at its next chunk
/// boundary. Everything else keeps its ParallelOptions default.
workers::ParallelOptions parallelMapOptions(Process& p, const Context& c) {
  workers::ParallelOptions options;
  options.maxWorkers = slotCount(c, 2, p.host().maxWorkers());
  options.cancel = p.cancelToken();
  return options;
}

/// Pipeline options for a mapReduce block: the host's worker width, the
/// rings' native entries (the map's numeric column and batch, the
/// reduce's shard fold), and the same process-token chaining as
/// parallelMapOptions. Everything else keeps its mr::Options default.
mr::Options mapReduceOptions(Process& p, const TieredUnary& map,
                             const TieredReduce& reduce) {
  mr::Options options;
  options.workers = p.host().maxWorkers();
  options.mapBatch = map.batch;
  options.mapNumeric = map.numeric;
  options.reduceNumeric = reduce.numeric;
  options.cancel = p.cancelToken();
  return options;
}

/// Rethrow a worker-side failure so the process error message carries the
/// block name and the error keeps its class (a TypeError from the ring
/// stays a TypeError; a deadline trip stays a TimeoutError).
[[noreturn]] void failBlock(const char* blockName, ErrorClass errorClass,
                            const std::string& message) {
  throwAsClass(errorClass,
               std::string(blockName) + " failed: " +
                   stripClassPrefix(errorClass, message));
}

/// Move `job` onto the sequential fallback path (substrate unusable) and
/// account for the downgrade.
void degradeMapJob(MapJob& job) {
  job.parallel.reset();
  workers::substrateStats().bump(&workers::SubstrateStats::downgrades);
}

// ---------------------------------------------------------------------------
// reportParallelMap — the paper's Listing 2, completion-driven.
//
// The Parallel handle is backed by the shared WorkerPool (chunk tasks in
// a TaskGroup instead of per-op threads). Where Listing 2 re-polls
// `operation._resolved` from the scheduler's yield loop, this handler
// parks the process on the operation's completion callback: map() returns
// immediately after submission, the process consumes zero frames while
// the workers run, and the worker that finishes the last chunk wakes it.
//
// Degradation: a transient substrate failure — at construction (the
// transfer fault), at launch (pool refused), after the run (retries
// exhausted, clone-out fault) — collapses the block to the sequential
// fallback, which maps kFallbackSliceItems per slice across yields so the
// scheduler stays live (the fallback runs *on* the process, so it slices
// cooperatively instead of parking). The fallback path has no fault
// points, so every chaos scenario converges.
// ---------------------------------------------------------------------------
void parallelMapHandler(Process& p, Context& c) {
  // First invocation: all three declared inputs are evaluated; build the
  // function, create the Parallel job, stash it, and yield.
  if (!c.state) {
    const RingPtr& ring = c.inputs[0].asRing();
    const ListPtr& list = c.inputs[1].asList();
    const workers::ParallelOptions options = parallelMapOptions(p, c);
    // body = 'return ' + expression.mappedCode(); — here: compile the
    // ring into a thread-safe pure function (tiered: a hot ring swaps in
    // its native kernel, and its batch entry serves whole chunks).
    auto job = std::make_shared<MapJob>();
    TieredUnary tiered = tieredUnary(ring, p.registry());
    job->fn = tiered.fn;
    job->source = list;
    try {
      job->parallel = std::make_shared<workers::Parallel>(list, options);
      job->parallel->map(job->fn, tiered.batch);
    } catch (const SubstrateError&) {
      // Clone-in refused (transfer fault): fall back before launch.
      degradeMapJob(*job);
    }
    c.state = job;
    if (job->parallel) {
      // Where Listing 2 pushed a yield context and re-polled, park: the
      // handler frame stays on top and is re-entered when the finishing
      // worker fires the wake (inline-immediately if already resolved).
      job->parallel->onComplete(p.parkOnCompletion(c));
    } else {
      p.retryAfterYield(c);  // degraded before launch: cooperative slices
    }
    return;
  }
  // Re-entered after the wake (the operation is resolved) or on a
  // fallback slice: return the resulting array.
  auto job = std::static_pointer_cast<MapJob>(c.state);
  if (job->parallel) {
    if (job->parallel->failed()) {
      const ErrorClass errorClass = job->parallel->errorClass();
      if (errorClass != ErrorClass::Substrate) {
        failBlock("parallel map", errorClass,
                  job->parallel->errorMessage());
      }
      // Retries exhausted on the substrate: collapse and restart
      // sequentially — the handler still owns the pristine input list.
      degradeMapJob(*job);
      p.retryAfterYield(c);
      return;
    }
    try {
      p.returnValue(Value(List::make(job->parallel->takeData())));
    } catch (const SubstrateError&) {
      // Clone-out refused (transfer fault) on an otherwise clean run.
      degradeMapJob(*job);
      p.retryAfterYield(c);
    }
    return;
  }
  // Sequential fallback: one cooperative slice of the list per frame.
  // User-script errors from fn propagate as usual (they are
  // deterministic — the parallel path would have hit them too).
  const size_t n = job->source->length();
  const size_t end = std::min(n, job->next + kFallbackSliceItems);
  job->out.reserve(n);
  for (; job->next < end; ++job->next) {
    job->out.push_back(job->fn(job->source->item(job->next + 1)));
  }
  if (job->next < n) {
    p.retryAfterYield(c);
    return;
  }
  p.returnValue(Value(List::make(std::move(job->out))));
}

// ---------------------------------------------------------------------------
// doParallelForEach — clones pouring in parallel (Fig. 8–10).
// ---------------------------------------------------------------------------
void parallelForEachHandler(Process& p, Context& c) {
  // Non-strict: evaluate var name, list, and the optional parallelism slot.
  if (c.inputs.size() < 3) {
    p.evalInput(c, c.inputs.size());
    return;
  }

  // Sequential mode: the parallelism slot is collapsed (Fig. 8b). Behave
  // exactly like forEach: the single sprite serves every item in turn.
  // `phase == 2` marks a degraded entry — the host could not launch
  // sibling processes, so the parallel request collapsed to this path
  // (same semantics, one server) and the downgrade was recorded.
  if (c.isCollapsed(2) || c.phase == 2 || c.counter > 0) {
    const ListPtr& list = c.inputs[1].asList();
    if (static_cast<size_t>(c.counter) >= list->length()) {
      p.finishCommand();
      return;
    }
    if (c.phase == 1) {
      c.phase = 0;
      p.retryAfterYield(c);
      return;
    }
    ++c.counter;
    c.phase = 1;
    auto frame = blocks::Environment::make(c.env);
    frame->declare(c.inputs[0].asText(),
                   list->item(static_cast<size_t>(c.counter)));
    p.pushScript(c.block->input(3).script().get(), frame);
    return;
  }

  // Parallel mode.
  if (!c.state) {
    const std::string varName = c.inputs[0].asText();
    const ListPtr& list = c.inputs[1].asList();
    const size_t n = list->length();
    if (n == 0) {
      p.finishCommand();
      return;
    }
    // "If empty, it defaults to the length of the input list." A blank
    // text slot (`<l></l>` from project XML) is empty too.
    const size_t clones = std::min(slotCount(c, 2, n), n);

    auto job = std::make_shared<ForEachJob>();
    for (size_t j = 0; j < clones; ++j) {
      // Round-robin distribution: clone j serves items j+1, j+1+k, …
      auto chunk = List::make();
      for (size_t i = j + 1; i <= n; i += clones) {
        chunk->add(list->item(i));
      }
      // The system spawns clones of the sprite to serve the items. A null
      // clone only degrades the *visualization* — the chunk still runs as
      // its own cooperative process on the original sprite.
      vm::SpriteApi* clone = p.host().makeClone(p.sprite(), "");
      if (clone) job->clones.push_back(clone);

      // Driver: run the body for each item of the chunk, then remove the
      // clone.
      auto driver = Block::make(
          "__foreachDriver",
          {Input(Value(varName)), Input(Value(chunk)),
           Input(c.block->input(3).script())});
      auto script = blocks::Script::make(
          {driver, Block::make("removeClone")});
      auto env = blocks::Environment::make(c.env);
      try {
        job->statuses.push_back(
            p.host().launchScript(script, env, clone ? clone : p.sprite()));
      } catch (const std::exception&) {
        // The host cannot run sibling processes at all (headless
        // NullHost). Only the first launch can degrade — later chunks are
        // already running and a sequential restart would double-serve
        // their items. Collapse to the single-server sequential mode
        // (phase == 2 marks the degraded entry) and record the downgrade.
        if (j != 0) throw;
        if (clone) p.host().removeClone(clone);
        workers::substrateStats().bump(&workers::SubstrateStats::downgrades);
        c.phase = 2;
        p.retryAfterYield(c);
        return;
      }
    }
    c.state = job;
    p.retryAfterYield(c);
    return;
  }

  // Poll the clone processes.
  auto job = std::static_pointer_cast<ForEachJob>(c.state);
  for (const auto& status : job->statuses) {
    if (!status->done) {
      p.retryAfterYield(c);
      return;
    }
  }
  for (const auto& status : job->statuses) {
    if (status->errored) {
      throw Error("parallel forEach clone failed: " + status->error);
    }
  }
  p.finishCommand();
}

// ---------------------------------------------------------------------------
// reportMapReduce — Fig. 11/13. The Job is a completion-chained pipeline
// on the shared pool (map+shuffle stage → sort+reduce stage → merge, each
// stage launched by its predecessor's completion callback); the handler
// parks on the job's completion instead of polling it per frame. The
// engine owns its degradation (sequential rerun on transient substrate
// failure, inline drain if the pool refuses a stage), so the handler only
// relays the typed failure.
// ---------------------------------------------------------------------------
void mapReduceHandler(Process& p, Context& c) {
  if (!c.state) {
    const RingPtr& mapRing = c.inputs[0].asRing();
    const RingPtr& reduceRing = c.inputs[1].asRing();
    const ListPtr& list = c.inputs[2].asList();
    TieredUnary tiered = tieredUnary(mapRing, p.registry());
    TieredReduce reduce = tieredReduce(reduceRing, p.registry());
    auto job = std::make_shared<mr::Job>(list, tiered.fn, reduce.fn,
                                         mapReduceOptions(p, tiered, reduce));
    c.state = job;
    job->onComplete(p.parkOnCompletion(c));
    return;
  }
  // Re-entered after the wake: the pipeline is settled.
  auto job = std::static_pointer_cast<mr::Job>(c.state);
  if (job->failed()) {
    failBlock("mapReduce", job->errorClass(), job->errorMessage());
  }
  p.returnValue(Value(job->result()));
}

// ---------------------------------------------------------------------------
// launchParallelMap / launchMapReduce / reportAwait — the completion model
// made first-class. A launch block builds the substrate operation, wires
// its completion callback to resolve/reject a Future, and returns the
// future *immediately*: the script keeps computing while the workers run.
// `await` joins: identity on plain values, the resolved value on a
// resolved future, a rethrow of the original typed error on a failed one,
// and a park on the future's settlement when still pending.
//
// Launch blocks never throw and never degrade: any failure — purity of
// the ring, a refused pool launch, retries exhausted, a cancelled owner —
// settles the future with its typed error and surfaces at the join. The
// owning process adopts the future, so terminating or failing the process
// cancels the in-flight operation through the future's cancel hook.
// ---------------------------------------------------------------------------
void launchParallelMapHandler(Process& p, Context& c) {
  auto fut = blocks::Future::make();
  try {
    const RingPtr& ring = c.inputs[0].asRing();
    const ListPtr& list = c.inputs[1].asList();
    workers::ParallelOptions options = parallelMapOptions(p, c);
    // No sequential fallback behind a future: the caller chose deferred
    // observation, so failures stay typed and surface at the await.
    options.allowDegrade = false;
    TieredUnary tiered = tieredUnary(ring, p.registry());
    auto parallel = std::make_shared<workers::Parallel>(list, options);
    parallel->map(tiered.fn, tiered.batch);
    // The fulfillment callback runs on the worker that finishes the last
    // chunk. It owns the Parallel (the closure keeps it alive until the
    // settle) and charges clone-out/cancellation accounting to the
    // launching tenant's stats scope, not the worker's.
    workers::SubstrateStats* stats = &workers::substrateStats();
    parallel->onComplete([parallel, fut, stats]() {
      workers::StatsScope scope(*stats);
      try {
        fut->resolve(Value(List::make(parallel->takeData())));
      } catch (...) {
        fut->reject(std::current_exception());
      }
    });
    fut->setCancelHook([parallel](const std::string& reason) {
      parallel->cancel(reason);
    });
  } catch (...) {
    fut->reject(std::current_exception());
  }
  p.adoptFuture(fut);
  p.returnValue(Value(fut));
}

void launchMapReduceHandler(Process& p, Context& c) {
  auto fut = blocks::Future::make();
  try {
    const RingPtr& mapRing = c.inputs[0].asRing();
    const RingPtr& reduceRing = c.inputs[1].asRing();
    const ListPtr& list = c.inputs[2].asList();
    TieredUnary tiered = tieredUnary(mapRing, p.registry());
    TieredReduce reduce = tieredReduce(reduceRing, p.registry());
    mr::Options options = mapReduceOptions(p, tiered, reduce);
    options.allowDegrade = false;  // typed failures surface at the await
    auto job = std::make_shared<mr::Job>(list, tiered.fn, reduce.fn, options);
    workers::SubstrateStats* stats = &workers::substrateStats();
    job->onComplete([job, fut, stats]() {
      workers::StatsScope scope(*stats);
      if (job->failed()) {
        fut->reject(job->error());
      } else {
        fut->resolve(Value(job->result()));
      }
    });
    fut->setCancelHook(
        [job](const std::string& reason) { job->cancel(reason); });
  } catch (...) {
    fut->reject(std::current_exception());
  }
  p.adoptFuture(fut);
  p.returnValue(Value(fut));
}

void awaitHandler(Process& p, Context& c) {
  const Value& input = c.inputs[0];
  if (!input.isFuture()) {
    // The paper's blocks report plain values; awaiting one is the
    // identity, so scripts can be written launch-agnostically.
    p.returnValue(input);
    return;
  }
  const blocks::FuturePtr& fut = input.asFuture();
  switch (fut->state()) {
    case blocks::Future::State::Resolved:
      p.returnValue(fut->value());
      return;
    case blocks::Future::State::Failed:
      // Rethrow the original exception: a TypeError from the mapped ring
      // is a TypeError at the join; a deadline trip is a TimeoutError.
      std::rethrow_exception(fut->error());
    case blocks::Future::State::Pending:
      // Park on the settlement; the handler frame stays on top and is
      // re-entered (now settled) when the completion fires the wake.
      fut->onSettle(p.parkOnCompletion(c));
      return;
  }
}

}  // namespace

void registerParallelPrimitives(vm::PrimitiveTable& table) {
  table.add("reportParallelMap", parallelMapHandler);
  table.add("doParallelForEach", parallelForEachHandler);
  table.add("reportMapReduce", mapReduceHandler);
  table.add("launchParallelMap", launchParallelMapHandler);
  table.add("launchMapReduce", launchMapReduceHandler);
  table.add("reportAwait", awaitHandler);
  // The per-clone chunk driver shares doForEach's iteration logic.
  const vm::Handler* forEach = table.find("doForEach");
  if (!forEach) {
    throw BlockError(
        "registerParallelPrimitives requires the standard palette");
  }
  table.add("__foreachDriver", *forEach);
}

vm::PrimitiveTable fullPrimitiveTable() {
  vm::PrimitiveTable table = vm::PrimitiveTable::standard();
  registerParallelPrimitives(table);
  return table;
}

}  // namespace psnap::core
