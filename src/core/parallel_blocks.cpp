#include "core/parallel_blocks.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blocks/future.hpp"
#include "core/tiering.hpp"
#include "mapreduce/engine.hpp"
#include "support/error.hpp"
#include "vm/host.hpp"
#include "workers/grain.hpp"
#include "workers/parallel.hpp"
#include "workers/stats.hpp"

namespace psnap::core {

using blocks::Block;
using blocks::Input;
using blocks::List;
using blocks::ListPtr;
using blocks::Value;
using vm::Context;
using vm::Process;

namespace {

/// State stashed in the context across yields for doParallelForEach.
struct ForEachJob {
  std::vector<std::shared_ptr<const vm::ProcessStatus>> statuses;
  std::vector<vm::SpriteApi*> clones;
};

/// The count in an optional worker/parallelism slot: `fallback` when the
/// slot is collapsed or blank, else its integer value floored at 1.
size_t slotCount(const Context& c, size_t index, size_t fallback) {
  const Value& slot = c.inputs[index];
  if (c.isCollapsed(index) || slot.isNothing() ||
      (slot.isText() && slot.asText().empty())) {
    return fallback;
  }
  return static_cast<size_t>(std::max<long long>(1, slot.asInteger()));
}

/// The parallel map's one degrade rung: map `list` through `fn` on this
/// thread, checking `token` (when set) every 256 items. It has no fault
/// points, so a degraded block always converges.
std::vector<Value> sequentialMap(const workers::MapFn& fn, const ListPtr& list,
                                 const CancelTokenPtr& token) {
  std::vector<Value> out;
  out.reserve(list->length());
  for (const Value& item : list->items()) {
    if (token && out.size() % 256 == 255) token->checkpoint();
    out.push_back(fn(item));
  }
  return out;
}

/// Settle `fut` with what `body` reports, or reject it with what it throws.
template <typename Body>
void settleWith(blocks::Future& fut, const Body& body) {
  try {
    fut.resolve(body());
  } catch (...) {
    fut.reject(std::current_exception());
  }
}

// ---------------------------------------------------------------------------
// One start function per operation, shared by the report block and its
// launch twin. Each builds the tiered functions and the options, launches
// the operation on the shared pool, and returns a Future that the
// operation's completion callback settles — on the worker that finishes
// the last task, under the launching tenant's stats scope. An error while
// building (a PurityError from compiling a ring or cloning the list) is
// thrown. `degrade` (report blocks only) lets a transient substrate
// failure fall back to a sequential path instead of failing the future.
// ---------------------------------------------------------------------------

/// A started operation: the Future its completion settles, and the
/// operation itself (a Parallel or an mr::Job; null when the map degraded
/// before launching), which its callback and cancel hook also hold.
struct Launched {
  blocks::FuturePtr future;
  std::shared_ptr<void> op;
};

/// parallelMap — the paper's Listing 2. The ring compiles into a
/// thread-safe pure function (tiered: a hot ring swaps in its native
/// kernel, whose batch entry serves whole chunks), and the list is cloned
/// into a Parallel. A map whose known cost is below the grain crossover
/// (workers/grain.hpp) drains inside map(), so its future is settled
/// before this returns. With `degrade`, a refused launch drains on the
/// caller inside Parallel, and the block owns one more rung: a refused
/// clone-in maps the list here with sequentialMap, and retries used up or
/// a refused clone-out rerun it in the completion callback. Each counts
/// one downgrade.
Launched startParallelMap(Process& p, const Context& c,
                          const native::TierConfig& cfg, bool degrade) {
  const ListPtr& list = c.inputs[1].asList();
  TieredUnary tiered = tieredUnary(c.inputs[0].asRing(), cfg, p.registry());
  // The worker slot (default: the host's worker width), the process's own
  // token (null when it has none) — stopping the script, or shedding the
  // tenant that owns it, cancels the pool work at its next chunk boundary
  // — and the map's per-item cost for the grain model (0 = unknown: a
  // cold, compiling or untrusted kernel, or no tier). Everything else
  // keeps its ParallelOptions default.
  workers::ParallelOptions options;
  options.maxWorkers = slotCount(c, 2, p.host().maxWorkers());
  options.allowDegrade = degrade;
  options.cancel = p.cancelToken();
  options.itemCostNs = tiered.itemNs ? tiered.itemNs(list->items()) : 0;
  workers::SubstrateStats* stats = &workers::substrateStats();
  // The degrade rung reads a snapshot (O(1) for a flat list): it may run
  // on a worker while a script mutates the caller's list.
  const ListPtr source = degrade ? list->snapshotClone() : nullptr;
  auto rerun = [stats, source, fn = tiered.fn, token = options.cancel] {
    stats->bump(&workers::SubstrateStats::downgrades);
    return Value(List::make(sequentialMap(fn, source, token)));
  };
  auto fut = blocks::Future::make();
  std::shared_ptr<workers::Parallel> parallel;
  try {
    parallel = std::make_shared<workers::Parallel>(list, options);
  } catch (const SubstrateError&) {
    if (!degrade) throw;
    fut->resolve(rerun());
    return {fut, nullptr};
  }
  parallel->map(tiered.fn, tiered.batch);
  parallel->onComplete([parallel, fut, stats, degrade,
                        rerun = std::move(rerun)] {
    workers::StatsScope scope(*stats);
    settleWith(*fut, [&] {
      try {
        return Value(List::make(parallel->takeData()));
      } catch (const SubstrateError&) {
        const ErrorClass errorClass = classifyError(std::current_exception());
        if (!degrade || errorClass != ErrorClass::Substrate) throw;
        return rerun();
      }
    });
  });
  fut->setCancelHook(
      [parallel](const std::string& reason) { parallel->cancel(reason); });
  return {fut, parallel};
}

/// mapReduce — Figs. 11/13. The Job is a completion-chained pipeline on
/// the shared pool (map+shuffle stage → sort+reduce stage → merge). It
/// owns its degradation (an inline drain of a refused stage, a sequential
/// rerun after a transient substrate failure), so `degrade` only permits
/// it. A job below the grain crossover settles inside its constructor.
Launched startMapReduce(Process& p, const Context& c,
                        const native::TierConfig& cfg, bool degrade) {
  const ListPtr& list = c.inputs[2].asList();
  TieredUnary map = tieredUnary(c.inputs[0].asRing(), cfg, p.registry());
  TieredReduce reduce =
      tieredReduce(c.inputs[1].asRing(), cfg, p.registry());
  // The host's worker width, the rings' native entries (the map's numeric
  // column and batch, the reduce's shard fold), the process's token as
  // for parallelMap, and the per-item cost for the grain model — known
  // only when the map's kernel serves `list` and the reduce's kernel is
  // Trusted. It is the shuffle's per-pair cost, which was measured
  // through a plain C++ map and reduce standing in for the native ones.
  // Everything else keeps its mr::Options default.
  mr::Options options;
  options.workers = p.host().maxWorkers();
  options.allowDegrade = degrade;
  options.cancel = p.cancelToken();
  options.mapBatch = map.batch;
  options.mapNumeric = map.numeric;
  options.reduceNumeric = reduce.numeric;
  const bool costKnown = map.itemNs && map.itemNs(list->items()) > 0 &&
                         reduce.trusted && reduce.trusted();
  options.itemCostNs = costKnown ? workers::kShufflePairNs : 0;
  workers::SubstrateStats* stats = &workers::substrateStats();
  auto fut = blocks::Future::make();
  auto job = std::make_shared<mr::Job>(list, map.fn, reduce.fn, options);
  job->onComplete([job, fut, stats] {
    workers::StatsScope scope(*stats);
    settleWith(*fut, [&] {
      if (job->failed()) std::rethrow_exception(job->error());
      return Value(job->result());
    });
  });
  fut->setCancelHook(
      [job](const std::string& reason) { job->cancel(reason); });
  return {fut, job};
}

using StartFn = Launched (*)(Process&, const Context&,
                            const native::TierConfig&, bool);
constexpr char kParallelMapName[] = "parallel map";
constexpr char kMapReduceName[] = "mapReduce";

/// Report `fut` from the handler frame `c`: its value once resolved; once
/// failed, the original error (`blockName` null: the await) or the
/// block's failure; while pending, a park on its settlement — the frame
/// stays on top and is re-entered, settled, by the wake (inline when the
/// future settles first).
void settleOrPark(Process& p, Context& c, const blocks::FuturePtr& fut,
                  const char* blockName) {
  switch (fut->state()) {
    case blocks::Future::State::Resolved:
      p.returnValue(fut->value());
      return;
    case blocks::Future::State::Failed: {
      // Either way the error keeps its class: a TypeError from the mapped
      // ring stays a TypeError, a deadline trip stays a TimeoutError.
      if (!blockName) std::rethrow_exception(fut->error());
      const ErrorClass errorClass = fut->errorClass();
      const std::string message =
          exceptionMessage(fut->error(), "unknown error");
      throwAsClass(errorClass, std::string(blockName) + " failed: " +
                                   stripClassPrefix(errorClass, message));
    }
    case blocks::Future::State::Pending:
      fut->onSettle(p.parkOnCompletion(c));
      return;
  }
}

/// A report block's frame state. The frame joins its operation when it
/// dies: a process stopped or failed while parked cancels the operation
/// and waits for it to settle, so no pool work outlives the process (or
/// the tenant stats it charges). Holding the operation also frees it
/// here, on the process's thread: freeing a large mapReduce pipeline on
/// the pool worker that settled it measured slower (EXPERIMENTS.md, "One
/// path per parallel block").
struct Report {
  explicit Report(Launched op) : launched(std::move(op)) {}
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;
  ~Report() { launched.future->cancelAndJoin("owning process ended"); }

  Launched launched;
};

/// parallelMap / mapReduce as report blocks: the launch, with
/// degradation, plus a park. A build error propagates as raised; a failed
/// operation fails the process as `blockName failed: …`, class kept.
template <StartFn start, const char* blockName>
vm::Handler reportBlock(const native::TierConfig& cfg) {
  return [cfg](Process& p, Context& c) {
    if (!c.state) c.state = std::make_shared<Report>(start(p, c, cfg, true));
    settleOrPark(p, c,
                 std::static_pointer_cast<Report>(c.state)->launched.future,
                 blockName);
  };
}

/// The launch twins: the future, reported at once while the script keeps
/// computing. They never degrade and never throw: every failure, a build
/// error included, settles the future typed and surfaces at the await.
/// The process adopts the future, so terminating or failing the process
/// cancels the operation through the future's cancel hook.
template <StartFn start>
vm::Handler launchBlock(const native::TierConfig& cfg) {
  return [cfg](Process& p, Context& c) {
    blocks::FuturePtr fut;
    try {
      fut = start(p, c, cfg, false).future;
    } catch (...) {
      fut = blocks::Future::make();
      fut->reject(std::current_exception());
    }
    p.adoptFuture(fut);
    p.returnValue(Value(fut));
  };
}

/// await: the identity on plain values (scripts can be written
/// launch-agnostically), else the future's settlement.
void awaitHandler(Process& p, Context& c) {
  const Value& input = c.inputs[0];
  if (!input.isFuture()) {
    p.returnValue(input);
    return;
  }
  settleOrPark(p, c, input.asFuture(), nullptr);
}

// ---------------------------------------------------------------------------
// doParallelForEach — clones pouring in parallel (Fig. 8–10).
// ---------------------------------------------------------------------------
void parallelForEachHandler(const vm::Handler& forEach, Process& p,
                            Context& c) {
  // Non-strict: evaluate var name, list, and the optional parallelism slot.
  if (c.inputs.size() < 3) {
    p.evalInput(c, c.inputs.size());
    return;
  }

  // Sequential mode: the parallelism slot is collapsed (Fig. 8b). Run as
  // forEach itself: the single sprite serves every item in turn.
  // `phase == 2` marks a degraded entry — the host could not launch
  // sibling processes, so the parallel request collapsed to this path
  // (same semantics, one server) and the downgrade was recorded.
  if (c.isCollapsed(2) || c.phase == 2 || c.counter > 0) {
    forEach(p, c);
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

}  // namespace

void registerParallelPrimitives(vm::PrimitiveTable& table,
                                const native::TierConfig& cfg) {
  table.add("reportParallelMap",
            reportBlock<startParallelMap, kParallelMapName>(cfg));
  table.add("reportMapReduce",
            reportBlock<startMapReduce, kMapReduceName>(cfg));
  table.add("launchParallelMap", launchBlock<startParallelMap>(cfg));
  table.add("launchMapReduce", launchBlock<startMapReduce>(cfg));
  table.add("reportAwait", awaitHandler);
  // The per-clone chunk driver and the sequential mode of the parallel
  // forEach share doForEach's iteration logic.
  const vm::Handler* found = table.find("doForEach");
  if (!found) {
    throw BlockError(
        "registerParallelPrimitives requires the standard palette");
  }
  const vm::Handler forEach = *found;  // copied: add() may reallocate
  table.add("doParallelForEach", [forEach](Process& p, Context& c) {
    parallelForEachHandler(forEach, p, c);
  });
  table.add("__foreachDriver", forEach);
}

vm::PrimitiveTable fullPrimitiveTable(const native::TierConfig& cfg) {
  vm::PrimitiveTable table = vm::PrimitiveTable::standard();
  registerParallelPrimitives(table, cfg);
  return table;
}

}  // namespace psnap::core
