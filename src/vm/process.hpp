// The Process: Snap!'s interpreter as an explicit context-stack machine.
//
// Snap! implements concurrency as coroutines over an explicit stack of
// Context frames — a process runs until it *yields*, and the scheduler
// interleaves many processes within one frame. The paper's parallelMap
// primitive (Listing 2) depends on exactly this machinery: it stores its
// worker job in the current context's input array, pushes a 'doYield'
// context, and is re-invoked every frame to poll for completion. This
// class reproduces that machine:
//
//   * strict blocks get their inputs evaluated left to right by the
//     machine, one child context at a time;
//   * non-strict (control) blocks receive control with whatever inputs
//     have been evaluated so far and push their own children;
//   * any handler can push a yield marker, retry itself next frame, or
//     return a value to its parent context.
//
// A Process is single-threaded; true parallelism enters only through the
// worker pool used by the parallel blocks (src/workers, src/core).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocks/block.hpp"
#include "blocks/environment.hpp"
#include "blocks/registry.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "vm/host.hpp"

namespace psnap::blocks {
class Future;
}  // namespace psnap::blocks

namespace psnap::vm {

class Process;

/// One frame of the evaluation stack.
///
/// Exactly one of `block` / `script` / `isYieldMarker` describes the frame.
/// The scratch fields (`phase`, `counter`, `deadline`, `token`, `state`)
/// are owned by the handler of `block` across re-invocations — the same
/// role `context.inputs[3]` plays in the paper's Listing 2.
struct Context {
  const blocks::Block* block = nullptr;
  const blocks::Script* script = nullptr;
  size_t pc = 0;  ///< next block index when running a script

  /// Evaluated inputs; handlers may append scratch values past the block's
  /// declared arity (the Listing 2 idiom).
  std::vector<blocks::Value> inputs;
  /// Parallel to `inputs`: true where the input slot was collapsed.
  std::vector<uint8_t> collapsedFlags;

  blocks::EnvPtr env;

  int phase = 0;
  long long counter = 0;
  double deadline = 0;
  uint64_t token = 0;
  std::shared_ptr<void> state;

  bool isYieldMarker = false;
  /// doReport / stop-this-script unwind to the innermost boundary frame.
  bool callBoundary = false;
  /// This frame entered a warp; unwinding past it must exit the warp.
  bool ownsWarp = false;

  /// Keep-alive owners for synthetic AST nodes created at run time.
  blocks::BlockPtr blockOwner;
  blocks::ScriptPtr scriptOwner;

  /// Was the input at `index` a collapsed optional slot?
  bool isCollapsed(size_t index) const {
    return index < collapsedFlags.size() && collapsedFlags[index] != 0;
  }
};

/// A block handler. Invoked when the frame's block is on top of the stack
/// and (for strict blocks) all declared inputs are evaluated. Must make
/// progress: push children, return a value, finish, retry-after-yield, or
/// terminate.
using Handler = std::function<void(Process&, Context&)>;

/// Opcode → handler table. Separate from the BlockRegistry so extension
/// modules (parallel blocks, codegen blocks) can register additional
/// handlers without touching the interpreter. Internally a flat vector
/// indexed by interned OpcodeId: the hot-path lookup is a bounds check and
/// an array load, no string hashing.
class PrimitiveTable {
 public:
  void add(const std::string& opcode, Handler handler);
  /// Swap the handler of an opcode that already has one (a palette
  /// extension wrapping a standard handler). Throws BlockError if none.
  void replace(const std::string& opcode, Handler handler);
  const Handler* find(const std::string& opcode) const;

  /// Handler lookup by interned id (an empty slot means no handler).
  const Handler* findById(blocks::OpcodeId id) const {
    if (id >= byId_.size() || !byId_[id]) return nullptr;
    return &byId_[id];
  }

  /// Every id with a registered handler, ascending.
  std::vector<blocks::OpcodeId> registeredIds() const;

  /// Standard palette handlers (everything in registerStandardSpecs except
  /// the parallel and codegen blocks, which live in src/core and
  /// src/codegen).
  static PrimitiveTable standard();

 private:
  /// OpcodeId → handler; a default-constructed (empty) std::function marks
  /// an absent entry.
  std::vector<Handler> byId_;
};

void registerStandardPrimitives(PrimitiveTable& table);

/// Why a process is no longer runnable. Blocked is the parked state: the
/// process is alive but waiting on a completion callback — it consumes no
/// frames and is neither runnable nor finished until the callback
/// re-readies it (or cancellation fails it).
enum class ProcessState { Ready, Blocked, Done, Errored, Terminated };

/// How stepBlock resolves a block's spec and handler.
///
/// ById is the production path: the block's cached OpcodeId indexes
/// directly into the registry and primitive table, and consecutive
/// immediate inputs (literals, blanks, collapsed slots) are deposited in
/// one interpreter step. ByString preserves the pre-interning behaviour —
/// hash the opcode string twice per dispatch, one input per step — as the
/// reference that the DispatchParity property test checks ById against.
/// No benchmark runs it; its old timings are frozen in EXPERIMENTS.md.
enum class DispatchMode { ById, ByString };

class Process {
 public:
  Process(const blocks::BlockRegistry* registry,
          const PrimitiveTable* primitives, Host* host,
          SpriteApi* sprite = nullptr);

  /// Begin running a command script (an activated Snap! script).
  void startScript(blocks::ScriptPtr script, blocks::EnvPtr env);
  /// Begin evaluating a reporter expression; result() holds the value when
  /// finished.
  void startExpression(blocks::BlockPtr expression, blocks::EnvPtr env);

  ProcessState state() const { return state_; }
  bool runnable() const { return state_ == ProcessState::Ready; }
  bool blocked() const { return state_ == ProcessState::Blocked; }
  bool finished() const {
    return state_ == ProcessState::Done || state_ == ProcessState::Errored ||
           state_ == ProcessState::Terminated;
  }
  bool errored() const { return state_ == ProcessState::Errored; }
  const std::string& error() const { return error_; }
  /// The error's class tag (None while clean; Timeout/Cancelled when a
  /// cancel token unwound the process). Meaningful once errored().
  ErrorClass errorClass() const { return errorClass_; }
  const blocks::Value& result() const { return result_; }

  /// Attach a cooperative cancellation token. The process checks it at
  /// its yield points — slice entry and warped yield consumption — and
  /// fails with the token's typed reason (timeout/cancelled) when it has
  /// tripped. Deadlines on the token give per-process wall-clock budgets.
  void setCancelToken(CancelTokenPtr token) {
    cancelToken_ = std::move(token);
  }
  const CancelTokenPtr& cancelToken() const { return cancelToken_; }

  /// Opcode of the root expression (or the root script's first block) —
  /// the scheduler's attribution label for this process's errors.
  std::string rootOpcode() const;

  /// Run until the process yields, finishes, or `maxSteps` interpreter
  /// steps elapse. Returns true if the process is still runnable.
  bool runSlice(size_t maxSteps = kDefaultSliceSteps);

  /// Drive to completion on the current thread (headless evaluation).
  /// Throws Error if the process errors, or if `maxTotalSteps` elapse
  /// (runaway-loop guard).
  const blocks::Value& runToCompletion(size_t maxTotalSteps = 100'000'000);

  /// Did the last runSlice end in a voluntary yield?
  bool yielded() const { return yielded_; }

  /// Select spec/handler resolution (default ById; ByString is the
  /// string-hashing reference path, kept only for the DispatchParity test).
  void setDispatchMode(DispatchMode mode) { dispatchMode_ = mode; }
  DispatchMode dispatchMode() const { return dispatchMode_; }

  // --- services for handlers --------------------------------------------
  Host& host() { return *host_; }
  SpriteApi* sprite() { return sprite_; }
  const blocks::BlockRegistry& registry() const { return *registry_; }

  /// Evaluate input slot `index` of `ctx.block`: literals, empty slots and
  /// collapsed slots deposit immediately; nested blocks push a child frame.
  void evalInput(Context& ctx, size_t index);

  void pushScript(const blocks::Script* script, blocks::EnvPtr env,
                  bool boundary = false,
                  blocks::ScriptPtr owner = nullptr);
  void pushExpression(const blocks::Block* block, blocks::EnvPtr env,
                      bool boundary = false, blocks::BlockPtr owner = nullptr);
  void pushYield();

  /// Pop the current frame and hand `value` to the parent frame.
  void returnValue(blocks::Value value);
  /// Pop the current frame with no value (commands).
  void finishCommand();
  /// Keep the current frame, schedule a yield, and re-invoke the handler
  /// next slice (the Listing 2 polling idiom — retained for cooperative
  /// compute such as the parallel forEach's sequential mode, NOT for
  /// completion polling; async handlers park with parkOnCompletion
  /// instead).
  void retryAfterYield(Context& ctx);

  /// Park the process: keep the current frame (the handler is re-invoked
  /// on wake with its scratch state intact), move to Blocked, and return
  /// the wake functor to hand to an onComplete/onSettle registration.
  ///
  /// The functor is safe to call from any thread at any time — including
  /// inline during registration (operation already resolved) and after
  /// the process or its scheduler is destroyed: it captures only a
  /// per-park flag and the host's WakeHub, never `this`. The flag store
  /// is release, the scheduler's wakeReady() read is acquire, so task
  /// outputs published before the completion settle are visible to the
  /// re-invoked handler.
  std::function<void()> parkOnCompletion(Context& ctx);

  /// Has the parked process's wake functor fired?
  bool wakeReady() const {
    return state_ == ProcessState::Blocked && wakeFlag_ &&
           wakeFlag_->load(std::memory_order_acquire);
  }

  /// Blocked -> Ready (scheduler-side, after wakeReady()).
  void unpark();

  /// If the cancel token tripped, fail with its typed reason and return
  /// true. Works from Ready and Blocked — the scheduler uses this to fail
  /// a parked process whose deadline expired while it consumed no frames.
  bool failIfCancelled();
  /// doReport: unwind to the innermost call boundary, returning `value`.
  void unwindReport(blocks::Value value);
  /// stop this script: unwind to the innermost call boundary, no value.
  void stopThisScript();
  /// Kill the process outright.
  void terminate();

  /// Warp nesting (Snap!'s `warp` block): while > 0, yield markers are
  /// consumed without ending the slice, so the warped body runs to
  /// completion within one frame.
  void enterWarp() { ++warpDepth_; }
  void exitWarp() {
    if (warpDepth_ > 0) --warpDepth_;
  }
  bool warped() const { return warpDepth_ > 0; }

  /// Call a ring with arguments. Pushes a boundary frame; the ring body
  /// runs under a fresh environment frame binding formals (or implicit
  /// empty-slot arguments).
  void pushRingCall(const blocks::RingPtr& ring,
                    std::vector<blocks::Value> args,
                    const blocks::EnvPtr& callerEnv);

  /// Register a Future launched by this process. Cancellation of the
  /// owning process (terminate or failure) cancels every still-pending
  /// adopted future, propagating into the underlying operation, and joins
  /// it: no pool work outlives the process or the tenant stats it charges.
  void adoptFuture(const std::shared_ptr<blocks::Future>& future);
  /// Adopted futures still tracked (test hook).
  size_t ownedFutureCount() const { return ownedFutures_.size(); }

  /// say/think output log (always appended, also forwarded to the sprite).
  std::vector<std::string>& sayLog() { return sayLog_; }

  /// Code-mapping target language selected by `map to language` (Sec. 6).
  std::string codegenLanguage = "C";

  uint64_t id() const { return id_; }

  static constexpr size_t kDefaultSliceSteps = 1'000'000;

 private:
  void step();
  void stepScript(Context& ctx);
  void stepBlock(Context& ctx);
  void fail(const std::string& message);
  /// If the cancel token tripped, fail with its typed reason and return
  /// true.
  bool checkCancelled();
  /// Cancel and join every adopted still-pending future (terminate/fail).
  void cancelOwnedFutures(const std::string& reason);

  const blocks::BlockRegistry* registry_;
  const PrimitiveTable* primitives_;
  Host* host_;
  SpriteApi* sprite_;

  // A deque, not a vector: handlers keep Context& references into the
  // stack while pushing child frames, and deque push/pop at the back
  // never invalidates references to other elements.
  std::deque<Context> stack_;
  blocks::ScriptPtr rootScript_;
  blocks::BlockPtr rootExpression_;

  ProcessState state_ = ProcessState::Done;
  std::string error_;
  ErrorClass errorClass_ = ErrorClass::None;
  CancelTokenPtr cancelToken_;
  blocks::Value result_;
  bool yielded_ = false;
  bool progress_ = false;  ///< set by any stack mutation within step()
  /// Per-park wake flag; a fresh one per park so a stale functor from an
  /// earlier park (delayed by CompletionDrop) can never wake a later one.
  std::shared_ptr<std::atomic<bool>> wakeFlag_;
  /// Futures launched by this process, cancelled with it.
  std::vector<std::weak_ptr<blocks::Future>> ownedFutures_;

  std::vector<std::string> sayLog_;
  uint64_t id_;
  int warpDepth_ = 0;
  DispatchMode dispatchMode_ = DispatchMode::ById;
};

}  // namespace psnap::vm
