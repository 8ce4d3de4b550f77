#include "vm/process.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "blocks/future.hpp"
#include "support/error.hpp"

namespace psnap::vm {

using blocks::Block;
using blocks::BlockPtr;
using blocks::Environment;
using blocks::EnvPtr;
using blocks::Input;
using blocks::InputKind;
using blocks::Ring;
using blocks::RingKind;
using blocks::RingPtr;
using blocks::Script;
using blocks::ScriptPtr;
using blocks::Value;

void PrimitiveTable::add(const std::string& opcode, Handler handler) {
  const blocks::OpcodeId opId = blocks::internOpcode(opcode);
  if (opId < byId_.size() && byId_[opId]) {
    throw BlockError("duplicate handler for opcode " + opcode);
  }
  if (opId >= byId_.size()) byId_.resize(opId + 1);
  byId_[opId] = std::move(handler);
}

void PrimitiveTable::replace(const std::string& opcode, Handler handler) {
  const blocks::OpcodeId opId = blocks::lookupOpcode(opcode);
  if (!findById(opId)) {
    throw BlockError("no handler to replace for opcode " + opcode);
  }
  byId_[opId] = std::move(handler);
}

const Handler* PrimitiveTable::find(const std::string& opcode) const {
  return findById(blocks::lookupOpcode(opcode));
}

std::vector<blocks::OpcodeId> PrimitiveTable::registeredIds() const {
  std::vector<blocks::OpcodeId> ids;
  for (blocks::OpcodeId i = 0; i < byId_.size(); ++i) {
    if (byId_[i]) ids.push_back(i);
  }
  return ids;
}

PrimitiveTable PrimitiveTable::standard() {
  PrimitiveTable table;
  registerStandardPrimitives(table);
  return table;
}

namespace {
std::atomic<uint64_t> gNextProcessId{1};
}  // namespace

Process::Process(const blocks::BlockRegistry* registry,
                 const PrimitiveTable* primitives, Host* host,
                 SpriteApi* sprite)
    : registry_(registry),
      primitives_(primitives),
      host_(host),
      sprite_(sprite),
      id_(gNextProcessId.fetch_add(1)) {
  if (!registry_ || !primitives_ || !host_) {
    throw Error("Process requires a registry, primitive table, and host");
  }
}

void Process::startScript(ScriptPtr script, EnvPtr env) {
  rootScript_ = std::move(script);
  stack_.clear();
  state_ = ProcessState::Ready;
  error_.clear();
  errorClass_ = ErrorClass::None;
  result_ = Value();
  pushScript(rootScript_.get(), std::move(env), /*boundary=*/true);
}

void Process::startExpression(BlockPtr expression, EnvPtr env) {
  rootExpression_ = std::move(expression);
  stack_.clear();
  state_ = ProcessState::Ready;
  error_.clear();
  errorClass_ = ErrorClass::None;
  result_ = Value();
  pushExpression(rootExpression_.get(), std::move(env), /*boundary=*/true);
}

std::string Process::rootOpcode() const {
  if (rootExpression_) return rootExpression_->opcode();
  if (rootScript_ && rootScript_->size() > 0) {
    return rootScript_->at(0)->opcode();
  }
  return "<script>";
}

bool Process::checkCancelled() {
  if (!cancelToken_ || !cancelToken_->cancelled()) return false;
  try {
    cancelToken_->checkpoint();
  } catch (const Error& e) {
    errorClass_ = classifyError(std::current_exception());
    fail(e.what());
  }
  return true;
}

bool Process::failIfCancelled() {
  if (state_ != ProcessState::Ready && state_ != ProcessState::Blocked) {
    return false;
  }
  return checkCancelled();
}

std::function<void()> Process::parkOnCompletion(Context& ctx) {
  (void)ctx;  // the handler frame stays on top; re-invoked on wake
  state_ = ProcessState::Blocked;
  progress_ = true;  // parking is progress (like pushing a yield marker)
  wakeFlag_ = std::make_shared<std::atomic<bool>>(false);
  auto flag = wakeFlag_;
  WakeHubPtr hub = host_->wakeHub();
  // Captures only the flag and the hub: a completion that fires after
  // this process (or its whole scheduler) is destroyed touches nothing
  // else. The release store pairs with wakeReady()'s acquire load.
  return [flag, hub]() {
    flag->store(true, std::memory_order_release);
    if (hub) hub->notify();
  };
}

void Process::unpark() {
  if (state_ != ProcessState::Blocked) return;
  state_ = ProcessState::Ready;
  wakeFlag_.reset();
}

void Process::adoptFuture(const std::shared_ptr<blocks::Future>& future) {
  // A settled future needs no cancelling, and its weak entry would keep
  // its storage allocated. Prune when the list is full, then leave room
  // for as many adoptions as survived: amortized O(1) per launch.
  if (ownedFutures_.size() == ownedFutures_.capacity()) {
    std::erase_if(ownedFutures_, [](const auto& weak) {
      const auto owned = weak.lock();
      return !owned || owned->settled();
    });
    ownedFutures_.reserve(2 * ownedFutures_.size());
  }
  ownedFutures_.push_back(future);
}

void Process::cancelOwnedFutures(const std::string& reason) {
  for (auto& weak : ownedFutures_) {
    if (auto future = weak.lock()) future->cancelAndJoin(reason);
  }
  ownedFutures_.clear();
}

bool Process::runSlice(size_t maxSteps) {
  if (!runnable()) return false;
  if (checkCancelled()) return false;
  yielded_ = false;
  size_t steps = 0;
  while (runnable() && !yielded_ && steps < maxSteps) {
    step();
    ++steps;
  }
  return runnable();
}

const Value& Process::runToCompletion(size_t maxTotalSteps) {
  size_t total = 0;
  while (runnable() || blocked()) {
    if (blocked()) {
      // Headless park: no scheduler frame loop, so wait for the wake
      // flag right here. The pool makes independent progress, so the
      // flag always arrives unless the operation hangs — in which case
      // the token's deadline (checked each lap) is the way out.
      if (wakeReady()) {
        unpark();
      } else if (failIfCancelled()) {
        break;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      continue;
    }
    yielded_ = false;
    size_t budget = std::min<size_t>(kDefaultSliceSteps,
                                     maxTotalSteps - total);
    if (budget == 0) throw Error("process exceeded its step budget");
    size_t before = total;
    while (runnable() && !yielded_ && (total - before) < budget) {
      step();
      ++total;
    }
  }
  if (errored()) throw Error("process failed: " + error_);
  return result_;
}

void Process::step() {
  if (stack_.empty()) {
    state_ = ProcessState::Done;
    return;
  }
  progress_ = false;
  Context& top = stack_.back();
  if (top.isYieldMarker) {
    stack_.pop_back();
    // Inside a warp, yields are consumed without ending the slice — but
    // they remain cancellation points, so a deadline still unwinds a
    // warped loop that never ends its slice.
    if (warpDepth_ == 0) {
      yielded_ = true;
    } else if (cancelToken_ && checkCancelled()) {
      return;
    }
    if (stack_.empty()) state_ = ProcessState::Done;
    return;
  }
  try {
    if (top.script) {
      stepScript(top);
    } else {
      stepBlock(top);
    }
  } catch (const Error& e) {
    errorClass_ = classifyError(std::current_exception());
    fail(e.what());
    return;
  }
  if (!progress_) {
    fail("interpreter stall: handler for " +
         (stack_.empty() ? std::string("<root>")
                         : (stack_.back().block
                                ? stack_.back().block->opcode()
                                : std::string("<script>"))) +
         " made no progress");
  }
}

void Process::stepScript(Context& ctx) {
  if (ctx.pc >= ctx.script->size()) {
    finishCommand();
    return;
  }
  const Block* next = ctx.script->at(ctx.pc).get();
  ++ctx.pc;
  pushExpression(next, ctx.env);
}

void Process::stepBlock(Context& ctx) {
  const Block& block = *ctx.block;
  if (dispatchMode_ == DispatchMode::ByString) {
    // Reference path: the pre-interning machine, verbatim. Hashes the
    // opcode string for the spec and again for the handler, and deposits
    // one input per interpreter step.
    const blocks::BlockSpec& spec = registry_->get(block.opcode());
    if (spec.strict && ctx.inputs.size() < block.arity()) {
      evalInput(ctx, ctx.inputs.size());
      return;
    }
    const Handler* handler = primitives_->find(block.opcode());
    if (!handler) {
      throw BlockError("no handler registered for opcode " + block.opcode());
    }
    (*handler)(*this, ctx);
    return;
  }

  const blocks::OpcodeId opId = block.opcodeId();
  const blocks::BlockSpec* spec = registry_->specOf(opId);
  if (!spec) throw BlockError("unknown opcode " + block.opcode());
  if (spec->strict && ctx.inputs.size() < block.arity()) {
    if (ctx.inputs.empty()) {
      ctx.inputs.reserve(block.arity());
      ctx.collapsedFlags.reserve(block.arity());
    }
    // Deposit consecutive immediate inputs (literals, blanks, collapsed
    // slots) in this one step; a nested expression needs a child frame, so
    // stop there and resume after it returns its value. One exception: a
    // bare variable read (`reportGetVar` with a literal name) is evaluated
    // inline — its handler would only call env->get and return, so the
    // child frame is pure overhead on the hottest reporter there is.
    do {
      const size_t index = ctx.inputs.size();
      const Input& input = block.input(index);
      if (input.isBlock()) {
        const Block& nested = *input.block();
        if (nested.is(blocks::Op::reportGetVar) && nested.arity() == 1 &&
            nested.input(0).isLiteral() && ctx.env) {
          ctx.inputs.push_back(
              ctx.env->get(nested.input(0).literalValue().asText()));
          ctx.collapsedFlags.push_back(0);
          progress_ = true;
          continue;
        }
        pushExpression(&nested, ctx.env);
        return;
      }
      evalInput(ctx, index);
    } while (ctx.inputs.size() < block.arity());
  }
  const Handler* handler = primitives_->findById(opId);
  if (!handler) {
    throw BlockError("no handler registered for opcode " + block.opcode());
  }
  (*handler)(*this, ctx);
}

void Process::evalInput(Context& ctx, size_t index) {
  const Input& input = ctx.block->input(index);
  switch (input.kind()) {
    case InputKind::Literal:
      ctx.inputs.push_back(input.literalValue());
      ctx.collapsedFlags.push_back(0);
      progress_ = true;
      return;
    case InputKind::Collapsed:
      ctx.inputs.push_back(Value());
      ctx.collapsedFlags.push_back(1);
      progress_ = true;
      return;
    case InputKind::Empty: {
      // Implicit ring parameter: resolve the blank's static ordinal inside
      // the enclosing ring and read the corresponding argument.
      const Ring* ring = ctx.env ? ctx.env->owningRing() : nullptr;
      if (!ring) {
        throw Error("an empty slot was evaluated outside of a ring call");
      }
      size_t ordinal = blocks::emptySlotOrdinal(*ring, &input);
      ctx.inputs.push_back(ctx.env->implicitArg(ordinal));
      ctx.collapsedFlags.push_back(0);
      progress_ = true;
      return;
    }
    case InputKind::BlockExpr:
      pushExpression(input.block().get(), ctx.env);
      return;
    case InputKind::ScriptSlot:
      // Strict machinery never evaluates a C-slot; control handlers read
      // the script directly from the block.
      throw BlockError("C-slot input reached strict evaluation in " +
                       ctx.block->opcode());
  }
}

void Process::pushScript(const Script* script, EnvPtr env, bool boundary,
                         ScriptPtr owner) {
  Context ctx;
  ctx.script = script;
  ctx.env = std::move(env);
  ctx.callBoundary = boundary;
  ctx.scriptOwner = std::move(owner);
  stack_.push_back(std::move(ctx));
  progress_ = true;
}

void Process::pushExpression(const Block* block, EnvPtr env, bool boundary,
                             BlockPtr owner) {
  Context ctx;
  ctx.block = block;
  ctx.env = std::move(env);
  ctx.callBoundary = boundary;
  ctx.blockOwner = std::move(owner);
  stack_.push_back(std::move(ctx));
  progress_ = true;
}

void Process::pushYield() {
  Context ctx;
  ctx.isYieldMarker = true;
  stack_.push_back(std::move(ctx));
  progress_ = true;
}

void Process::returnValue(Value value) {
  stack_.pop_back();
  progress_ = true;
  if (stack_.empty()) {
    result_ = std::move(value);
    state_ = ProcessState::Done;
    return;
  }
  Context& parent = stack_.back();
  if (parent.block) {
    parent.inputs.push_back(std::move(value));
    parent.collapsedFlags.push_back(0);
  }
  // Script parents discard reporter values (a reporter used as a command).
}

void Process::finishCommand() {
  stack_.pop_back();
  progress_ = true;
  if (stack_.empty()) state_ = ProcessState::Done;
}

void Process::retryAfterYield(Context& ctx) {
  (void)ctx;
  pushYield();
}

void Process::unwindReport(Value value) {
  progress_ = true;
  while (!stack_.empty()) {
    bool boundary = stack_.back().callBoundary;
    if (stack_.back().ownsWarp) exitWarp();
    stack_.pop_back();
    if (boundary) break;
  }
  if (stack_.empty()) {
    result_ = std::move(value);
    state_ = ProcessState::Done;
    return;
  }
  Context& parent = stack_.back();
  if (parent.block) {
    parent.inputs.push_back(std::move(value));
    parent.collapsedFlags.push_back(0);
  }
}

void Process::stopThisScript() {
  progress_ = true;
  while (!stack_.empty()) {
    bool boundary = stack_.back().callBoundary;
    if (stack_.back().ownsWarp) exitWarp();
    stack_.pop_back();
    if (boundary) break;
  }
  if (stack_.empty()) state_ = ProcessState::Done;
}

void Process::terminate() {
  stack_.clear();
  warpDepth_ = 0;
  state_ = ProcessState::Terminated;
  progress_ = true;
  cancelOwnedFutures("owning process terminated");
}

void Process::pushRingCall(const RingPtr& ring, std::vector<Value> args,
                           const EnvPtr& callerEnv) {
  EnvPtr base = ring->captured() ? ring->captured() : callerEnv;
  EnvPtr frame = Environment::make(base);
  frame->setOwningRing(ring.get());
  const auto& formals = ring->formals();
  if (!formals.empty()) {
    for (size_t i = 0; i < formals.size(); ++i) {
      frame->declare(formals[i], i < args.size() ? args[i] : Value());
    }
  } else {
    frame->setImplicitArgs(std::move(args));
  }
  if (ring->kind() == RingKind::Reporter) {
    pushExpression(ring->expression().get(), frame, /*boundary=*/true);
  } else {
    pushScript(ring->script().get(), frame, /*boundary=*/true);
  }
}

void Process::fail(const std::string& message) {
  error_ = message;
  if (errorClass_ == ErrorClass::None) errorClass_ = ErrorClass::Generic;
  stack_.clear();
  warpDepth_ = 0;
  state_ = ProcessState::Errored;
  cancelOwnedFutures("owning process failed");
}

}  // namespace psnap::vm
