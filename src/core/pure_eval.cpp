#include "core/pure_eval.hpp"

#include <algorithm>

#include "blocks/pure_ops.hpp"
#include "core/tiering.hpp"
#include "support/error.hpp"

namespace psnap::core {

using blocks::Block;
using blocks::BlockPtr;
using blocks::BlockRegistry;
using blocks::Input;
using blocks::InputKind;
using blocks::List;
using blocks::ListPtr;
using blocks::Op;
using blocks::Ring;
using blocks::RingKind;
using blocks::RingPtr;
using blocks::Value;

namespace {

/// Items a compiled sequential HOF runs between checks of its process's
/// cancel token: a stopped or expired process unwinds within this many
/// items of the trip, at one token load per stride.
constexpr size_t kCancelStride = 2048;

/// One pure call frame: the ring being applied and its arguments. Frames
/// nest when a ring body calls another ring (combine, map, evaluate), so
/// inner bodies still see outer formals. The outermost frame resolves the
/// names its body captures from `captured` (the worker form's snapshot)
/// or `env` (the caller-thread form: the ring's live environment, read in
/// place as the VM reads it).
struct PureFrame {
  const Ring* ring = nullptr;
  const std::vector<Value>* args = nullptr;
  const PureFrame* parent = nullptr;
  const std::unordered_map<std::string, Value>* captured = nullptr;
  const blocks::Environment* env = nullptr;
};

Value evalPure(const Block& block, const PureFrame& frame);

/// A ring applied from pure code. The frame is reused across calls, so a
/// HOF loop allocates nothing per item beyond the values it makes.
class PureCall {
 public:
  PureCall(const Ring& ring, const PureFrame* caller) {
    frame_.ring = &ring;
    frame_.parent = caller;
  }

  PureFrame& frame() { return frame_; }

  Value operator()(const std::vector<Value>& args) {
    if (frame_.ring->kind() != RingKind::Reporter) {
      throw PurityError("command rings cannot run inside a worker");
    }
    frame_.args = &args;
    return evalPure(*frame_.ring->expression(), frame_);
  }

 private:
  PureFrame frame_;
};

/// Check `token` (when set) on every kCancelStride-th item.
void pace(const CancelToken* token, size_t done) {
  if (token && done % kCancelStride == 0) token->checkpoint();
}

// The one loop per HOF, run by evalPure's nested blocks and by runHof.
// Each applies the ring in list order with the VM handlers' semantics.

Value mapItems(const List& list, PureCall& call, const CancelToken* token) {
  auto out = List::make();
  out->reserve(list.length());
  std::vector<Value> args(1);
  size_t done = 0;
  for (const Value& item : list.items()) {
    pace(token, ++done);
    args[0] = item;
    out->add(call(args));
  }
  return Value(out);
}

Value keepItems(const List& list, PureCall& call, const CancelToken* token) {
  auto out = List::make();
  std::vector<Value> args(1);
  size_t done = 0;
  for (const Value& item : list.items()) {
    pace(token, ++done);
    args[0] = item;
    if (call(args).asBoolean()) out->add(item);
  }
  return Value(out);
}

/// Snap!'s combine: 0 for an empty list, else a left fold from item 1.
Value combineItems(const List& list, PureCall& call,
                   const CancelToken* token) {
  const blocks::ItemSpan items = list.items();
  if (items.size() < 2) return items.empty() ? Value(0) : items[0];
  std::vector<Value> args{items[0], Value()};
  for (size_t i = 1; i < items.size(); ++i) {
    pace(token, i);
    args[1] = items[i];
    args[0] = call(args);
  }
  return std::move(args[0]);
}

Value evalInput(const Input& input, const PureFrame& frame) {
  switch (input.kind()) {
    case InputKind::Literal:
      return input.literalValue();
    case InputKind::BlockExpr:
      return evalPure(*input.block(), frame);
    case InputKind::Empty: {
      // Resolve the blank against the innermost frame whose ring body
      // contains it.
      for (const PureFrame* f = &frame; f; f = f->parent) {
        if (!f->ring) continue;
        size_t ordinal;
        try {
          ordinal = blocks::emptySlotOrdinal(*f->ring, &input);
        } catch (const BlockError&) {
          continue;  // slot belongs to an outer ring
        }
        return blocks::implicitArgument(*f->args, ordinal);
      }
      throw Error("empty slot evaluated outside of a ring call");
    }
    case InputKind::Collapsed:
      return Value();
    case InputKind::ScriptSlot:
      throw PurityError("command scripts cannot run inside a worker");
  }
  return Value();
}

Value lookupVariable(const std::string& name, const PureFrame& frame) {
  for (const PureFrame* f = &frame; f; f = f->parent) {
    if (f->ring) {
      // The last formal of a name wins: the VM declares a call's formals
      // in order into one frame, so a repeated name holds its last value.
      const auto& formals = f->ring->formals();
      for (size_t i = formals.size(); i-- > 0;) {
        if (formals[i] == name) {
          return i < f->args->size() ? (*f->args)[i] : Value();
        }
      }
    }
    if (f->captured) {
      auto it = f->captured->find(name);
      if (it != f->captured->end()) return it->second;
    }
    if (f->env) return f->env->get(name);
  }
  blocks::throwUndeclaredVariable(name);
}

Value evalPure(const Block& block, const PureFrame& frame) {
  // Dispatch on the block's cached interned id. Only the ops that need the
  // frame are handled here; every strict table op goes to applyPure, the
  // body the VM's handlers share. Ids outside the table (custom blocks,
  // ids past Op::BuiltinCount) fall to the default case and raise
  // PurityError.
  const Op op = static_cast<Op>(block.opcodeId());

  // Variable access and ring construction need the frame, so handle them
  // before generic input evaluation.
  switch (op) {
    case Op::reportGetVar:
      return lookupVariable(block.input(0).literalValue().asText(), frame);
    case Op::reifyReporter: {
      BlockPtr expression;
      if (block.arity() == 0 || block.input(0).isEmpty()) {
        static const BlockPtr identityTemplate =
            Block::make("reportIdentity", {Input::empty()});
        expression = identityTemplate;
      } else if (block.input(0).isLiteral()) {
        expression = Block::make("reportIdentity",
                                 {Input(block.input(0).literalValue())});
      } else {
        expression = block.input(0).block();
      }
      std::vector<std::string> formals;
      for (size_t i = 1; i < block.arity(); ++i) {
        formals.push_back(block.input(i).literalValue().asText());
      }
      // The returned ring carries no captured environment; name resolution
      // happens through the PureFrame chain when it is called immediately
      // (combine/map/evaluate). Escaping rings lose their defining frame.
      return Value(Ring::reporter(expression, std::move(formals)));
    }
    default:
      break;
  }

  // Strictly evaluate all inputs; small arities (almost all blocks) use a
  // stack buffer instead of a heap vector.
  constexpr size_t kStackInputs = 8;
  const size_t n = block.arity();
  Value stackBuf[kStackInputs];
  std::vector<Value> heapBuf;
  Value* in;
  if (n <= kStackInputs) {
    in = stackBuf;
  } else {
    heapBuf.resize(n);
    in = heapBuf.data();
  }
  for (size_t i = 0; i < n; ++i) in[i] = evalInput(block.input(i), frame);

  switch (op) {
    case Op::reportMap: {
      PureCall call(*in[0].asRing(), &frame);
      return mapItems(*in[1].asList(), call, nullptr);
    }
    case Op::reportKeep: {
      PureCall call(*in[0].asRing(), &frame);
      return keepItems(*in[1].asList(), call, nullptr);
    }
    case Op::reportCombine: {
      const ListPtr& list = in[0].asList();
      PureCall call(*in[1].asRing(), &frame);
      return combineItems(*list, call, nullptr);
    }
    case Op::evaluate: {
      PureCall call(*in[0].asRing(), &frame);
      return call(std::vector<Value>(in + 1, in + n));
    }

    default:
      if (!blocks::isPureOp(op)) {
        throw PurityError("block " + block.opcode() +
                          " cannot run inside a worker");
      }
      return blocks::applyPure(op, in, n);
  }
}

/// Does a sequential HOF's ring run on evalPure exactly as the VM would
/// run it? The walk accepts only what both engines agree on:
///   * table ops, variable reads by literal name, and map / keep /
///     combine / evaluate whose ring slot is a literal ring — so every
///     ring evalPure calls is one it made, and no ring escapes into a
///     result (evalPure's rings carry no environment);
///   * names bound by the formals of an enclosing ring, or declared in
///     the ring's captured environment (a name it does not declare, or a
///     ring with none, would resolve through the caller's environment on
///     the VM);
///   * blanks only in rings without formals (in a ring with formals the
///     VM resolves a blank against an enclosing call's arguments).
class OneStepCheck {
 public:
  OneStepCheck(const BlockRegistry& registry, const Ring& ring)
      : registry_(registry), captured_(ring.captured().get()) {
    bound_ = ring.formals();
  }

  bool expression(const Block& block, bool formals) {
    const Op op = static_cast<Op>(block.opcodeId());
    const blocks::BlockSpec* spec = registry_.specOf(block.opcodeId());
    if (!spec || !(spec->pure || op == Op::evaluate)) return false;
    size_t ringSlot = block.arity();
    switch (op) {
      case Op::reportGetVar: {
        if (block.arity() != 1 || !block.input(0).isLiteral()) return false;
        const std::string name = block.input(0).literalValue().asText();
        return std::find(bound_.begin(), bound_.end(), name) !=
                   bound_.end() ||
               (captured_ && captured_->isDeclared(name));
      }
      case Op::reportMap:
      case Op::reportKeep:
      case Op::evaluate:
        ringSlot = 0;
        break;
      case Op::reportCombine:
        ringSlot = 1;
        break;
      default:
        if (!blocks::isPureOp(op)) return false;  // reifyReporter too
    }
    for (size_t i = 0; i < block.arity(); ++i) {
      if (!(i == ringSlot ? calledRing(block.input(i))
                          : input(block.input(i), formals))) {
        return false;
      }
    }
    return true;
  }

 private:
  bool input(const Input& in, bool formals) {
    switch (in.kind()) {
      case InputKind::Literal:
      case InputKind::Collapsed:
        return true;
      case InputKind::Empty:
        return !formals;
      case InputKind::BlockExpr:
        return expression(*in.block(), formals);
      case InputKind::ScriptSlot:
        return false;
    }
    return false;
  }

  /// A ring slot: a literal reporter ring, whose formals bind names for
  /// its own body.
  bool calledRing(const Input& in) {
    if (!in.isBlock() || !in.block()->is(Op::reifyReporter)) return false;
    const Block& reify = *in.block();
    if (reify.arity() == 0) return true;  // the identity ring
    const size_t outer = bound_.size();
    for (size_t i = 1; i < reify.arity(); ++i) {
      if (!reify.input(i).isLiteral()) return false;
      bound_.push_back(reify.input(i).literalValue().asText());
    }
    const Input& body = reify.input(0);
    const bool ok = (body.isEmpty() || body.isLiteral() || body.isBlock()) &&
                    input(body, bound_.size() > outer);
    bound_.resize(outer);
    return ok;
  }

  const BlockRegistry& registry_;
  const blocks::Environment* captured_;
  std::vector<std::string> bound_;
};

/// Collect every variable name the body reads.
void collectVariableReads(const Block& block,
                          std::vector<std::string>& names) {
  if (block.is(Op::reportGetVar) && block.arity() == 1 &&
      block.input(0).isLiteral()) {
    names.push_back(block.input(0).literalValue().asText());
  }
  for (const Input& input : block.inputs()) {
    if (input.isBlock()) collectVariableReads(*input.block(), names);
    if (input.isScript()) {
      for (const BlockPtr& b : input.script()->blocks()) {
        collectVariableReads(*b, names);
      }
    }
  }
}

void checkPurity(const Block& block, const BlockRegistry& registry,
                 std::string& offender) {
  if (!offender.empty()) return;
  const blocks::BlockSpec* spec = registry.specOf(block.opcodeId());
  if (!spec) {
    offender = block.opcode();
    return;
  }
  if (!spec->pure && !block.is(Op::evaluate)) {
    offender = block.opcode();
    return;
  }
  for (const Input& input : block.inputs()) {
    if (input.isBlock()) checkPurity(*input.block(), registry, offender);
    if (input.isScript()) {
      offender = block.opcode();  // C-slots imply commands
      return;
    }
  }
}

}  // namespace

std::string findImpureBlock(const RingPtr& ring,
                            const BlockRegistry& registry) {
  if (ring->kind() != RingKind::Reporter) return "<command ring>";
  std::string offender;
  checkPurity(*ring->expression(), registry, offender);
  return offender;
}

PureFn compileRing(const RingPtr& ring, const BlockRegistry& registry) {
  if (!ring) throw Error("compileRing: null ring");
  std::string offender = findImpureBlock(ring, registry);
  if (!offender.empty()) {
    throw PurityError("ring contains block '" + offender +
                      "' which cannot run in a worker");
  }

  // Snapshot the captured (lexical) variables the body reads; the snapshot
  // is structured-cloned so the worker shares nothing with the main thread.
  auto captured = std::make_shared<std::unordered_map<std::string, Value>>();
  std::vector<std::string> reads;
  collectVariableReads(*ring->expression(), reads);
  const auto& formals = ring->formals();
  for (const std::string& name : reads) {
    if (std::find(formals.begin(), formals.end(), name) != formals.end()) {
      continue;  // bound at call time
    }
    if (ring->captured() && ring->captured()->isDeclared(name)) {
      Value value = ring->captured()->get(name);
      if (!value.isTransferable()) {
        throw PurityError("captured variable '" + name +
                          "' holds a non-transferable value");
      }
      captured->emplace(name, value.structuredClone());
    }
    // Unresolvable names raise at call time inside the worker.
  }

  // The closure holds the ring (keeping the AST alive) and the snapshot.
  return [ring, captured](const std::vector<Value>& args) -> Value {
    PureCall call(*ring, nullptr);
    call.frame().captured = captured.get();
    return call(args);
  };
}

std::optional<Value> runHof(Hof hof, const RingPtr& ring,
                            const ListPtr& list, const CancelToken* token,
                            const BlockRegistry& registry) {
  // A list the loop calls the ring on zero times (combine folds from the
  // second item) needs no verdict: its result never depends on the ring.
  const bool callsRing = list->length() > (hof == Hof::Combine ? 1u : 0u);
  if (callsRing &&
      (ring->kind() != RingKind::Reporter ||
       !OneStepCheck(registry, *ring).expression(
           *ring->expression(), !ring->formals().empty()))) {
    return std::nullopt;
  }
  PureCall call(*ring, nullptr);
  call.frame().env = ring->captured().get();
  switch (hof) {
    case Hof::Map:
      return mapItems(*list, call, token);
    case Hof::Keep:
      return keepItems(*list, call, token);
    case Hof::Combine:
      return combineItems(*list, call, token);
  }
  return std::nullopt;
}

// The adapter routes through the tiering layer (core/tiering.hpp): the
// interpreter closure stays the reference path, and a ring that goes hot
// gains a native kernel behind the same signature at every call site,
// under the default tier policy.
std::function<Value(const Value&)> compileUnary(
    const RingPtr& ring, const BlockRegistry& registry) {
  return tieredUnary(ring, native::defaultTierConfig(), registry).fn;
}

}  // namespace psnap::core
