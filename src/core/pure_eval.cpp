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

/// One pure call frame: the ring being applied and its arguments. Frames
/// nest when a ring body calls another ring (combine, map, evaluate), so
/// inner bodies still see outer formals.
struct PureFrame {
  const Ring* ring = nullptr;
  const std::vector<Value>* args = nullptr;
  const PureFrame* parent = nullptr;
  const std::unordered_map<std::string, Value>* captured = nullptr;
};

Value evalPure(const Block& block, const PureFrame& frame);

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
        const std::vector<Value>& args = *f->args;
        if (args.empty()) {
          throw Error("empty slot with no arguments in worker code");
        }
        if (args.size() == 1) return args[0];
        if (ordinal >= args.size()) {
          throw Error("not enough arguments for empty slots in worker code");
        }
        return args[ordinal];
      }
      throw Error("empty slot outside of any ring in worker code");
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
      const auto& formals = f->ring->formals();
      for (size_t i = 0; i < formals.size(); ++i) {
        if (formals[i] == name) {
          return i < f->args->size() ? (*f->args)[i] : Value();
        }
      }
    }
    if (f->captured) {
      auto it = f->captured->find(name);
      if (it != f->captured->end()) return it->second;
    }
  }
  throw Error("variable '" + name + "' is not visible inside worker code");
}

/// Call a ring value from within pure code (combine / map / evaluate).
Value callPureRing(const RingPtr& ring, std::vector<Value> args,
                   const PureFrame& caller) {
  if (ring->kind() != RingKind::Reporter) {
    throw PurityError("command rings cannot run inside a worker");
  }
  PureFrame frame;
  frame.ring = ring.get();
  frame.args = &args;
  frame.parent = &caller;
  return evalPure(*ring->expression(), frame);
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
      const RingPtr& fn = in[0].asRing();
      auto out = List::make();
      for (const Value& item : in[1].asList()->items()) {
        out->add(callPureRing(fn, {item}, frame));
      }
      return Value(out);
    }
    case Op::reportKeep: {
      const RingPtr& pred = in[0].asRing();
      auto out = List::make();
      for (const Value& item : in[1].asList()->items()) {
        if (callPureRing(pred, {item}, frame).asBoolean()) out->add(item);
      }
      return Value(out);
    }
    case Op::reportCombine: {
      const ListPtr& list = in[0].asList();
      const RingPtr& fn = in[1].asRing();
      if (list->empty()) return Value(0);
      Value acc = list->item(1);
      for (size_t i = 2; i <= list->length(); ++i) {
        acc = callPureRing(fn, {acc, list->item(i)}, frame);
      }
      return acc;
    }
    case Op::evaluate: {
      const RingPtr& fn = in[0].asRing();
      std::vector<Value> args(in + 1, in + n);
      return callPureRing(fn, std::move(args), frame);
    }

    default:
      if (!blocks::isPureOp(op)) {
        throw PurityError("block " + block.opcode() +
                          " cannot run inside a worker");
      }
      return blocks::applyPure(op, in, n);
  }
}

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
    PureFrame frame;
    frame.ring = ring.get();
    frame.args = &args;
    frame.captured = captured.get();
    return evalPure(*ring->expression(), frame);
  };
}

// The adapters route through the tiering layer (core/tiering.hpp): the
// interpreter closure stays the reference path, and a ring that goes hot
// gains a native kernel behind the same signature at every call site.
std::function<Value(const Value&)> compileUnary(
    const RingPtr& ring, const BlockRegistry& registry) {
  return tieredUnary(ring, registry).fn;
}

std::function<Value(const Value&, const Value&)> compileBinary(
    const RingPtr& ring, const BlockRegistry& registry) {
  return tieredBinary(ring, registry);
}

}  // namespace psnap::core
