#include "codegen/native_emit.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "blocks/environment.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace psnap::codegen {

using blocks::Block;
using blocks::Input;
using blocks::InputKind;
using blocks::Op;
using blocks::Ring;
using blocks::RingKind;
using blocks::RingPtr;
using blocks::Value;

namespace {

[[noreturn]] void reject(const std::string& why) {
  throw CodegenError("native tier: " + why);
}

/// A C99 hexfloat literal with the exact bit pattern of `v` — the kernel
/// must compute with the same double the interpreter's Value holds.
std::string hexDouble(double v) {
  if (!std::isfinite(v)) reject("non-finite numeric constant");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// The double closest to pi, spelled so the emitted trig matches
// applyPure's `x * kPi / 180.0` bit for bit.
constexpr const char* kPiHex = "0x1.921fb54442d18p+1";

/// One scalar C expression plus its kind (the emitter's two-type world:
/// numbers are double, predicates are int).
struct Emitted {
  std::string code;
  bool isBool = false;
};

/// Parameter naming for one ring frame. `params[ordinal]` is the C name a
/// blank or formal at that ordinal renders to; empty names mark the fold's
/// list parameter, which may only appear in list positions.
struct Frame {
  const Ring* ring = nullptr;
  std::vector<std::string> params;
};

class KernelEmitter {
 public:
  KernelEmitter(const Ring& ring, KernelShape shape)
      : ring_(ring), shape_(shape) {}

  NativeKernelSource emit();

 private:
  Emitted scalar(const Block& block);
  Emitted scalarInput(const Input& input);
  /// Render a scalar operand coerced to double (pure_eval's asNumber:
  /// booleans coerce to 1/0, numbers pass through).
  std::string num(const Input& input);
  /// Render an operand that must already be a predicate (asBoolean throws
  /// on numbers, so a Num operand here is rejected, exactly like the
  /// deterministic TypeError the interpreter raises).
  std::string boolean(const Input& input);
  Emitted paramRef(size_t ordinal);
  Emitted variable(const std::string& name);
  /// Is this input the fold's list parameter (a blank, or the single
  /// formal, of the outer fold ring)?
  bool isListParam(const Input& input) const;
  RingPtr innerRingOf(const Input& input) const;
  std::string emitFold(const Block& combine);

  const Ring& ring_;
  KernelShape shape_;
  std::vector<Frame> frames_;
  bool paramUsed_ = false;
  // Helper usage flags: only helpers the body needs are emitted, keeping
  // the translation unit warning-clean without attribute games.
  bool div_ = false, mod_ = false, sqrt_ = false, ln_ = false, log_ = false,
       and_ = false, or_ = false, ifElse_ = false, ifElseB_ = false,
       item_ = false;
  std::vector<std::string> folds_;
};

bool KernelEmitter::isListParam(const Input& input) const {
  if (shape_ != KernelShape::Fold || frames_.size() != 1) return false;
  if (input.kind() == InputKind::Empty) {
    try {
      blocks::emptySlotOrdinal(ring_, &input);
      return true;
    } catch (const BlockError&) {
      return false;
    }
  }
  if (input.kind() == InputKind::BlockExpr &&
      input.block()->is(Op::reportGetVar)) {
    const std::string name = input.block()->input(0).literalValue().asText();
    const auto& formals = ring_.formals();
    return formals.size() == 1 && formals[0] == name;
  }
  return false;
}

RingPtr KernelEmitter::innerRingOf(const Input& input) const {
  if (input.kind() == InputKind::Literal &&
      input.literalValue().isRing()) {
    return input.literalValue().asRing();
  }
  if (input.kind() == InputKind::BlockExpr &&
      input.block()->is(Op::reifyReporter)) {
    // Mirror pure_eval's reifyReporter: slot 0 is the body, the rest are
    // formal names.
    const Block& reify = *input.block();
    if (reify.arity() == 0 || !reify.input(0).isBlock()) {
      reject("combine ring has no reporter body");
    }
    std::vector<std::string> formals;
    for (size_t i = 1; i < reify.arity(); ++i) {
      formals.push_back(reify.input(i).literalValue().asText());
    }
    return Ring::reporter(reify.input(0).block(), std::move(formals));
  }
  reject("combine expects a literal ring");
}

Emitted KernelEmitter::paramRef(size_t ordinal) {
  const Frame& frame = frames_.back();
  // pure_eval's blank rule: with a single argument, every blank resolves
  // to it regardless of ordinal.
  if (frame.params.size() == 1) ordinal = 0;
  if (ordinal >= frame.params.size()) {
    reject("ring uses more slots than the call shape provides");
  }
  if (frame.params[ordinal].empty()) {
    reject("the list parameter used as a scalar");
  }
  if (frames_.size() == 1) paramUsed_ = true;
  return {frame.params[ordinal], false};
}

Emitted KernelEmitter::variable(const std::string& name) {
  // Innermost frame's formals first (pure_eval walks the frame chain the
  // same way), then the ring's captured snapshot baked in as a constant —
  // compileRing snapshots captured values at compile time, so a constant
  // is exactly the snapshot semantics.
  for (size_t f = frames_.size(); f-- > 0;) {
    const Frame& frame = frames_[f];
    const auto& formals = frame.ring->formals();
    for (size_t i = 0; i < formals.size(); ++i) {
      if (formals[i] != name) continue;
      if (f != frames_.size() - 1) {
        reject("variable '" + name + "' crosses a combine ring boundary");
      }
      return paramRef(i);
    }
    if (frame.ring->captured() && frame.ring->captured()->isDeclared(name)) {
      const Value v = frame.ring->captured()->get(name);
      if (v.isNumber()) return {hexDouble(v.asNumber()), false};
      if (v.isBoolean()) return {v.asBoolean() ? "1" : "0", true};
      reject("captured variable '" + name + "' is not numeric");
    }
  }
  reject("variable '" + name + "' is not bound to a parameter or number");
}

std::string KernelEmitter::num(const Input& input) {
  Emitted e = scalarInput(input);
  // asNumber coerces booleans to 1/0.
  return e.isBool ? "((double)" + e.code + ")" : e.code;
}

std::string KernelEmitter::boolean(const Input& input) {
  Emitted e = scalarInput(input);
  if (!e.isBool) reject("a number where the interpreter expects a boolean");
  return e.code;
}

Emitted KernelEmitter::scalarInput(const Input& input) {
  switch (input.kind()) {
    case InputKind::Literal: {
      const Value& v = input.literalValue();
      if (v.isNumber()) return {hexDouble(v.asNumber()), false};
      if (v.isBoolean()) return {v.asBoolean() ? "1" : "0", true};
      reject("unsupported literal kind in kernel body");
    }
    case InputKind::BlockExpr:
      return scalar(*input.block());
    case InputKind::Empty: {
      for (size_t f = frames_.size(); f-- > 0;) {
        try {
          const size_t ordinal =
              blocks::emptySlotOrdinal(*frames_[f].ring, &input);
          if (f != frames_.size() - 1) {
            reject("a blank crosses a combine ring boundary");
          }
          return paramRef(ordinal);
        } catch (const BlockError&) {
          continue;
        }
      }
      reject("blank outside the kernel's ring");
    }
    default:
      reject("unsupported input kind in kernel body");
  }
}

std::string KernelEmitter::emitFold(const Block& combine) {
  // reportCombine(list, ring): a strict left fold with the interpreter's
  // empty-list-reports-0 rule. The inner binary expression is emitted
  // with acc/it as its parameters.
  if (!isListParam(combine.input(0))) {
    reject("combine over something other than the list parameter");
  }
  RingPtr inner = innerRingOf(combine.input(1));
  if (inner->kind() != RingKind::Reporter) reject("combine ring is a command");
  frames_.push_back({inner.get(), {"acc", "it"}});
  Emitted body = scalar(*inner->expression());
  frames_.pop_back();
  if (body.isBool) reject("combine ring reports a boolean");
  const std::string name = "psnap_fold_" + std::to_string(folds_.size());
  std::string fn;
  fn += "static double " + name +
        "(const double *a, long n, int *err) {\n";
  fn += "    (void) err;\n";
  fn += "    if (n == 0) return 0.0;\n";
  fn += "    double acc = a[0];\n";
  fn += "    for (long i = 1; i < n; i++) {\n";
  fn += "        double it = a[i];\n";
  fn += "        acc = " + body.code + ";\n";
  fn += "        if (*err) return 0.0;\n";
  fn += "    }\n";
  fn += "    return acc;\n";
  fn += "}\n";
  folds_.push_back(fn);
  return name + "(a, n, err)";
}

Emitted KernelEmitter::scalar(const Block& block) {
  const Op op = static_cast<Op>(block.opcodeId());
  switch (op) {
    case Op::reportSum:
      return {"(" + num(block.input(0)) + " + " + num(block.input(1)) + ")",
              false};
    case Op::reportDifference:
      return {"(" + num(block.input(0)) + " - " + num(block.input(1)) + ")",
              false};
    case Op::reportProduct:
      return {"(" + num(block.input(0)) + " * " + num(block.input(1)) + ")",
              false};
    case Op::reportQuotient:
      div_ = true;
      return {"psnap_div(" + num(block.input(0)) + ", " +
                  num(block.input(1)) + ", err)",
              false};
    case Op::reportModulus:
      mod_ = true;
      return {"psnap_mod(" + num(block.input(0)) + ", " +
                  num(block.input(1)) + ", err)",
              false};
    case Op::reportPower:
      return {"pow(" + num(block.input(0)) + ", " + num(block.input(1)) +
                  ")",
              false};
    case Op::reportRound:
      return {"round(" + num(block.input(0)) + ")", false};
    case Op::reportMonadic: {
      if (!block.input(0).isLiteral()) reject("non-literal monadic selector");
      const std::string fn =
          strings::toLower(block.input(0).literalValue().asText());
      const std::string x = num(block.input(1));
      if (fn == "sqrt") {
        sqrt_ = true;
        return {"psnap_sqrt(" + x + ", err)", false};
      }
      if (fn == "abs") return {"fabs(" + x + ")", false};
      if (fn == "floor") return {"floor(" + x + ")", false};
      if (fn == "ceiling") return {"ceil(" + x + ")", false};
      if (fn == "sin" || fn == "cos" || fn == "tan") {
        return {fn + "((" + x + ") * " + std::string(kPiHex) + " / 180.0)",
                false};
      }
      if (fn == "asin" || fn == "acos" || fn == "atan") {
        return {"(" + fn + "(" + x + ") * 180.0 / " + std::string(kPiHex) +
                    ")",
                false};
      }
      if (fn == "ln") {
        ln_ = true;
        return {"psnap_ln(" + x + ", err)", false};
      }
      if (fn == "log") {
        log_ = true;
        return {"psnap_log(" + x + ", err)", false};
      }
      if (fn == "e^") return {"exp(" + x + ")", false};
      if (fn == "10^") return {"pow(10.0, " + x + ")", false};
      reject("unsupported monadic function \"" + fn + "\"");
    }

    case Op::reportEquals:
    case Op::reportLessThan:
    case Op::reportGreaterThan: {
      Emitted a = scalarInput(block.input(0));
      Emitted b = scalarInput(block.input(1));
      if (a.isBool != b.isBool) reject("mixed-kind comparison");
      if (a.isBool && op != Op::reportEquals) {
        // lessThanValues over booleans falls back to text ordering of
        // "true"/"false" — out of the numeric subset.
        reject("ordering comparison over booleans");
      }
      const char* cmp = op == Op::reportEquals  ? " == "
                        : op == Op::reportLessThan ? " < "
                                                   : " > ";
      return {"(" + a.code + cmp + b.code + ")", true};
    }
    case Op::reportAnd:
      and_ = true;
      return {"psnap_and(" + boolean(block.input(0)) + ", " +
                  boolean(block.input(1)) + ")",
              true};
    case Op::reportOr:
      or_ = true;
      return {"psnap_or(" + boolean(block.input(0)) + ", " +
                  boolean(block.input(1)) + ")",
              true};
    case Op::reportNot:
      return {"(!" + boolean(block.input(0)) + ")", true};
    case Op::reportIfElse: {
      const std::string cond = boolean(block.input(0));
      Emitted yes = scalarInput(block.input(1));
      Emitted no = scalarInput(block.input(2));
      if (yes.isBool != no.isBool) reject("mixed-kind if-else branches");
      // The interpreter evaluates both branches before choosing (inputs
      // are strict); a helper call keeps that order observable through
      // the err flag, where C's ?: would skip one side.
      if (yes.isBool) {
        ifElseB_ = true;
        return {"psnap_ifelse_b(" + cond + ", " + yes.code + ", " + no.code +
                    ")",
                true};
      }
      ifElse_ = true;
      return {"psnap_ifelse(" + cond + ", " + yes.code + ", " + no.code +
                  ")",
              false};
    }

    case Op::reportIdentity:
      return scalarInput(block.input(0));
    case Op::reportGetVar:
      return variable(block.input(0).literalValue().asText());

    // --- fold-shape list positions -----------------------------------------
    case Op::reportListLength:
      if (!isListParam(block.input(0))) {
        reject("length of something other than the list parameter");
      }
      return {"((double) n)", false};
    case Op::reportCombine:
      return {emitFold(block), false};
    case Op::reportListItem: {
      if (!isListParam(block.input(1))) {
        reject("item of something other than the list parameter");
      }
      item_ = true;
      return {"psnap_item(a, n, " + num(block.input(0)) + ", err)", false};
    }

    default:
      reject("unsupported block '" + block.opcode() + "'");
  }
}

NativeKernelSource KernelEmitter::emit() {
  if (ring_.kind() != RingKind::Reporter) reject("command ring");
  const auto& formals = ring_.formals();
  Frame frame{&ring_, {}};
  switch (shape_) {
    case KernelShape::Unary:
      if (formals.size() > 1) reject("too many formals for a unary call");
      frame.params = {"x"};
      break;
    case KernelShape::Fold:
      if (formals.size() > 1) reject("too many formals for a fold call");
      frame.params = {""};  // the list parameter: list positions only
      break;
  }
  frames_.push_back(frame);
  Emitted body = scalar(*ring_.expression());

  std::string tu;
  tu += "/* generated by the psnap native tier -- do not edit */\n";
  tu += "#include <math.h>\n\n";
  if (div_) {
    tu += "static double psnap_div(double a, double b, int *err) {\n";
    tu += "    if (b == 0) { *err = 1; return 0.0; }\n";
    tu += "    return a / b;\n}\n\n";
  }
  if (mod_) {
    tu += "static double psnap_mod(double a, double b, int *err) {\n";
    tu += "    double r;\n";
    tu += "    if (b == 0) { *err = 1; return 0.0; }\n";
    tu += "    r = fmod(a, b);\n";
    tu += "    if (r != 0 && ((r < 0) != (b < 0))) r += b;\n";
    tu += "    return r;\n}\n\n";
  }
  if (sqrt_) {
    tu += "static double psnap_sqrt(double x, int *err) {\n";
    tu += "    if (x < 0) { *err = 1; return 0.0; }\n";
    tu += "    return sqrt(x);\n}\n\n";
  }
  if (ln_) {
    tu += "static double psnap_ln(double x, int *err) {\n";
    tu += "    if (x <= 0) { *err = 1; return 0.0; }\n";
    tu += "    return log(x);\n}\n\n";
  }
  if (log_) {
    tu += "static double psnap_log(double x, int *err) {\n";
    tu += "    if (x <= 0) { *err = 1; return 0.0; }\n";
    tu += "    return log10(x);\n}\n\n";
  }
  if (and_) {
    tu += "static int psnap_and(int a, int b) { return a && b; }\n\n";
  }
  if (or_) {
    tu += "static int psnap_or(int a, int b) { return a || b; }\n\n";
  }
  if (ifElse_) {
    tu += "static double psnap_ifelse(int c, double a, double b) "
          "{ return c ? a : b; }\n\n";
  }
  if (ifElseB_) {
    tu += "static int psnap_ifelse_b(int c, int a, int b) "
          "{ return c ? a : b; }\n\n";
  }
  if (item_) {
    tu += "static double psnap_item(const double *a, long n, double idx, "
          "int *err) {\n";
    tu += "    long i;\n";
    tu += "    if (!(idx >= -4503599627370496.0 && "
          "idx <= 4503599627370496.0)) { *err = 1; return 0.0; }\n";
    tu += "    i = (long) llround(idx);\n";
    tu += "    if (i < 1 || i > n) { *err = 1; return 0.0; }\n";
    tu += "    return a[i - 1];\n}\n\n";
  }
  for (const std::string& fold : folds_) tu += fold + "\n";

  const std::string ret =
      body.isBool ? "(double)" + body.code : body.code;
  switch (shape_) {
    case KernelShape::Unary: {
      tu += "double psnap_kernel(double x, int *err) {\n";
      tu += "    (void) x;\n    (void) err;\n";
      tu += "    return " + ret + ";\n}\n\n";
      tu += "long psnap_kernel_batch(const double *in, double *out, "
            "long n) {\n";
      tu += "    long i;\n";
      tu += "    for (i = 0; i < n; i++) {\n";
      tu += "        int e = 0;\n";
      tu += "        out[i] = psnap_kernel(in[i], &e);\n";
      tu += "        if (e) return i;\n";
      tu += "    }\n";
      tu += "    return -1;\n}\n";
      break;
    }
    case KernelShape::Fold:
      tu += "double psnap_kernel_fold(const double *a, long n, int *err) "
            "{\n";
      tu += "    (void) a;\n    (void) n;\n    (void) err;\n";
      tu += "    return " + ret + ";\n}\n";
      break;
  }

  NativeKernelSource out;
  out.shape = shape_;
  // Fold kernels always marshal their inputs; the flag only relaxes the
  // unary scalar path for constant bodies.
  out.paramUsed = shape_ == KernelShape::Unary ? paramUsed_ : true;
  out.returnsBool = body.isBool;
  out.sources["kernel.c"] = tu;
  return out;
}

// --- content key ------------------------------------------------------------

struct KeyHasher {
  uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  void tag(uint8_t t) { bytes(&t, 1); }
  void u64(uint64_t v) { bytes(&v, 8); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void value(const Value& v);
  void ring(const Ring& ring);
  void input(const Input& input, const Ring& owner);
  void block(const Block& block, const Ring& owner);
};

void KeyHasher::value(const Value& v) {
  if (v.isNumber()) {
    tag(1);
    double d = v.asNumber();
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    u64(bits);
  } else if (v.isBoolean()) {
    tag(2);
    tag(v.asBoolean() ? 1 : 0);
  } else if (v.isText()) {
    tag(3);
    str(v.asText());
  } else if (v.isRing()) {
    tag(4);
    ring(*v.asRing());
  } else {
    tag(9);  // any other kind is ineligible anyway; a marker is enough
  }
}

void KeyHasher::ring(const Ring& r) {
  tag(10);
  u64(r.formals().size());
  for (const std::string& f : r.formals()) str(f);
  block(*r.expression(), r);
}

void KeyHasher::input(const Input& in, const Ring& owner) {
  switch (in.kind()) {
    case InputKind::Literal:
      tag(20);
      value(in.literalValue());
      break;
    case InputKind::BlockExpr:
      tag(21);
      block(*in.block(), owner);
      break;
    case InputKind::Empty:
      tag(22);  // ordinal is implied by traversal order
      break;
    default:
      tag(23);
      break;
  }
}

void KeyHasher::block(const Block& b, const Ring& owner) {
  tag(30);
  u64(b.opcodeId());
  // Captured reads bake into the kernel as constants, so the snapshot
  // value is part of the identity (compileRing snapshots the same way).
  if (b.is(Op::reportGetVar) && b.arity() == 1 && b.input(0).isLiteral()) {
    const std::string name = b.input(0).literalValue().asText();
    str(name);
    const auto& formals = owner.formals();
    bool formal = false;
    for (const std::string& f : formals) formal = formal || f == name;
    if (!formal && owner.captured() && owner.captured()->isDeclared(name)) {
      value(owner.captured()->get(name));
    }
    return;
  }
  u64(b.arity());
  for (const Input& in : b.inputs()) input(in, owner);
}

}  // namespace

NativeKernelSource emitNativeKernel(const Ring& ring, KernelShape shape) {
  return KernelEmitter(ring, shape).emit();
}

uint64_t kernelContentKey(const Ring& ring, KernelShape shape) {
  KeyHasher hasher;
  hasher.tag(static_cast<uint8_t>(shape));
  hasher.ring(ring);
  return hasher.h;
}

}  // namespace psnap::codegen
