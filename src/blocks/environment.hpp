// Lexically scoped variable frames.
//
// A frame chain models Snap!'s scope stack: script variables shadow sprite
// variables, which shadow globals. Rings capture the frame that was current
// when the ring was evaluated, and calling a ring pushes a fresh frame that
// binds the formal parameters (or the implicit empty-slot arguments) on top
// of the captured frame.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocks/value.hpp"

namespace psnap::blocks {

/// The argument an empty slot of a ring reads: `args[ordinal]`, or the
/// one argument when there is exactly one (Snap! fills every blank with
/// it). Throws Error when `args` is empty or too short. The interpreter
/// (Environment::implicitArg) and the worker evaluator both resolve
/// blanks here, so they raise one text.
const Value& implicitArgument(const std::vector<Value>& args, size_t ordinal);

/// The error for reading a name no frame declares, raised alike by the
/// interpreter and the worker evaluator.
[[noreturn]] void throwUndeclaredVariable(const std::string& name);

class Environment {
 public:
  explicit Environment(EnvPtr parent = nullptr) : parent_(std::move(parent)) {}

  static EnvPtr make(EnvPtr parent = nullptr) {
    return std::make_shared<Environment>(std::move(parent));
  }

  /// Declare a variable in *this* frame (Snap! `script variables`).
  void declare(const std::string& name, Value initial = Value());

  /// True if `name` resolves in this frame or any ancestor.
  bool isDeclared(const std::string& name) const;

  /// Read a variable, searching up the chain; throws Error if undeclared.
  const Value& get(const std::string& name) const;

  /// Assign to the nearest frame declaring `name`; if none declares it,
  /// declare it in the root (global) frame, matching Snap!'s behaviour of
  /// `set` on an unknown name targeting the global scope.
  void set(const std::string& name, Value value);

  /// The arguments bound to a ring call's implicit empty-slot parameters.
  /// Empty slots are filled left to right: the i-th empty slot evaluated in
  /// the ring body reads implicitArg(i).
  void setImplicitArgs(std::vector<Value> args);
  bool hasImplicitArgs() const;
  /// Fetch the argument for the `ordinal`-th empty slot (0-based); searches
  /// up the chain to the nearest frame with implicit args. When a ring has a
  /// single implicit argument, every empty slot receives it (Snap! fills all
  /// blanks with the same value if there is exactly one argument).
  const Value& implicitArg(size_t ordinal) const;

  /// The ring whose call created this frame (used to resolve the static
  /// ordinal of an empty slot inside the ring body); null for plain frames.
  void setOwningRing(const Ring* ring) { owningRing_ = ring; }
  const Ring* owningRing() const {
    if (owningRing_) return owningRing_;
    return parent_ ? parent_->owningRing() : nullptr;
  }

  const EnvPtr& parent() const { return parent_; }

  /// Names declared in this frame only (iteration order unspecified).
  std::vector<std::string> localNames() const;

 private:
  struct Slot {
    std::string name;
    Value value;
  };

  /// Frames this small are scanned linearly — almost every frame holds a
  /// handful of script variables or ring formals, and a short scan over a
  /// contiguous vector beats hashing the name. Larger frames build and
  /// maintain `index_` on the side.
  static constexpr size_t kSmallFrame = 8;

  Slot* findLocal(const std::string& name);
  const Slot* findLocal(const std::string& name) const;

  EnvPtr parent_;
  std::vector<Slot> locals_;
  /// name → locals_ index; populated only once locals_ outgrows kSmallFrame.
  std::unordered_map<std::string, size_t> index_;
  std::optional<std::vector<Value>> implicitArgs_;
  const Ring* owningRing_ = nullptr;
};

}  // namespace psnap::blocks
