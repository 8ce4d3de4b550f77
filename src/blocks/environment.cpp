#include "blocks/environment.hpp"

#include "support/error.hpp"

namespace psnap::blocks {

const Value& implicitArgument(const std::vector<Value>& args,
                              size_t ordinal) {
  if (args.empty()) {
    throw Error("empty slot evaluated with no implicit arguments");
  }
  // Exactly one argument fills every blank; otherwise blanks map
  // positionally.
  if (args.size() == 1) return args[0];
  if (ordinal >= args.size()) {
    throw Error("empty slot ordinal " + std::to_string(ordinal) +
                " exceeds implicit argument count " +
                std::to_string(args.size()));
  }
  return args[ordinal];
}

void throwUndeclaredVariable(const std::string& name) {
  throw Error("a variable of name '" + name + "' does not exist");
}

Environment::Slot* Environment::findLocal(const std::string& name) {
  if (locals_.size() <= kSmallFrame) {
    for (Slot& slot : locals_) {
      if (slot.name == name) return &slot;
    }
    return nullptr;
  }
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &locals_[it->second];
}

const Environment::Slot* Environment::findLocal(
    const std::string& name) const {
  return const_cast<Environment*>(this)->findLocal(name);
}

void Environment::declare(const std::string& name, Value initial) {
  if (Slot* slot = findLocal(name)) {
    slot->value = std::move(initial);
    return;
  }
  locals_.push_back(Slot{name, std::move(initial)});
  if (locals_.size() == kSmallFrame + 1) {
    // Crossed the linear-scan threshold: build the index for all slots.
    for (size_t i = 0; i < locals_.size(); ++i) index_[locals_[i].name] = i;
  } else if (locals_.size() > kSmallFrame + 1) {
    index_[name] = locals_.size() - 1;
  }
}

bool Environment::isDeclared(const std::string& name) const {
  if (findLocal(name)) return true;
  return parent_ && parent_->isDeclared(name);
}

const Value& Environment::get(const std::string& name) const {
  const Environment* frame = this;
  while (frame) {
    if (const Slot* slot = frame->findLocal(name)) return slot->value;
    frame = frame->parent_.get();
  }
  throwUndeclaredVariable(name);
}

void Environment::set(const std::string& name, Value value) {
  Environment* frame = this;
  while (true) {
    if (Slot* slot = frame->findLocal(name)) {
      slot->value = std::move(value);
      return;
    }
    if (!frame->parent_) {
      // Root frame: declare globally.
      frame->declare(name, std::move(value));
      return;
    }
    frame = frame->parent_.get();
  }
}

void Environment::setImplicitArgs(std::vector<Value> args) {
  implicitArgs_ = std::move(args);
}

bool Environment::hasImplicitArgs() const {
  if (implicitArgs_.has_value()) return true;
  return parent_ && parent_->hasImplicitArgs();
}

const Value& Environment::implicitArg(size_t ordinal) const {
  const Environment* frame = this;
  while (frame) {
    if (frame->implicitArgs_.has_value()) {
      return implicitArgument(*frame->implicitArgs_, ordinal);
    }
    frame = frame->parent_.get();
  }
  throw Error("empty slot evaluated outside of a ring call");
}

std::vector<std::string> Environment::localNames() const {
  std::vector<std::string> names;
  names.reserve(locals_.size());
  for (const Slot& slot : locals_) names.push_back(slot.name);
  return names;
}

}  // namespace psnap::blocks
