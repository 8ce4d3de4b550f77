#include "blocks/value.hpp"

#include <algorithm>
#include <cmath>

#include "blocks/future.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace psnap::blocks {

const char* valueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::Nothing: return "nothing";
    case ValueKind::Number: return "number";
    case ValueKind::Boolean: return "boolean";
    case ValueKind::Text: return "text";
    case ValueKind::ListRef: return "list";
    case ValueKind::RingRef: return "ring";
    case ValueKind::FutureRef: return "future";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// TextRep — shared immutable payload with lazy, thread-safe caches.
// ---------------------------------------------------------------------------

TextRep::Numeric TextRep::numeric(double& out) const {
  uint8_t state = numericState_.load(std::memory_order_acquire);
  if (state == uint8_t(Numeric::Unknown)) {
    double parsed = 0;
    Numeric computed;
    if (strings::parseNumber(text_, parsed)) {
      computed = Numeric::Parsed;
    } else if (strings::isBlank(text_)) {
      computed = Numeric::BlankZero;
      parsed = 0;
    } else {
      computed = Numeric::No;
    }
    // Publish value before state; racing writers store identical bytes.
    numericValue_.store(parsed, std::memory_order_relaxed);
    numericState_.store(uint8_t(computed), std::memory_order_release);
    state = uint8_t(computed);
  }
  out = numericValue_.load(std::memory_order_relaxed);
  return Numeric(state);
}

uint64_t TextRep::loweredHash() const {
  if (hashState_.load(std::memory_order_acquire) == 0) {
    loweredHash_.store(strings::hashLowered(text_),
                       std::memory_order_relaxed);
    hashState_.store(1, std::memory_order_release);
  }
  return loweredHash_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

namespace {
constexpr size_t kSmallTextCap = 15;
}  // namespace

Value::SmallText Value::smallText(std::string_view text) {
  SmallText small = {};  // zero-filled: the padding invariant
  std::memcpy(small.bytes, text.data(), text.size());
  small.size = uint8_t(text.size());
  return small;
}

Value::Value(std::string text) {
  if (text.size() <= kSmallTextCap) {
    v_ = smallText(text);
  } else {
    v_ = TextPtr(std::make_shared<TextRep>(std::move(text)));
  }
}

Value::Value(std::string_view text) {
  if (text.size() <= kSmallTextCap) {
    v_ = smallText(text);
  } else {
    v_ = TextPtr(std::make_shared<TextRep>(std::string(text)));
  }
}

ValueKind Value::kind() const {
  switch (v_.index()) {
    case 0: return ValueKind::Nothing;
    case 1: return ValueKind::Number;
    case 2: return ValueKind::Boolean;
    case 3:
    case 4: return ValueKind::Text;
    case 5: return ValueKind::ListRef;
    case 6: return ValueKind::RingRef;
    default: return ValueKind::FutureRef;
  }
}

std::string_view Value::textView() const {
  if (const SmallText* small = std::get_if<SmallText>(&v_)) {
    return std::string_view(small->bytes, small->size);
  }
  if (const TextPtr* rep = std::get_if<TextPtr>(&v_)) {
    return (*rep)->text();
  }
  throw TypeError(std::string("expecting text but getting a ") +
                  valueKindName(kind()));
}

bool Value::numericValue(double& out) const {
  switch (v_.index()) {
    case 1:  // Number
      out = std::get<double>(v_);
      return true;
    case 3:  // SmallText: parsing <= 15 bytes is allocation-free and cheap
      return strings::parseNumber(textView(), out);
    case 4:  // TextPtr: classified once, then a cache read
      return std::get<TextPtr>(v_)->numeric(out) ==
             TextRep::Numeric::Parsed;
    default:
      return false;
  }
}

uint64_t Value::loweredHash() const {
  if (const TextPtr* rep = std::get_if<TextPtr>(&v_)) {
    return (*rep)->loweredHash();
  }
  return strings::hashLowered(textView());
}

double Value::asNumber() const {
  switch (v_.index()) {
    case 1:
      return std::get<double>(v_);
    case 2:
      return std::get<bool>(v_) ? 1.0 : 0.0;
    case 3: {
      const std::string_view text = textView();
      double parsed = 0;
      if (strings::parseNumber(text, parsed)) return parsed;
      // Snap! treats empty text as 0 in arithmetic contexts.
      if (strings::isBlank(text)) return 0.0;
      throw TypeError("expecting a number but getting text \"" +
                      std::string(text) + "\"");
    }
    case 4: {
      double parsed = 0;
      switch (std::get<TextPtr>(v_)->numeric(parsed)) {
        case TextRep::Numeric::Parsed: return parsed;
        case TextRep::Numeric::BlankZero: return 0.0;
        default:
          throw TypeError("expecting a number but getting text \"" +
                          std::get<TextPtr>(v_)->text() + "\"");
      }
    }
    case 0:
      return 0.0;
    default:
      throw TypeError(std::string("expecting a number but getting a ") +
                      valueKindName(kind()));
  }
}

long long Value::asInteger() const {
  double n = asNumber();
  if (!std::isfinite(n)) throw TypeError("expecting a finite integer");
  return static_cast<long long>(std::llround(n));
}

std::string Value::asText() const {
  switch (v_.index()) {
    case 0: return "";
    case 1: return strings::formatNumber(std::get<double>(v_));
    case 2: return std::get<bool>(v_) ? "true" : "false";
    case 3:
    case 4: return std::string(textView());
    default:
      throw TypeError(std::string("expecting text but getting a ") +
                      valueKindName(kind()));
  }
}

bool Value::asBoolean() const {
  if (isBoolean()) return std::get<bool>(v_);
  if (isText()) {
    const std::string_view text = textView();
    if (strings::equalsIgnoreCase(text, "true")) return true;
    if (strings::equalsIgnoreCase(text, "false")) return false;
  }
  throw TypeError(std::string("expecting a boolean but getting a ") +
                  valueKindName(kind()));
}

const ListPtr& Value::asList() const {
  if (!isList()) {
    throw TypeError(std::string("expecting a list but getting a ") +
                    valueKindName(kind()));
  }
  return std::get<ListPtr>(v_);
}

const RingPtr& Value::asRing() const {
  if (!isRing()) {
    throw TypeError(std::string("expecting a ring but getting a ") +
                    valueKindName(kind()));
  }
  return std::get<RingPtr>(v_);
}

const FuturePtr& Value::asFuture() const {
  if (!isFuture()) {
    throw TypeError(std::string("expecting a future but getting a ") +
                    valueKindName(kind()));
  }
  return std::get<FuturePtr>(v_);
}

bool Value::equals(const Value& other) const {
  // Lists: deep structural equality.
  if (isList() || other.isList()) {
    if (!isList() || !other.isList()) return false;
    return asList()->deepEquals(*other.asList());
  }
  // Rings: identity.
  if (isRing() || other.isRing()) {
    if (!isRing() || !other.isRing()) return false;
    return asRing().get() == other.asRing().get();
  }
  // Futures: identity (two handles are equal iff they share a settlement).
  if (isFuture() || other.isFuture()) {
    if (!isFuture() || !other.isFuture()) return false;
    return asFuture().get() == other.asFuture().get();
  }
  if (isNothing() && other.isNothing()) return true;
  if (isBoolean() || other.isBoolean()) {
    if (isBoolean() && other.isBoolean()) {
      return std::get<bool>(v_) == std::get<bool>(other.v_);
    }
    return false;
  }
  // Snap! compares numerically whenever both sides look numeric — each
  // side is parsed at most once (and long text not even that, its parse
  // is cached on the shared rep)…
  double a = 0;
  double b = 0;
  if (numericValue(a) && other.numericValue(b)) return a == b;
  // …and case-insensitively otherwise. Text-vs-text is allocation-free;
  // the mixed-kind fallback renders the non-text side first.
  std::string leftOwned;
  std::string rightOwned;
  std::string_view left;
  std::string_view right;
  if (isText()) {
    left = textView();
  } else {
    leftOwned = asText();
    left = leftOwned;
  }
  if (other.isText()) {
    right = other.textView();
  } else {
    rightOwned = other.asText();
    right = rightOwned;
  }
  return strings::equalsIgnoreCase(left, right);
}

std::string Value::display() const {
  switch (kind()) {
    case ValueKind::ListRef: return asList()->display();
    case ValueKind::RingRef:
      return asRing()->kind() == RingKind::Reporter ? "(reporter ring)"
                                                    : "(command ring)";
    case ValueKind::FutureRef: return asFuture()->display();
    default: return asText();
  }
}

bool Value::isTransferable() const {
  switch (kind()) {
    case ValueKind::RingRef:
    case ValueKind::FutureRef:
      return false;
    case ValueKind::ListRef:
      return asList()->isTransferable();
    default:
      return true;
  }
}

Value Value::structuredClone() const {
  switch (kind()) {
    case ValueKind::RingRef:
      throw PurityError("rings cannot be structured-cloned to a worker");
    case ValueKind::FutureRef:
      throw PurityError(
          "futures cannot be structured-cloned to a worker: a promise is "
          "a handle into its owning process, not data");
    case ValueKind::ListRef:
      return Value(asList()->snapshotClone());
    default:
      // Scalars are values; text is immutable and shared (copying the
      // handle is the clone).
      return *this;
  }
}

// ---------------------------------------------------------------------------
// List — COW core.
// ---------------------------------------------------------------------------

List::List(std::vector<Value> items) {
  if (!items.empty()) {
    buf_ = std::make_shared<Buffer>(std::move(items));
  }
}

ListPtr List::makeMapped(const Value* data, size_t size,
                         std::shared_ptr<const void> region,
                         bool flatShareable) {
  auto list = std::make_shared<List>();
  if (size == 0) return list;  // empty list needs no buffer (or region)
  list->buf_ = std::make_shared<Buffer>(data, size, std::move(region));
  if (flatShareable) {
    list->auditWord_.store(
        (uint64_t(1) << 2) | uint64_t(FlatAudit::Shareable),
        std::memory_order_release);
  }
  return list;
}

void List::detachForWrite() {
  if (buf_ && (buf_->mapped() || buf_.use_count() > 1)) {
    // The buffer is held by a pending snapshot (or this node is one), or
    // aliases an immutable mapped region. Shared/mapped buffers are
    // sublist-free by construction — snapshotClone rebuilds any buffer
    // containing ListRefs, and the persist layer materializes spines —
    // so this shallow copy-out is the full deferred deep copy: scalars
    // copy, texts bump a refcount.
    auto fresh = std::make_shared<Buffer>();
    fresh->owned.assign(buf_->data(), buf_->data() + buf_->size());
    buf_ = std::move(fresh);
  }
  version_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Value>& List::writable() {
  detachForWrite();
  if (!buf_) buf_ = std::make_shared<Buffer>();
  return buf_->owned;
}

const Value& List::item(size_t index1) const {
  const ItemSpan items = this->items();
  if (index1 < 1 || index1 > items.size()) {
    throw IndexError("item " + std::to_string(index1) + " of a list of " +
                     std::to_string(items.size()));
  }
  return items[index1 - 1];
}

void List::add(Value value) { writable().push_back(std::move(value)); }

void List::insertAt(size_t index1, Value value) {
  if (index1 < 1 || index1 > length() + 1) {
    throw IndexError("insert at " + std::to_string(index1) +
                     " of a list of " + std::to_string(length()));
  }
  std::vector<Value>& items = writable();
  items.insert(items.begin() + static_cast<ptrdiff_t>(index1 - 1),
               std::move(value));
}

void List::replaceAt(size_t index1, Value value) {
  if (index1 < 1 || index1 > length()) {
    throw IndexError("item " + std::to_string(index1) + " of a list of " +
                     std::to_string(length()));
  }
  writable()[index1 - 1] = std::move(value);
}

void List::removeAt(size_t index1) {
  if (index1 < 1 || index1 > length()) {
    throw IndexError("delete " + std::to_string(index1) + " of a list of " +
                     std::to_string(length()));
  }
  std::vector<Value>& items = writable();
  items.erase(items.begin() + static_cast<ptrdiff_t>(index1 - 1));
}

void List::clear() {
  version_.fetch_add(1, std::memory_order_relaxed);
  if (buf_ && (buf_->mapped() || buf_.use_count() > 1)) {
    buf_.reset();  // the snapshot/mapping keeps the old buffer; we go empty
  } else if (buf_) {
    buf_->owned.clear();
  }
}

void List::reserve(size_t capacity) { writable().reserve(capacity); }

std::vector<Value>& List::mutableItems() { return writable(); }

bool List::contains(const Value& probe) const {
  for (const Value& item : items()) {
    if (item.equals(probe)) return true;
  }
  return false;
}

bool List::deepEquals(const List& other) const {
  std::vector<const List*> path;
  return deepEqualsGuarded(other, path);
}

bool List::deepEqualsGuarded(const List& other,
                             std::vector<const List*>& path) const {
  const ItemSpan mine = items();
  const ItemSpan theirs = other.items();
  if (mine.size() != theirs.size()) return false;
  if (this == &other) return true;
  if (std::find(path.begin(), path.end(), this) != path.end()) {
    throw TypeError("cannot compare cyclic lists");
  }
  path.push_back(this);
  for (size_t i = 0; i < mine.size(); ++i) {
    const Value& a = mine[i];
    const Value& b = theirs[i];
    bool same;
    if (a.isList() && b.isList()) {
      same = a.asList()->deepEqualsGuarded(*b.asList(), path);
    } else {
      same = a.equals(b);
    }
    if (!same) {
      path.pop_back();
      return false;
    }
  }
  path.pop_back();
  return true;
}

ListPtr List::deepCopy() const {
  std::vector<const List*> path;
  return deepCopyGuarded(path);
}

ListPtr List::deepCopyGuarded(std::vector<const List*>& path) const {
  if (std::find(path.begin(), path.end(), this) != path.end()) {
    throw TypeError("cannot deep-copy a cyclic list");
  }
  path.push_back(this);
  auto copy = List::make();
  const ItemSpan source = items();
  if (!source.empty()) {
    std::vector<Value>& target = copy->writable();
    target.reserve(source.size());
    for (const Value& item : source) {
      if (item.isList()) {
        target.push_back(Value(item.asList()->deepCopyGuarded(path)));
      } else {
        target.push_back(item);
      }
    }
  }
  path.pop_back();
  return copy;
}

std::string List::display() const {
  std::string out;
  std::vector<const List*> path;
  displayGuarded(out, path);
  return out;
}

void List::displayGuarded(std::string& out,
                          std::vector<const List*>& path) const {
  if (std::find(path.begin(), path.end(), this) != path.end()) {
    out += "(cyclic list)";
    return;
  }
  path.push_back(this);
  out += "[";
  const ItemSpan source = items();
  for (size_t i = 0; i < source.size(); ++i) {
    if (i != 0) out += ", ";
    if (source[i].isList()) {
      source[i].asList()->displayGuarded(out, path);
    } else {
      out += source[i].display();
    }
  }
  out += "]";
  path.pop_back();
}

List::FlatAudit List::flatAudit() const {
  if (!buf_) return FlatAudit::Shareable;
  const uint64_t version = version_.load(std::memory_order_relaxed);
  const uint64_t cached = auditWord_.load(std::memory_order_acquire);
  if ((cached >> 2) == version + 1) return FlatAudit(cached & 3u);
  FlatAudit audit = FlatAudit::Shareable;
  for (const Value& item : items()) {
    if (item.isList()) {
      audit = FlatAudit::HasSublists;
      break;
    }
    if (item.isRing() || item.isFuture()) audit = FlatAudit::HasRings;
  }
  auditWord_.store(((version + 1) << 2) | uint64_t(audit),
                   std::memory_order_release);
  return audit;
}

bool List::isTransferable() const {
  std::vector<const List*> path;
  return transferableGuarded(path);
}

bool List::transferableGuarded(std::vector<const List*>& path) const {
  switch (flatAudit()) {
    case FlatAudit::Shareable: return true;
    case FlatAudit::HasRings: return false;
    default: break;
  }
  if (std::find(path.begin(), path.end(), this) != path.end()) {
    return false;  // cyclic lists cannot be structured-cloned
  }
  path.push_back(this);
  for (const Value& item : items()) {
    if (item.isRing() || item.isFuture() ||
        (item.isList() && !item.asList()->transferableGuarded(path))) {
      path.pop_back();
      return false;
    }
  }
  path.pop_back();
  return true;
}

ListPtr List::snapshotClone() const {
  std::vector<const List*> path;
  return snapshotCloneGuarded(path);
}

ListPtr List::snapshotCloneGuarded(std::vector<const List*>& path) const {
  auto clone = std::make_shared<List>();
  switch (flatAudit()) {
    case FlatAudit::Shareable: {
      // O(1): the snapshot shares the buffer; whichever side mutates
      // first pays for the copy at its detach gate.
      clone->buf_ = buf_;
      // Seed the clone's audit cache — its buffer is known shareable.
      clone->auditWord_.store((uint64_t(1) << 2) |
                                  uint64_t(FlatAudit::Shareable),
                              std::memory_order_release);
      return clone;
    }
    case FlatAudit::HasRings: {
      // The audit lumps rings and futures (both non-transferable); pick
      // the accurate message on this cold path.
      for (const Value& item : items()) {
        if (item.isFuture()) {
          throw PurityError(
              "futures cannot be structured-cloned to a worker: a promise "
              "is a handle into its owning process, not data");
        }
      }
      throw PurityError("rings cannot be structured-cloned to a worker");
    }
    default:
      break;
  }
  // Nested: rebuild the spine with fresh nodes so no mutable List object
  // is reachable from both the live tree and the snapshot; leaf buffers
  // and texts are shared.
  if (std::find(path.begin(), path.end(), this) != path.end()) {
    throw PurityError("cannot structured-clone a cyclic list");
  }
  path.push_back(this);
  auto buffer = std::make_shared<Buffer>();
  buffer->owned.reserve(buf_->size());
  for (const Value& item : items()) {
    if (item.isList()) {
      buffer->owned.push_back(
          Value(item.asList()->snapshotCloneGuarded(path)));
    } else if (item.isRing()) {
      path.pop_back();
      throw PurityError("rings cannot be structured-cloned to a worker");
    } else if (item.isFuture()) {
      path.pop_back();
      throw PurityError(
          "futures cannot be structured-cloned to a worker: a promise is "
          "a handle into its owning process, not data");
    } else {
      buffer->owned.push_back(item);
    }
  }
  path.pop_back();
  clone->buf_ = std::move(buffer);
  return clone;
}

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

Ring::Ring(RingKind kind, BlockPtr expression, ScriptPtr script,
           std::vector<std::string> formals, EnvPtr captured)
    : kind_(kind),
      expression_(std::move(expression)),
      script_(std::move(script)),
      formals_(std::move(formals)),
      captured_(std::move(captured)) {}

RingPtr Ring::reporter(BlockPtr expression, std::vector<std::string> formals,
                       EnvPtr captured) {
  if (!expression) throw Error("reporter ring requires an expression");
  return std::make_shared<Ring>(RingKind::Reporter, std::move(expression),
                                nullptr, std::move(formals),
                                std::move(captured));
}

RingPtr Ring::command(ScriptPtr script, std::vector<std::string> formals,
                      EnvPtr captured) {
  if (!script) throw Error("command ring requires a script");
  return std::make_shared<Ring>(RingKind::Command, nullptr, std::move(script),
                                std::move(formals), std::move(captured));
}

}  // namespace psnap::blocks
