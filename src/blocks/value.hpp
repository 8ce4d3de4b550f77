// The Snap! value model: numbers, text, booleans, first-class lists, and
// first-class ringed procedures.
//
// Two properties of Snap! values are load-bearing for the paper's parallel
// blocks and are preserved faithfully here:
//
//  * Lists are first-class objects with identity: passing a list passes a
//    reference, and `add ... to ...` mutates the shared object. They are
//    1-indexed.
//  * Procedures ("rings") are first-class closures over a reporter block or
//    a command script, with either named formal parameters or implicit
//    empty-slot parameters filled left to right.
//
// Value equality follows Snap!: values that look numeric compare
// numerically, and text comparison is case-insensitive.
//
// Representation (the copy-on-write value plane; invariants in DESIGN.md,
// "Value plane"):
//
//  * Text is immutable. Short texts (<= 15 bytes) live inline in the
//    Value; longer texts are a `shared_ptr<const TextRep>` carrying the
//    string plus lazily computed caches (numeric parse, lowered hash), so
//    copying a text Value is a refcount bump and numeric coercion or
//    case-insensitive hashing never re-reads the bytes twice.
//  * A List owns a shared item buffer. `structuredClone` of a flat
//    (sublist-free) list is O(1): the clone is a new List sharing the
//    buffer. Every mutator funnels through a detach gate that copies the
//    buffer first when it is shared, so the deep copy is deferred to the
//    first mutation of either side and never observed semantically.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace psnap::blocks {

class List;
class Ring;
class Block;
class Script;
class Environment;
class Input;
class Future;

using ListPtr = std::shared_ptr<List>;
using RingPtr = std::shared_ptr<Ring>;
using BlockPtr = std::shared_ptr<const Block>;
using ScriptPtr = std::shared_ptr<const Script>;
using EnvPtr = std::shared_ptr<Environment>;
using FuturePtr = std::shared_ptr<Future>;

/// Discriminator for Value's runtime type.
enum class ValueKind {
  Nothing, Number, Boolean, Text, ListRef, RingRef, FutureRef
};

/// Human-readable name of a ValueKind (for error messages).
const char* valueKindName(ValueKind kind);

/// The shared, immutable payload of a long text value. The string never
/// changes after construction; the caches are computed lazily and are
/// thread-safe (snapshot transfer shares TextReps across workers).
class TextRep {
 public:
  /// How the text behaves in a numeric context (Snap! coercion rules).
  enum class Numeric : uint8_t {
    Unknown = 0,   ///< not classified yet
    Parsed = 1,    ///< numeric-looking; value() holds the parse
    BlankZero = 2, ///< empty/whitespace: 0 in arithmetic, non-numeric in =
    No = 3,        ///< coercion throws, comparison is textual
  };

  explicit TextRep(std::string text) : text_(std::move(text)) {}
  TextRep(const TextRep&) = delete;
  TextRep& operator=(const TextRep&) = delete;

  const std::string& text() const { return text_; }

  /// Classify (once) and return the cached numeric interpretation;
  /// `out` receives the parsed value for Parsed/BlankZero.
  Numeric numeric(double& out) const;

  /// Cached strings::hashLowered(text()).
  uint64_t loweredHash() const;

 private:
  std::string text_;
  mutable std::atomic<uint8_t> numericState_{0};
  mutable std::atomic<double> numericValue_{0};
  mutable std::atomic<uint8_t> hashState_{0};
  mutable std::atomic<uint64_t> loweredHash_{0};
};

using TextPtr = std::shared_ptr<const TextRep>;

/// A dynamically typed Snap! value.
class Value {
 public:
  /// The "nothing" value reported by command blocks and empty slots.
  Value() = default;
  Value(double number) : v_(number) {}               // NOLINT(runtime/explicit)
  Value(int number) : v_(double(number)) {}          // NOLINT(runtime/explicit)
  Value(long number) : v_(double(number)) {}         // NOLINT(runtime/explicit)
  Value(long long n) : v_(double(n)) {}              // NOLINT(runtime/explicit)
  Value(size_t number) : v_(double(number)) {}       // NOLINT(runtime/explicit)
  Value(bool flag) : v_(flag) {}                     // NOLINT(runtime/explicit)
  Value(std::string text);                           // NOLINT(runtime/explicit)
  Value(std::string_view text);                      // NOLINT(runtime/explicit)
  Value(const char* text) : Value(std::string_view(text)) {} // NOLINT
  Value(ListPtr list) : v_(std::move(list)) {}       // NOLINT(runtime/explicit)
  Value(RingPtr ring) : v_(std::move(ring)) {}       // NOLINT(runtime/explicit)
  Value(FuturePtr future) : v_(std::move(future)) {} // NOLINT(runtime/explicit)

  ValueKind kind() const;

  bool isNothing() const { return v_.index() == 0; }
  bool isNumber() const { return v_.index() == 1; }
  bool isBoolean() const { return v_.index() == 2; }
  bool isText() const { return v_.index() == 3 || v_.index() == 4; }
  bool isList() const { return v_.index() == 5; }
  bool isRing() const { return v_.index() == 6; }
  bool isFuture() const { return v_.index() == 7; }

  /// Number coercion per Snap!: numbers pass through, numeric-looking text
  /// parses, booleans are 1/0, everything else throws TypeError.
  double asNumber() const;

  /// Integer coercion: asNumber() rounded to nearest; throws on non-finite.
  long long asInteger() const;

  /// Text coercion: numbers render via strings::formatNumber, booleans as
  /// "true"/"false", nothing as "". Lists/rings throw TypeError.
  std::string asText() const;

  /// Zero-copy view of a Text value's bytes (valid while this Value is
  /// alive and unmodified). Throws TypeError for non-text values.
  std::string_view textView() const;

  /// Snap! "looks numeric" probe: true for numbers and numeric-looking
  /// text, with the parse delivered through `out` (cached for long text,
  /// so equality/coercion never parses the same payload twice).
  bool numericValue(double& out) const;

  /// Case-insensitive hash of a Text value (strings::hashLowered), cached
  /// for long text. Throws TypeError for non-text values.
  uint64_t loweredHash() const;

  /// Boolean coercion: booleans pass through; the texts "true"/"false"
  /// coerce; everything else throws TypeError.
  bool asBoolean() const;

  /// List access without copying; throws TypeError for non-lists.
  const ListPtr& asList() const;

  /// Ring access; throws TypeError for non-rings.
  const RingPtr& asRing() const;

  /// Future access; throws TypeError for non-futures.
  const FuturePtr& asFuture() const;

  /// Snap! `=` semantics: numeric when both sides coerce to numbers,
  /// case-insensitive text otherwise; lists compare element-wise (deep);
  /// rings compare by identity.
  bool equals(const Value& other) const;

  /// Display string as the Snap! UI would show it in a say-bubble or watcher;
  /// lists render as bracketed element lists.
  std::string display() const;

  /// True if the value can be sent to a worker (no rings, no cyclic
  /// lists). Mirrors the structured-clone restriction on Web Workers.
  bool isTransferable() const;

  /// Isolated copy for transferring to/from a worker ("structured
  /// clone"). Semantically a deep copy; physically an O(1) frozen
  /// snapshot for flat lists and shared-immutable text, with the real
  /// copy deferred to the first mutation of either side.
  /// Throws PurityError when !isTransferable().
  Value structuredClone() const;

  /// The exact representation of a number, boolean or text: which
  /// alternative holds it, plus its inline image — a number's bits, the
  /// flag, a short text's zero-padded bytes and size, or a long text's
  /// rep pointer. Equal identities mean the same kind and the same
  /// content, so `equals` holds (except for a NaN, which equals nothing).
  /// Unequal identities say nothing: 0 and -0, or two reps of one long
  /// text, differ. Nothing, lists, rings and futures have none (tag 0).
  /// A rep pointer identifies its text only while some Value pins the
  /// rep.
  struct Identity {
    uint64_t bits[2] = {0, 0};
    uint8_t tag = 0;  // the variant alternative; 0 for no identity
    bool operator==(const Identity&) const = default;
  };
  Identity identity() const;

 private:
  /// Inline storage for short text: copying it is a 16-byte move, and the
  /// common case (words, numbers-as-text, flags) never allocates.
  /// Invariant: the bytes past `size` are zero. Every SmallText is built
  /// by smallText(), so equal texts have equal 16-byte images — which
  /// the persistence layer's raw slot images and identity() rely on.
  struct SmallText {
    char bytes[15];
    uint8_t size;
  };
  static_assert(sizeof(SmallText) == 16);

  /// The zero-padded inline form of `text` (at most 15 bytes).
  static SmallText smallText(std::string_view text);

  std::variant<std::monostate, double, bool, SmallText, TextPtr, ListPtr,
               RingPtr, FuturePtr>
      v_;
};

inline Value::Identity Value::identity() const {
  Identity id;
  switch (v_.index()) {
    case 1:
      std::memcpy(&id.bits[0], std::get_if<1>(&v_), sizeof(double));
      break;
    case 2:
      id.bits[0] = *std::get_if<2>(&v_);
      break;
    case 3:
      std::memcpy(id.bits, std::get_if<3>(&v_), sizeof(SmallText));
      break;
    case 4:
      id.bits[0] = reinterpret_cast<uintptr_t>(std::get_if<4>(&v_)->get());
      break;
    default:
      return id;
  }
  id.tag = uint8_t(v_.index());
  return id;
}

/// Read-only view of a list's item buffer. The view is valid while the
/// list is alive and unmodified (any mutator may detach and reallocate).
using ItemSpan = std::span<const Value>;

/// A text list's dictionary coding, as a snapshot stores it
/// (persist/format.hpp): item i's code is codes[i], and code e stands for
/// the item at index entries[e], the first item with that exact text.
/// Both spans are empty for an uncoded list. The snapshot loader checks
/// every entry against the list's length; nothing checks the codes, so a
/// reader checks each code it uses against entries.size().
struct TextCoding {
  std::span<const uint32_t> codes;
  std::span<const uint32_t> entries;
  bool empty() const { return codes.empty(); }
};

/// A first-class, 1-indexed Snap! list with reference semantics (share the
/// ListPtr to share the object).
///
/// COW core: the item buffer is held through a shared_ptr and may be
/// shared with snapshot clones ("frozen" by virtue of every mutator
/// detaching first). Invariant: a buffer is only ever shared between
/// List objects when it contains no ListRef elements (snapshotClone
/// rebuilds buffers that do), so a shallow buffer copy at detach time is
/// a complete deep copy. The version stamp increments on every mutation
/// and keys the cached transfer audit.
///
/// A buffer comes in two ownership modes: *owned* (a plain vector — every
/// list built at runtime) and *mapped* (an immutable view into externally
/// managed memory, e.g. an mmap'd snapshot file, pinned alive by a
/// type-erased region handle). Mapped buffers are never written through:
/// the detach gate treats them exactly like a buffer shared with a
/// snapshot and copies out on the first mutation, so every COW invariant
/// holds for them unchanged. A mapped buffer may also carry its list's
/// TextCoding, which travels with the buffer through every share and
/// which the detach gate drops: the copied-out buffer has none.
class List {
 public:
  List() = default;
  explicit List(std::vector<Value> items);

  static ListPtr make() { return std::make_shared<List>(); }
  static ListPtr make(std::vector<Value> items) {
    return std::make_shared<List>(std::move(items));
  }
  static ListPtr make(ItemSpan items) {
    return std::make_shared<List>(
        std::vector<Value>(items.begin(), items.end()));
  }

  /// A list whose buffer aliases `size` Value slots of externally managed
  /// immutable memory (a persisted snapshot mapping). `region` is held
  /// for the buffer's lifetime — including through O(1) snapshot shares —
  /// so the memory outlives every alias. Pass `flatShareable` only when
  /// the slots are known sublist- and ring-free (the dataset snapshot
  /// invariant); it pre-seeds the transfer audit so the first
  /// structuredClone never has to scan (and page in) the whole buffer.
  /// `coding`, when not empty, is the slots' dictionary coding, held in
  /// the same region.
  static ListPtr makeMapped(const Value* data, size_t size,
                            std::shared_ptr<const void> region,
                            bool flatShareable, TextCoding coding = {});

  size_t length() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return length() == 0; }

  /// 1-indexed access; throws IndexError when out of range.
  const Value& item(size_t index1) const;

  void add(Value value);
  /// Insert at 1-indexed position (1 = front, length+1 = back).
  void insertAt(size_t index1, Value value);
  /// Replace the item at a 1-indexed position.
  void replaceAt(size_t index1, Value value);
  /// Remove at 1-indexed position.
  void removeAt(size_t index1);
  void clear();
  void reserve(size_t capacity);

  /// True if any element `equals` the probe (Snap! `contains`).
  bool contains(const Value& probe) const;

  ItemSpan items() const {
    return buf_ ? ItemSpan(buf_->data(), buf_->size()) : ItemSpan();
  }

  /// The buffer's dictionary coding: empty unless the list was loaded
  /// coded from a snapshot and has not been mutated since.
  TextCoding coding() const { return buf_ ? buf_->coding : TextCoding(); }

  /// Mutable access to the item buffer. Detaches any shared snapshot
  /// first and bumps the version stamp; the caller must be the only
  /// thread touching this List while holding the reference.
  std::vector<Value>& mutableItems();

  /// Deep structural equality (used by Value::equals). Throws TypeError
  /// on self-referential lists instead of recursing forever.
  bool deepEquals(const List& other) const;

  /// Deep copy (shared sublists are duplicated). Throws TypeError on
  /// self-referential lists.
  ListPtr deepCopy() const;

  std::string display() const;

  /// True when the whole tree is ring-free and acyclic.
  bool isTransferable() const;

  /// Structured clone by snapshot: flat lists share their buffer (O(1)),
  /// nested lists rebuild only the spine (fresh List nodes, shared leaf
  /// buffers and texts). Throws PurityError on rings or cycles.
  ListPtr snapshotClone() const;

  /// Mutation counter (monotonic). Test/diagnostic hook for the COW gate.
  uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

  /// True when this list and `other` currently share one item buffer
  /// (i.e. a pending snapshot has not detached yet). Test hook.
  bool sharesBufferWith(const List& other) const {
    return buf_ && buf_ == other.buf_;
  }

  /// True while the buffer aliases a mapped region (no mutation has
  /// detached it yet). Test/diagnostic hook.
  bool mappedBuffer() const { return buf_ && buf_->mapped(); }

 private:
  /// The COW item buffer: owned vector or immutable mapped view. Exactly
  /// one of the two representations is active (`region` discriminates).
  /// Only a mapped buffer carries a coding.
  struct Buffer {
    Buffer() = default;
    explicit Buffer(std::vector<Value> items) : owned(std::move(items)) {}
    Buffer(const Value* data, size_t size, std::shared_ptr<const void> keep,
           TextCoding textCoding)
        : mappedData(data),
          mappedSize(size),
          region(std::move(keep)),
          coding(textCoding) {}

    bool mapped() const { return region != nullptr; }
    const Value* data() const { return mapped() ? mappedData : owned.data(); }
    size_t size() const { return mapped() ? mappedSize : owned.size(); }

    std::vector<Value> owned;
    const Value* mappedData = nullptr;
    size_t mappedSize = 0;
    /// Keeps the mapped memory alive (type-erased: the persist layer's
    /// region object). Null for owned buffers.
    std::shared_ptr<const void> region;
    TextCoding coding;  // views into `region`
  };

  /// What one scan of the *own* buffer (not sublists) established; cached
  /// against the version stamp. Sound because a buffer's own element
  /// kinds can only change through this List's mutators.
  enum class FlatAudit : uint8_t {
    Unknown = 0,
    Shareable = 1,   ///< no sublists, no rings: buffer may be shared as-is
    HasSublists = 2, ///< recursion required (never cached deeper)
    HasRings = 3,    ///< not transferable
  };

  FlatAudit flatAudit() const;
  /// Copy the buffer out if a snapshot still shares it or it aliases a
  /// mapped region, then bump version. The copy carries no coding.
  void detachForWrite();
  std::vector<Value>& writable();
  bool transferableGuarded(std::vector<const List*>& path) const;
  ListPtr snapshotCloneGuarded(std::vector<const List*>& path) const;
  bool deepEqualsGuarded(const List& other,
                         std::vector<const List*>& path) const;
  ListPtr deepCopyGuarded(std::vector<const List*>& path) const;
  void displayGuarded(std::string& out,
                      std::vector<const List*>& path) const;

  friend class Value;

  std::shared_ptr<Buffer> buf_;  // null means empty
  std::atomic<uint64_t> version_{0};
  /// Packed audit cache: ((version + 1) << 2) | FlatAudit; 0 = unset.
  mutable std::atomic<uint64_t> auditWord_{0};
};

/// Whether a ring wraps a reporter expression or a command script.
enum class RingKind { Reporter, Command };

/// A first-class procedure: a closure over a reporter block or a command
/// script, its formal parameter names, and the environment captured when
/// the ring was evaluated (lexical scope).
class Ring {
 public:
  Ring(RingKind kind, BlockPtr expression, ScriptPtr script,
       std::vector<std::string> formals, EnvPtr captured);

  static RingPtr reporter(BlockPtr expression,
                          std::vector<std::string> formals = {},
                          EnvPtr captured = nullptr);
  static RingPtr command(ScriptPtr script,
                         std::vector<std::string> formals = {},
                         EnvPtr captured = nullptr);

  RingKind kind() const { return kind_; }
  /// Non-null for reporter rings.
  const BlockPtr& expression() const { return expression_; }
  /// Non-null for command rings.
  const ScriptPtr& script() const { return script_; }
  const std::vector<std::string>& formals() const { return formals_; }
  const EnvPtr& captured() const { return captured_; }

  /// The body's empty slots in pre-order — the implicit-parameter
  /// sequence. Computed once and cached: resolving a blank's ordinal is on
  /// the hot path of every empty-slot evaluation in the VM and the pure
  /// evaluator, and the body is immutable. Thread-safe (workers share
  /// rings).
  const std::vector<const Input*>& emptySlots() const;

 private:
  RingKind kind_;
  BlockPtr expression_;
  ScriptPtr script_;
  std::vector<std::string> formals_;
  EnvPtr captured_;
  mutable std::once_flag emptySlotsOnce_;
  mutable std::vector<const Input*> emptySlots_;
};

}  // namespace psnap::blocks
