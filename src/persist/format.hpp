// On-disk layout of psnap snapshots (datasets and whole projects).
//
// A snapshot file is a fixed-size header, a section table, and a series
// of aligned flat sections — the osrm-backend typed-block idea
// ({num_entries, byte_size, entry_size, entry_align} descriptors over
// arrays of PODs) applied to the COW value plane. The load path never
// parses: the file is mmap'd and the `ValueSlots` section *is* the list
// item buffer, aliased directly by mmap-backed `List::Buffer`s
// (blocks/value.hpp). That aliasing is legal because of two write-time
// guarantees:
//
//   * every slot range a List aliases is sublist-free ("leaf" lists;
//     spines with ListRef elements are materialized at load), preserving
//     PR 4's shared-buffers-are-flat invariant; and
//   * every slot is a *normalized* in-memory `blocks::Value`: written by
//     placement-constructing into zeroed scratch, so padding is
//     deterministic and inline kinds (nothing, number, boolean,
//     small-text) round-trip by memcpy. Kinds that carry heap pointers
//     (long text, sublists) are written as zeroed slots plus a patch
//     table entry and reconstructed at load — long-text slots by
//     placement-new *into the (MAP_PRIVATE) mapping*, touching only the
//     pages that hold them.
//
// Because raw Value bytes are ABI-specific (std::variant layout), the
// header carries a runtime fingerprint of the Value representation; a
// mismatch (different compiler/stdlib/build) is rejected with a typed
// error instead of misreading slots.
//
// Version 2 adds dictionary-coded text lists. Every leaf list with at
// least one item whose items are all text is written with a dictionary
// and one code per item (CodedListRec, DictEntries, Codes): the
// dictionary lists, in first-appearance order, the index of the first
// item of each distinct text (its exact bytes), and an item's code is
// the dictionary index of its text. A loaded list carries them in its
// buffer (blocks::TextCoding), so the mapReduce shuffle classes each
// distinct text once per job. Open checks every record and dictionary
// entry; a code is checked where it is used, against the dictionary
// size. Version 1 files are rejected.
#pragma once

#include <cstddef>
#include <cstdint>

namespace psnap::persist {

/// "psnapblk" in little-endian bytes.
inline constexpr uint64_t kMagic = 0x6b6c6270616e7370ULL;
inline constexpr uint32_t kFormatVersion = 2;

/// Hard cap on sections per file: the table is reserved up front so the
/// writer can stream payloads without knowing the final count.
inline constexpr size_t kMaxSections = 16;

enum class SnapshotKind : uint32_t {
  Dataset = 1,  ///< a single root value (typically one flat list)
  Project = 2,  ///< XML skeleton + the variable values as a value tree
};

/// osrm-style typed-block descriptor: enough to bounds-check and index a
/// section as a flat array without knowing the element type at runtime.
struct Block {
  uint64_t num_entries = 0;
  uint64_t byte_size = 0;
  uint64_t entry_size = 0;
  uint64_t entry_align = 1;
};

template <typename T>
constexpr Block makeBlock(uint64_t numEntries) {
  static_assert(sizeof(T) % alignof(T) == 0,
                "aligned T* can't be used as an array pointer");
  return Block{numEntries, sizeof(T) * numEntries, sizeof(T), alignof(T)};
}

enum class SectionId : uint64_t {
  ValueSlots = 1,   ///< blocks::Value[] — raw normalized slots
  Lists = 2,        ///< ListRec[] — one per list, ids are indices
  TextPatches = 3,  ///< TextPatch[] — long-text slots, ascending by slot
  ListPatches = 4,  ///< ListPatch[] — sublist slots, ascending by slot
  TextBlob = 5,     ///< char[] — concatenated long-text bytes
  Roots = 6,        ///< RootRec[] — the snapshot's root values
  Names = 7,        ///< char[] — auxiliary name blob (project variables)
  VarTable = 8,     ///< VarRec[] — variable manifest (project snapshots)
  Xml = 9,          ///< char[] — project XML skeleton
  CodedLists = 10,  ///< CodedListRec[] — one per dictionary-coded list
  DictEntries = 11, ///< uint32_t[] — per coded list, its dictionary
  Codes = 12,       ///< uint32_t[] — per coded list, a code per item
};

struct SectionHeader {
  uint64_t id = 0;      ///< SectionId, 0 = unused table entry
  uint64_t offset = 0;  ///< absolute file offset of the payload
  Block block;
};

struct FileHeader {
  uint64_t magic = 0;
  uint32_t version = 0;
  uint32_t kind = 0;          ///< SnapshotKind
  uint64_t valueAbi = 0;      ///< runtime Value-layout fingerprint
  uint64_t sectionCount = 0;
  uint64_t fileBytes = 0;     ///< total file size (truncation check)
  uint64_t headerCheck = 0;   ///< mix of all fields above
};

/// One list's slot range in ValueSlots. A list is a "leaf" when its range
/// has no ListPatch entries: leaves alias the mapping; spines are
/// materialized into owned buffers at load.
struct ListRec {
  uint64_t firstSlot = 0;
  uint64_t slotCount = 0;
};

/// A dictionary-coded leaf list: its dictionary is
/// DictEntries[firstEntry, firstEntry + entryCount), each entry an item
/// index into the list, and its codes are Codes[firstCode, firstCode +
/// codeCount), one per item, so codeCount is the list's slotCount.
struct CodedListRec {
  uint64_t list = 0;  ///< index into Lists
  uint64_t firstEntry = 0;
  uint64_t entryCount = 0;
  uint64_t firstCode = 0;
  uint64_t codeCount = 0;
};

/// A slot holding text longer than the Value-inline capacity: the slot is
/// zeroed on disk and rebuilt at load from the blob range.
struct TextPatch {
  uint64_t slot = 0;    ///< absolute index into ValueSlots
  uint64_t offset = 0;  ///< into TextBlob
  uint64_t length = 0;
};

/// A slot holding a sublist reference.
struct ListPatch {
  uint64_t slot = 0;       ///< absolute index into ValueSlots
  uint64_t childList = 0;  ///< index into Lists
};

enum class RootKind : uint64_t {
  Nothing = 0,
  Number = 1,
  Boolean = 2,
  Text = 3,  ///< a/b = offset/length into TextBlob (any size)
  List = 4,  ///< a = index into Lists
};

struct RootRec {
  uint64_t kind = 0;  ///< RootKind
  uint64_t a = 0;
  uint64_t b = 0;
  double number = 0;
};

/// Variable manifest entry for project snapshots: which owner
/// (0 = project globals, 1+n = sprite n) declares the name at
/// Names[nameOffset, nameLength), with its value in Roots[rootIndex].
struct VarRec {
  uint64_t owner = 0;
  uint64_t nameOffset = 0;
  uint64_t nameLength = 0;
  uint64_t rootIndex = 0;
};

/// Compiler fence around a slot image. A normalized slot is built by
/// zero-filling scratch storage and placement-constructing a Value into
/// it; without the fence the optimizer dead-store-eliminates the
/// zero-fill across the construction (observed at -O3), leaking
/// indeterminate stack bytes into the padding that gets hashed or
/// written to disk — which made the ABI fingerprint differ from process
/// to process of the *same* binary. Pin the image before and after
/// construction so the zeros and the constructed bytes are both real.
inline void slotImageFence(const void* image) {
  asm volatile("" : : "r"(image) : "memory");
}

/// Fingerprint of the in-memory blocks::Value layout: size, alignment,
/// and the normalized byte patterns of every inline kind. Computed once
/// per process; a file whose fingerprint differs was written by an
/// incompatible build and cannot be aliased.
uint64_t valueAbiFingerprint();

/// The header self-check: FNV-1a over every field except headerCheck.
uint64_t headerCheck(const FileHeader& header);

}  // namespace psnap::persist
