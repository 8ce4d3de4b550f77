#include "persist/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>
#include <string_view>
#include <unordered_map>

#include "persist/file.hpp"
#include "support/error.hpp"

namespace psnap::persist {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;
using blocks::ValueKind;

namespace {

constexpr size_t kInlineTextCap = 15;  // Value's SmallText capacity

/// Normalized raw image of an inline-kind Value: zeroed scratch +
/// placement-copy, so variant padding is deterministic. Texts are
/// rebuilt from their view so the small-text tail is freshly zero-filled
/// regardless of the source Value's history.
void normalizeSlot(const Value& v, unsigned char* out) {
  std::memset(out, 0, sizeof(Value));
  if (v.isText()) {
    new (out) Value(v.textView());
  } else {
    new (out) Value(v);
  }
  // Deliberately not destroyed: inline alternatives own no heap state,
  // and the variant destructor would scribble its "destroyed" index
  // marker over the image we just took.
}

}  // namespace

// ---------------------------------------------------------------------------
// Dictionary coding: the one routine behind the encoder and DatasetWriter
// ---------------------------------------------------------------------------

/// The coded-list sections of one snapshot, in list order.
struct CodedSections {
  std::vector<CodedListRec> lists;
  std::vector<uint32_t> entries;
  std::vector<uint32_t> codes;

  void write(SnapshotFileWriter& w) const {
    w.writeArraySection(SectionId::CodedLists, lists);
    w.writeArraySection(SectionId::DictEntries, entries);
    w.writeArraySection(SectionId::Codes, codes);
  }
};

/// Codes one list's items in order. The coding rule (DESIGN.md,
/// "Persistence"): a list is coded when it has at least one item, fewer
/// than 2^32, and every item is text. Its dictionary holds one entry per
/// distinct text, keyed by its exact bytes, in first-appearance order.
/// The first item that is not text ends coding for the list and frees
/// what was built.
class TextCoder {
 public:
  void add(const Value& item) {
    if (!text_) return;
    if (!item.isText() ||
        codes_.size() == std::numeric_limits<uint32_t>::max()) {
      text_ = false;
      index_ = {};
      entries_ = {};
      codes_ = {};
      return;
    }
    const std::string_view text = item.textView();
    auto it = index_.find(text);
    if (it == index_.end()) {
      it = index_.emplace(std::string(text), uint32_t(entries_.size())).first;
      entries_.push_back(uint32_t(codes_.size()));
    }
    codes_.push_back(it->second);
  }

  /// Append list `list`'s record, dictionary and codes to `out` if the
  /// rule codes it.
  void finish(uint64_t list, CodedSections& out) const {
    if (!text_ || codes_.empty()) return;
    out.lists.push_back(CodedListRec{list, out.entries.size(),
                                     entries_.size(), out.codes.size(),
                                     codes_.size()});
    out.entries.insert(out.entries.end(), entries_.begin(), entries_.end());
    out.codes.insert(out.codes.end(), codes_.begin(), codes_.end());
  }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> index_;
  std::vector<uint32_t> entries_;  // per code: its first item's index
  std::vector<uint32_t> codes_;    // per item
  bool text_ = true;
};

namespace {

// ---------------------------------------------------------------------------
// Encoder: value tree -> in-memory sections
// ---------------------------------------------------------------------------

class Encoder {
 public:
  void addRoot(const Value& v) {
    RootRec rec;
    switch (v.kind()) {
      case ValueKind::Nothing:
        rec.kind = uint64_t(RootKind::Nothing);
        break;
      case ValueKind::Number:
        rec.kind = uint64_t(RootKind::Number);
        rec.number = v.asNumber();
        break;
      case ValueKind::Boolean:
        rec.kind = uint64_t(RootKind::Boolean);
        rec.a = v.asBoolean() ? 1 : 0;
        break;
      case ValueKind::Text: {
        const std::string_view text = v.textView();
        rec.kind = uint64_t(RootKind::Text);
        rec.a = blob_.size();
        rec.b = text.size();
        blob_.append(text);
        break;
      }
      case ValueKind::ListRef:
        rec.kind = uint64_t(RootKind::List);
        rec.a = encodeList(v.asList());
        break;
      default:
        throw PurityError(std::string("cannot persist a ") +
                          blocks::valueKindName(v.kind()));
    }
    roots_.push_back(rec);
  }

  void write(SnapshotFileWriter& w) {
    w.beginSection(SectionId::ValueSlots, sizeof(Value), alignof(Value));
    if (!slots_.empty()) w.append(slots_.data(), slots_.size());
    w.endSection();
    w.writeArraySection(SectionId::Lists, lists_);
    std::sort(textPatches_.begin(), textPatches_.end(),
              [](const TextPatch& a, const TextPatch& b) {
                return a.slot < b.slot;
              });
    std::sort(listPatches_.begin(), listPatches_.end(),
              [](const ListPatch& a, const ListPatch& b) {
                return a.slot < b.slot;
              });
    w.writeArraySection(SectionId::TextPatches, textPatches_);
    w.writeArraySection(SectionId::ListPatches, listPatches_);
    w.writeBytesSection(SectionId::TextBlob, blob_.data(), blob_.size());
    w.writeArraySection(SectionId::Roots, roots_);
    coded_.write(w);
  }

  std::string& blob() { return blob_; }
  std::vector<RootRec>& roots() { return roots_; }

 private:
  uint64_t encodeList(const ListPtr& list) {
    const List* key = list.get();
    if (const auto it = seen_.find(key); it != seen_.end()) {
      // Shared sublist: on the active encode path it is a cycle (not
      // persistable); otherwise identity sharing is preserved.
      if (std::find(path_.begin(), path_.end(), key) != path_.end()) {
        throw PurityError("cannot persist a cyclic list");
      }
      return it->second;
    }
    const uint64_t index = lists_.size();
    seen_.emplace(key, index);
    const blocks::ItemSpan items = list->items();
    const uint64_t firstSlot = slotCount_;
    lists_.push_back(ListRec{firstSlot, items.size()});
    slotCount_ += items.size();
    slots_.resize(size_t(slotCount_) * sizeof(Value));
    // Inline-kind elements are imaged in place; patched elements (long
    // text, sublists) re-resolve their output address after recursion,
    // which may have grown (reallocated) slots_.
    path_.push_back(key);
    TextCoder coder;
    for (uint64_t i = 0; i < items.size(); ++i) {
      const uint64_t slot = firstSlot + i;
      const Value& v = items[size_t(i)];
      coder.add(v);
      switch (v.kind()) {
        case ValueKind::Nothing:
        case ValueKind::Number:
        case ValueKind::Boolean:
          normalizeSlot(v, slotAt(slot));
          break;
        case ValueKind::Text: {
          const std::string_view text = v.textView();
          if (text.size() <= kInlineTextCap) {
            normalizeSlot(v, slotAt(slot));
          } else {
            textPatches_.push_back(TextPatch{slot, blob_.size(), text.size()});
            blob_.append(text);
          }
          break;
        }
        case ValueKind::ListRef:
          listPatches_.push_back(ListPatch{slot, encodeList(v.asList())});
          break;
        default:
          throw PurityError(std::string("cannot persist a ") +
                            blocks::valueKindName(v.kind()));
      }
    }
    path_.pop_back();
    coder.finish(index, coded_);
    return index;
  }

  unsigned char* slotAt(uint64_t slot) {
    return slots_.data() + size_t(slot) * sizeof(Value);
  }

  std::vector<unsigned char> slots_;  // zero-filled by resize: patched
                                      // slots stay all-zero on disk
  uint64_t slotCount_ = 0;
  std::vector<ListRec> lists_;
  std::vector<TextPatch> textPatches_;
  std::vector<ListPatch> listPatches_;
  std::string blob_;
  std::vector<RootRec> roots_;
  CodedSections coded_;
  std::unordered_map<const List*, uint64_t> seen_;
  std::vector<const List*> path_;
};

// ---------------------------------------------------------------------------
// Decoder: mapping -> value tree (leaves alias, spines materialize)
// ---------------------------------------------------------------------------

[[noreturn]] void corruptTable(const char* what) {
  throw SubstrateError(std::string("snapshot open: corrupt ") + what);
}

struct Decoder {
  std::shared_ptr<Region> region;
  const Value* slots = nullptr;
  uint64_t slotCount = 0;
  const ListRec* lists = nullptr;
  uint64_t listCount = 0;
  const char* blob = nullptr;
  uint64_t blobSize = 0;
  const RootRec* roots = nullptr;
  uint64_t rootCount = 0;
  std::unordered_map<uint64_t, uint64_t> childAt;  // slot -> child list
  std::vector<bool> isSpine;
  std::vector<blocks::TextCoding> codingOf;  // per list
  std::vector<ListPtr> decoded;
  std::vector<uint8_t> inProgress;

  explicit Decoder(const std::string& path) : region(Region::map(path)) {
    slots = region->array<Value>(SectionId::ValueSlots, &slotCount);
    lists = region->array<ListRec>(SectionId::Lists, &listCount);
    blob = region->bytes(SectionId::TextBlob, &blobSize);
    roots = region->array<RootRec>(SectionId::Roots, &rootCount);

    for (uint64_t i = 0; i < listCount; ++i) {
      if (lists[i].firstSlot > slotCount ||
          lists[i].slotCount > slotCount - lists[i].firstSlot) {
        corruptTable("list table: slot range out of bounds");
      }
    }

    uint64_t textPatchCount = 0;
    const auto* textPatches =
        region->array<TextPatch>(SectionId::TextPatches, &textPatchCount);
    uint64_t listPatchCount = 0;
    const auto* listPatches =
        region->array<ListPatch>(SectionId::ListPatches, &listPatchCount);

    // Long-text fixups: placement-construct the text Value over its
    // zeroed slot, straight into the private mapping. Registered on the
    // region so the heap TextReps are released before munmap.
    if (textPatchCount > 0) {
      const SectionHeader* slotSection = region->section(SectionId::ValueSlots);
      auto* mutableSlots =
          reinterpret_cast<Value*>(region->mutableBase() + slotSection->offset);
      for (uint64_t i = 0; i < textPatchCount; ++i) {
        const TextPatch& p = textPatches[i];
        if (p.slot >= slotCount) corruptTable("text patch: slot out of bounds");
        if (p.offset > blobSize || p.length > blobSize - p.offset) {
          corruptTable("text patch: blob range out of bounds");
        }
        Value* v = new (mutableSlots + p.slot)
            Value(std::string_view(blob + p.offset, size_t(p.length)));
        region->registerFixup(v);
      }
    }

    isSpine.assign(size_t(listCount), false);
    if (listPatchCount > 0) {
      childAt.reserve(size_t(listPatchCount));
      std::vector<uint64_t> patchSlots;
      patchSlots.reserve(size_t(listPatchCount));
      for (uint64_t i = 0; i < listPatchCount; ++i) {
        const ListPatch& p = listPatches[i];
        if (p.slot >= slotCount) corruptTable("list patch: slot out of bounds");
        if (p.childList >= listCount) {
          corruptTable("list patch: child out of bounds");
        }
        childAt.emplace(p.slot, p.childList);
        patchSlots.push_back(p.slot);
      }
      std::sort(patchSlots.begin(), patchSlots.end());
      for (uint64_t i = 0; i < listCount; ++i) {
        const auto lo = std::lower_bound(patchSlots.begin(), patchSlots.end(),
                                         lists[i].firstSlot);
        isSpine[size_t(i)] =
            lo != patchSlots.end() &&
            *lo < lists[i].firstSlot + lists[i].slotCount;
      }
    }
    decodeCodings();
    decoded.assign(size_t(listCount), nullptr);
    inProgress.assign(size_t(listCount), 0);
  }

  /// Check every coded-list record and dictionary entry, and hand each
  /// coded leaf its coding. Codes are left for their reader to check
  /// (format.hpp): checking them here would read every code at open.
  void decodeCodings() {
    uint64_t recCount = 0;
    const auto* recs =
        region->array<CodedListRec>(SectionId::CodedLists, &recCount);
    uint64_t entryCount = 0;
    const auto* entries =
        region->array<uint32_t>(SectionId::DictEntries, &entryCount);
    uint64_t codeCount = 0;
    const auto* codes = region->array<uint32_t>(SectionId::Codes, &codeCount);
    codingOf.assign(size_t(listCount), {});
    for (uint64_t r = 0; r < recCount; ++r) {
      const CodedListRec& rec = recs[r];
      if (rec.list >= listCount || isSpine[size_t(rec.list)]) {
        corruptTable("coded list: not a leaf list");
      }
      if (!codingOf[size_t(rec.list)].empty()) {
        corruptTable("coded list: list coded twice");
      }
      if (rec.codeCount == 0 || rec.codeCount != lists[rec.list].slotCount) {
        corruptTable("coded list: code count differs from the list length");
      }
      if (rec.firstCode > codeCount ||
          rec.codeCount > codeCount - rec.firstCode) {
        corruptTable("coded list: codes out of bounds");
      }
      if (rec.firstEntry > entryCount ||
          rec.entryCount > entryCount - rec.firstEntry) {
        corruptTable("coded list: dictionary out of bounds");
      }
      const uint32_t* dictionary = entries + rec.firstEntry;
      for (uint64_t e = 0; e < rec.entryCount; ++e) {
        if (dictionary[e] >= rec.codeCount) {
          corruptTable("coded list: dictionary entry outside its list");
        }
      }
      codingOf[size_t(rec.list)] = {
          {codes + rec.firstCode, size_t(rec.codeCount)},
          {dictionary, size_t(rec.entryCount)}};
    }
  }

  ListPtr decodeList(uint64_t index) {
    if (decoded[size_t(index)]) return decoded[size_t(index)];
    const ListRec& rec = lists[index];
    if (!isSpine[size_t(index)]) {
      // Leaf: alias the mapping. flatShareable holds by construction —
      // the range has no list patches and rings are never persisted.
      decoded[size_t(index)] = List::makeMapped(
          slots + rec.firstSlot, size_t(rec.slotCount), region,
          /*flatShareable=*/true, codingOf[size_t(index)]);
      return decoded[size_t(index)];
    }
    if (inProgress[size_t(index)]) {
      corruptTable("list table: cycle");  // the encoder never writes one
    }
    inProgress[size_t(index)] = 1;
    ListPtr list = List::make();
    std::vector<Value>& items = list->mutableItems();
    items.reserve(size_t(rec.slotCount));
    for (uint64_t s = rec.firstSlot; s < rec.firstSlot + rec.slotCount; ++s) {
      if (const auto it = childAt.find(s); it != childAt.end()) {
        items.push_back(Value(decodeList(it->second)));
      } else {
        items.push_back(slots[s]);  // shares TextPtr for fixed-up slots
      }
    }
    inProgress[size_t(index)] = 0;
    decoded[size_t(index)] = std::move(list);
    return decoded[size_t(index)];
  }

  Value rootValue(const RootRec& rec) {
    switch (RootKind(rec.kind)) {
      case RootKind::Nothing:
        return Value();
      case RootKind::Number:
        return Value(rec.number);
      case RootKind::Boolean:
        return Value(rec.a != 0);
      case RootKind::Text:
        if (rec.a > blobSize || rec.b > blobSize - rec.a) {
          corruptTable("root: blob range out of bounds");
        }
        return Value(std::string_view(blob + rec.a, size_t(rec.b)));
      case RootKind::List:
        if (rec.a >= listCount) corruptTable("root: list out of bounds");
        return Value(decodeList(rec.a));
    }
    corruptTable("root: unknown kind");
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Dataset API
// ---------------------------------------------------------------------------

void saveValue(const std::string& path, const Value& root) {
  Encoder encoder;
  encoder.addRoot(root);  // encode first: purity errors precede file I/O
  SnapshotFileWriter writer(path, SnapshotKind::Dataset);
  encoder.write(writer);
  writer.commit();
}

Value loadValue(const std::string& path) {
  Decoder decoder(path);
  if (decoder.region->kind() != SnapshotKind::Dataset) {
    throw SubstrateError("snapshot open (" + path +
                         "): expected a dataset snapshot");
  }
  if (decoder.rootCount != 1) {
    corruptTable("root table: dataset must have exactly one root");
  }
  return decoder.rootValue(decoder.roots[0]);
}

void saveList(const std::string& path, const ListPtr& list) {
  saveValue(path, Value(list));
}

ListPtr loadList(const std::string& path) {
  Value root = loadValue(path);
  if (!root.isList()) {
    throw SubstrateError("snapshot open (" + path +
                         "): root is not a list");
  }
  return root.asList();
}

// ---------------------------------------------------------------------------
// DatasetWriter (streaming)
// ---------------------------------------------------------------------------

DatasetWriter::DatasetWriter(std::string path)
    : writer_(std::make_unique<SnapshotFileWriter>(std::move(path),
                                                   SnapshotKind::Dataset)),
      coder_(std::make_unique<TextCoder>()) {
  writer_->beginSection(SectionId::ValueSlots, sizeof(Value), alignof(Value));
}

DatasetWriter::~DatasetWriter() = default;

void DatasetWriter::append(const Value& item) {
  switch (item.kind()) {
    case ValueKind::Nothing:
    case ValueKind::Number:
    case ValueKind::Boolean:
      writer_->appendValueSlot(item);
      break;
    case ValueKind::Text: {
      const std::string_view text = item.textView();
      if (text.size() <= kInlineTextCap) {
        writer_->appendValueSlot(item);
      } else {
        writer_->appendZeroSlot();
        textPatches_.push_back(TextPatch{count_, blob_.size(), text.size()});
        blob_.append(text);
      }
      break;
    }
    default:
      throw PurityError(std::string("dataset rows must be scalar, not ") +
                        blocks::valueKindName(item.kind()));
  }
  coder_->add(item);
  ++count_;
}

void DatasetWriter::appendNumber(double number) {
  const Value item(number);
  writer_->appendValueSlot(item);
  coder_->add(item);
  ++count_;
}

void DatasetWriter::commit() {
  if (committed_) return;
  writer_->endSection();
  std::vector<ListRec> lists{ListRec{0, count_}};
  writer_->writeArraySection(SectionId::Lists, lists);
  writer_->writeArraySection(SectionId::TextPatches, textPatches_);
  writer_->writeBytesSection(SectionId::TextBlob, blob_.data(), blob_.size());
  RootRec root;
  root.kind = uint64_t(RootKind::List);
  std::vector<RootRec> roots{root};
  writer_->writeArraySection(SectionId::Roots, roots);
  CodedSections coded;
  coder_->finish(0, coded);
  coded.write(*writer_);
  writer_->commit();
  committed_ = true;
}

// ---------------------------------------------------------------------------
// Project snapshots
// ---------------------------------------------------------------------------

void saveProjectImage(const std::string& path, const ProjectImage& image) {
  Encoder encoder;
  std::string names;
  std::vector<VarRec> table;
  table.reserve(image.vars.size());
  for (const ProjectImage::Var& var : image.vars) {
    VarRec rec;
    rec.owner = var.owner;
    rec.nameOffset = names.size();
    rec.nameLength = var.name.size();
    rec.rootIndex = encoder.roots().size();
    names.append(var.name);
    encoder.addRoot(var.value);
    table.push_back(rec);
  }
  SnapshotFileWriter writer(path, SnapshotKind::Project);
  encoder.write(writer);
  writer.writeBytesSection(SectionId::Names, names.data(), names.size());
  writer.writeArraySection(SectionId::VarTable, table);
  writer.writeBytesSection(SectionId::Xml, image.xml.data(),
                           image.xml.size());
  writer.commit();
}

ProjectImage loadProjectImage(const std::string& path) {
  Decoder decoder(path);
  if (decoder.region->kind() != SnapshotKind::Project) {
    throw SubstrateError("snapshot open (" + path +
                         "): expected a project snapshot");
  }
  uint64_t namesSize = 0;
  const char* names = decoder.region->bytes(SectionId::Names, &namesSize);
  uint64_t varCount = 0;
  const auto* table =
      decoder.region->array<VarRec>(SectionId::VarTable, &varCount);
  uint64_t xmlSize = 0;
  const char* xml = decoder.region->bytes(SectionId::Xml, &xmlSize);

  ProjectImage image;
  image.xml.assign(xml ? xml : "", size_t(xmlSize));
  image.vars.reserve(size_t(varCount));
  for (uint64_t i = 0; i < varCount; ++i) {
    const VarRec& rec = table[i];
    if (rec.nameOffset > namesSize ||
        rec.nameLength > namesSize - rec.nameOffset) {
      corruptTable("variable table: name out of bounds");
    }
    if (rec.rootIndex >= decoder.rootCount) {
      corruptTable("variable table: root out of bounds");
    }
    ProjectImage::Var var;
    var.owner = rec.owner;
    var.name.assign(names + rec.nameOffset, size_t(rec.nameLength));
    var.value = decoder.rootValue(decoder.roots[rec.rootIndex]);
    image.vars.push_back(std::move(var));
  }
  return image;
}

SnapshotInfo inspect(const std::string& path) {
  const auto region = Region::map(path);
  SnapshotInfo info;
  info.kind = region->kind();
  info.fileBytes = region->header().fileBytes;
  if (const SectionHeader* s = region->section(SectionId::ValueSlots)) {
    info.slots = s->block.num_entries;
  }
  if (const SectionHeader* s = region->section(SectionId::Lists)) {
    info.lists = s->block.num_entries;
  }
  return info;
}

}  // namespace psnap::persist
