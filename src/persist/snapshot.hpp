// Typed-block snapshots of Snap! values and whole projects.
//
// Write side: two paths share one file format. `saveValue` /
// `saveProjectImage` encode an in-memory value tree — lists deduplicated
// by identity (shared sublists stay shared after a round trip), cycles
// and rings rejected with PurityError, every slot a normalized raw
// `blocks::Value` image. `DatasetWriter` streams a single flat list one
// element at a time, so a 100M-row dataset never materializes as Values.
// Both paths dictionary-code every all-text leaf list (format.hpp) through
// one routine.
//
// Read side: `loadValue` / `loadList` mmap the file (persist/file.hpp)
// and rebuild the roots in O(pages touched), not O(items):
//
//   * a *leaf* list (no sublists — every dataset) becomes a mapped-buffer
//     List aliasing its slot range in the mapping directly; nothing is
//     copied, no page is read until a query touches it;
//   * long-text slots are patched by placement-constructing the text
//     Value into the (MAP_PRIVATE) mapping — one private page per
//     patched slot, still no parse;
//   * a *spine* list (one that contains sublists) is materialized as an
//     owned buffer whose ListRef elements point at the decoded children.
//     Spines are never mapped, so a shared mapped buffer is always
//     sublist-free — the exact invariant the COW value plane's O(1)
//     snapshotClone relies on (DESIGN.md, "Value plane").
//
// Loaded lists are ordinary Lists in every observable way: mutation
// copies the buffer out first (the detach gate), transfer and
// structuredClone share it O(1), and the mapping lives exactly as long
// as the last buffer aliasing it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blocks/value.hpp"
#include "persist/format.hpp"

namespace psnap::persist {

class SnapshotFileWriter;
class TextCoder;

/// Writes `root` (any transferable value tree) as a dataset snapshot.
/// Atomic: the file appears only complete. Throws PurityError for rings,
/// futures, or cyclic lists; SubstrateError for I/O failures.
void saveValue(const std::string& path, const blocks::Value& root);

/// Opens a dataset snapshot; list values alias the mapping as described
/// above. Throws SubstrateError for missing/truncated/corrupt/foreign
/// files.
blocks::Value loadValue(const std::string& path);

/// Convenience wrappers for list-rooted datasets. loadList throws
/// SubstrateError if the snapshot's root is not a list.
void saveList(const std::string& path, const blocks::ListPtr& list);
blocks::ListPtr loadList(const std::string& path);

/// Streams one flat list to a dataset snapshot. Elements must be scalar —
/// nothing, number, boolean, or text; a sublist, ring, or future throws
/// PurityError. Nothing is observable at `path` until commit().
///
/// Memory: slots stream straight to the file, so a list with a non-text
/// row holds only its long-text blob. While every row so far is text, the
/// list's coding is held too, until commit writes it: 4 bytes per row
/// for its code, plus, per distinct text, its bytes, a hash-map node and
/// a 4-byte dictionary entry. The first non-text row frees the coding.
class DatasetWriter {
 public:
  explicit DatasetWriter(std::string path);
  ~DatasetWriter();
  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  void append(const blocks::Value& item);
  /// Fast path for numeric datasets: no kind dispatch per element.
  void appendNumber(double number);

  uint64_t count() const { return count_; }

  /// Finishes the slot stream, writes the tables, and atomically
  /// publishes the file.
  void commit();

 private:
  std::unique_ptr<SnapshotFileWriter> writer_;
  std::unique_ptr<TextCoder> coder_;
  std::vector<TextPatch> textPatches_;
  std::string blob_;
  uint64_t count_ = 0;
  bool committed_ = false;
};

/// The persistable image of a project: its XML skeleton (scripts, sprite
/// structure — everything but variable values) plus every variable's
/// value as a tree. `owner` 0 is the project globals scope; 1+n is the
/// nth sprite in XML order.
struct ProjectImage {
  struct Var {
    uint64_t owner = 0;
    std::string name;
    blocks::Value value;
  };
  std::string xml;
  std::vector<Var> vars;
};

/// Writes a project snapshot. Same atomicity and error contract as
/// saveValue; variable values that are rings are skipped by the caller
/// (projects store them in the XML skeleton instead).
void saveProjectImage(const std::string& path, const ProjectImage& image);

/// Opens a project snapshot. Variable list values alias the mapping
/// exactly as dataset loads do.
ProjectImage loadProjectImage(const std::string& path);

/// Cheap header-only probe (no section decode): what kind of snapshot a
/// file is and how big its value plane is. For tools, tests, and the
/// serve layer's catalog listing.
struct SnapshotInfo {
  SnapshotKind kind = SnapshotKind::Dataset;
  uint64_t slots = 0;      ///< ValueSlots entries
  uint64_t lists = 0;      ///< Lists entries
  uint64_t fileBytes = 0;
};
SnapshotInfo inspect(const std::string& path);

}  // namespace psnap::persist
