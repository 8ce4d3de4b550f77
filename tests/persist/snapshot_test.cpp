// Unit tests for the zero-copy persistence layer: round trips, mapped
// aliasing, COW preservation, writer atomicity, corrupt-file rejection,
// dictionary-coded text lists, and the shared-open catalog.
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/block.hpp"
#include "blocks/value.hpp"
#include "persist/catalog.hpp"
#include "persist/file.hpp"
#include "persist/snapshot.hpp"
#include "support/error.hpp"

namespace psnap::persist {
namespace {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("psnap-persist-" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    clearSharedOpens();
  }
  void TearDown() override {
    clearSharedOpens();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotTest, FlatNumbersRoundTripMapped) {
  auto list = List::make();
  for (int i = 0; i < 1000; ++i) list->add(Value(i * 0.5));
  saveList(path("n.psnap"), list);

  ListPtr loaded = loadList(path("n.psnap"));
  ASSERT_TRUE(loaded->mappedBuffer());
  ASSERT_EQ(loaded->length(), 1000u);
  EXPECT_EQ(loaded->item(1).asNumber(), 0.0);
  EXPECT_EQ(loaded->item(1000).asNumber(), 999 * 0.5);
  EXPECT_TRUE(loaded->deepEquals(*list));
}

TEST_F(SnapshotTest, MixedScalarsRoundTrip) {
  const std::string longText(200, 'x');
  auto list = List::make({Value(), Value(2.5), Value(true), Value(false),
                          Value("short"), Value(longText),
                          Value("exactly15bytes!")});
  saveList(path("m.psnap"), list);

  ListPtr loaded = loadList(path("m.psnap"));
  ASSERT_TRUE(loaded->mappedBuffer());  // texts are not sublists
  ASSERT_EQ(loaded->length(), 7u);
  EXPECT_TRUE(loaded->item(1).isNothing());
  EXPECT_EQ(loaded->item(2).asNumber(), 2.5);
  EXPECT_TRUE(loaded->item(3).asBoolean());
  EXPECT_FALSE(loaded->item(4).asBoolean());
  EXPECT_EQ(loaded->item(5).asText(), "short");
  EXPECT_EQ(loaded->item(6).asText(), longText);
  EXPECT_EQ(loaded->item(7).asText(), "exactly15bytes!");
  EXPECT_TRUE(loaded->deepEquals(*list));
}

TEST_F(SnapshotTest, NestedSpinesMaterializeLeavesAlias) {
  auto leafA = List::make({Value(1), Value(2), Value(3)});
  auto leafB = List::make({Value("deep"), Value(std::string(100, 'y'))});
  auto mid = List::make({Value(leafB), Value(42)});
  auto root = List::make({Value(leafA), Value(mid), Value("tail")});
  saveList(path("nest.psnap"), root);

  ListPtr loaded = loadList(path("nest.psnap"));
  EXPECT_FALSE(loaded->mappedBuffer());  // spine: owned
  EXPECT_TRUE(loaded->item(1).asList()->mappedBuffer());   // leafA
  EXPECT_FALSE(loaded->item(2).asList()->mappedBuffer());  // mid is a spine
  EXPECT_TRUE(
      loaded->item(2).asList()->item(1).asList()->mappedBuffer());  // leafB
  EXPECT_TRUE(loaded->deepEquals(*root));
}

TEST_F(SnapshotTest, SharedSublistsKeepIdentity) {
  auto shared = List::make({Value(7)});
  auto root = List::make({Value(shared), Value(shared)});
  saveList(path("shared.psnap"), root);

  ListPtr loaded = loadList(path("shared.psnap"));
  EXPECT_EQ(loaded->item(1).asList().get(), loaded->item(2).asList().get());
}

TEST_F(SnapshotTest, ScalarRootsRoundTrip) {
  saveValue(path("num.psnap"), Value(6.25));
  EXPECT_EQ(loadValue(path("num.psnap")).asNumber(), 6.25);

  saveValue(path("text.psnap"), Value(std::string(500, 'z')));
  EXPECT_EQ(loadValue(path("text.psnap")).asText(), std::string(500, 'z'));

  saveValue(path("none.psnap"), Value());
  EXPECT_TRUE(loadValue(path("none.psnap")).isNothing());

  saveValue(path("flag.psnap"), Value(true));
  EXPECT_TRUE(loadValue(path("flag.psnap")).asBoolean());

  EXPECT_THROW(loadList(path("num.psnap")), SubstrateError);
}

TEST_F(SnapshotTest, CyclesAndRingsRejectedBeforeTouchingDisk) {
  auto cyclic = List::make({Value(1)});
  cyclic->add(Value(cyclic));
  EXPECT_THROW(saveList(path("cyc.psnap"), cyclic), PurityError);

  auto expr = blocks::Block::make("reportIdentity", {blocks::Input::empty()});
  auto withRing = List::make({Value(blocks::Ring::reporter(expr))});
  EXPECT_THROW(saveList(path("ring.psnap"), withRing), PurityError);

  // Purity failures precede file creation: nothing appears on disk.
  EXPECT_FALSE(std::filesystem::exists(path("cyc.psnap")));
  EXPECT_FALSE(std::filesystem::exists(path("ring.psnap")));
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(SnapshotTest, MutationCopiesOutOfTheMapping) {
  auto list = List::make({Value(1), Value(2), Value(3)});
  saveList(path("cow.psnap"), list);

  ListPtr loaded = loadList(path("cow.psnap"));
  ASSERT_TRUE(loaded->mappedBuffer());
  loaded->add(Value(4));
  EXPECT_FALSE(loaded->mappedBuffer());
  EXPECT_EQ(loaded->length(), 4u);
  EXPECT_EQ(loaded->item(1).asNumber(), 1.0);

  // A fresh load still sees the original bytes.
  ListPtr again = loadList(path("cow.psnap"));
  EXPECT_EQ(again->length(), 3u);
}

TEST_F(SnapshotTest, StructuredCloneSharesTheMappedBuffer) {
  auto list = List::make({Value(1), Value("two"), Value(3)});
  saveList(path("clone.psnap"), list);

  ListPtr loaded = loadList(path("clone.psnap"));
  Value clone = Value(loaded).structuredClone();
  EXPECT_TRUE(clone.asList()->mappedBuffer());
  EXPECT_TRUE(clone.asList()->sharesBufferWith(*loaded));

  // Mutating either side detaches only that side.
  clone.asList()->replaceAt(1, Value(99));
  EXPECT_TRUE(loaded->mappedBuffer());
  EXPECT_EQ(loaded->item(1).asNumber(), 1.0);
  EXPECT_EQ(clone.asList()->item(1).asNumber(), 99.0);
}

TEST_F(SnapshotTest, MappingSurvivesFileDeletion) {
  auto list = List::make({Value(5), Value(std::string(300, 'k'))});
  saveList(path("gone.psnap"), list);

  ListPtr loaded = loadList(path("gone.psnap"));
  std::filesystem::remove(path("gone.psnap"));
  // The mapping holds its own reference to the inode.
  EXPECT_EQ(loaded->item(1).asNumber(), 5.0);
  EXPECT_EQ(loaded->item(2).asText(), std::string(300, 'k'));
}

TEST_F(SnapshotTest, DatasetWriterStreamsAndRoundTrips) {
  const std::string longText(64, 'w');
  {
    DatasetWriter writer(path("stream.psnap"));
    for (int i = 0; i < 5000; ++i) writer.appendNumber(i);
    writer.append(Value("inline"));
    writer.append(Value(longText));
    writer.append(Value(true));
    writer.append(Value());
    EXPECT_EQ(writer.count(), 5004u);
    writer.commit();
  }
  ListPtr loaded = loadList(path("stream.psnap"));
  ASSERT_TRUE(loaded->mappedBuffer());
  ASSERT_EQ(loaded->length(), 5004u);
  EXPECT_EQ(loaded->item(5000).asNumber(), 4999.0);
  EXPECT_EQ(loaded->item(5001).asText(), "inline");
  EXPECT_EQ(loaded->item(5002).asText(), longText);
  EXPECT_TRUE(loaded->item(5003).asBoolean());
  EXPECT_TRUE(loaded->item(5004).isNothing());
}

/// Every item's code names the entry whose item has exactly its text, and
/// the entries are the first items of each distinct text, in order.
void expectCodingOf(const List& list, size_t distinct) {
  const blocks::TextCoding coding = list.coding();
  ASSERT_EQ(coding.codes.size(), list.length());
  ASSERT_EQ(coding.entries.size(), distinct);
  const blocks::ItemSpan items = list.items();
  uint32_t next = 0;  // the next code to appear first
  for (size_t i = 0; i < items.size(); ++i) {
    const uint32_t code = coding.codes[i];
    ASSERT_LT(code, coding.entries.size());
    EXPECT_EQ(items[coding.entries[code]].textView(), items[i].textView());
    if (code == next) {
      EXPECT_EQ(coding.entries[code], i);
      ++next;
    } else {
      EXPECT_LT(code, next);
    }
  }
  EXPECT_EQ(next, distinct);
}

// The coding rule: every leaf list with at least one item whose items
// are all text is coded, one entry per exact text ("The" and "the" apart,
// long text by its bytes); a list with any other item, an empty list and
// a spine are not. saveList and DatasetWriter code alike.
TEST_F(SnapshotTest, AllTextLeafListsLoadDictionaryCoded) {
  const std::string longText(40, 'x');
  auto words = List::make({Value("the"), Value("The"), Value("the"),
                           Value(longText), Value(""), Value(longText),
                           Value("1"), Value("1.0"), Value("")});
  saveList(path("words.psnap"), words);
  ListPtr loaded = loadList(path("words.psnap"));
  ASSERT_TRUE(loaded->mappedBuffer());
  expectCodingOf(*loaded, 6);
  {
    DatasetWriter writer(path("streamed.psnap"));
    for (const Value& item : words->items()) writer.append(item);
    writer.commit();
  }
  expectCodingOf(*loadList(path("streamed.psnap")), 6);

  saveList(path("mixed.psnap"), List::make({Value("a"), Value(1)}));
  EXPECT_TRUE(loadList(path("mixed.psnap"))->coding().empty());
  {
    DatasetWriter writer(path("numbers.psnap"));
    writer.append(Value("a"));
    writer.appendNumber(2);
    writer.append(Value("a"));
    writer.commit();
  }
  EXPECT_TRUE(loadList(path("numbers.psnap"))->coding().empty());
  saveList(path("empty.psnap"), List::make());
  EXPECT_TRUE(loadList(path("empty.psnap"))->coding().empty());

  // A spine is never coded; its all-text leaves are.
  auto nested = List::make({Value(List::make({Value("x"), Value("y"),
                                              Value("x")})),
                            Value("z")});
  saveList(path("nested.psnap"), nested);
  ListPtr spine = loadList(path("nested.psnap"));
  EXPECT_TRUE(spine->coding().empty());
  expectCodingOf(*spine->item(1).asList(), 2);
}

// Clones share the buffer and so its coding; any mutation goes through
// the detach gate, whose copy carries none. The mutated list keeps every
// item the mutation did not touch.
TEST_F(SnapshotTest, MutationDropsTheCodingClonesShareIt) {
  auto words = List::make({Value("a"), Value("b"), Value("a"), Value("c")});
  saveList(path("codes.psnap"), words);
  ListPtr loaded = loadList(path("codes.psnap"));
  ASSERT_FALSE(loaded->coding().empty());
  Value clone = Value(loaded).structuredClone();
  EXPECT_EQ(clone.asList()->coding().codes.data(),
            loaded->coding().codes.data());

  const auto mutations = std::vector<std::function<void(List&)>>{
      [](List& l) { l.add(Value("d")); },
      [](List& l) { l.replaceAt(2, Value("a")); },
      [](List& l) { l.removeAt(1); },
      [](List& l) { l.insertAt(1, Value("z")); },
      [](List& l) { l.mutableItems(); },
      [](List& l) { l.clear(); }};
  for (const auto& mutate : mutations) {
    ListPtr copy = Value(loaded).structuredClone().asList();
    ASSERT_FALSE(copy->coding().empty());
    mutate(*copy);
    EXPECT_TRUE(copy->coding().empty());
    EXPECT_FALSE(loaded->coding().empty());
  }
  EXPECT_FALSE(clone.asList()->coding().empty());
}

TEST_F(SnapshotTest, DatasetWriterRejectsNonScalars) {
  DatasetWriter writer(path("bad.psnap"));
  EXPECT_THROW(writer.append(Value(List::make({Value(1)}))), PurityError);
}

TEST_F(SnapshotTest, AbandonedWriterLeavesNoFile) {
  {
    DatasetWriter writer(path("never.psnap"));
    writer.appendNumber(1);
    // no commit
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir_));  // no temp leftovers either
}

TEST_F(SnapshotTest, MissingAndCorruptFilesRaiseSubstrateError) {
  EXPECT_THROW(loadList(path("absent.psnap")), SubstrateError);

  // Not a snapshot at all.
  std::ofstream(path("junk.psnap")) << "hello world";
  EXPECT_THROW(loadList(path("junk.psnap")), SubstrateError);

  auto list = List::make({Value(1), Value(2)});
  saveList(path("ok.psnap"), list);

  // Truncated: recorded size no longer matches.
  std::filesystem::copy_file(path("ok.psnap"), path("trunc.psnap"));
  std::filesystem::resize_file(
      path("trunc.psnap"), std::filesystem::file_size(path("trunc.psnap")) / 2);
  EXPECT_THROW(loadList(path("trunc.psnap")), SubstrateError);

  // Bad magic.
  std::filesystem::copy_file(path("ok.psnap"), path("magic.psnap"));
  {
    std::fstream f(path("magic.psnap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');
  }
  EXPECT_THROW(loadList(path("magic.psnap")), SubstrateError);

  // Corrupt header field: self-check mismatch.
  std::filesystem::copy_file(path("ok.psnap"), path("hdr.psnap"));
  {
    std::fstream f(path("hdr.psnap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(offsetof(FileHeader, sectionCount));
    f.put(char(0x7f));
  }
  EXPECT_THROW(loadList(path("hdr.psnap")), SubstrateError);

  // The good file still loads after all that.
  EXPECT_EQ(loadList(path("ok.psnap"))->length(), 2u);
}

TEST_F(SnapshotTest, ProjectImageRoundTrip) {
  ProjectImage image;
  image.xml = "<project name=\"p\"><stage/></project>";
  image.vars.push_back({0, "score", Value(41.0)});
  image.vars.push_back({0, "rows",
                        Value(List::make({Value(1), Value(2), Value(3)}))});
  image.vars.push_back({1, "greeting", Value(std::string(80, 'g'))});
  image.vars.push_back({2, "flag", Value(false)});
  saveProjectImage(path("p.psnap"), image);

  ProjectImage loaded = loadProjectImage(path("p.psnap"));
  EXPECT_EQ(loaded.xml, image.xml);
  ASSERT_EQ(loaded.vars.size(), 4u);
  EXPECT_EQ(loaded.vars[0].owner, 0u);
  EXPECT_EQ(loaded.vars[0].name, "score");
  EXPECT_EQ(loaded.vars[0].value.asNumber(), 41.0);
  EXPECT_EQ(loaded.vars[1].name, "rows");
  EXPECT_TRUE(loaded.vars[1].value.asList()->mappedBuffer());
  EXPECT_TRUE(loaded.vars[1].value.asList()->deepEquals(
      *image.vars[1].value.asList()));
  EXPECT_EQ(loaded.vars[2].owner, 1u);
  EXPECT_EQ(loaded.vars[2].value.asText(), std::string(80, 'g'));
  EXPECT_FALSE(loaded.vars[3].value.asBoolean());

  // Kind checks both ways.
  EXPECT_THROW(loadValue(path("p.psnap")), SubstrateError);
  saveValue(path("d.psnap"), Value(1.0));
  EXPECT_THROW(loadProjectImage(path("d.psnap")), SubstrateError);
}

TEST_F(SnapshotTest, InspectReportsShape) {
  auto list = List::make({Value(1), Value(2), Value(3)});
  saveList(path("i.psnap"), list);
  const SnapshotInfo info = inspect(path("i.psnap"));
  EXPECT_EQ(info.kind, SnapshotKind::Dataset);
  EXPECT_EQ(info.slots, 3u);
  EXPECT_EQ(info.lists, 1u);
  EXPECT_EQ(info.fileBytes, std::filesystem::file_size(path("i.psnap")));
}

TEST_F(SnapshotTest, CatalogSharesOneMappingAcrossOpens) {
  auto list = List::make({Value(10), Value(20)});
  saveList(path("cat.psnap"), list);

  ListPtr a = openSharedList(path("cat.psnap"));
  ListPtr b = openSharedList(path("cat.psnap"));
  EXPECT_NE(a.get(), b.get());  // never the same mutable node
  EXPECT_TRUE(a->sharesBufferWith(*b));
  EXPECT_TRUE(a->mappedBuffer());
  EXPECT_EQ(sharedOpenCount(), 1u);

  // One reader's mutation is invisible to the other and to later opens.
  a->replaceAt(1, Value(99));
  EXPECT_EQ(b->item(1).asNumber(), 10.0);
  ListPtr c = openSharedList(path("cat.psnap"));
  EXPECT_EQ(c->item(1).asNumber(), 10.0);
  EXPECT_TRUE(c->sharesBufferWith(*b));

  EXPECT_TRUE(releaseSharedOpen(path("cat.psnap")));
  EXPECT_FALSE(releaseSharedOpen(path("cat.psnap")));
  EXPECT_EQ(sharedOpenCount(), 0u);
  // Released entry: readers still work, next open remaps.
  EXPECT_EQ(b->item(2).asNumber(), 20.0);
  ListPtr d = openSharedList(path("cat.psnap"));
  EXPECT_EQ(d->item(1).asNumber(), 10.0);
  EXPECT_FALSE(d->sharesBufferWith(*b));
}

TEST_F(SnapshotTest, EmptyAndEdgeShapes) {
  saveList(path("empty.psnap"), List::make());
  EXPECT_EQ(loadList(path("empty.psnap"))->length(), 0u);

  auto emptyChild = List::make({Value(List::make()), Value(1)});
  saveList(path("ec.psnap"), emptyChild);
  ListPtr loaded = loadList(path("ec.psnap"));
  EXPECT_EQ(loaded->item(1).asList()->length(), 0u);
  EXPECT_EQ(loaded->item(2).asNumber(), 1.0);

  ProjectImage bare;
  saveProjectImage(path("bare.psnap"), bare);
  ProjectImage back = loadProjectImage(path("bare.psnap"));
  EXPECT_TRUE(back.xml.empty());
  EXPECT_TRUE(back.vars.empty());
}

// ---- orphaned-temp sweep (the abnormal-exit leak fix) ----------------

namespace {
/// A pid that is guaranteed dead: fork a child that exits immediately
/// and reap it. Until the pid is recycled (practically never within a
/// test) kill(pid, 0) returns ESRCH.
pid_t deadPid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

void touch(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out << "stale";
}
}  // namespace

TEST_F(SnapshotTest, SweepRemovesOnlyDeadWritersTemps) {
  const pid_t dead = deadPid();
  ASSERT_GT(dead, 0);
  touch(path("a.psnap.tmp." + std::to_string(dead)));       // orphan
  touch(path("b.psnap.tmp." + std::to_string(::getpid()))); // live writer
  touch(path("c.psnap"));                                   // committed
  touch(path("d.psnap.tmp.notapid"));                       // not a stage

  EXPECT_EQ(sweepOrphanedTemps(dir_.string()), 1u);
  EXPECT_FALSE(std::filesystem::exists(
      path("a.psnap.tmp." + std::to_string(dead))));
  EXPECT_TRUE(std::filesystem::exists(
      path("b.psnap.tmp." + std::to_string(::getpid()))));
  EXPECT_TRUE(std::filesystem::exists(path("c.psnap")));
  EXPECT_TRUE(std::filesystem::exists(path("d.psnap.tmp.notapid")));

  EXPECT_EQ(sweepOrphanedTemps(dir_.string()), 0u);  // idempotent
  EXPECT_EQ(sweepOrphanedTemps((dir_ / "no-such-subdir").string()), 0u);
}

TEST_F(SnapshotTest, CatalogOpenSweepsItsDirectory) {
  auto list = List::make({Value(1), Value(2), Value(3)});
  saveList(path("data.psnap"), list);
  const std::string orphan =
      path("data.psnap.tmp." + std::to_string(deadPid()));
  touch(orphan);

  ListPtr opened = openSharedList(path("data.psnap"));
  EXPECT_EQ(opened->length(), 3u);
  // The open path swept the directory as a side effect.
  EXPECT_FALSE(std::filesystem::exists(orphan));
}

}  // namespace
}  // namespace psnap::persist
