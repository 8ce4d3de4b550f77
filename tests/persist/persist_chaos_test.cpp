// Chaos suite for the persistence layer: the SnapshotWriteFailure and
// MmapFailure fault points fire as typed SubstrateErrors, failed writes
// leave nothing on disk (temp-and-rename atomicity), failed maps leave
// nothing mapped, and a seeded sweep shows every outcome is all-or-
// nothing: a path either holds a complete, loadable snapshot or no file
// at all. Corrupt coded-list sections and old-version headers end in
// typed errors too.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/value.hpp"
#include "mapreduce/engine.hpp"
#include "persist/format.hpp"
#include "persist/snapshot.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace psnap::persist {
namespace {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;

std::filesystem::path makeDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() / ("psnap-pchaos-" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

size_t fileCount(const std::filesystem::path& dir) {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++n;
  }
  return n;
}

ListPtr sampleList(size_t n) {
  auto list = List::make();
  for (size_t i = 0; i < n; ++i) list->add(Value(double(i) * 0.5));
  return list;
}

class PersistChaos : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm(); }
  void TearDown() override { fault::disarm(); }
};

TEST_F(PersistChaos, WriteFaultIsTypedAndLeavesNoFile) {
  const auto dir = makeDir("write");
  const std::string path = (dir / "doomed.psnap").string();
  fault::ScopedFault armed({.seed = 7,
                            .rateNumerator = 1,
                            .rateDenominator = 1,
                            .pointMask =
                                fault::maskOf(fault::Point::SnapshotWriteFailure)});
  try {
    saveList(path, sampleList(100));
    FAIL() << "expected SubstrateError";
  } catch (const SubstrateError&) {
    const ErrorClass errorClass = classifyError(std::current_exception());
    EXPECT_EQ(errorClass, ErrorClass::Substrate);
    EXPECT_TRUE(isRetryableClass(errorClass));
  }
  EXPECT_GT(fault::firedCount(fault::Point::SnapshotWriteFailure), 0u);
  // No snapshot, no temp file: the writer stages and renames, and the
  // staged file is unlinked on every failure path.
  EXPECT_EQ(fileCount(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(PersistChaos, MapFaultIsTypedAndRecoversOnDisarm) {
  const auto dir = makeDir("map");
  const std::string path = (dir / "ok.psnap").string();
  ListPtr original = sampleList(64);
  saveList(path, original);

  {
    fault::ScopedFault armed({.seed = 11,
                              .rateNumerator = 1,
                              .rateDenominator = 1,
                              .pointMask =
                                  fault::maskOf(fault::Point::MmapFailure)});
    try {
      loadList(path);
      FAIL() << "expected SubstrateError";
    } catch (const SubstrateError&) {
      EXPECT_EQ(classifyError(std::current_exception()),
                ErrorClass::Substrate);
    }
    EXPECT_GT(fault::firedCount(fault::Point::MmapFailure), 0u);
  }
  // The fault is transient infrastructure failure: once it clears, the
  // same path loads intact.
  ListPtr loaded = loadList(path);
  EXPECT_TRUE(loaded->deepEquals(*original));
  std::filesystem::remove_all(dir);
}

TEST_F(PersistChaos, SeededWriteSweepIsAllOrNothing) {
  const auto dir = makeDir("sweep");
  ListPtr original = sampleList(40);
  int failures = 0;
  int successes = 0;
  for (int i = 0; i < 24; ++i) {
    const std::string path =
        (dir / ("s" + std::to_string(i) + ".psnap")).string();
    // One save evaluates the point several times (open, each section,
    // commit); 1/8 per draw leaves both outcomes common across seeds.
    fault::ScopedFault armed(
        {.seed = uint64_t(i) + 1,
         .rateNumerator = 1,
         .rateDenominator = 8,
         .pointMask = fault::maskOf(fault::Point::SnapshotWriteFailure)});
    try {
      saveList(path, original);
      ++successes;
    } catch (const SubstrateError&) {
      ++failures;
      // All-or-nothing: the doomed path holds no file, partial or
      // otherwise.
      EXPECT_FALSE(std::filesystem::exists(path));
    }
  }
  // The 1/3 rate over this many trials fires both ways.
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
  // Every survivor is complete and loadable.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ListPtr loaded = loadList(entry.path().string());
    EXPECT_TRUE(loaded->deepEquals(*original)) << entry.path();
  }
  EXPECT_EQ(fileCount(dir), size_t(successes));
  std::filesystem::remove_all(dir);
}

TEST_F(PersistChaos, StreamingWriterFaultAbandonsTheTempFile) {
  const auto dir = makeDir("stream");
  const std::string path = (dir / "rows.psnap").string();
  fault::Config config{.seed = 3,
                       .rateNumerator = 1,
                       .rateDenominator = 1,
                       .pointMask =
                           fault::maskOf(fault::Point::SnapshotWriteFailure)};
  // Arm only at commit time: the rows stream cleanly, then the final
  // flush dies. The staged temp file must be unlinked once the writer
  // winds down (its destructor abandons anything uncommitted).
  {
    DatasetWriter writer(path);
    for (int i = 0; i < 1000; ++i) writer.appendNumber(double(i));
    fault::ScopedFault armed(config);
    EXPECT_THROW(writer.commit(), SubstrateError);
  }
  EXPECT_EQ(fileCount(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(PersistChaos, CorruptFilesAreTypedNotCrashes) {
  // Beyond the injected faults, the reader's validation layer turns every
  // malformed input into the same typed SubstrateError: these paths run
  // under asan in the chaos leg, so a validator that over-reads would
  // fail loudly here.
  const auto dir = makeDir("corrupt");
  const std::string good = (dir / "good.psnap").string();
  saveList(good, sampleList(32));

  // Bit-flip a header byte.
  {
    const std::string bad = (dir / "flip.psnap").string();
    std::filesystem::copy_file(good, bad);
    FILE* f = fopen(bad.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 4, SEEK_SET);
    fputc(0x5a, f);
    fclose(f);
    EXPECT_THROW(loadList(bad), SubstrateError);
  }
  // Truncate mid-file.
  {
    const std::string bad = (dir / "trunc.psnap").string();
    std::filesystem::copy_file(good, bad);
    std::filesystem::resize_file(bad,
                                 std::filesystem::file_size(bad) / 2);
    EXPECT_THROW(loadList(bad), SubstrateError);
  }
  // Not a snapshot at all.
  {
    const std::string bad = (dir / "junk.psnap").string();
    FILE* f = fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("this is not a snapshot file", f);
    fclose(f);
    EXPECT_THROW(loadList(bad), SubstrateError);
  }
  // The good file is untouched by its corrupt neighbours.
  EXPECT_EQ(loadList(good)->length(), 32u);
  std::filesystem::remove_all(dir);
}

// --- Dictionary-coded lists -------------------------------------------------

/// A snapshot file's bytes, to corrupt and write back.
struct FileBytes {
  explicit FileBytes(const std::string& path) : path(path) {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  void saveAs(const std::string& target) const {
    std::ofstream(target, std::ios::binary)
        .write(bytes.data(), std::streamsize(bytes.size()));
  }
  template <typename T>
  T* at(uint64_t offset) {
    return reinterpret_cast<T*>(bytes.data() + offset);
  }
  FileHeader* header() { return at<FileHeader>(0); }
  SectionHeader* section(SectionId id) {
    auto* table = at<SectionHeader>(sizeof(FileHeader));
    for (uint64_t i = 0; i < header()->sectionCount; ++i) {
      if (table[i].id == uint64_t(id)) return &table[i];
    }
    return nullptr;
  }
  template <typename T>
  T* payload(SectionId id) {
    return at<T>(section(id)->offset);
  }

  std::string path;
  std::vector<char> bytes;
};

ListPtr wordList() {
  auto list = List::make();
  const char* words[] = {"the", "The", "cat", "sat", "on", "the", "mat"};
  for (int i = 0; i < 600; ++i) list->add(Value(words[i % 7]));
  return list;
}

// Each corruption of the coded sections that open can see — a codes
// range past the section (a truncated section), a code count that differs
// from the list length, a dictionary entry outside its list, a dictionary
// range outside its section — and a version-1 header are typed
// SubstrateErrors at open, and the good file still loads coded.
TEST_F(PersistChaos, CorruptCodedSectionsFailOpenTyped) {
  const auto dir = makeDir("coded");
  const std::string good = (dir / "good.psnap").string();
  saveList(good, wordList());
  const auto expectOpenFails = [&](const std::string& name,
                                   const std::function<void(FileBytes&)>& lie,
                                   const std::string& message) {
    SCOPED_TRACE(name);
    FileBytes file(good);
    ASSERT_NE(file.section(SectionId::Codes), nullptr);
    lie(file);
    const std::string bad = (dir / name).string();
    file.saveAs(bad);
    try {
      loadList(bad);
      FAIL() << "expected SubstrateError";
    } catch (const SubstrateError& error) {
      EXPECT_NE(std::string(error.what()).find(message), std::string::npos)
          << error.what();
    }
  };
  expectOpenFails("truncated.psnap", [](FileBytes& f) {
    Block& codes = f.section(SectionId::Codes)->block;
    codes.num_entries -= 1;
    codes.byte_size -= sizeof(uint32_t);
  }, "codes out of bounds");
  expectOpenFails("count.psnap", [](FileBytes& f) {
    f.payload<CodedListRec>(SectionId::CodedLists)->codeCount -= 1;
  }, "code count differs");
  expectOpenFails("entry.psnap", [](FileBytes& f) {
    f.payload<uint32_t>(SectionId::DictEntries)[1] = 0xfffffff0u;
  }, "dictionary entry outside its list");
  expectOpenFails("range.psnap", [](FileBytes& f) {
    f.payload<CodedListRec>(SectionId::CodedLists)->firstEntry = 1ull << 40;
  }, "dictionary out of bounds");
  expectOpenFails("v1.psnap", [](FileBytes& f) {
    f.header()->version = 1;
    f.header()->headerCheck = headerCheck(*f.header());
  }, "unsupported format version 1");
  ListPtr loaded = loadList(good);
  EXPECT_EQ(loaded->length(), 600u);
  EXPECT_FALSE(loaded->coding().empty());
  std::filesystem::remove_all(dir);
}

// A code at or past its dictionary's size opens (codes are checked where
// they are used), and every mapReduce path over the list then fails with
// a typed SubstrateError instead of reading past the dictionary.
TEST_F(PersistChaos, OutOfRangeCodeFailsTheShuffleTyped) {
  const auto dir = makeDir("code");
  const std::string good = (dir / "good.psnap").string();
  saveList(good, wordList());
  const std::string bad = (dir / "bad.psnap").string();
  for (uint32_t code : {6u, 0xffffffffu}) {
    SCOPED_TRACE("code " + std::to_string(code));
    FileBytes file(good);
    file.payload<uint32_t>(SectionId::Codes)[599] = code;
    file.saveAs(bad);
    ListPtr loaded = loadList(bad);
    ASSERT_EQ(loaded->coding().entries.size(), 6u);
    const mr::MapFn one = [](const Value&) { return Value(1); };
    for (bool sequential : {false, true}) {
      try {
        mr::run(loaded, one, mr::identityReduce(),
                {.workers = 4, .sequential = sequential});
        FAIL() << "expected SubstrateError";
      } catch (const SubstrateError& error) {
        EXPECT_NE(std::string(error.what()).find("past its dictionary"),
                  std::string::npos)
            << error.what();
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace psnap::persist
