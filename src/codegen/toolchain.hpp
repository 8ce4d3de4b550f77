// The compile-and-run half of the paper's Fig. 17 workflow: generated
// text is written to disk, compiled with gcc (optionally with -fopenmp),
// and executed, with stdout captured — "the text file is then compiled and
// linked against an OpenMP run time to produce a parallel program".
//
// Two behaviours matter to the native tier, which drives this class from
// pool workers at JIT time:
//
//   * compiles are content-addressed: compile()/compileShared() hash the
//     source set (names, bytes, flags, output kind) and skip the compiler
//     entirely when the artifact on disk was built from the identical
//     hash — a stamp file next to the binary records the provenance;
//   * an auto-created work directory is owned by the Toolchain and removed
//     in the destructor, so repeated JIT runs stop leaking build trees
//     under /tmp. A directory passed in by the caller is never owned (the
//     native tier's kernel cache keeps one persistent directory so the
//     content cache can hit across compiles). On Linux, removing a .so
//     that is still dlopen-mapped is safe — the mapping survives the
//     unlink.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "codegen/programs.hpp"

namespace psnap::codegen {

struct RunResult {
  int exitCode = -1;
  std::string output;  ///< captured stdout
};

class Toolchain {
 public:
  /// Work in `directory` (created if missing); a unique temp directory is
  /// created — and owned, see ~Toolchain() — when the path is empty.
  explicit Toolchain(std::filesystem::path directory = {});
  /// Removes the work directory iff it was auto-created by this instance.
  ~Toolchain();

  Toolchain(const Toolchain&) = delete;
  Toolchain& operator=(const Toolchain&) = delete;

  const std::filesystem::path& directory() const { return dir_; }

  /// Disown an auto-created directory (the destructor leaves it in place).
  void keepDirectory() { ownsDir_ = false; }

  /// True when a usable C compiler is on PATH.
  static bool compilerAvailable();

  /// Write the source set into the work directory.
  void writeSources(const SourceSet& sources);

  /// Compile every .c file in the source set into `binaryName`.
  /// Throws CodegenError with the compiler diagnostics on failure.
  std::filesystem::path compile(const SourceSet& sources,
                                const std::string& binaryName,
                                bool openmp);

  /// Compile the source set into a shared object (`cc -O2 -shared -fPIC`)
  /// suitable for dlopen. Kernels are built with -ffp-contract=off so the
  /// native tier's byte-identical-output gate holds (a fused
  /// multiply-add would round differently from the interpreter).
  std::filesystem::path compileShared(const SourceSet& sources,
                                      const std::string& libraryName);

  /// Did the last compile()/compileShared() hit the content cache?
  bool lastCompileCached() const { return lastCompileCached_; }
  /// Process-wide count of compiles skipped by the content cache.
  static uint64_t cacheHits();

  /// Run a binary with optional stdin text and environment prefix (e.g.
  /// "OMP_NUM_THREADS=4"), capturing stdout.
  RunResult run(const std::filesystem::path& binary,
                const std::string& stdinText = "",
                const std::string& envPrefix = "");

  /// One-call pipeline: write, compile, run.
  RunResult compileAndRun(const SourceSet& sources,
                          const std::string& binaryName, bool openmp,
                          const std::string& stdinText = "",
                          const std::string& envPrefix = "");

 private:
  /// Shared engine behind compile()/compileShared(): check the stamp,
  /// invoke `command` when stale, write the new stamp.
  std::filesystem::path compileWith(const SourceSet& sources,
                                    const std::string& outputName,
                                    const std::string& flags,
                                    uint64_t sourceHash);

  std::filesystem::path dir_;
  bool ownsDir_ = false;
  bool lastCompileCached_ = false;
};

}  // namespace psnap::codegen
