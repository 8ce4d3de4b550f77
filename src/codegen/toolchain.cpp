#include "codegen/toolchain.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace psnap::codegen {

namespace fs = std::filesystem;

namespace {

std::string readFile(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int runShell(const std::string& command) { return std::system(command.c_str()); }

/// FNV-1a 64 over the source set plus the compile flags: the content key
/// the compile cache is addressed by.
uint64_t hashSources(const SourceSet& sources, const std::string& flags) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto eat = [&h](const std::string& text) {
    for (unsigned char c : text) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // field separator
    h *= 0x100000001b3ull;
  };
  eat(flags);
  for (const auto& [name, contents] : sources) {
    eat(name);
    eat(contents);
  }
  return h;
}

std::atomic<uint64_t> gCacheHits{0};

}  // namespace

Toolchain::Toolchain(fs::path directory) : dir_(std::move(directory)) {
  if (dir_.empty()) {
    dir_ = fs::temp_directory_path() / "psnap-codegen";
    // Compiles run concurrently on pool workers at JIT time, so the
    // uniquifier must be atomic.
    static std::atomic<int> counter{0};
    dir_ /= "work-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
    ownsDir_ = true;
  }
  fs::create_directories(dir_);
}

Toolchain::~Toolchain() {
  if (!ownsDir_) return;
  std::error_code ec;
  fs::remove_all(dir_, ec);  // best effort: never throw from a destructor
}

bool Toolchain::compilerAvailable() {
  static const bool available =
      runShell("gcc --version > /dev/null 2>&1") == 0;
  return available;
}

uint64_t Toolchain::cacheHits() {
  return gCacheHits.load(std::memory_order_relaxed);
}

void Toolchain::writeSources(const SourceSet& sources) {
  for (const auto& [name, contents] : sources) {
    std::ofstream out(dir_ / name);
    if (!out) throw CodegenError("cannot write " + (dir_ / name).string());
    out << contents;
  }
}

fs::path Toolchain::compileWith(const SourceSet& sources,
                                const std::string& outputName,
                                const std::string& flags,
                                uint64_t sourceHash) {
  if (!compilerAvailable()) {
    throw CodegenError("no C compiler available on this host");
  }
  const fs::path output = dir_ / outputName;
  const fs::path stamp = dir_ / (outputName + ".srchash");
  const std::string hashText = std::to_string(sourceHash);
  std::error_code ec;
  if (fs::exists(output, ec) && readFile(stamp) == hashText) {
    lastCompileCached_ = true;
    gCacheHits.fetch_add(1, std::memory_order_relaxed);
    return output;
  }
  lastCompileCached_ = false;
  writeSources(sources);
  const fs::path log = dir_ / (outputName + ".compile.log");
  std::string command = "cd '" + dir_.string() + "' && gcc " + flags;
  for (const auto& [name, contents] : sources) {
    if (strings::endsWith(name, ".c")) command += " " + name;
  }
  command += " -o " + outputName + " -lm > '" + log.string() + "' 2>&1";
  if (runShell(command) != 0) {
    throw CodegenError("compilation failed:\n" + readFile(log));
  }
  std::ofstream out(stamp);
  out << hashText;
  return output;
}

fs::path Toolchain::compile(const SourceSet& sources,
                            const std::string& binaryName, bool openmp) {
  std::string flags = "-O2 -Wall";
  if (openmp) flags += " -fopenmp";
  return compileWith(sources, binaryName, flags,
                     hashSources(sources, "exe|" + flags));
}

fs::path Toolchain::compileShared(const SourceSet& sources,
                                  const std::string& libraryName) {
  // -ffp-contract=off: no fused multiply-add, so kernel arithmetic rounds
  // exactly like the interpreter's one-operation-at-a-time evaluation.
  const std::string flags = "-O2 -shared -fPIC -ffp-contract=off";
  return compileWith(sources, libraryName, flags,
                     hashSources(sources, "so|" + flags));
}

RunResult Toolchain::run(const fs::path& binary, const std::string& stdinText,
                         const std::string& envPrefix) {
  const fs::path outFile = dir_ / (binary.filename().string() + ".out");
  const fs::path inFile = dir_ / (binary.filename().string() + ".in");
  {
    std::ofstream in(inFile);
    in << stdinText;
  }
  std::string command;
  if (!envPrefix.empty()) command += envPrefix + " ";
  command += "'" + binary.string() + "' < '" + inFile.string() + "' > '" +
             outFile.string() + "' 2>&1";
  RunResult result;
  int status = runShell(command);
  result.exitCode = status;
  result.output = readFile(outFile);
  return result;
}

RunResult Toolchain::compileAndRun(const SourceSet& sources,
                                   const std::string& binaryName, bool openmp,
                                   const std::string& stdinText,
                                   const std::string& envPrefix) {
  return run(compile(sources, binaryName, openmp), stdinText, envPrefix);
}

}  // namespace psnap::codegen
