#include "native/cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <system_error>

namespace psnap::native {

namespace fs = std::filesystem;

namespace {

fs::path cacheDirectory() {
  return fs::temp_directory_path() /
         ("psnap-native-" + std::to_string(::getpid()));
}

std::string hexKey(uint64_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

KernelCache& KernelCache::instance() {
  static KernelCache cache;
  return cache;
}

// The Toolchain is handed an explicit directory, so it never owns or
// removes it; this destructor does, at process exit.
KernelCache::KernelCache() : toolchain_(cacheDirectory()) {}

KernelCache::~KernelCache() {
  std::error_code ec;
  fs::remove_all(toolchain_.directory(), ec);  // best effort
}

fs::path KernelCache::compile(const codegen::SourceSet& kernelSource,
                              uint64_t key) {
  const std::string stem = hexKey(key);
  codegen::SourceSet named;
  for (const auto& [name, contents] : kernelSource) {
    (void)name;  // emitNativeKernel emits exactly one TU, "kernel.c"
    named[stem + ".c"] = contents;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  fs::path out = toolchain_.compileShared(named, stem + ".so");
  lastCached_ = toolchain_.lastCompileCached();
  return out;
}

}  // namespace psnap::native
