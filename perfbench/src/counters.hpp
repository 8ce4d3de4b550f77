// The counters the program already keeps, read from outside: the native
// tier's TierStats, the shared WorkerPool's job counts, and the root
// SubstrateStats ledger.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Counters {
  uint64_t nativeItems = 0;
  uint64_t compiles = 0;
  uint64_t nativeDowngrades = 0;
  uint64_t poolJobs = 0;
  std::vector<uint64_t> perWorker;
  uint64_t retries = 0;
  uint64_t downgrades = 0;

  /// The program's totals now.
  static Counters sample();
  /// What happened between two samples.
  static Counters since(const Counters& before, const Counters& after);
  Counters& operator+=(const Counters& delta);

  /// Record the native.*, codegen.cache_hits and workers.* metrics of a
  /// window in which `ops` jobs or sessions completed.
  void record(Report& report, double ops) const;
};

/// The native tier's lifetime counters as one line of run metadata.
std::string nativeTierSummary();

}  // namespace perfbench
