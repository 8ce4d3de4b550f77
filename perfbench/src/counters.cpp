#include "counters.hpp"

#include <algorithm>

#include "codegen/toolchain.hpp"
#include "native/tier.hpp"
#include "workers/stats.hpp"
#include "workers/worker_pool.hpp"

namespace perfbench {

Counters Counters::sample() {
  using namespace psnap;
  Counters c;
  const native::TierStats tier = native::TierManager::instance().stats();
  c.nativeItems = tier.nativeItems;
  c.compiles = tier.compiles;
  c.nativeDowngrades = tier.downgrades;
  c.poolJobs = workers::WorkerPool::shared().jobsCompleted();
  c.perWorker = workers::WorkerPool::shared().jobsPerWorker();
  const workers::SubstrateStats& stats = workers::processSubstrateStats();
  c.retries = stats.retries.load();
  c.downgrades = stats.downgrades.load();
  return c;
}

Counters Counters::since(const Counters& before, const Counters& after) {
  Counters d;
  d.nativeItems = after.nativeItems - before.nativeItems;
  d.compiles = after.compiles - before.compiles;
  d.nativeDowngrades = after.nativeDowngrades - before.nativeDowngrades;
  d.poolJobs = after.poolJobs - before.poolJobs;
  d.perWorker.resize(after.perWorker.size());
  for (size_t i = 0; i < after.perWorker.size(); ++i) {
    d.perWorker[i] = after.perWorker[i] - before.perWorker[i];
  }
  d.retries = after.retries - before.retries;
  d.downgrades = after.downgrades - before.downgrades;
  return d;
}

Counters& Counters::operator+=(const Counters& delta) {
  nativeItems += delta.nativeItems;
  compiles += delta.compiles;
  nativeDowngrades += delta.nativeDowngrades;
  poolJobs += delta.poolJobs;
  perWorker.resize(std::max(perWorker.size(), delta.perWorker.size()));
  for (size_t i = 0; i < delta.perWorker.size(); ++i) {
    perWorker[i] += delta.perWorker[i];
  }
  retries += delta.retries;
  downgrades += delta.downgrades;
  return *this;
}

void Counters::record(Report& report, double ops) const {
  ops = std::max(ops, 1.0);
  report.metric("native.items", double(nativeItems), "count");
  report.metric("native.compiles", double(compiles), "count");
  report.metric("native.downgrades", double(nativeDowngrades), "count");
  report.metric("native.items_per_session", double(nativeItems) / ops,
                "count");
  report.metric("codegen.cache_hits",
                double(psnap::codegen::Toolchain::cacheHits()), "count");
  report.metric("workers.jobs", double(poolJobs) / ops, "count");
  // max/mean of the per-worker job counts: 1 is a perfectly even spread.
  uint64_t max = 0, sum = 0;
  for (const uint64_t n : perWorker) {
    max = std::max(max, n);
    sum += n;
  }
  report.metric("workers.skew",
                sum ? double(max) * double(perWorker.size()) / double(sum) : 0,
                "ratio");
  report.metric("workers.retries", double(retries), "count");
  report.metric("workers.downgrades", double(downgrades), "count");
}

std::string nativeTierSummary() {
  const psnap::native::TierStats t = psnap::native::TierManager::instance().stats();
  return "kernels=" + std::to_string(t.kernels) +
         " compiles=" + std::to_string(t.compiles) +
         " installs=" + std::to_string(t.installs) +
         " promotions=" + std::to_string(t.promotions) +
         " downgrades=" + std::to_string(t.downgrades);
}

}  // namespace perfbench
