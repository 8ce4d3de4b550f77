// Persistence benchmark: the zero-copy snapshot layer (src/persist).
// Workloads, each printed as one row of the stdout table:
//
//   * cold_open/generate_parse/rows=<n> — the seed's path to a first
//       query: generate the climate dataset in memory (generateClimate +
//       toFahrenheitList, O(rows)) and run a mapReduce mean over the
//       first-window slice. Time-to-first-result pays the whole
//       materialization tax.
//   * cold_open/snapshot_mmap/rows=<n>  — the snapshot path to the SAME
//       query: mmap the dataset (loadList, O(1)) and run the identical
//       mapReduce over the identical window. The `speedup` column on this
//       row is generate-path seconds / snapshot-path seconds; the run
//       fails unless both paths produced byte-identical query output
//       (and bit-identical sampled rows).
//   * open_only/rows=<n>                — loadList alone: the constant
//       cost of mapping, independent of row count.
//   * page_touch/rows=<n>/touch=<k>     — fresh open + sum of the first
//       k rows, after advising the kernel to drop the file's page cache:
//       measured time scales with k (pages touched), not with n.
//   * serve/shared_mapping/tenants=<t>  — one published dataset opened
//       by t tenants through SessionServer::openDataset: resident-memory
//       delta per tenant view vs the counterfactual deep copy
//       (rows * sizeof(Value) each).
//
// Usage:
//   bench_persist [--rows N] [--quick|--smoke]
//
// The acceptance run uses >= 100M rows (the default); `--quick` drops to
// ~10M and `--smoke` to ~100k so scripts/check.sh can exercise every
// code path cheaply.
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "blocks/value.hpp"
#include "data/climate.hpp"
#include "mapreduce/engine.hpp"
#include "persist/snapshot.hpp"
#include "serve/session_server.hpp"

namespace {

using psnap::blocks::List;
using psnap::blocks::ListPtr;
using psnap::blocks::Value;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One row of the stdout table; `extra` is an optional trailing column.
void report(const std::string& name, double seconds, double rate,
            const char* unit, const std::string& extra = "") {
  std::printf("%-44s %10.4f %14.1f %-16s %s\n", name.c_str(), seconds, rate,
              unit, extra.c_str());
}

/// Resident set size in bytes, from /proc/self/status.
uint64_t residentBytes() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::sscanf(line, "VmRSS: %" SCNu64 " kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

/// Ask the kernel to drop this file's page-cache pages so the next open
/// measures genuine page faults, not warm-cache reads.
void dropPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

/// The "first query": mapReduce mean Celsius over the first `window`
/// rows of a Fahrenheit dataset. Both cold-open paths run exactly this.
ListPtr windowMeanCelsius(const ListPtr& dataset, size_t window) {
  auto slice = List::make();
  slice->reserve(window);
  size_t taken = 0;
  for (const Value& v : dataset->items()) {
    if (taken++ == window) break;
    slice->add(v);
  }
  psnap::mr::MapFn mapFn = [](const Value& v) {
    return Value(List::make(
        {Value("meanC"), Value((v.asNumber() - 32.0) * 5.0 / 9.0)}));
  };
  psnap::mr::ReduceFn reduceFn = [](const ListPtr& values) {
    double sum = 0;
    for (const Value& v : values->items()) sum += v.asNumber();
    return Value(sum / double(values->length()));
  };
  return psnap::mr::run(slice, mapFn, reduceFn);
}

/// Bit-identical row sampling across the full range (cheap at any size).
bool rowsBitIdentical(const ListPtr& a, const ListPtr& b) {
  if (a->length() != b->length()) return false;
  const size_t n = a->length();
  if (n == 0) return true;
  const size_t stride = n < 65536 ? 1 : n / 65536;
  for (size_t i = 0; i < n; i += stride) {
    const double x = a->item(i + 1).asNumber();
    const double y = b->item(i + 1).asNumber();
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  const double x = a->item(n).asNumber();
  const double y = b->item(n).asNumber();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t targetRows = 100'000'000;
  size_t tenants = 64;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--rows") && i + 1 < argc) {
      targetRows = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--quick")) {
      targetRows = 10'000'000;
    } else if (!std::strcmp(argv[i], "--smoke")) {
      targetRows = 100'000;
      tenants = 8;
    }
  }

  // records = stations * years * 12; pick stations to reach targetRows.
  psnap::data::ClimateConfig config;
  config.firstYear = 1950;
  config.lastYear = 2009;
  const uint64_t perStation = uint64_t(config.lastYear - config.firstYear + 1) * 12;
  config.stations = size_t((targetRows + perStation - 1) / perStation);
  const uint64_t rows = psnap::data::climateRecordCount(config);
  // The first query reads a fixed-size window (a station's era, a recent
  // slice): its cost is O(window), not O(rows) — which is the whole
  // point of mapping instead of materializing.
  const size_t window = size_t(std::min<uint64_t>(rows, 100'000));

  const auto dir = std::filesystem::temp_directory_path() / "psnap-bench-persist";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "climate_f.psnap").string();

  std::printf("# bench_persist: rows=%" PRIu64 " (%zu stations), window=%zu, "
              "file=%s, %zu-byte Value\n",
              rows, config.stations, window, path.c_str(), sizeof(Value));
  std::printf("%-44s %10s %14s %s\n", "bench", "seconds", "rate", "unit");
  const std::string rowsTag = "/rows=" + std::to_string(rows);

  // -- Write the snapshot (streamed, O(1) memory), reported for context.
  {
    auto start = Clock::now();
    const uint64_t written = psnap::data::writeFahrenheitSnapshot(path, config);
    const double s = secondsSince(start);
    if (written != rows) {
      std::fprintf(stderr, "row count mismatch: %" PRIu64 "\n", written);
      return 1;
    }
    report("snapshot_write" + rowsTag, s, double(rows) / s, "rows/s",
           std::to_string(std::filesystem::file_size(path)) + " bytes");
  }

  // -- Cold open, generate/parse path: materialize everything, then query.
  ListPtr generated;
  ListPtr generateQuery;
  double generateSeconds = 0;
  {
    auto start = Clock::now();
    generated = psnap::data::toFahrenheitList(
        psnap::data::generateClimate(config));
    generateQuery = windowMeanCelsius(generated, window);
    generateSeconds = secondsSince(start);
    report("cold_open/generate_parse" + rowsTag, generateSeconds,
           double(rows) / generateSeconds, "rows/s");
  }

  // -- Cold open, snapshot path: mmap + the identical query.
  {
    dropPageCache(path);
    auto start = Clock::now();
    ListPtr mapped = psnap::persist::loadList(path);
    ListPtr snapshotQuery = windowMeanCelsius(mapped, window);
    const double s = secondsSince(start);
    const bool identical =
        snapshotQuery->display() == generateQuery->display() &&
        rowsBitIdentical(mapped, generated);
    char extra[64];
    std::snprintf(extra, sizeof(extra), "speedup=%.1fx, %s",
                  generateSeconds / s, identical ? "IDENTICAL" : "MISMATCH");
    report("cold_open/snapshot_mmap" + rowsTag, s, double(rows) / s,
           "rows/s", extra);
    if (!identical) return 1;
  }
  generated.reset();
  generateQuery.reset();

  // -- Open alone: the constant mapping cost.
  {
    dropPageCache(path);
    auto start = Clock::now();
    ListPtr mapped = psnap::persist::loadList(path);
    const double s = secondsSince(start);
    report("open_only" + rowsTag, s, double(mapped->length()), "rows_mapped");
  }

  // -- Page-touch scaling: time grows with rows touched, not rows stored.
  for (uint64_t touch = 10'000; touch <= rows; touch *= 10) {
    dropPageCache(path);
    auto start = Clock::now();
    ListPtr mapped = psnap::persist::loadList(path);
    double sum = 0;
    size_t taken = 0;
    for (const Value& v : mapped->items()) {
      if (taken++ == size_t(touch)) break;
      sum += v.asNumber();
    }
    const double s = secondsSince(start);
    report("page_touch" + rowsTag + "/touch=" + std::to_string(touch), s,
           double(touch) / s, "rows/s",
           std::to_string((touch * sizeof(Value) + 4095) / 4096) + " pages");
    if (sum == -1) return 1;  // keep the scan observable
  }

  // -- Serve layer: one mapping, many tenant views.
  {
    psnap::serve::SessionServer server;
    const uint64_t rssBefore = residentBytes();
    auto start = Clock::now();
    server.publishDataset("climate", path);
    std::vector<ListPtr> views;
    views.reserve(tenants);
    for (size_t t = 0; t < tenants; ++t) {
      views.push_back(server.openDataset("climate"));
    }
    const double s = secondsSince(start);
    // Touch each view's head so the per-tenant cost is real, not lazy.
    double sum = 0;
    for (const ListPtr& view : views) sum += view->item(1).asNumber();
    const uint64_t rssAfter = residentBytes();
    report("serve/shared_mapping/tenants=" + std::to_string(tenants), s,
           rssAfter > rssBefore
               ? double(rssAfter - rssBefore) / double(tenants)
               : 0,
           "rss_bytes/tenant",
           "deep copy " + std::to_string(rows * sizeof(Value)) + " bytes");
    if (sum == -1) return 1;
  }
  std::filesystem::remove_all(dir);
  return 0;
}
