// perfbench: the repository benchmark's driver binary.
//
//   perfbench --workload <wordcount_batch|classroom>
//             --seed N --seconds S --trace 0|1 --work-dir DIR [--setup-only]
//
// Sets the workload up from the seed, runs it closed-loop for S seconds,
// checks every output, and prints one JSON report as its last stdout
// line. run.py builds this binary, runs it, and turns the reports into
// the benchmark's result line (see README.md).
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Taken during static initialisation, before main: set-up time is
/// measured from here to the first timed operation.
const Clock::time_point kProcessStart = Clock::now();

std::string jsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string filesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

void printReport(const Report& report) {
  std::string out = "{\"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"checks\": {";
  for (size_t i = 0; i < report.checks.size(); ++i) {
    out += (i ? ", \"" : "\"") + jsonEscape(report.checks[i].first) +
           "\": " + (report.checks[i].second ? "true" : "false");
  }
  out += "}, \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, entry] = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.first);
    out += (i ? ", \"" : "\"") + jsonEscape(name) + "\": {\"value\": " +
           value + ", \"unit\": \"" + jsonEscape(entry.second) + "\"}";
  }
  out += "}, \"meta\": {";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    out += (i ? ", \"" : "\"") + jsonEscape(report.notes[i].first) +
           "\": \"" + jsonEscape(report.notes[i].second) + "\"";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--setup-only]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--workload" && hasValue) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && hasValue) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && hasValue) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && hasValue) {
      config.workDir = argv[++i];
    } else if (arg == "--setup-only") {
      config.setupOnly = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.workDir.empty() || config.seconds <= 0) return usage(argv[0]);
  std::filesystem::create_directories(config.workDir);

  Report report;
  report.note("workload", config.workload);
  report.note("seed", std::to_string(config.seed));
  report.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.note("compiler", PERFBENCH_COMPILER);
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  const char* omp = std::getenv("OMP_NUM_THREADS");
  report.note("omp_num_threads",
              omp ? omp : "unset (OpenMP default: one per core)");
  report.note("work_dir_fs", filesystemType(config.workDir));
  // A process-wide kill switch for the native tier would silently turn the
  // benchmark into an interpreter-only run.
  report.check("native_tier_env_unset", std::getenv("PSNAP_NATIVE_TIER") == nullptr);

  try {
    if (config.workload == "wordcount_batch") {
      runWordcountBatch(config, kProcessStart, report);
    } else if (config.workload == "classroom") {
      runClassroom(config, kProcessStart, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  printReport(report);
  return 0;
}
