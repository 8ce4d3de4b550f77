// Shared pieces of the perfbench driver: wall and CPU clocks, sample
// percentiles, in-memory span tracing, and the report every workload
// fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Samples of one quantity; percentiles interpolate linearly between
/// order statistics.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double sum() const;
  double mean() const { return empty() ? 0 : sum() / double(size()); }
  /// p in [0, 1]; 0 for an empty set.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }
  /// How many samples lie strictly above the p-th percentile.
  size_t beyond(double p) const;

 private:
  std::vector<double> values_;
};

/// CPU seconds this process has used so far, all threads together
/// (CLOCK_PROCESS_CPUTIME_ID). The kernel does not charge a thread for
/// time the hypervisor stole from its vCPU, so on a shared host this
/// clock, unlike the wall clock, ignores steal; hostScale() corrects for
/// the host's speed.
double cpuSeconds();

/// CPU seconds of this process plus its waited-for children (the C
/// compiler the native tier runs).
double cpuSecondsWithChildren();

/// Runs a fixed piece of plain C++ work once and returns its CPU time on
/// this thread, in ms: count 20000 pseudo-random words of a 2000-word
/// vocabulary in a hash map, then sort the counts. It calls nothing in
/// psnap, so no change to the program moves it; only the host's speed
/// does (clock frequency, a busy sibling hyperthread, shared caches).
double referenceKernelCpuMs();

/// The reference kernel's CPU time on the nominal host every end-to-end
/// CPU time is scaled to: about its time on the 4-core host when quiet.
inline constexpr double kReferenceNominalMs = 2.5;

/// The factor that scales this run's CPU times to the nominal host:
/// kReferenceNominalMs over the median of the reference kernel's times
/// measured during the run (1 when there are none).
double hostScale(const Samples& referenceMs);

/// Run the reference kernel `times` times; its CPU times in ms.
Samples measureReference(int times);

/// Reference runs at the end of set-up, which scale setup_s.
inline constexpr int kSetupReferenceRuns = 15;

/// Spans recorded by the benchmark around its calls into each layer:
/// name, start, end, and the enclosing span. Kept in memory; the caller
/// reduces them to per-layer numbers and may write them out as a Chrome
/// trace when the run ends. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    size_t index_;
  };

  /// Open a span that closes when the returned guard dies. `request`
  /// groups the spans of one job or session.
  Span span(const char* name, uint64_t request = 0) {
    return Span(this, name, request);
  }

  /// Durations in ms of every closed span named `name`.
  Samples durationsMs(const std::string& name) const;

  /// Write at most `maxSpans` spans as Chrome trace-event JSON.
  void writeChromeTrace(const std::string& path, size_t maxSpans) const;

 private:
  struct Record {
    const char* name;
    uint64_t request;
    int64_t parent;  ///< index of the enclosing span, -1 at the top
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<size_t> open_;
};

/// What one workload run reports: counts, pass/fail guards, and metrics
/// by name with their unit.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> notes;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

/// What one timed phase of a workload yields. The end-to-end metrics are
/// all taken on the process CPU clock and scaled to the nominal host with
/// hostScale(); the wall-clock figures of the same
/// phase are reported beside the per-layer metrics as wall.*, with no
/// bound, because on a shared host they follow the neighbours' load.
struct PhaseFigures {
  // End-to-end, CPU clock scaled by hostScale().
  double wordsPerCpuS = 0;
  double sessionsPerCpuS = 0;
  double opCpuP50Ms = 0;
  double opCpuP90Ms = 0;
  // Wall clock.
  double wordsPerS = 0;
  double jobP90Ms = 0;
  double sessionsPerS = 0;
  double sessionP50Ms = 0;
  double sessionP99Ms = 0;
  double sliceGapP99Ms = 0;
};

/// Record every end-to-end metric except setup_s (run.py takes that as a
/// median over several processes) and peak_rss_mb.
void recordEndToEnd(Report& report, const PhaseFigures& figures);
/// Record the wall.* figures.
void recordWall(Report& report, const PhaseFigures& figures);
/// Record traced-minus-untraced for each figure the two above write.
void recordOverhead(Report& report, const PhaseFigures& untraced,
                    const PhaseFigures& traced);

/// getrusage max resident set, in MB.
double peakRssMb();

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setupOnly = false;
  std::string workDir;  ///< scratch space inside the checkout
};

}  // namespace perfbench
