#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <unordered_map>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p * double(sorted.size() - 1);
  const size_t lo = size_t(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - double(lo);
  return sorted[lo] * (1 - frac) + sorted[hi] * frac;
}

size_t Samples::beyond(double p) const {
  const double cut = percentile(p);
  return size_t(std::count_if(values_.begin(), values_.end(),
                              [cut](double v) { return v > cut; }));
}

double cpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return double(now.tv_sec) + double(now.tv_nsec) / 1e9;
}

double cpuSecondsWithChildren() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return cpuSeconds() + double(children.ru_utime.tv_sec) +
         double(children.ru_stime.tv_sec) +
         double(children.ru_utime.tv_usec + children.ru_stime.tv_usec) / 1e6;
}

double referenceKernelCpuMs() {
  timespec start{}, end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  std::unordered_map<std::string, uint32_t> counts;
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    ++counts["word" + std::to_string((state >> 33) % 2000)];
  }
  std::vector<std::pair<uint32_t, std::string>> sorted;
  sorted.reserve(counts.size());
  for (const auto& [word, n] : counts) sorted.emplace_back(n, word);
  std::sort(sorted.begin(), sorted.end());
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  // Keep the result observable so the work cannot be dropped.
  volatile size_t sink = sorted.front().second.size();
  (void)sink;
  return double(end.tv_sec - start.tv_sec) * 1e3 +
         double(end.tv_nsec - start.tv_nsec) / 1e6;
}

double hostScale(const Samples& referenceMs) {
  return referenceMs.empty() ? 1 : kReferenceNominalMs / referenceMs.median();
}

Samples measureReference(int times) {
  Samples out;
  for (int i = 0; i < times; ++i) out.add(referenceKernelCpuMs());
  return out;
}

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer->enabled_ ? tracer : nullptr), index_(0) {
  if (!tracer_) return;
  const int64_t parent =
      tracer_->open_.empty() ? -1 : int64_t(tracer_->open_.back());
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back({name, request, parent, Clock::now(), {}});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (!tracer_) return;
  tracer_->spans_[index_].end = Clock::now();
  tracer_->open_.pop_back();
}

Samples Tracer::durationsMs(const std::string& name) const {
  Samples out;
  for (const Record& r : spans_) {
    if (name == r.name) out.add(msBetween(r.start, r.end));
  }
  return out;
}

void Tracer::writeChromeTrace(const std::string& path, size_t maxSpans) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "{\"traceEvents\": [\n");
  const size_t n = std::min(maxSpans, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Record& r = spans_[i];
    const double ts =
        std::chrono::duration<double, std::micro>(r.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(r.end - r.start).count();
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
                 "\"parent\": %lld}}%s\n",
                 r.name, ts, dur, (unsigned long long)r.request,
                 (long long)r.parent, i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

namespace {

struct Field {
  const char* name;
  const char* unit;
  double PhaseFigures::*field;
};

constexpr Field kEndToEnd[] = {
    {"words_per_cpu_s", "words/cpu_s", &PhaseFigures::wordsPerCpuS},
    {"sessions_per_cpu_s", "sessions/cpu_s", &PhaseFigures::sessionsPerCpuS},
    {"op_cpu_p50_ms", "cpu_ms", &PhaseFigures::opCpuP50Ms},
    {"op_cpu_p90_ms", "cpu_ms", &PhaseFigures::opCpuP90Ms},
};

constexpr Field kWall[] = {
    {"wall.words_per_s", "words/s", &PhaseFigures::wordsPerS},
    {"wall.job_p90_ms", "ms", &PhaseFigures::jobP90Ms},
    {"wall.sessions_per_s", "sessions/s", &PhaseFigures::sessionsPerS},
    {"wall.session_p50_ms", "ms", &PhaseFigures::sessionP50Ms},
    {"wall.session_p99_ms", "ms", &PhaseFigures::sessionP99Ms},
    {"wall.slice_gap_p99_ms", "ms", &PhaseFigures::sliceGapP99Ms},
};

template <size_t N>
void record(Report& report, const Field (&fields)[N], const PhaseFigures& f) {
  for (const Field& field : fields) {
    report.metric(field.name, f.*field.field, field.unit);
  }
}

template <size_t N>
void recordDelta(Report& report, const Field (&fields)[N],
                 const PhaseFigures& untraced, const PhaseFigures& traced) {
  for (const Field& field : fields) {
    report.metric(std::string("overhead.") + field.name,
                  traced.*field.field - untraced.*field.field, field.unit);
  }
}

}  // namespace

void recordEndToEnd(Report& report, const PhaseFigures& figures) {
  record(report, kEndToEnd, figures);
}

void recordWall(Report& report, const PhaseFigures& figures) {
  record(report, kWall, figures);
}

void recordOverhead(Report& report, const PhaseFigures& untraced,
                    const PhaseFigures& traced) {
  recordDelta(report, kEndToEnd, untraced, traced);
  recordDelta(report, kWall, untraced, traced);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
