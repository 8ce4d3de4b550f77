// wordcount_batch: one tenant re-runs the paper's Fig. 11 word count,
// mapReduce(ring(1), ring(length of ()), words), through a ThreadManager,
// closed loop. Set-up streams a 100k-word Zipf corpus (2000-word
// vocabulary) into a dataset snapshot once; every job reopens it with
// persist::loadList, so a job is cold-open -> mapReduce -> verified pairs.
//
// Traced, each job is split into spans (open, VM job, verify) and is
// followed by probes that time the layers the job goes through one at a
// time on the same corpus: structuredClone, the native map batch, mr::run
// on four workers and sequentially.
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "blocks/builder.hpp"
#include "core/parallel_blocks.hpp"
#include "core/tiering.hpp"
#include "data/corpus.hpp"
#include "mapreduce/engine.hpp"
#include "native/tier.hpp"
#include "persist/snapshot.hpp"
#include "sched/thread_manager.hpp"
#include "vm/process.hpp"
#include "workers/worker_pool.hpp"
#include "counters.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace psnap;
using namespace psnap::build;
using blocks::ListPtr;
using blocks::RingPtr;
using blocks::Value;

constexpr size_t kCorpusWords = 100'000;
constexpr size_t kVocabulary = 2000;
constexpr int kMaxWarmupJobs = 20;

RingPtr makeRing(blocks::BlockPtr reify) {
  static const vm::PrimitiveTable prims = vm::PrimitiveTable::standard();
  static vm::NullHost host;
  vm::Process p(&blocks::BlockRegistry::standard(), &prims, &host);
  p.startExpression(std::move(reify), blocks::Environment::make());
  return p.runToCompletion().asRing();
}

/// The job's pairs must be exactly the plain-C++ reference count.
bool matchesReference(const ListPtr& pairs,
                      const std::map<std::string, size_t>& reference) {
  if (!pairs || pairs->length() != reference.size()) return false;
  for (const Value& pair : pairs->items()) {
    if (!pair.isList() || pair.asList()->length() != 2) return false;
    const auto expected = reference.find(pair.asList()->item(1).asText());
    if (expected == reference.end() ||
        pair.asList()->item(2).asNumber() != double(expected->second)) {
      return false;
    }
  }
  return true;
}

class WordcountTenant {
 public:
  explicit WordcountTenant(const RunConfig& config)
      : prims_(core::fullPrimitiveTable()),
        tm_(&blocks::BlockRegistry::standard(), &prims_),
        mapRing_(makeRing(ring(In(1.0)))),
        reduceRing_(makeRing(ring(lengthOf(empty())))) {
    corpusPath_ = (std::filesystem::path(config.workDir) /
                   "wordcount_corpus.snap").string();
    data::writeWordsSnapshot(corpusPath_, kCorpusWords, kVocabulary,
                             config.seed);
    // generateText draws the same word sequence the snapshot holds.
    reference_ = data::referenceWordCount(
        data::generateText(kCorpusWords, kVocabulary, config.seed));
  }

  struct JobResult {
    bool ok = false;
    double jobMs = 0;
    double vmMs = 0;
    ListPtr words;  ///< the opened corpus, for the traced probes
  };

  /// One job: open the snapshot, run the block program, verify.
  JobResult runJob(Tracer& tracer, uint64_t request) {
    JobResult out;
    const auto start = Clock::now();
    auto jobSpan = tracer.span("job", request);
    try {
      {
        auto span = tracer.span("persist.open", request);
        out.words = persist::loadList(corpusPath_);
      }
      const auto vmStart = Clock::now();
      std::shared_ptr<const vm::ProcessStatus> status;
      {
        auto span = tracer.span("vm.job", request);
        status = tm_.spawnExpression(
                        mapReduce(ring(In(1.0)), ring(lengthOf(empty())),
                                  In(Value(out.words))),
                        blocks::Environment::make())
                     .status;
        tm_.runUntilIdle();
      }
      out.vmMs = msBetween(vmStart, Clock::now());
      auto span = tracer.span("verify", request);
      out.ok = status->done && !status->errored &&
               status->result.isList() &&
               matchesReference(status->result.asList(), reference_);
    } catch (const std::exception&) {
      out.ok = false;
    }
    out.jobMs = msBetween(start, Clock::now());
    return out;
  }

  /// Run jobs until both kernels of the program have left the compile
  /// path (trusted, or downgraded for good). Returns failed jobs.
  uint64_t warmUp(uint64_t* attempted) {
    native::RingKernel* kernels[] = {
        native::TierManager::instance().lookup(*mapRing_,
                                               codegen::KernelShape::Unary),
        native::TierManager::instance().lookup(*reduceRing_,
                                               codegen::KernelShape::Fold)};
    Tracer off(false);
    uint64_t failed = 0;
    for (int i = 0; i < kMaxWarmupJobs; ++i) {
      ++*attempted;
      if (!runJob(off, 0).ok) ++failed;
      bool settled = true;
      for (native::RingKernel* kernel : kernels) {
        native::TierManager::instance().waitForCompile(kernel);
        const native::KernelState state = kernel->currentState();
        settled = settled && (state == native::KernelState::Trusted ||
                              state == native::KernelState::Downgraded);
      }
      if (settled && i >= 1) break;
    }
    mapper_ = core::tieredUnary(mapRing_);
    reducer_ = core::tieredListReduce(reduceRing_);
    return failed;
  }

  /// The per-layer probes on an opened corpus; false on a wrong result.
  bool probe(Tracer& tracer, const ListPtr& words, uint64_t request,
             mr::Stats* parallelStats, uint64_t* degradedRuns) {
    {
      auto span = tracer.span("blocks.clone_in", request);
      Value clone = Value(words).structuredClone();
    }
    std::vector<Value> items(words->items().begin(), words->items().end());
    {
      auto span = tracer.span("native.map", request);
      mapper_.batch(items.data(), items.size());
    }
    mr::Options parallel;
    parallel.workers = 4;
    parallel.mapBatch = mapper_.batch;
    ListPtr pairs;
    {
      auto span = tracer.span("mapreduce.run", request);
      pairs = mr::run(words, mapper_.fn, reducer_, parallel, parallelStats);
    }
    if (parallelStats->degraded) ++*degradedRuns;
    bool ok = matchesReference(pairs, reference_);
    mr::Options sequential = parallel;
    sequential.sequential = true;
    {
      auto span = tracer.span("mapreduce.seq", request);
      pairs = mr::run(words, mapper_.fn, reducer_, sequential);
    }
    return ok && matchesReference(pairs, reference_);
  }

 private:
  vm::PrimitiveTable prims_;
  sched::ThreadManager tm_;
  RingPtr mapRing_;
  RingPtr reduceRing_;
  core::TieredUnary mapper_;
  std::function<Value(const ListPtr&)> reducer_;
  std::string corpusPath_;
  std::map<std::string, size_t> reference_;
};

/// One timed phase: closed-loop jobs for `seconds`.
struct Phase {
  Samples jobMs, vmMs;  ///< wall time of the verified jobs and their VM part
  Samples jobCpuMs;     ///< process CPU time of the verified jobs
  Samples referenceMs;  ///< the reference kernel, after every 4th job
  double wallSeconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Counters counters;  ///< summed over the jobs themselves, not the probes
  // Traced only.
  Samples keys, mapMakespan, reduceMakespan;
  uint64_t degradedRuns = 0;

  /// The tenant's session is one job, and its wait between slices is the
  /// VM's spawn -> result.
  PhaseFigures figures() const {
    PhaseFigures f;
    const double scale = hostScale(referenceMs);
    const double jobs = double(jobCpuMs.size());
    const double cpuSeconds = jobCpuMs.sum() / 1e3 * scale;
    if (cpuSeconds > 0) {
      f.wordsPerCpuS = double(kCorpusWords) * jobs / cpuSeconds;
      f.sessionsPerCpuS = jobs / cpuSeconds;
    }
    f.opCpuP50Ms = jobCpuMs.median() * scale;
    f.opCpuP90Ms = jobCpuMs.percentile(0.90) * scale;
    if (jobMs.sum() > 0) {
      f.wordsPerS = double(kCorpusWords) * jobs / (jobMs.sum() / 1e3);
    }
    f.jobP90Ms = jobMs.percentile(0.90);
    f.sessionsPerS = wallSeconds > 0 ? jobs / wallSeconds : 0;
    f.sessionP50Ms = jobMs.median();
    f.sessionP99Ms = jobMs.percentile(0.99);
    f.sliceGapP99Ms = vmMs.percentile(0.99);
    return f;
  }
};

Phase runPhase(WordcountTenant& tenant, Tracer& tracer, double seconds) {
  Phase phase;
  const auto start = Clock::now();
  while (secondsSince(start) < seconds) {
    const uint64_t request = ++phase.attempted;
    const Counters before = Counters::sample();
    const double cpuBefore = cpuSeconds();
    WordcountTenant::JobResult job = tenant.runJob(tracer, request);
    const double cpuMs = (cpuSeconds() - cpuBefore) * 1e3;
    phase.counters += Counters::since(before, Counters::sample());
    if (phase.attempted % 4 == 0) {
      phase.referenceMs.add(referenceKernelCpuMs());
    }
    if (!job.ok) {
      ++phase.failed;
      continue;
    }
    phase.jobMs.add(job.jobMs);
    phase.vmMs.add(job.vmMs);
    phase.jobCpuMs.add(cpuMs);
    if (tracer.enabled()) {
      mr::Stats stats;
      if (!tenant.probe(tracer, job.words, request, &stats,
                        &phase.degradedRuns)) {
        ++phase.failed;
      }
      phase.keys.add(double(stats.distinctKeys));
      phase.mapMakespan.add(double(stats.mapMakespan));
      phase.reduceMakespan.add(double(stats.reduceMakespan));
    }
  }
  phase.wallSeconds = secondsSince(start);
  return phase;
}

/// The tail check applies to the untraced phase only: traced jobs are
/// fewer, each being followed by its probes.
void checkPhase(Report& report, const Phase& phase, const std::string& tag,
                bool tail) {
  report.note(tag + "jobs", std::to_string(phase.jobMs.size()));
  if (tail) {
    report.check("jobs_beyond_p90_ge_10",
                 phase.jobCpuMs.beyond(0.90) >= 10 &&
                     phase.jobMs.beyond(0.90) >= 10);
  }
  report.check(tag + "native_items_positive", phase.counters.nativeItems > 0);
  report.check(tag + "no_compiles_after_warmup", phase.counters.compiles == 0);
}

}  // namespace

void runWordcountBatch(const RunConfig& config, Clock::time_point processStart,
                       Report& report) {
  workers::WorkerPool::shared();  // pool spin-up belongs to set-up
  WordcountTenant tenant(config);
  report.failed += tenant.warmUp(&report.attempted);
  const double setupCpu = cpuSecondsWithChildren();
  const double setupScale = hostScale(measureReference(kSetupReferenceRuns));
  report.metric("setup_s", setupCpu * setupScale, "s");
  report.metric("peak_rss_mb", peakRssMb(), "MB");
  report.note("setup_wall_s", std::to_string(secondsSince(processStart)));
  report.note("native_tier_after_setup", nativeTierSummary());
  if (config.setupOnly) return;

  Tracer off(false);
  const Phase untraced = runPhase(tenant, off, config.seconds);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;
  checkPhase(report, untraced, "", /*tail=*/true);
  const double untracedRss = peakRssMb();
  if (!config.trace) {
    recordEndToEnd(report, untraced.figures());
    return;
  }
  recordWall(report, untraced.figures());
  report.metric("host.reference_ms", untraced.referenceMs.median(), "ms");

  Tracer tracer(true);
  const Phase traced = runPhase(tenant, tracer, config.seconds);
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  checkPhase(report, traced, "traced.", /*tail=*/false);
  const double open = tracer.durationsMs("persist.open").median();
  const double clone = tracer.durationsMs("blocks.clone_in").median();
  const double vmJob = tracer.durationsMs("vm.job").median();
  const double mrRun = tracer.durationsMs("mapreduce.run").median();
  report.metric("persist.open_ms", open, "ms");
  report.metric("blocks.clone_in_ms", clone, "ms");
  report.metric("native.map_ms", tracer.durationsMs("native.map").median(),
                "ms");
  traced.counters.record(report, double(traced.attempted));
  report.metric("mapreduce.run_ms", mrRun, "ms");
  report.metric("mapreduce.seq_ms",
                tracer.durationsMs("mapreduce.seq").median(), "ms");
  report.metric("mapreduce.keys", traced.keys.median(), "count");
  report.metric("mapreduce.map_makespan", traced.mapMakespan.median(),
                "count");
  report.metric("mapreduce.reduce_makespan", traced.reduceMakespan.median(),
                "count");
  report.metric("mapreduce.degraded", double(traced.degradedRuns), "count");
  report.metric("vm.job_ms", vmJob, "ms");
  report.metric("vm.overhead_ms", vmJob - clone - mrRun, "ms");
  report.metric("failed_frac",
                double(report.failed) /
                    double(std::max<uint64_t>(report.attempted, 1)),
                "ratio");
  recordOverhead(report, untraced.figures(), traced.figures());
  report.metric("overhead.peak_rss_mb", peakRssMb() - untracedRss, "MB");
  tracer.writeChromeTrace(
      (std::filesystem::path(config.workDir) / "trace.json").string(), 20000);
}

}  // namespace perfbench
