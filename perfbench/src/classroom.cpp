// classroom: one SessionServer (maxWorkers = 2) kept at 200 live tenants,
// closed loop — after every frame, as many new tenants are admitted as
// completed. Tenants cycle through the recoverable mix: ticker(64),
// concession(4 cups), wordcount(2000 words), climate(10 years), with
// per-session seeds derived from the tenant index and the workload seed.
//
// The end-to-end metrics come from this server with supervision off. The
// traced run measures it again with spans on, then runs a second server
// over the same tenant mix with supervision on (checkpoints every 4
// session frames into a directory on the checkout's disk) for the
// supervise.* and ckpt.* layers. That phase has no end-to-end metric: each
// checkpoint write fsyncs, and on a shared virtual disk its throughput
// drifts by tens of percent between runs (README.md).
//
// The benchmark wraps each workload's hooks: `check` stamps the session's
// completion (admit -> completion latency) and records its verdict;
// traced, `start`, `check` and `capture` are spans, captured projects are
// fingerprinted by a per-tenant CheckpointHasher, and a sample of the
// captures that changed is replayed through writeCheckpoint into a shadow
// directory kept at the live directory's file count.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "counters.hpp"
#include "native/tier.hpp"
#include "project/snapshot.hpp"
#include "scenarios/serve.hpp"
#include "serve/session_server.hpp"
#include "serve/supervise.hpp"
#include "support/rng.hpp"
#include "workers/worker_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace psnap;

constexpr size_t kLiveTenants = 200;
constexpr uint64_t kCheckpointInterval = 4;
constexpr size_t kTickerTarget = 64;
/// Long-lived tickers come to fill most of the live population, so the
/// mix settles only once the first tickers have been replaced: set-up
/// runs two ticker lifetimes of frames.
constexpr uint64_t kWarmupFrames = 2 * kTickerTarget;
constexpr size_t kKinds = 4;
const char* const kKindNames[kKinds] = {"ticker", "concession", "wordcount",
                                        "climate"};
constexpr size_t kWordcountKind = 2;
constexpr double kWordcountWords = 2000;
/// Traced: replay every n-th changed capture, and sample the live
/// checkpoint directory every n-th frame.
constexpr uint64_t kReplayEvery = 8;
constexpr uint64_t kListEvery = 8;

/// Per-tenant state the wrapped hooks share.
struct Tenant {
  uint64_t index = 0;
  size_t kind = 0;
  uint64_t seed = 0;  ///< the n-th draw of the workload seed's generator
  Clock::time_point admitted;
  serve::CheckpointHasher hasher;
  bool hashed = false;
  uint64_t lastFingerprint = 0;
  uint64_t replaySeq = 0;
};

struct Completion {
  size_t kind = 0;
  double latencyMs = 0;
  bool ok = false;
  Clock::time_point at;
};

struct Replay {
  std::shared_ptr<Tenant> tenant;
  project::Project project;
};

struct Phase {
  uint64_t firstFrame = 0;  ///< the server's frame counter at the start
  double wallSeconds = 0;
  std::vector<Completion> completions;
  Samples frameMs;  ///< the server's own frameSeconds(), in ms
  /// Process CPU time of each turn of the loop: admissions plus one frame.
  Samples opCpuMs;
  Samples referenceMs;  ///< the reference kernel, after every 64th frame
  Samples activePerFrame;
  uint64_t rejected = 0;
  Counters counters;
  serve::ServerMetrics serverBefore, serverAfter;

  uint64_t failedSessions() const {
    return (serverAfter.failed - serverBefore.failed) +
           (serverAfter.shed - serverBefore.shed) + rejected;
  }
  uint64_t wrongOutputs() const {
    return uint64_t(std::count_if(completions.begin(), completions.end(),
                                  [](const Completion& c) { return !c.ok; }));
  }
  Samples latencies(bool wordcountOnly) const {
    Samples out;
    for (const Completion& c : completions) {
      if (c.ok && (!wordcountOnly || c.kind == kWordcountKind)) {
        out.add(c.latencyMs);
      }
    }
    return out;
  }

  /// Over the verified sessions.
  PhaseFigures figures() const {
    const Samples sessions = latencies(false);
    const Samples wordcount = latencies(true);
    PhaseFigures f;
    const double scale = hostScale(referenceMs);
    const double cpuSeconds = opCpuMs.sum() / 1e3 * scale;
    if (cpuSeconds > 0) {
      f.wordsPerCpuS = double(wordcount.size()) * kWordcountWords / cpuSeconds;
      f.sessionsPerCpuS = double(sessions.size()) / cpuSeconds;
    }
    f.opCpuP50Ms = opCpuMs.median() * scale;
    f.opCpuP90Ms = opCpuMs.percentile(0.90) * scale;
    if (wallSeconds > 0) {
      f.wordsPerS = double(wordcount.size()) * kWordcountWords / wallSeconds;
      f.sessionsPerS = double(sessions.size()) / wallSeconds;
    }
    f.jobP90Ms = wordcount.percentile(0.90);
    f.sessionP50Ms = sessions.median();
    f.sessionP99Ms = sessions.percentile(0.99);
    f.sliceGapP99Ms = frameMs.percentile(0.99);
    return f;
  }
};

class Classroom {
 public:
  Classroom(const RunConfig& config, bool checkpoints, Tracer& tracer)
      : seeds_(config.seed), tracer_(tracer) {
    serve::ServerConfig server;
    server.maxSessions = kLiveTenants;
    server.maxWorkers = 2;
    if (checkpoints) {
      liveDir_ = (fs::path(config.workDir) / "checkpoints").string();
      shadowDir_ = (fs::path(config.workDir) / "shadow").string();
      saveDir_ = (fs::path(config.workDir) / "save").string();
      for (const std::string& dir : {liveDir_, shadowDir_, saveDir_}) {
        fs::remove_all(dir);
        fs::create_directories(dir);
      }
      server.checkpointDir = liveDir_;
      server.checkpointIntervalFrames = kCheckpointInterval;
    }
    server_ = std::make_unique<serve::SessionServer>(server);
  }
  // The server's hooks hold `this`.
  Classroom(const Classroom&) = delete;
  Classroom& operator=(const Classroom&) = delete;

  /// Run the set-up frames and count their sessions into `report`.
  void warmUp(Report& report) {
    uint64_t rejected = 0;
    for (uint64_t frame = 0; frame < kWarmupFrames; ++frame) {
      rejected += fill();
      server_->runFrame();
    }
    native::TierManager::instance().joinInflightCompiles();
    for (const Completion& c : completions_) {
      ++report.attempted;
      if (!c.ok) ++report.failed;
    }
    completions_.clear();
    const serve::ServerMetrics& m = server_->metrics();
    report.attempted += m.failed + m.shed + rejected;
    report.failed += m.failed + m.shed + rejected;
  }

  /// Closed-loop frames for `seconds`.
  Phase runPhase(double seconds) {
    Phase phase;
    const Counters before = Counters::sample();
    phase.serverBefore = server_->metrics();
    phase.firstFrame = server_->frameCount();
    completions_.clear();
    const size_t firstFrame = server_->frameSeconds().size();
    const auto start = Clock::now();
    uint64_t frames = 0;
    while (secondsSince(start) < seconds) {
      const double cpuBefore = cpuSeconds();
      phase.rejected += fill();
      phase.activePerFrame.add(double(server_->activeSessions()));
      {
        auto span = tracer_.span("serve.frame", frames);
        server_->runFrame();
      }
      phase.opCpuMs.add((cpuSeconds() - cpuBefore) * 1e3);
      ++frames;
      if (frames % 64 == 0) phase.referenceMs.add(referenceKernelCpuMs());
      if (tracer_.enabled() && !liveDir_.empty()) {
        if (frames % kListEvery == 0) sampleLiveDirectory();
        replayOne();
      }
    }
    phase.wallSeconds = secondsSince(start);
    phase.counters = Counters::since(before, Counters::sample());
    phase.serverAfter = server_->metrics();
    phase.completions = std::move(completions_);
    completions_.clear();
    const std::vector<double>& frameSeconds = server_->frameSeconds();
    for (size_t i = firstFrame; i < frameSeconds.size(); ++i) {
      phase.frameMs.add(frameSeconds[i] * 1e3);
    }
    return phase;
  }

  /// Frames granted to the sessions that completed during `phase`, by
  /// kind (the label's prefix).
  std::vector<std::vector<uint64_t>> framesByKind(const Phase& phase) const {
    std::vector<std::vector<uint64_t>> out(kKinds);
    for (const serve::SessionRecord& record : server_->records()) {
      if (record.state != serve::SessionState::Completed ||
          record.finishedAtFrame < phase.firstFrame) {
        continue;
      }
      const std::string kind = record.label.substr(0, record.label.find(':'));
      for (size_t k = 0; k < kKinds; ++k) {
        if (kind == kKindNames[k]) out[k].push_back(record.framesRun);
      }
    }
    return out;
  }

  const Samples& writeBytes() const { return writeBytes_; }
  const Samples& dirFiles() const { return dirFiles_; }

 private:
  /// Admit tenants until the server holds kLiveTenants live sessions.
  /// Returns admissions the server rejected.
  uint64_t fill() {
    uint64_t rejected = 0;
    while (server_->activeSessions() < kLiveTenants) {
      auto tenant = std::make_shared<Tenant>();
      tenant->index = nextIndex_++;
      tenant->kind = tenant->index % kKinds;
      tenant->seed = seeds_.next();
      serve::SessionWorkload workload = wrap(tenant);
      try {
        tenant->admitted = Clock::now();
        auto span = tracer_.span("serve.admit", tenant->index);
        lastId_ = server_->admit(std::move(workload));
      } catch (const std::exception&) {
        ++rejected;
        break;
      }
    }
    return rejected;
  }

  static serve::SessionWorkload base(const Tenant& tenant) {
    switch (tenant.kind) {
      case 0:
        return scenarios::serveTickerWorkload(kTickerTarget);
      case 1:
        return scenarios::serveConcessionWorkload(4);
      case kWordcountKind:
        return scenarios::serveWordCountWorkload(size_t(kWordcountWords),
                                                 tenant.seed);
      default:
        return scenarios::serveClimateWorkload(10, tenant.seed);
    }
  }

  serve::SessionWorkload wrap(const std::shared_ptr<Tenant>& tenant) {
    serve::SessionWorkload workload = base(*tenant);
    workload.start = [this, tenant, inner = workload.start](
                         sched::ThreadManager& tm) {
      auto span = tracer_.span("scenarios.start", tenant->index);
      return inner(tm);
    };
    workload.check = [this, tenant, inner = workload.check](
                         sched::ThreadManager& tm,
                         const std::shared_ptr<void>& state) {
      bool ok = false;
      {
        auto span = tracer_.span("serve.check", tenant->index);
        ok = inner(tm, state);
      }
      const auto now = Clock::now();
      completions_.push_back(
          {tenant->kind, msBetween(tenant->admitted, now), ok, now});
      return ok;
    };
    workload.capture = [this, tenant, inner = workload.capture](
                           sched::ThreadManager& tm,
                           const std::shared_ptr<void>& state) {
      project::Project project;
      {
        auto span = tracer_.span("supervise.capture", tenant->index);
        project = inner(tm, state);
      }
      if (tracer_.enabled()) noteCapture(tenant, project);
      return project;
    };
    return workload;
  }

  /// Traced: fingerprint the capture as the server does, and queue every
  /// kReplayEvery-th one whose content changed for a shadow write.
  void noteCapture(const std::shared_ptr<Tenant>& tenant,
                   const project::Project& project) {
    uint64_t fingerprint = 0;
    {
      auto span = tracer_.span("supervise.hash", tenant->index);
      fingerprint = tenant->hasher.fingerprint(project);
    }
    if (tenant->hashed && fingerprint == tenant->lastFingerprint) return;
    tenant->hashed = true;
    tenant->lastFingerprint = fingerprint;
    if (++changedCaptures_ % kReplayEvery == 0 && replays_.size() < 4) {
      replays_.push_back({tenant, project});
    }
  }

  /// Time the per-write prune scan on the live directory and record its
  /// size.
  void sampleLiveDirectory() {
    {
      auto span = tracer_.span("supervise.list", lastId_);
      serve::listCheckpoints(liveDir_, lastId_);
    }
    size_t files = 0;
    std::error_code ec;
    for (fs::directory_iterator it(liveDir_, ec), end; !ec && it != end;
         it.increment(ec)) {
      ++files;
    }
    liveFiles_ = files;
    dirFiles_.add(double(files));
  }

  /// Replay one queued capture: writeCheckpoint into the shadow directory
  /// (padded to the live file count), then saveProjectSnapshot of the
  /// same project without the prune.
  void replayOne() {
    if (replays_.empty()) return;
    Replay replay = std::move(replays_.front());
    replays_.pop_front();
    padShadow();
    serve::CheckpointMeta meta;
    meta.sessionId = replay.tenant->index + 1;
    meta.seq = ++replay.tenant->replaySeq;
    meta.label = kKindNames[replay.tenant->kind];
    {
      auto span = tracer_.span("supervise.write", replay.tenant->index);
      serve::writeCheckpoint(shadowDir_, meta, replay.project);
    }
    if (meta.seq <= serve::kKeepGenerations) ++shadowFiles_;
    std::error_code ec;
    const auto bytes = fs::file_size(
        serve::checkpointPath(shadowDir_, meta.sessionId, meta.seq), ec);
    if (!ec) writeBytes_.add(double(bytes));
    auto span = tracer_.span("persist.save", replay.tenant->index);
    project::saveProjectSnapshot(
        (fs::path(saveDir_) / "replay.snap").string(), replay.project);
  }

  /// Keep the shadow directory at the live directory's file count with
  /// empty checkpoint-named placeholders.
  void padShadow() {
    while (shadowFiles_ < liveFiles_) {
      std::ofstream(serve::checkpointPath(shadowDir_,
                                          kPlaceholderBase + placeholders_, 1));
      ++placeholders_;
      ++shadowFiles_;
    }
    while (shadowFiles_ > liveFiles_ && placeholders_ > 0) {
      --placeholders_;
      std::error_code ec;
      fs::remove(serve::checkpointPath(shadowDir_,
                                       kPlaceholderBase + placeholders_, 1),
                 ec);
      --shadowFiles_;
    }
  }

  static constexpr uint64_t kPlaceholderBase = 1'000'000'000'000ull;

  Rng seeds_;
  Tracer& tracer_;
  std::string liveDir_, shadowDir_, saveDir_;
  uint64_t nextIndex_ = 0;
  uint64_t lastId_ = 0;
  std::vector<Completion> completions_;
  uint64_t changedCaptures_ = 0;
  std::deque<Replay> replays_;
  size_t liveFiles_ = 0;
  size_t shadowFiles_ = 0;
  uint64_t placeholders_ = 0;
  Samples writeBytes_;
  Samples dirFiles_;
  // Declared last so it is destroyed first: its sessions hold hooks that
  // point into this object.
  std::unique_ptr<serve::SessionServer> server_;
};

/// Count a phase's sessions into the report; `tag` prefixes its notes.
void countPhase(Report& report, const Phase& phase, const std::string& tag) {
  report.note(tag + "frames", std::to_string(phase.frameMs.size()));
  report.note(tag + "sessions", std::to_string(phase.completions.size()));
  report.attempted += phase.completions.size() + phase.failedSessions();
  report.failed += phase.failedSessions() + phase.wrongOutputs();
}

/// The serving layers, from the traced phase of the unsupervised server.
void recordServe(Report& report, const Tracer& tracer, const Phase& phase,
                 const Classroom& classroom) {
  const Samples admit = tracer.durationsMs("serve.admit");
  report.metric("serve.admit_ms_p50", admit.median(), "ms");
  report.metric("serve.admit_ms_p99", admit.percentile(0.99), "ms");
  report.metric("scenarios.start_ms",
                tracer.durationsMs("scenarios.start").median(), "ms");
  const Samples frames = tracer.durationsMs("serve.frame");
  report.metric("serve.frame_ms_p50", frames.median(), "ms");
  report.metric("serve.frame_ms_p99", frames.percentile(0.99), "ms");
  report.metric("serve.sessions_per_frame", phase.activePerFrame.mean(),
                "count");
  report.metric("serve.frame_us_per_session",
                frames.sum() * 1e3 / std::max(phase.activePerFrame.sum(), 1.0),
                "us");
  double fairness = 0;
  const auto byKind = classroom.framesByKind(phase);
  for (size_t kind = 0; kind < kKinds; ++kind) {
    Samples framesRun;
    for (const uint64_t n : byKind[kind]) framesRun.add(double(n));
    report.metric(std::string("serve.frames_per_session.") + kKindNames[kind],
                  framesRun.median(), "count");
    fairness = std::max(fairness,
                        serve::SessionServer::fairnessSpread(byKind[kind]));
  }
  report.metric("serve.fairness_spread", fairness, "ratio");
  report.metric("serve.check_ms", tracer.durationsMs("serve.check").median(),
                "ms");
}

/// The checkpoint layers, from the traced phase of the supervised server.
void recordCheckpoints(Report& report, const Tracer& tracer,
                       const Phase& phase, const Classroom& classroom) {
  const Samples capture = tracer.durationsMs("supervise.capture");
  report.metric("supervise.capture_ms_p50", capture.median(), "ms");
  report.metric("supervise.capture_ms_p99", capture.percentile(0.99), "ms");
  report.metric("supervise.hash_ms",
                tracer.durationsMs("supervise.hash").median(), "ms");
  const Samples write = tracer.durationsMs("supervise.write");
  report.metric("supervise.write_ms_p50", write.median(), "ms");
  report.metric("supervise.write_ms_p99", write.percentile(0.99), "ms");
  report.metric("persist.save_ms", tracer.durationsMs("persist.save").median(),
                "ms");
  report.metric("supervise.list_ms",
                tracer.durationsMs("supervise.list").median(), "ms");
  report.metric("supervise.dir_files", classroom.dirFiles().median(), "count");

  const serve::ServerMetrics& a = phase.serverBefore;
  const serve::ServerMetrics& b = phase.serverAfter;
  const double written = double(b.checkpointsWritten - a.checkpointsWritten);
  const double skipped = double(b.checkpointsSkipped - a.checkpointsSkipped);
  const double failures = double(b.checkpointFailures - a.checkpointFailures);
  const double ksessions =
      double(std::max<size_t>(phase.completions.size(), 1)) / 1e3;
  report.metric("ckpt.written", written / ksessions, "1/ksession");
  report.metric("ckpt.skipped", skipped / ksessions, "1/ksession");
  report.metric("ckpt.failures", failures / ksessions, "1/ksession");
  report.metric("ckpt.useful_frac",
                written + skipped > 0 ? written / (written + skipped) : 0,
                "ratio");
  report.metric("ckpt.bytes", classroom.writeBytes().mean(), "B");
  const PhaseFigures figures = phase.figures();
  report.metric("ckpt.sessions_per_cpu_s", figures.sessionsPerCpuS,
                "sessions/cpu_s");
  report.metric("ckpt.sessions_per_s", figures.sessionsPerS, "sessions/s");
  report.metric("ckpt.slice_gap_p99_ms", figures.sliceGapP99Ms, "ms");
  report.check("ckpt.checkpoints_written", written > 0);
  report.check("ckpt.no_checkpoint_failures", failures == 0);
}

}  // namespace

void runClassroom(const RunConfig& config, Clock::time_point processStart,
                  Report& report) {
  workers::WorkerPool::shared();  // pool spin-up belongs to set-up
  Tracer tracer(false);
  auto classroom = std::make_unique<Classroom>(config, false, tracer);
  classroom->warmUp(report);
  const double setupCpu = cpuSecondsWithChildren();
  const double setupScale = hostScale(measureReference(kSetupReferenceRuns));
  report.metric("setup_s", setupCpu * setupScale, "s");
  // Measured before the timed phase: the server keeps a record of every
  // finished session, so later growth follows throughput, not footprint.
  report.metric("peak_rss_mb", peakRssMb(), "MB");
  report.note("setup_wall_s", std::to_string(secondsSince(processStart)));
  report.note("native_tier_after_setup", nativeTierSummary());
  if (config.setupOnly) return;

  const Phase untraced = classroom->runPhase(config.seconds);
  countPhase(report, untraced, "");
  // Every reported tail needs ten samples beyond it.
  report.check("ops_beyond_p90_ge_10", untraced.opCpuMs.beyond(0.90) >= 10);
  report.check("frames_beyond_p99_ge_10", untraced.frameMs.beyond(0.99) >= 10);
  report.check("sessions_beyond_p99_ge_10",
               untraced.latencies(false).beyond(0.99) >= 10);
  const double untracedRss = peakRssMb();
  if (!config.trace) {
    recordEndToEnd(report, untraced.figures());
    return;
  }
  recordWall(report, untraced.figures());
  report.metric("host.reference_ms", untraced.referenceMs.median(), "ms");

  tracer.enable();
  const Phase traced = classroom->runPhase(config.seconds);
  countPhase(report, traced, "traced.");
  recordServe(report, tracer, traced, *classroom);
  traced.counters.record(report, double(traced.completions.size()));
  recordOverhead(report, untraced.figures(), traced.figures());
  report.metric("overhead.peak_rss_mb", peakRssMb() - untracedRss, "MB");
  tracer.writeChromeTrace((fs::path(config.workDir) / "trace.json").string(),
                          20000);
  classroom.reset();  // one server at a time

  Tracer ckptTracer(true);
  Classroom supervised(config, true, ckptTracer);
  supervised.warmUp(report);
  const Phase ckpt = supervised.runPhase(config.seconds);
  countPhase(report, ckpt, "ckpt.");
  recordCheckpoints(report, ckptTracer, ckpt, supervised);
  ckptTracer.writeChromeTrace(
      (fs::path(config.workDir) / "trace-ckpt.json").string(), 20000);
  report.metric("failed_frac",
                double(report.failed) /
                    double(std::max<uint64_t>(report.attempted, 1)),
                "ratio");
}

}  // namespace perfbench
