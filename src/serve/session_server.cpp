#include "serve/session_server.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <optional>
#include <utility>

#include "blocks/registry.hpp"
#include "core/parallel_blocks.hpp"
#include "persist/catalog.hpp"
#include "support/fault.hpp"
#include "workers/worker_pool.hpp"

namespace psnap::serve {

const char* sessionStateName(SessionState state) {
  switch (state) {
    case SessionState::Active:
      return "active";
    case SessionState::Completed:
      return "completed";
    case SessionState::Failed:
      return "failed";
    case SessionState::Shed:
      return "shed";
    case SessionState::Drained:
      return "drained";
  }
  return "?";
}

SessionServer::SessionServer(ServerConfig config)
    : config_(config),
      registry_(&blocks::BlockRegistry::standard()),
      primitives_(core::fullPrimitiveTable()),
      hub_(std::make_shared<vm::WakeHub>()) {}

SessionServer::~SessionServer() {
  // Trip every live tenant's root before the managers destruct, so any
  // in-flight pool work unwinds at its next checkpoint instead of being
  // waited on to natural completion.
  for (auto& session : active_) {
    session->root->cancel("server shutting down");
    session->manager->stopAll();
    // Settle any in-flight checkpoint write (it holds the captured
    // project by value, not the session, but its counters land here) and
    // end the stats lease so async work can no longer charge the freed
    // scope.
    if (session->pendingWrite) session->pendingWrite->group->wait();
    workers::retireStatsScope(session->stats);
  }
}

std::unique_ptr<SessionServer::Session> SessionServer::makeSession(
    uint64_t id, SessionWorkload workload) {
  auto session = std::make_unique<Session>();
  session->id = id;
  session->workload = std::move(workload);
  session->admittedAtFrame = frame_;
  session->root =
      config_.sessionDeadlineSeconds > 0
          ? CancelToken::withDeadline(config_.sessionDeadlineSeconds)
          : CancelToken::create();
  session->stats.setParent(&workers::processSubstrateStats());
  session->manager =
      std::make_unique<sched::ThreadManager>(registry_, &primitives_);
  // All tenants park on the server's hub: a completion arriving for any
  // session can rouse a server asleep in runUntilQuiet(). Must precede
  // workload.start(), which may already park processes.
  session->manager->setWakeHub(hub_);
  session->manager->setDefaultCancelToken(session->root);
  session->manager->setSliceSteps(config_.sliceSteps);
  session->manager->setMaxWorkers(config_.maxWorkers);
  if (!config_.nativeTier) session->manager->setNativeTier(false);
  return session;
}

uint64_t SessionServer::admit(SessionWorkload workload) {
  const uint64_t id = nextId_;
  try {
    if (draining_) {
      throw SubstrateError("admission rejected: server is draining; '" +
                           workload.label + "' must go elsewhere");
    }
    fault::inject(fault::Point::SessionAdmitFailure, id);
    if (active_.size() >= config_.maxSessions) {
      throw SubstrateError(
          "admission rejected: session table at its high-water mark (" +
          std::to_string(config_.maxSessions) + " live sessions); '" +
          workload.label + "' must retry later");
    }
  } catch (const SubstrateError&) {
    ++metrics_.rejected;
    throw;
  }
  ++nextId_;

  // A saturated pool observed in the launch window sheds the *newest*
  // admitted tenant: it has the least sunk work, and the oldest tenants
  // are closest to finishing and releasing capacity on their own.
  try {
    fault::inject(fault::Point::PoolSaturation, id);
  } catch (const SubstrateError& overload) {
    ++metrics_.overloadSheds;
    shedNewestActive(std::string("overload shed: ") + overload.what());
  }

  auto session = makeSession(id, std::move(workload));
  ++metrics_.admitted;

  {
    workers::StatsScope scope(session->stats);
    try {
      session->state = session->workload.start(*session->manager);
    } catch (...) {
      // Launch crash containment: the tenant failed to start, the slot is
      // recycled, and the server carries on.
      contain(*session, std::current_exception());
      finalize(std::move(session));
      return id;
    }
  }
  // Lease the tenant's stats scope for async attribution (the native
  // tier's fire-and-forget compiles); retired at finalize/restart-park.
  workers::registerStatsScope(session->stats);
  active_.push_back(std::move(session));
  return id;
}

void SessionServer::runSessionFrame(Session& session) {
  // Everything this tenant executes on the server thread — and, via
  // capture-at-construction in TaskGroup/Parallel/mr::Job, everything its
  // frame hands to pool workers — records into its own ledger.
  workers::StatsScope scope(session.stats);
  try {
    // Wake parked processes whose completion arrived and fail those whose
    // deadline tripped while parked, *before* deciding whether the tenant
    // has anything to run.
    session.manager->pollParked();
    if (!session.manager->hasReadyWork()) {
      // Every live process is parked on an in-flight completion (or the
      // manager just went idle and the recycle pass will collect it).
      // Skip the slice and charge nothing: a blocked tenant must not
      // burn its frame budget — nor count in the fairness ledger — on
      // frames it could not use.
      return;
    }
    fault::inject(fault::Point::TenantStall, session.id);
    session.manager->runFrame();
    ++session.framesRun;
    watchdog(session);
    maybeCheckpoint(session);
  } catch (...) {
    // Frame crash containment: only this tenant fails.
    contain(session, std::current_exception());
  }
}

void SessionServer::observeCheckpointWrite(Session& session, bool wait) {
  if (!session.pendingWrite) return;
  PendingWrite& pending = *session.pendingWrite;
  if (wait) {
    // wait() drains unclaimed tasks on this thread, so the settle
    // completes even if the pool never picked the write up.
    pending.group->wait();
  } else if (!pending.group->done()) {
    return;
  }
  if (pending.ok.load(std::memory_order_acquire)) {
    ++session.checkpointsWritten;
    ++metrics_.checkpointsWritten;
    session.hasFingerprint = true;
    session.lastFingerprint = pending.fingerprint;
    session.checkpointSeq = pending.seq + 1;
  } else {
    // The write died (CheckpointWriteFailure or real I/O). The previous
    // generation is still valid; the same seq is retried next interval.
    ++metrics_.checkpointFailures;
  }
  session.pendingWrite.reset();
}

void SessionServer::maybeCheckpoint(Session& session) {
  if (!supervised() || !session.workload.recoverable()) return;
  observeCheckpointWrite(session, /*wait=*/false);
  if (session.framesRun - session.lastCheckpointFrame <
      config_.checkpointIntervalFrames) {
    return;
  }
  // One write in flight per session: while the previous one is still on
  // the pool, re-check next frame rather than queueing a second.
  if (session.pendingWrite) return;
  std::optional<CheckpointDraft> draft = draftCheckpoint(session);
  // A failed capture or an unchanged project waits a full interval too.
  session.lastCheckpointFrame = session.framesRun;
  if (!draft) return;
  auto pending = std::make_shared<PendingWrite>();
  pending->fingerprint = draft->fingerprint;
  pending->seq = draft->meta.seq;
  const std::string dir = config_.checkpointDir;
  // The task owns its own copies (the captured project's values are COW
  // clones, immune to the session's later mutations); the session is
  // never touched from the pool thread.
  auto task = [dir, meta = std::move(draft->meta),
               project = std::move(draft->project), pending](size_t) {
    try {
      writeCheckpoint(dir, meta, project);
      pending->ok.store(true, std::memory_order_release);
    } catch (...) {
      // Outcome stays false; the server counts it when it observes.
    }
  };
  pending->group = std::make_shared<workers::TaskGroup>(
      std::vector<workers::TaskGroup::Task>{std::move(task)});
  session.pendingWrite = pending;
  try {
    workers::WorkerPool::shared().submit(pending->group);
  } catch (const SubstrateError&) {
    // Pool refused (saturation, shutdown): run the write inline — wait()
    // drains the unclaimed task on this thread.
    pending->group->wait();
  }
}

bool SessionServer::checkpointNow(Session& session) {
  observeCheckpointWrite(session, /*wait=*/true);
  if (const std::optional<CheckpointDraft> draft = draftCheckpoint(session)) {
    try {
      writeCheckpoint(config_.checkpointDir, draft->meta, draft->project);
      ++session.checkpointsWritten;
      ++metrics_.checkpointsWritten;
      session.hasFingerprint = true;
      session.lastFingerprint = draft->fingerprint;
      session.checkpointSeq = draft->meta.seq + 1;
      session.lastCheckpointFrame = session.framesRun;
      return true;
    } catch (...) {
      ++metrics_.checkpointFailures;
    }
  }
  // Nothing was written now, so success means an older generation
  // exists. An unchanged fingerprint implies one does (only a write sets
  // the fingerprint), and that generation is already current.
  return session.checkpointsWritten > 0;
}

std::optional<SessionServer::CheckpointDraft> SessionServer::draftCheckpoint(
    Session& session) {
  CheckpointDraft draft;
  try {
    draft.project = session.workload.capture(*session.manager, session.state);
  } catch (...) {
    // Capture failed (e.g. a transient ring value is in a variable).
    // The session is unaffected; the caller tries again later.
    ++metrics_.checkpointFailures;
    return std::nullopt;
  }
  draft.fingerprint = session.hasher.fingerprint(draft.project);
  if (session.hasFingerprint && draft.fingerprint == session.lastFingerprint) {
    // The COW version stamps say nothing changed since the last written
    // checkpoint: skip the serialization and the disk entirely.
    ++session.checkpointsSkipped;
    ++metrics_.checkpointsSkipped;
    return std::nullopt;
  }
  draft.meta.sessionId = session.id;
  draft.meta.seq = session.checkpointSeq;
  draft.meta.label = session.workload.label;
  draft.meta.framesRun = totalFrames(session);
  draft.meta.restarts = session.restarts;
  draft.meta.clock = session.manager->clockState();
  return draft;
}

void SessionServer::watchdog(Session& session) {
  if (config_.frameBudget == 0 || session.watchdogFired) return;
  if (session.framesRun < config_.frameBudget) return;
  if (session.manager->idle()) return;
  session.watchdogFired = true;
  session.stats.bump(&workers::SubstrateStats::timeouts);
  // Trip only this tenant's root; its processes raise TimeoutError at
  // their next slice and the failure is attributed to this session id.
  session.root->timeoutNow(
      "session " + std::to_string(session.id) + " ('" +
      session.workload.label + "') exceeded its frame budget (" +
      std::to_string(config_.frameBudget) + " frames)");
}

void SessionServer::runFrame() {
  const auto started = std::chrono::steady_clock::now();
  ++frame_;
  ++metrics_.framesRun;
  reviveDue();
  const size_t count = active_.size();
  if (count > 0) {
    // Round-robin from a rotating start: over many frames every session
    // spends equal time at the head of the line, so the tenant that runs
    // first (and sees the freshest pool capacity) is not always the same.
    const size_t first = rotate_ % count;
    for (size_t k = 0; k < count; ++k) {
      runSessionFrame(*active_[(first + k) % count]);
    }
    ++rotate_;
  }
  // Recycle slots: contained failures and idle (finished) managers leave
  // the table; admission capacity frees up immediately.
  size_t keep = 0;
  for (size_t i = 0; i < active_.size(); ++i) {
    Session& session = *active_[i];
    if (session.endState != SessionState::Active || session.manager->idle()) {
      finishOrRestart(std::move(active_[i]));
    } else {
      if (keep != i) active_[keep] = std::move(active_[i]);
      ++keep;
    }
  }
  active_.resize(keep);
  frameSeconds_.push_back(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count());
}

bool SessionServer::anySessionReady() const {
  for (const auto& session : active_) {
    if (session->manager->hasReadyWork()) return true;
  }
  return false;
}

double SessionServer::parkedWaitBound() const {
  // The nearest parked deadline across all tenants bounds the sleep, so
  // a watchdog/deadline trip on a fully-parked session is still observed
  // promptly (each manager clamps its own bound to [0.1ms, 50ms]).
  double bound = 0.05;
  for (const auto& session : active_) {
    bound = std::min(bound, session->manager->parkedWaitBound());
  }
  // Pending restarts are due at a *frame* count, and wait rounds run no
  // frames — keep the sleeps short so backoff frames keep ticking.
  if (!pendingRestarts_.empty()) bound = std::min(bound, 0.0005);
  return bound;
}

uint64_t SessionServer::runUntilQuiet(uint64_t maxFrames) {
  uint64_t executed = 0;
  while (!quiet()) {
    if (executed >= maxFrames) {
      // Attribution mirrors ThreadManager::runUntilIdle: name who is
      // still active, so the stuck tenant is in the error message.
      constexpr size_t kMaxNamed = 8;
      std::string who;
      size_t named = 0;
      for (const auto& session : active_) {
        if (named == kMaxNamed) {
          who += ", …";
          break;
        }
        if (named > 0) who += ", ";
        who += "session " + std::to_string(session->id) + " ('" +
               session->workload.label + "')";
        ++named;
      }
      throw TimeoutError("server exceeded its frame budget (" +
                         std::to_string(maxFrames) +
                         " frames); still active: " + who);
    }
    // Snapshot before the frame polls each tenant: a completion landing
    // anywhere after its session's poll bumps the stamp and the wait
    // below returns immediately (race-free snapshot-then-recheck).
    const uint64_t seen = hub_->snapshot();
    runFrame();
    ++executed;
    if (!quiet() && !anySessionReady()) {
      // Every tenant is parked on in-flight completions: sleep on the
      // shared hub instead of spinning server frames. The wait round
      // still counts against maxFrames (runaway guard), but no session
      // is charged a frame for it.
      hub_->waitChanged(seen, parkedWaitBound());
    }
  }
  return executed;
}

void SessionServer::cancelSession(uint64_t id, const std::string& reason) {
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i]->id != id) continue;
    shedAt(i, reason);
    return;
  }
}

void SessionServer::publishDataset(const std::string& name,
                                   const std::string& path) {
  // One mapping per file process-wide: the catalog dedupes across
  // servers too. The stored root is pristine — tenants only ever get
  // clones of it.
  datasets_[name] = persist::openSharedList(path);
}

blocks::ListPtr SessionServer::openDataset(const std::string& name) const {
  const auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    throw SubstrateError("no dataset published as \"" + name + "\"");
  }
  return it->second->snapshotClone();
}

bool SessionServer::unpublishDataset(const std::string& name) {
  return datasets_.erase(name) > 0;
}

void SessionServer::shedNewestActive(const std::string& reason) {
  if (active_.empty()) return;
  shedAt(active_.size() - 1, reason);
}

void SessionServer::shedAt(size_t index, const std::string& reason) {
  std::unique_ptr<Session> session = std::move(active_[index]);
  active_.erase(active_.begin() + std::ptrdiff_t(index));
  session->endState = SessionState::Shed;
  session->error = reason;
  session->errorClass = ErrorClass::Cancelled;
  session->stats.bump(&workers::SubstrateStats::cancellations);
  session->root->cancel(reason);
  session->manager->stopAll();
  finalize(std::move(session));
}

void SessionServer::contain(Session& session,
                            const std::exception_ptr& error) {
  session.endState = SessionState::Failed;
  session.errorClass = classifyError(error);
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    session.error = e.what();
  } catch (...) {
    session.error = "unknown error";
  }
  session.outputOk = false;
  // First trip wins: a watchdog/deadline reason already on the root is
  // kept; otherwise in-flight pool work learns why it is unwinding.
  session.root->cancel("session " + std::to_string(session.id) +
                       " failed: " + session.error);
  session.manager->stopAll();
}

void SessionServer::resolveOutcome(Session& s) {
  // Drain (not just read) the manager's capped error log: the serving
  // layer is the long-lived caller the drain API exists for.
  sched::ThreadManager::ErrorDrain drain = s.manager->drainErrors();
  if (s.endState != SessionState::Active) return;
  if (!drain.entries.empty()) {
    const sched::ThreadManager::RecordedError& first = drain.entries.front();
    s.endState = SessionState::Failed;
    s.error = "process " + std::to_string(first.processId) + " (" +
              first.opcode + "): " + first.message;
    s.errorClass = first.errorClass;
    s.outputOk = false;
    return;
  }
  s.endState = SessionState::Completed;
  if (s.workload.check) {
    workers::StatsScope scope(s.stats);
    try {
      s.outputOk = s.workload.check(*s.manager, s.state);
    } catch (...) {
      contain(s, std::current_exception());
    }
  }
  if (s.endState == SessionState::Completed && s.workload.output) {
    workers::StatsScope scope(s.stats);
    try {
      s.output = s.workload.output(*s.manager, s.state);
    } catch (...) {
      contain(s, std::current_exception());
    }
  }
}

void SessionServer::finalize(std::unique_ptr<Session> session) {
  Session& s = *session;
  resolveOutcome(s);
  if (supervised() && s.workload.recoverable()) {
    // Settle any in-flight write so its counters land in this record,
    // then clean the disk — except for Drained sessions, whose
    // checkpoints are the hand-off to the successor server.
    observeCheckpointWrite(s, /*wait=*/true);
    if (s.endState != SessionState::Drained) {
      removeCheckpoints(config_.checkpointDir, s.id);
    }
  }
  // End the async-attribution lease before the stats scope is freed.
  workers::retireStatsScope(s.stats);
  switch (s.endState) {
    case SessionState::Completed:
      ++metrics_.completed;
      break;
    case SessionState::Failed:
      ++metrics_.failed;
      break;
    case SessionState::Shed:
      ++metrics_.shed;
      break;
    case SessionState::Drained:
      ++metrics_.drained;
      break;
    case SessionState::Active:
      break;
  }
  finished_.push_back(snapshot(s, frame_));
  // `session` dies here: manager, processes, and project state are freed,
  // in declaration order (state before manager).
}

SessionRecord SessionServer::snapshot(const Session& session,
                                      uint64_t finishedAt) const {
  SessionRecord record;
  record.id = session.id;
  record.label = session.workload.label;
  record.state = session.endState;
  record.error = session.error;
  record.errorClass = session.errorClass;
  record.outputOk = session.outputOk;
  record.framesRun = session.framesRun;
  record.admittedAtFrame = session.admittedAtFrame;
  record.finishedAtFrame = finishedAt;
  // Counters are cumulative across restarts: the baseline carries every
  // previous life's totals, the live scope counts only this one.
  record.retries = session.baseline.retries +
                   session.stats.retries.load(std::memory_order_relaxed);
  record.downgrades = session.baseline.downgrades +
                      session.stats.downgrades.load(std::memory_order_relaxed);
  record.cancellations =
      session.baseline.cancellations +
      session.stats.cancellations.load(std::memory_order_relaxed);
  record.timeouts = session.baseline.timeouts +
                    session.stats.timeouts.load(std::memory_order_relaxed);
  record.tasksSkipped =
      session.baseline.tasksSkipped +
      session.stats.tasksSkipped.load(std::memory_order_relaxed);
  record.checkpointsWritten = session.checkpointsWritten;
  record.checkpointsSkipped = session.checkpointsSkipped;
  record.restarts = session.restarts;
  record.recoveredFrames = session.recoveredFrames;
  record.output = session.output;
  return record;
}

std::vector<SessionRecord> SessionServer::records() const {
  std::vector<SessionRecord> all = finished_;
  all.reserve(finished_.size() + active_.size() + pendingRestarts_.size());
  for (const auto& session : active_) {
    all.push_back(snapshot(*session, 0));
  }
  for (const auto& pending : pendingRestarts_) {
    // Parked for backoff: logically still alive, reported as Active.
    SessionRecord record;
    record.id = pending.id;
    record.label = pending.workload.label;
    record.state = SessionState::Active;
    record.framesRun = pending.framesRun;
    record.admittedAtFrame = pending.admittedAtFrame;
    record.retries = pending.baseline.retries;
    record.downgrades = pending.baseline.downgrades;
    record.cancellations = pending.baseline.cancellations;
    record.timeouts = pending.baseline.timeouts;
    record.tasksSkipped = pending.baseline.tasksSkipped;
    record.checkpointsWritten = pending.checkpointsWritten;
    record.checkpointsSkipped = pending.checkpointsSkipped;
    record.restarts = pending.restarts;
    record.recoveredFrames = pending.recoveredFrames;
    all.push_back(std::move(record));
  }
  return all;
}

void SessionServer::rollBaseline(Session& session) {
  session.baseline.retries +=
      session.stats.retries.load(std::memory_order_relaxed);
  session.baseline.downgrades +=
      session.stats.downgrades.load(std::memory_order_relaxed);
  session.baseline.cancellations +=
      session.stats.cancellations.load(std::memory_order_relaxed);
  session.baseline.timeouts +=
      session.stats.timeouts.load(std::memory_order_relaxed);
  session.baseline.tasksSkipped +=
      session.stats.tasksSkipped.load(std::memory_order_relaxed);
}

bool SessionServer::consumeRestartBudget(PendingRestart& pending) {
  const RestartPolicy& policy = config_.restartPolicy;
  // Erlang-style max-R-in-T: a window with no failures for T frames
  // resets the count, so a long-healthy session earns its budget back.
  if (policy.budgetWindowFrames > 0 && pending.restartsInWindow > 0 &&
      frame_ - pending.windowStart >= policy.budgetWindowFrames) {
    pending.restartsInWindow = 0;
  }
  if (pending.restartsInWindow >= policy.maxRestarts) return false;
  if (pending.restartsInWindow == 0) pending.windowStart = frame_;
  ++pending.restartsInWindow;
  ++pending.restarts;
  pending.dueFrame = frame_ + policy.backoffFrames(pending.restartsInWindow);
  return true;
}

void SessionServer::finishOrRestart(std::unique_ptr<Session> session) {
  Session& s = *session;
  resolveOutcome(s);
  // Only substrate-class failures (and watchdog/deadline timeouts)
  // restart: they describe the environment, not the program. A
  // user-script error is deterministic — replaying it from a checkpoint
  // reproduces it — and a cancellation was deliberate.
  const bool eligible =
      supervised() && !draining_ && s.workload.recoverable() &&
      config_.restartPolicy.maxRestarts > 0 &&
      s.endState == SessionState::Failed &&
      (s.errorClass == ErrorClass::Substrate ||
       s.errorClass == ErrorClass::Timeout);
  if (!eligible) {
    finalize(std::move(session));
    return;
  }
  // Settle the in-flight write first: the revival below loads the newest
  // generation, which may be exactly this one.
  observeCheckpointWrite(s, /*wait=*/true);
  PendingRestart pending;
  pending.id = s.id;
  pending.workload = s.workload;
  pending.restarts = s.restarts;
  pending.restartsInWindow = s.restartsInWindow;
  pending.windowStart = s.windowStart;
  pending.admittedAtFrame = s.admittedAtFrame;
  pending.framesRun = totalFrames(s);
  pending.recoveredFrames = s.recoveredFrames;
  pending.checkpointSeq = s.checkpointSeq;
  pending.checkpointsWritten = s.checkpointsWritten;
  pending.checkpointsSkipped = s.checkpointsSkipped;
  rollBaseline(s);
  pending.baseline = s.baseline;
  if (!consumeRestartBudget(pending)) {
    s.errorClass = ErrorClass::RestartsExhausted;
    s.error = RestartsExhaustedError(
                  "session " + std::to_string(s.id) + " ('" +
                  s.workload.label + "') failed " +
                  std::to_string(pending.restartsInWindow) +
                  " times within its budget window; last error: " + s.error)
                  .what();
    ++metrics_.restartsExhausted;
    finalize(std::move(session));  // terminal: checkpoints are removed
    return;
  }
  // Parked, not finished: no record is pushed — the session is still
  // logically alive and will reappear in active_ when its backoff ends.
  workers::retireStatsScope(s.stats);
  pendingRestarts_.push_back(std::move(pending));
  // The failed life dies here (manager, processes, state); its progress
  // lives on in the newest checkpoint.
}

void SessionServer::reviveDue() {
  if (pendingRestarts_.empty()) return;
  std::vector<PendingRestart> due;
  size_t keep = 0;
  for (size_t i = 0; i < pendingRestarts_.size(); ++i) {
    if (pendingRestarts_[i].dueFrame <= frame_) {
      due.push_back(std::move(pendingRestarts_[i]));
    } else {
      if (keep != i) pendingRestarts_[keep] = std::move(pendingRestarts_[i]);
      ++keep;
    }
  }
  pendingRestarts_.resize(keep);
  for (PendingRestart& pending : due) {
    try {
      // The chaos hook: a restart storm is an environment that keeps
      // killing revivals — each attempt burns budget like any failure.
      fault::inject(fault::Point::RestartStorm, pending.id);
      auto session = makeSession(pending.id, pending.workload);
      Session& s = *session;
      s.restarts = pending.restarts;
      s.restartsInWindow = pending.restartsInWindow;
      s.windowStart = pending.windowStart;
      s.admittedAtFrame = pending.admittedAtFrame;
      s.baseline = pending.baseline;
      s.checkpointSeq = pending.checkpointSeq;
      s.checkpointsWritten = pending.checkpointsWritten;
      s.checkpointsSkipped = pending.checkpointsSkipped;
      std::optional<LoadedCheckpoint> loaded =
          loadNewestCheckpoint(config_.checkpointDir, pending.id);
      {
        workers::StatsScope scope(s.stats);
        if (loaded) {
          s.manager->restoreClockState(loaded->meta.clock);
          s.recoveredFrames = loaded->meta.framesRun;
          s.checkpointSeq = std::max(s.checkpointSeq, loaded->meta.seq + 1);
          s.state = s.workload.resume(*s.manager, loaded->project);
        } else {
          // Every generation was lost or corrupt: restart from scratch.
          s.state = s.workload.start(*s.manager);
        }
      }
      workers::registerStatsScope(s.stats);
      ++metrics_.restarts;
      active_.push_back(std::move(session));
    } catch (...) {
      // The revival itself failed. Burn another budget unit and re-park,
      // or finalize once the budget is spent.
      if (consumeRestartBudget(pending)) {
        pendingRestarts_.push_back(std::move(pending));
        continue;
      }
      std::string message = "unknown error";
      try {
        throw;
      } catch (const std::exception& e) {
        message = e.what();
      } catch (...) {
      }
      ++metrics_.restartsExhausted;
      finalizePending(std::move(pending), SessionState::Failed,
                      RestartsExhaustedError(
                          "session " + std::to_string(pending.id) + " ('" +
                          pending.workload.label +
                          "') could not be revived; last error: " + message)
                          .what(),
                      ErrorClass::RestartsExhausted);
    }
  }
}

void SessionServer::finalizePending(PendingRestart pending, SessionState state,
                                    const std::string& error,
                                    ErrorClass errorClass) {
  SessionRecord record;
  record.id = pending.id;
  record.label = pending.workload.label;
  record.state = state;
  record.error = error;
  record.errorClass = errorClass;
  record.outputOk = state != SessionState::Failed;
  record.framesRun = pending.framesRun;
  record.admittedAtFrame = pending.admittedAtFrame;
  record.finishedAtFrame = frame_;
  record.retries = pending.baseline.retries;
  record.downgrades = pending.baseline.downgrades;
  record.cancellations = pending.baseline.cancellations;
  record.timeouts = pending.baseline.timeouts;
  record.tasksSkipped = pending.baseline.tasksSkipped;
  record.checkpointsWritten = pending.checkpointsWritten;
  record.checkpointsSkipped = pending.checkpointsSkipped;
  record.restarts = pending.restarts;
  record.recoveredFrames = pending.recoveredFrames;
  switch (state) {
    case SessionState::Failed:
      ++metrics_.failed;
      // Terminal failure: the checkpoints will never be read again.
      removeCheckpoints(config_.checkpointDir, pending.id);
      break;
    case SessionState::Drained:
      ++metrics_.drained;  // checkpoints stay for the successor
      break;
    default:
      break;
  }
  finished_.push_back(std::move(record));
}

size_t SessionServer::drain() {
  draining_ = true;
  size_t drained = 0;
  std::vector<std::unique_ptr<Session>> sessions = std::move(active_);
  active_.clear();
  for (auto& session : sessions) {
    Session& s = *session;
    if (supervised() && s.workload.recoverable() &&
        s.endState == SessionState::Active) {
      // Last-chance synchronous checkpoint: the successor resumes from
      // exactly this point. The pooled write (if any) settles first so
      // checkpointNow sees the current fingerprint.
      checkpointNow(s);
    }
    s.root->cancel("server draining");
    s.manager->stopAll();
    if (s.endState == SessionState::Active) {
      s.endState = SessionState::Drained;
      ++drained;
    }
    finalize(std::move(session));
  }
  for (PendingRestart& pending : pendingRestarts_) {
    // A parked restart's newest checkpoint is already its hand-off;
    // nothing to write, just record it as drained.
    ++drained;
    finalizePending(std::move(pending), SessionState::Drained, "",
                    ErrorClass::None);
  }
  pendingRestarts_.clear();
  return drained;
}

std::vector<uint64_t> SessionServer::recoverSessions(
    const std::function<SessionWorkload(const CheckpointMeta&)>& factory) {
  std::vector<uint64_t> recovered;
  if (!supervised() || draining_) return recovered;
  // A predecessor killed mid-write leaves `<ckpt>.tmp.<pid>` stage files;
  // sweep the dead writers' orphans before reading the directory.
  persist::sweepOrphanedTemps(config_.checkpointDir);
  std::vector<uint64_t> ids;
  for (const CheckpointRef& ref : listCheckpoints(config_.checkpointDir)) {
    if (ids.empty() || ids.back() != ref.sessionId) ids.push_back(ref.sessionId);
  }
  for (const uint64_t id : ids) {
    std::optional<LoadedCheckpoint> loaded =
        loadNewestCheckpoint(config_.checkpointDir, id);
    if (!loaded) continue;  // every generation corrupt: nothing to resume
    if (nextId_ <= id) nextId_ = id + 1;
    SessionWorkload workload;
    try {
      workload = factory(loaded->meta);
    } catch (const Error&) {
      continue;  // no factory for this label: leave its checkpoints alone
    }
    auto session = makeSession(id, std::move(workload));
    Session& s = *session;
    s.restarts = loaded->meta.restarts;
    s.recoveredFrames = loaded->meta.framesRun;
    s.checkpointSeq = loaded->meta.seq + 1;
    s.hasFingerprint = false;  // the hasher cache died with the writer
    {
      workers::StatsScope scope(s.stats);
      try {
        // The clock must be in place before resume(): scripts spawned by
        // the hook may consult the timer or frame counter.
        s.manager->restoreClockState(loaded->meta.clock);
        s.state = s.workload.resume(*s.manager, loaded->project);
      } catch (...) {
        contain(s, std::current_exception());
        finalize(std::move(session));
        continue;
      }
    }
    workers::registerStatsScope(s.stats);
    ++metrics_.admitted;
    ++metrics_.recovered;
    recovered.push_back(id);
    active_.push_back(std::move(session));
  }
  return recovered;
}

double SessionServer::fairnessSpread(const std::vector<uint64_t>& slices) {
  if (slices.empty()) return 0;
  uint64_t lo = slices.front();
  uint64_t hi = slices.front();
  for (uint64_t s : slices) {
    lo = s < lo ? s : lo;
    hi = s > hi ? s : hi;
  }
  if (lo == 0) return 0;
  return double(hi) / double(lo);
}

}  // namespace psnap::serve
