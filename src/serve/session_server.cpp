#include "serve/session_server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <utility>

#include "blocks/registry.hpp"
#include "core/parallel_blocks.hpp"
#include "persist/catalog.hpp"
#include "support/fault.hpp"
#include "workers/grain.hpp"

namespace psnap::serve {

SessionServer::SessionServer(ServerConfig config)
    : config_(config),
      registry_(&blocks::BlockRegistry::standard()),
      primitives_(core::fullPrimitiveTable()),
      hub_(std::make_shared<vm::WakeHub>()) {}

SessionServer::~SessionServer() {
  // Trip every live tenant's root before the managers destruct, so any
  // in-flight pool work unwinds at its next checkpoint instead of being
  // waited on to natural completion. Settle any in-flight checkpoint
  // write too (it holds the captured project by value, not the session).
  // Each session's stats lease ends when the session is freed, parked
  // ones included.
  for (auto& session : active_) {
    Life& life = *session->life;
    life.root->cancel("server shutting down");
    life.manager->stopAll();
    if (life.pendingWrite) life.pendingWrite->group->wait();
  }
}

SessionServer::Session::Session(uint64_t id, SessionWorkload workload,
                                uint64_t admittedAtFrame)
    : id(id), workload(std::move(workload)), admittedAtFrame(admittedAtFrame) {
  stats.setParent(&workers::processSubstrateStats());
  // Lease the tenant's stats scope for async attribution (the native
  // tier's fire-and-forget compiles), from before the first bring-up
  // until the session is freed.
  workers::registerStatsScope(stats);
}

SessionServer::Session::~Session() { workers::retireStatsScope(stats); }

void SessionServer::bringUp(Session& s,
                            const std::optional<LoadedCheckpoint>& from) {
  Life& life = s.life.emplace();
  life.root = config_.sessionDeadlineSeconds > 0
                  ? CancelToken::withDeadline(config_.sessionDeadlineSeconds)
                  : CancelToken::create();
  life.manager =
      std::make_unique<sched::ThreadManager>(registry_, &primitives_);
  // All tenants park on the server's hub: a completion arriving for any
  // session can rouse a server asleep in runUntilQuiet(). Must precede
  // the workload hook, which may already park processes.
  life.manager->setWakeHub(hub_);
  life.manager->setDefaultCancelToken(life.root);
  life.manager->setMaxWorkers(config_.maxWorkers);
  if (!config_.nativeTier) life.manager->setNativeTier(false);
  s.framesRun = 0;
  workers::StatsScope scope(s.stats);
  if (!from) {
    life.state = s.workload.start(*life.manager);
    return;
  }
  // The clock must be in place before resume(): scripts spawned by the
  // hook may consult the timer or frame counter.
  life.manager->restoreClockState(from->meta.clock);
  s.recoveredFrames = from->meta.framesRun;
  s.checkpointSeq = std::max(s.checkpointSeq, from->meta.seq + 1);
  life.state = s.workload.resume(*life.manager, from->project);
}

bool SessionServer::activate(std::unique_ptr<Session> session,
                             const std::optional<LoadedCheckpoint>& from) {
  try {
    bringUp(*session, from);
  } catch (...) {
    // Launch crash containment: the tenant failed to start, the slot is
    // recycled, and the server carries on.
    contain(*session, std::current_exception());
    finalize(std::move(session));
    return false;
  }
  active_.push_back(std::move(session));
  return true;
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

  ++metrics_.admitted;
  activate(std::make_unique<Session>(id, std::move(workload), frame_),
           std::nullopt);
  return id;
}

bool SessionServer::runSessionFrame(Session& session) {
  // Everything this tenant executes on the server thread — and, via
  // capture-at-construction in TaskGroup/Parallel/mr::Job, everything its
  // frame hands to pool workers — records into its own ledger.
  workers::StatsScope scope(session.stats);
  sched::ThreadManager& manager = *session.life->manager;
  try {
    // The frame's one poll: wake parked processes whose completion arrived
    // and fail those whose deadline tripped while parked, *before*
    // deciding whether the tenant has anything to run. With nothing ready
    // — every live process parked on an in-flight completion, or the
    // manager idle for the recycle pass to collect — skip the slice and
    // charge nothing: a blocked tenant must not burn its frame budget —
    // nor count in the fairness ledger — on frames it could not use.
    if (!manager.pollParked()) return false;
    fault::inject(fault::Point::TenantStall, session.id);
    manager.runPolledFrame();
    ++session.framesRun;
    watchdog(session);
    maybeCheckpoint(session);
    return manager.hasReadyWork();
  } catch (...) {
    // Frame crash containment: only this tenant fails.
    contain(session, std::current_exception());
    return false;
  }
}

void SessionServer::observeCheckpointWrite(Session& session, bool wait) {
  if (!session.life || !session.life->pendingWrite) return;
  Life& life = *session.life;
  PendingWrite& pending = *life.pendingWrite;
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
    life.hasFingerprint = true;
    life.lastFingerprint = pending.fingerprint;
    session.checkpointSeq = pending.seq + 1;
  } else {
    // The write died (CheckpointWriteFailure or real I/O). The previous
    // generation is still valid; the same seq is retried next interval.
    ++metrics_.checkpointFailures;
  }
  life.pendingWrite.reset();
}

void SessionServer::maybeCheckpoint(Session& session) {
  if (!supervised() || !session.workload.recoverable()) return;
  observeCheckpointWrite(session, /*wait=*/false);
  Life& life = *session.life;
  if (session.framesRun - life.lastCheckpointFrame <
      config_.checkpointIntervalFrames) {
    return;
  }
  // One write in flight per session: while the previous one is still on
  // the pool, re-check next frame rather than queueing a second.
  if (life.pendingWrite) return;
  std::optional<CheckpointDraft> draft = draftCheckpoint(session);
  // A failed capture or an unchanged project waits a full interval too.
  life.lastCheckpointFrame = session.framesRun;
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
  life.pendingWrite = pending;
  // A pool that refuses the write (saturation, shutdown) leaves it to be
  // drained inline, on this thread.
  workers::startGroup(pending->group, /*drainHere=*/false,
                      /*allowDegrade=*/true);
}

bool SessionServer::checkpointNow(Session& session) {
  observeCheckpointWrite(session, /*wait=*/true);
  if (const std::optional<CheckpointDraft> draft = draftCheckpoint(session)) {
    try {
      writeCheckpoint(config_.checkpointDir, draft->meta, draft->project);
      ++session.checkpointsWritten;
      ++metrics_.checkpointsWritten;
      session.life->hasFingerprint = true;
      session.life->lastFingerprint = draft->fingerprint;
      session.checkpointSeq = draft->meta.seq + 1;
      session.life->lastCheckpointFrame = session.framesRun;
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
  Life& life = *session.life;
  CheckpointDraft draft;
  try {
    draft.project = session.workload.capture(*life.manager, life.state);
  } catch (...) {
    // Capture failed (e.g. a transient ring value is in a variable).
    // The session is unaffected; the caller tries again later.
    ++metrics_.checkpointFailures;
    return std::nullopt;
  }
  draft.fingerprint = life.hasher.fingerprint(draft.project);
  if (life.hasFingerprint && draft.fingerprint == life.lastFingerprint) {
    // The COW version stamps say nothing changed since the last written
    // checkpoint: skip the serialization and the disk entirely.
    ++session.checkpointsSkipped;
    ++metrics_.checkpointsSkipped;
    return std::nullopt;
  }
  draft.meta.sessionId = session.id;
  draft.meta.seq = session.checkpointSeq;
  draft.meta.label = session.workload.label;
  draft.meta.framesRun = session.recoveredFrames + session.framesRun;
  draft.meta.restarts = session.restarts;
  draft.meta.clock = life.manager->clockState();
  return draft;
}

void SessionServer::watchdog(Session& session) {
  Life& life = *session.life;
  if (config_.frameBudget == 0 || life.watchdogFired) return;
  if (session.framesRun < config_.frameBudget) return;
  if (life.manager->idle()) return;
  life.watchdogFired = true;
  session.stats.bump(&workers::SubstrateStats::timeouts);
  // Trip only this tenant's root; its processes raise TimeoutError at
  // their next slice and the failure is attributed to this session id.
  life.root->timeoutNow(
      sched::frameBudgetExceeded(name(session), config_.frameBudget));
}

std::string SessionServer::name(const Session& session) {
  return "session " + std::to_string(session.id) + " ('" +
         session.workload.label + "')";
}

bool SessionServer::step() {
  const auto started = std::chrono::steady_clock::now();
  ++frame_;
  ++metrics_.framesRun;
  reviveDue();
  bool ready = false;
  const size_t count = active_.size();
  if (count > 0) {
    // Round-robin from a rotating start: over many frames every session
    // spends equal time at the head of the line, so the tenant that runs
    // first (and sees the freshest pool capacity) is not always the same.
    const size_t first = rotate_ % count;
    for (size_t k = 0; k < count; ++k) {
      ready |= runSessionFrame(*active_[(first + k) % count]);
    }
    ++rotate_;
  }
  // Recycle slots: contained failures and idle (finished) managers leave
  // the table; admission capacity frees up immediately.
  size_t keep = 0;
  for (size_t i = 0; i < active_.size(); ++i) {
    Session& session = *active_[i];
    if (session.endState != SessionState::Active ||
        session.life->manager->idle()) {
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
  return ready;
}

uint64_t SessionServer::runUntilQuiet(uint64_t maxFrames) {
  // Every round is one server frame, so frames tick while every tenant is
  // parked: restart backoffs are due at a frame count. Parked tenants are
  // charged nothing for it.
  const uint64_t first = frame_;
  sched::runIdleLoop(
      *hub_, maxFrames,
      {"server", "active", [this] { return !quiet(); },
       [this] { return step(); },
       [this] {
         // The nearest parked deadline across all tenants bounds the
         // sleep; pending restarts keep it short so backoff frames tick.
         double bound = pendingRestarts_.empty() ? HUGE_VAL : 0.0005;
         for (const auto& session : active_) {
           bound = session->life->manager->parkedWaitBound(bound);
         }
         return bound;
       },
       [this] {
         std::vector<std::string> names;
         for (const auto& session : active_) names.push_back(name(*session));
         return names;
       }});
  return frame_ - first;
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
  session->life->root->cancel(reason);
  session->life->manager->stopAll();
  finalize(std::move(session));
}

void SessionServer::contain(Session& session,
                            const std::exception_ptr& error) {
  session.endState = SessionState::Failed;
  session.errorClass = classifyError(error);
  session.error = exceptionMessage(error, "unknown error");
  session.outputOk = false;
  // First trip wins: a watchdog/deadline reason already on the root is
  // kept; otherwise in-flight pool work learns why it is unwinding.
  session.life->root->cancel("session " + std::to_string(session.id) +
                             " failed: " + session.error);
  session.life->manager->stopAll();
}

void SessionServer::resolveOutcome(Session& s) {
  // A session without a life (parked, or its revival failed) already
  // carries its outcome.
  if (!s.life) return;
  sched::ThreadManager& manager = *s.life->manager;
  // Drain (not just read) the manager's capped error log: the serving
  // layer is the long-lived caller the drain API exists for.
  sched::ThreadManager::ErrorDrain drain = manager.drainErrors();
  if (s.endState != SessionState::Active) return;
  if (!drain.entries.empty()) {
    const sched::ThreadManager::RecordedError& first = drain.entries.front();
    s.endState = SessionState::Failed;
    s.error = first.text();
    s.errorClass = first.errorClass;
    s.outputOk = false;
    return;
  }
  s.endState = SessionState::Completed;
  if (s.workload.check) {
    workers::StatsScope scope(s.stats);
    try {
      s.outputOk = s.workload.check(manager, s.life->state);
    } catch (...) {
      contain(s, std::current_exception());
    }
  }
  if (s.endState == SessionState::Completed && s.workload.output) {
    workers::StatsScope scope(s.stats);
    try {
      s.output = s.workload.output(manager, s.life->state);
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
  // `session` dies here: its life (project state before manager), then
  // its ledger, whose lease ends first.
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
  // One ledger spans every life, so the counters are cumulative across
  // restarts.
  const workers::SubstrateStats& stats = session.stats;
  record.retries = stats.retries.load(std::memory_order_relaxed);
  record.downgrades = stats.downgrades.load(std::memory_order_relaxed);
  record.cancellations = stats.cancellations.load(std::memory_order_relaxed);
  record.timeouts = stats.timeouts.load(std::memory_order_relaxed);
  record.tasksSkipped = stats.tasksSkipped.load(std::memory_order_relaxed);
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
  // Parked sessions are logically alive: reported Active, after the
  // active ones.
  for (const auto* table : {&active_, &pendingRestarts_}) {
    for (const auto& session : *table) all.push_back(snapshot(*session, 0));
  }
  return all;
}

bool SessionServer::consumeRestartBudget(Session& s) {
  const RestartPolicy& policy = config_.restartPolicy;
  if (s.restartsHere >= policy.maxRestarts) return false;
  ++s.restartsHere;
  ++s.restarts;
  s.dueFrame = frame_ + policy.backoffFrames(s.restartsHere);
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
  // Settle the in-flight write first: the revival loads the newest
  // generation, which may be exactly this one.
  observeCheckpointWrite(s, /*wait=*/true);
  if (!consumeRestartBudget(s)) {
    s.errorClass = ErrorClass::RestartsExhausted;
    s.error = RestartsExhaustedError(
                  name(s) + " failed " + std::to_string(s.restartsHere) +
                  " times within its restart budget; last error: " + s.error)
                  .what();
    ++metrics_.restartsExhausted;
    finalize(std::move(session));  // terminal: checkpoints are removed
    return;
  }
  // Parked, not finished: no record is pushed — the session is still
  // logically alive and reappears in active_ when its backoff ends. The
  // failed life dies here (project state before manager); its progress
  // lives on in the newest checkpoint, its counts in the ledger.
  s.life.reset();
  s.endState = SessionState::Active;
  s.error.clear();
  s.errorClass = ErrorClass::None;
  s.outputOk = true;
  pendingRestarts_.push_back(std::move(session));
}

void SessionServer::reviveDue() {
  const auto firstDue = std::stable_partition(
      pendingRestarts_.begin(), pendingRestarts_.end(),
      [this](const auto& parked) { return parked->dueFrame > frame_; });
  std::vector<std::unique_ptr<Session>> due(
      std::make_move_iterator(firstDue),
      std::make_move_iterator(pendingRestarts_.end()));
  pendingRestarts_.erase(firstDue, pendingRestarts_.end());
  for (auto& session : due) {
    Session& s = *session;
    try {
      // The chaos hook: a restart storm is an environment that keeps
      // killing revivals — each attempt burns budget like any failure.
      fault::inject(fault::Point::RestartStorm, s.id);
      // Every generation lost or corrupt: bringUp starts from scratch.
      bringUp(s, loadNewestCheckpoint(config_.checkpointDir, s.id));
      ++metrics_.restarts;
      active_.push_back(std::move(session));
    } catch (...) {
      // The revival itself failed: tear down what it built, then burn
      // another budget unit and re-park, or finalize once it is spent.
      s.life.reset();
      if (consumeRestartBudget(s)) {
        pendingRestarts_.push_back(std::move(session));
        continue;
      }
      ++metrics_.restartsExhausted;
      s.endState = SessionState::Failed;
      s.errorClass = ErrorClass::RestartsExhausted;
      s.error = RestartsExhaustedError(
                    name(s) + " could not be revived; last error: " +
                    exceptionMessage(std::current_exception(),
                                     "unknown error"))
                    .what();
      s.outputOk = false;
      finalize(std::move(session));
    }
  }
}

size_t SessionServer::drain() {
  draining_ = true;
  size_t drained = 0;
  // Active sessions, then parked ones: a parked session's newest
  // checkpoint is already its hand-off, so it only needs recording.
  std::vector<std::unique_ptr<Session>> sessions = std::move(active_);
  active_.clear();
  sessions.insert(sessions.end(),
                  std::make_move_iterator(pendingRestarts_.begin()),
                  std::make_move_iterator(pendingRestarts_.end()));
  pendingRestarts_.clear();
  for (auto& session : sessions) {
    Session& s = *session;
    if (s.life) {
      if (supervised() && s.workload.recoverable() &&
          s.endState == SessionState::Active) {
        // Last-chance synchronous checkpoint: the successor resumes from
        // exactly this point. The pooled write (if any) settles first so
        // checkpointNow sees the current fingerprint.
        checkpointNow(s);
      }
      s.life->root->cancel("server draining");
      s.life->manager->stopAll();
    }
    if (s.endState == SessionState::Active) {
      s.endState = SessionState::Drained;
      ++drained;
    }
    finalize(std::move(session));
  }
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
    // A new lineage whose first life starts without a fingerprint: the
    // hasher cache died with the writer.
    auto session = std::make_unique<Session>(id, std::move(workload), frame_);
    session->restarts = loaded->meta.restarts;
    if (!activate(std::move(session), loaded)) continue;
    ++metrics_.admitted;
    ++metrics_.recovered;
    recovered.push_back(id);
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
