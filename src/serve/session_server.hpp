// The serving layer: many independent project sessions over one substrate.
//
// The paper's scheduler runs exactly one project; this server hosts N of
// them — each session owns its own sched::ThreadManager and project state,
// all multiplexed over the process-wide WorkerPool (the Parsl model of
// many apps sharing one executor). Robustness is the design center: one
// misbehaving or fault-injected tenant must never take down, starve, or
// corrupt another. Four mechanisms enforce that:
//
//   * Admission control — the session table is bounded by a high-water
//     mark. An admission past it is rejected with a typed SubstrateError
//     (never queued unboundedly), and a pool-saturation signal observed
//     at launch time sheds the *newest*-admitted tenant over the oldest
//     (LIFO shedding: the newest session has the least sunk work).
//   * Per-tenant isolation — every session gets a root CancelToken
//     (deadline-capable) parented above all of its processes, a scoped
//     SubstrateStats ledger rolling up into the process ledger, and a
//     frame-budget watchdog that trips only the offending tenant's root
//     with a TimeoutError naming its session id.
//   * Fair time-slicing — runFrame() grants every session with ready
//     work exactly one scheduler frame, round-robin from a rotating
//     start, with per-tenant slice accounting. A hot tenant cannot
//     monopolize the frame loop; its interpreter work is bounded by the
//     slice like everyone else's. Each session frame polls the tenant's
//     manager once; a tenant whose processes are all parked on in-flight
//     completions is *skipped and not charged*: its framesRun ledger
//     (the fairness unit and the watchdog's budget meter) only counts
//     frames in which it could actually run. runUntilQuiet() drives
//     server frames through the scheduler's idle loop
//     (sched::runIdleLoop), and all sessions share one WakeHub, so when
//     every tenant is parked the server sleeps on the hub instead of
//     spinning, and the first completion from any tenant rouses it.
//   * Crash containment — an exception escaping one session's launch or
//     frame slice marks that session Failed and recycles its slot; the
//     server keeps serving the rest.
//
// On top of containment sits *supervision* (DESIGN.md "Supervision"),
// enabled by setting ServerConfig::checkpointDir:
//
//   * Incremental checkpointing — every checkpointIntervalFrames session
//     frames, a recoverable workload's project state is captured on the
//     server thread (O(1) COW clones) and serialized + written on a pool
//     worker through the atomic temp-and-rename snapshot writer — the
//     frame loop never blocks on disk. A content fingerprint built from
//     the value plane's COW version stamps skips the write entirely when
//     nothing changed since the last checkpoint.
//   * Restart policy — a session that fails with a substrate-class error
//     (including watchdog timeouts) is re-admitted from its newest valid
//     checkpoint after an exponential backoff, under an Erlang-style
//     restart budget; once the budget is spent the session is
//     finalized with a typed RestartsExhaustedError. User-script errors
//     (type errors, index errors) never restart: replaying a
//     deterministic bug reproduces it. A restart tears down the session's
//     life (manager, processes, project state) and keeps its lineage
//     (id, budget, checkpoint and stats ledgers) parked until revival.
//   * Drain and cold restart — drain() closes admission, synchronously
//     checkpoints every active recoverable session, and quiesces; a new
//     server constructed over the same checkpoint directory resumes all
//     of them via recoverSessions(), walking past corrupt generations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "project/project.hpp"
#include "sched/thread_manager.hpp"
#include "serve/supervise.hpp"
#include "support/cancel.hpp"
#include "support/error.hpp"
#include "vm/host.hpp"
#include "workers/stats.hpp"
#include "workers/task_group.hpp"

namespace psnap::serve {

/// Where a session ended up (Active only while it still holds a slot).
/// Drained sessions were checkpointed and quiesced by drain(); their
/// checkpoints stay on disk for a successor server to recover.
enum class SessionState : uint8_t { Active, Completed, Failed, Shed, Drained };

struct ServerConfig {
  /// Admission high-water mark: admissions past this many live sessions
  /// are rejected with a typed SubstrateError.
  size_t maxSessions = 256;
  /// Frames a session may consume before the watchdog trips its root
  /// token with TimeoutError (0 = no budget).
  uint64_t frameBudget = 0;
  /// Wall-clock deadline per session from admission (0 = none).
  double sessionDeadlineSeconds = 0;
  /// Logical worker width each session's parallel blocks request.
  size_t maxWorkers = 4;
  /// Let this server's sessions use the native execution tier: the
  /// server builds its palette with the tier disabled when false
  /// (PSNAP_NATIVE_TIER=0 disables it process-wide regardless).
  bool nativeTier = true;
  /// Supervision switch: non-empty enables periodic checkpointing of
  /// recoverable sessions into this directory (created on demand),
  /// restart-from-checkpoint under `restartPolicy`, drain(), and
  /// recoverSessions(). Empty keeps the pre-supervision behaviour and
  /// costs nothing on the frame path.
  std::string checkpointDir;
  /// Session frames between checkpoint attempts of one session.
  uint64_t checkpointIntervalFrames = 32;
  /// Restart budget for failed/timed-out supervised sessions.
  RestartPolicy restartPolicy;
};

/// One tenant's workload. `start` builds the project into the session's
/// manager (spawning its processes) and may return opaque state the
/// session keeps alive until it is recycled (e.g. a stage::Stage).
/// `check`, when set, validates the output once the session completes.
///
/// A workload is *recoverable* when both `capture` and `resume` are set:
/// `capture` distills the session's live state into a Project (values
/// should be structuredClone'd — O(1) for flat COW lists — so the
/// snapshot is immune to later mutation), and `resume` rebuilds the
/// session from a recovered Project, re-spawning whatever scripts are
/// needed to finish the remaining work. `output`, when set, renders the
/// session's canonical final output as text — the byte-identical unit
/// the crash-kill chaos test compares.
struct SessionWorkload {
  std::string label;
  std::function<std::shared_ptr<void>(sched::ThreadManager&)> start;
  std::function<bool(sched::ThreadManager&, const std::shared_ptr<void>&)>
      check;
  std::function<project::Project(sched::ThreadManager&,
                                 const std::shared_ptr<void>&)>
      capture;
  std::function<std::shared_ptr<void>(sched::ThreadManager&,
                                      const project::Project&)>
      resume;
  std::function<std::string(sched::ThreadManager&,
                            const std::shared_ptr<void>&)>
      output;

  bool recoverable() const { return bool(capture) && bool(resume); }
};

/// Snapshot of one session, live or finished.
struct SessionRecord {
  uint64_t id = 0;
  std::string label;
  SessionState state = SessionState::Active;
  /// First error (Failed sessions) or the shed/cancel reason (Shed).
  std::string error;
  ErrorClass errorClass = ErrorClass::None;
  /// check()'s verdict (true when no check was given or not yet run).
  bool outputOk = true;
  /// Scheduler frames granted to this session's current life (the
  /// fairness unit) — while parked for a restart, to the life that just
  /// failed. Progress inherited from checkpoints is recoveredFrames.
  uint64_t framesRun = 0;
  uint64_t admittedAtFrame = 0;
  uint64_t finishedAtFrame = 0;
  /// Per-tenant substrate ledger at snapshot time (cumulative across
  /// supervised restarts).
  uint64_t retries = 0;
  uint64_t downgrades = 0;
  uint64_t cancellations = 0;
  uint64_t timeouts = 0;
  uint64_t tasksSkipped = 0;
  /// Supervision accounting.
  uint64_t checkpointsWritten = 0;
  uint64_t checkpointsSkipped = 0;  ///< fingerprint-unchanged skips
  uint32_t restarts = 0;            ///< restart attempts consumed
  /// Frames of progress inherited from checkpoints (restart + recovery).
  uint64_t recoveredFrames = 0;
  /// The workload's `output` hook rendering, filled when the session
  /// completes (empty otherwise or when no hook was given).
  std::string output;
};

struct ServerMetrics {
  uint64_t admitted = 0;       ///< sessions that got a slot
  uint64_t rejected = 0;       ///< typed admission rejections
  uint64_t completed = 0;
  uint64_t failed = 0;         ///< crashed, errored, or watchdog-tripped
  uint64_t shed = 0;           ///< overload sheds + explicit cancels
  uint64_t overloadSheds = 0;  ///< sheds triggered by pool saturation
  uint64_t framesRun = 0;      ///< server frames executed
  /// Supervision accounting.
  uint64_t drained = 0;            ///< sessions quiesced by drain()
  uint64_t recovered = 0;          ///< sessions resumed by recoverSessions()
  uint64_t restarts = 0;           ///< successful restart re-admissions
  uint64_t restartsExhausted = 0;  ///< sessions that spent their budget
  uint64_t checkpointsWritten = 0;
  uint64_t checkpointsSkipped = 0;
  uint64_t checkpointFailures = 0;  ///< write/capture attempts that failed
};

class SessionServer {
 public:
  explicit SessionServer(ServerConfig config = {});
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  const ServerConfig& config() const { return config_; }

  /// Admit a tenant and launch its workload. Returns the session id.
  /// Throws SubstrateError — typed, never queued — when the table is at
  /// its high-water mark or the SessionAdmitFailure fault point fires.
  /// A PoolSaturation signal observed here first sheds the newest-
  /// admitted active session (LIFO) to relieve the pool. A workload
  /// whose start() throws is contained: the session is marked Failed,
  /// its slot recycled, and the id still returned.
  uint64_t admit(SessionWorkload workload);

  /// One server frame: every active session with ready work receives one
  /// scheduler frame (round-robin from a rotating start). A session whose
  /// processes are all parked is polled for completions/deadline trips
  /// but charged nothing — parked tenants consume zero framesRun.
  /// Sessions whose manager went idle are finalized and their slots
  /// recycled.
  void runFrame() { step(); }

  /// Run server frames through sched::runIdleLoop until no session is
  /// active or parked for a restart; returns frames run. After a frame in
  /// which every active tenant ended parked, sleeps on the shared wake
  /// hub (bounded by the nearest parked deadline) instead of spinning.
  /// Throws TimeoutError past `maxFrames` frames, naming the sessions
  /// still active (the per-tenant watchdog should fire long before this).
  uint64_t runUntilQuiet(uint64_t maxFrames = 10'000'000);

  /// Cancel one live session (counts as shed). Unknown/finished ids are
  /// a no-op.
  void cancelSession(uint64_t id, const std::string& reason);

  /// Graceful shutdown half of supervision: close admission (further
  /// admits throw a typed SubstrateError), settle every in-flight
  /// checkpoint write, synchronously checkpoint each active recoverable
  /// session one last time, then cancel and finalize everything as
  /// Drained — checkpoints stay on disk. Pending restarts are drained
  /// too (their checkpoints are already current). Returns the number of
  /// sessions drained. Requires checkpointDir; without it this is
  /// equivalent to cancelling every session.
  size_t drain();

  /// Cold-start half: resume every session checkpointed under this
  /// server's checkpointDir. `factory` maps a recovered CheckpointMeta
  /// (label, progress) back to a workload — the workload's `resume` hook
  /// is called with the recovered project. Corrupt newest generations
  /// fall back to older ones; sessions with no loadable checkpoint are
  /// skipped. Recovered sessions keep their original ids (nextId_ moves
  /// past them). Returns the recovered session ids. Sweeps orphaned
  /// writer temp files from the checkpoint directory first.
  std::vector<uint64_t> recoverSessions(
      const std::function<SessionWorkload(const CheckpointMeta&)>& factory);

  /// True once drain() has run: admission is closed for good.
  bool draining() const { return draining_; }

  /// Publish the dataset snapshot at `path` under `name`: the file is
  /// mapped once (through the process-wide shared-open catalog) and that
  /// one mapping backs every tenant that opens it. Re-publishing a name
  /// replaces it. Throws SubstrateError for missing/corrupt files (and
  /// when the MmapFailure fault point fires).
  void publishDataset(const std::string& name, const std::string& path);

  /// A tenant-private view of a published dataset: a fresh List sharing
  /// the mapped buffer (O(1)), so readers never share a mutable node and
  /// one tenant's mutation — which copies out, COW — is invisible to the
  /// rest. Throws SubstrateError for unknown names.
  blocks::ListPtr openDataset(const std::string& name) const;

  size_t activeSessions() const { return active_.size(); }
  /// Sessions parked for a restart backoff (due at a future frame).
  size_t pendingRestarts() const { return pendingRestarts_.size(); }
  bool quiet() const { return active_.empty() && pendingRestarts_.empty(); }
  const ServerMetrics& metrics() const { return metrics_; }
  uint64_t frameCount() const { return frame_; }

  /// Snapshots of every session this server has seen: finished first (in
  /// finish order), then the still-active ones (in admission order).
  std::vector<SessionRecord> records() const;

  /// Wall-clock seconds of each server frame, in order — the latency
  /// trajectory the serve bench reduces to p50/p99.
  const std::vector<double>& frameSeconds() const { return frameSeconds_; }

  /// Fairness spread over a set of per-tenant slice counts: max/min
  /// (1.0 = perfectly fair; 0 entries or a zero minimum yield 0).
  static double fairnessSpread(const std::vector<uint64_t>& slices);

 private:
  /// One in-flight pooled checkpoint write. The task records its outcome
  /// here before the group settles; the server observes it (and never
  /// blocks on it) on a later visit — except drain/finalize, which wait.
  struct PendingWrite {
    std::shared_ptr<workers::TaskGroup> group;
    std::atomic<bool> ok{false};
    uint64_t fingerprint = 0;
    uint64_t seq = 0;
  };

  /// One life of a session: everything a restart tears down and the next
  /// bring-up builds afresh. It is only ever reset whole (optional::reset),
  /// never assigned member-wise, so the project state dies before the
  /// manager it points into.
  struct Life {
    // Destruction order matters: `state` (e.g. a stage whose hooks point
    // into the manager) must die before `manager`, so it is declared
    // after it.
    std::unique_ptr<sched::ThreadManager> manager;
    std::shared_ptr<void> state;
    CancelTokenPtr root;
    bool watchdogFired = false;
    // --- checkpoint cadence ---
    CheckpointHasher hasher;
    bool hasFingerprint = false;    ///< lastFingerprint is valid
    uint64_t lastFingerprint = 0;   ///< of the newest *written* checkpoint
    uint64_t lastCheckpointFrame = 0;  ///< framesRun at last attempt
    std::shared_ptr<PendingWrite> pendingWrite;
  };

  /// A session's lineage: everything that survives a restart, and its
  /// current life. A session parked for a restart backoff has no life —
  /// no manager, processes, project state or hasher pins. Its one stats
  /// ledger spans every life.
  struct Session {
    Session(uint64_t id, SessionWorkload workload, uint64_t admittedAtFrame);

    uint64_t id = 0;
    SessionWorkload workload;
    uint64_t admittedAtFrame = 0;
    // --- outcome of the current life (reset when it is parked) ---
    SessionState endState = SessionState::Active;  // set at finalize
    std::string error;
    ErrorClass errorClass = ErrorClass::None;
    bool outputOk = true;
    std::string output;  ///< `output` hook rendering, filled on completion
    /// Frames granted to the current life (the failed one while parked).
    uint64_t framesRun = 0;

    // --- supervision ---
    uint64_t checkpointSeq = 0;     ///< next generation to write
    uint64_t checkpointsWritten = 0;
    uint64_t checkpointsSkipped = 0;
    uint32_t restarts = 0;          ///< attempts consumed (lifetime)
    uint32_t restartsHere = 0;      ///< charged since bring-up here
    uint64_t dueFrame = 0;          ///< revival frame while parked
    uint64_t recoveredFrames = 0;

    // Declared before `life`: the ledger outlives every operation a life
    // launched that still charges it.
    workers::SubstrateStats stats;
    std::optional<Life> life;
  };

  SessionRecord snapshot(const Session& session, uint64_t finishedAt) const;
  /// "session <id> ('<label>')"
  static std::string name(const Session& session);
  /// runFrame(); returns whether any session is still ready afterwards.
  bool step();
  /// Mark `session` failed with `error`'s type and message (containment).
  void contain(Session& session, const std::exception_ptr& error);
  /// Trip the watchdog if the session is over its frame budget.
  void watchdog(Session& session);
  /// Cancel and finalize the newest-admitted active session.
  void shedNewestActive(const std::string& reason);
  /// Cancel and finalize active_[index] as Shed.
  void shedAt(size_t index, const std::string& reason);
  /// Decide a still-Active session's outcome from its manager's drained
  /// error log; on completion run the check and output hooks. Idempotent
  /// once the state leaves Active.
  void resolveOutcome(Session& session);
  /// Build a new life for `session` (manager, root token, hub) and run
  /// its workload under the session's stats scope: `start`, or — from a
  /// checkpoint — the clock restore and `resume`. The one bring-up of
  /// admit, restart revival and recovery. Throws what the hook throws.
  void bringUp(Session& session, const std::optional<LoadedCheckpoint>& from);
  /// bringUp, then join the active table. A bring-up that throws is
  /// contained and the session finalized Failed; returns false then.
  bool activate(std::unique_ptr<Session> session,
                const std::optional<LoadedCheckpoint>& from);
  /// Move a no-longer-active (or parked) session into the finished
  /// records.
  void finalize(std::unique_ptr<Session> session);
  /// Give one session one scheduler frame under its scope (contained).
  /// Polls its manager once; if nothing is ready the frame is skipped and
  /// the tenant's framesRun is not charged. Returns whether the session
  /// still has ready work afterwards.
  bool runSessionFrame(Session& session);

  // --- supervision ---
  bool supervised() const { return !config_.checkpointDir.empty(); }
  /// Checkpoint cadence: called after a session's slice; captures,
  /// fingerprints, and submits a pooled write when due.
  void maybeCheckpoint(Session& session);
  /// Collect the result of a settled pooled write (non-blocking unless
  /// `wait`); updates counters and the skip fingerprint.
  void observeCheckpointWrite(Session& session, bool wait);
  /// Capture + write synchronously (drain path). Returns false when the
  /// session could not be checkpointed (capture or write failed).
  bool checkpointNow(Session& session);
  /// A captured project that differs from the last written generation,
  /// with the meta of the next one.
  struct CheckpointDraft {
    CheckpointMeta meta;
    project::Project project;
    uint64_t fingerprint = 0;
  };
  /// The preparation step both checkpoint paths share: capture,
  /// fingerprint, meta. Returns nullopt when there is nothing to write —
  /// the capture failed (counted as a checkpoint failure) or the
  /// fingerprint is unchanged (counted as a skip).
  std::optional<CheckpointDraft> draftCheckpoint(Session& session);
  /// Failed session: park it for restart, or finalize RestartsExhausted /
  /// plain Failed when ineligible. Consumes the session either way.
  void finishOrRestart(std::unique_ptr<Session> session);
  /// Charge one restart against the session's budget and set its
  /// backoff due-frame; returns false when the budget is spent (the
  /// caller finalizes as RestartsExhausted).
  bool consumeRestartBudget(Session& session);
  /// Re-admit every parked session whose backoff elapsed.
  void reviveDue();

  ServerConfig config_;
  const blocks::BlockRegistry* registry_;
  vm::PrimitiveTable primitives_;
  /// One hub for all tenants: any session's completion callback can
  /// rouse a server sleeping in runUntilQuiet().
  vm::WakeHubPtr hub_;

  /// Published datasets: pristine mapped roots, never handed out
  /// directly (openDataset clones).
  std::unordered_map<std::string, blocks::ListPtr> datasets_;

  std::vector<std::unique_ptr<Session>> active_;  // admission order
  std::vector<std::unique_ptr<Session>> pendingRestarts_;  // parked, lifeless
  std::vector<SessionRecord> finished_;           // finish order
  ServerMetrics metrics_;
  std::vector<double> frameSeconds_;
  uint64_t nextId_ = 1;
  uint64_t frame_ = 0;
  size_t rotate_ = 0;  // round-robin start cursor
  bool draining_ = false;
};

}  // namespace psnap::serve
