// The cooperative scheduler: Snap!'s ThreadManager.
//
// Snap! executes all active scripts on a single browser thread by
// multi-tasking: each frame, every runnable process gets a time slice, and
// processes yield voluntarily (once per loop iteration, at waits, and at
// the parallel blocks' polling points). The *frame counter* is the
// "timestep" unit the paper's concession-stand timer displays (Fig. 7/9/10).
//
// runUntilIdle() is the paper's runtime loop: frames until nothing is
// left, and a sleep on the wake hub while every script waits on a worker.
// That loop is one routine, runIdleLoop(), which the serving layer's
// runUntilQuiet() drives too, with a server frame in place of a manager
// frame.
//
// The scheduler also models the paper's observation that browser
// interference inflates wall-clock timesteps: the sequential concession
// stand needs 9 ideal timesteps but was observed at 12 because "other
// tasks that also execute in the browser" stole frames. InterferenceModel
// reproduces this deterministically: selected frames are consumed entirely
// by the interfering task and no user process runs.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "native/tier.hpp"
#include "vm/process.hpp"

namespace psnap::sched {

/// Deterministic stand-in for "other tasks in the browser": every
/// `period`-th frame starting at `offset` is stolen and runs no user
/// process. Disabled when period == 0.
///
/// The defaults (period 3, offset 4) reproduce the paper's measurement:
/// a 9-frame sequential workload observes frames 4, 7, and 10 stolen and
/// completes at timestep 12, while the 3-frame parallel workload finishes
/// before the first theft and still reads 3.
struct InterferenceModel {
  uint64_t period = 0;
  uint64_t offset = 4;

  static InterferenceModel none() { return {0, 0}; }
  static InterferenceModel paperDefault() { return {3, 4}; }

  bool steals(uint64_t frame) const {
    return period != 0 && frame >= offset && (frame - offset) % period == 0;
  }
};

/// Sprite/clone services the scheduler delegates to the stage (so sched
/// does not depend on the stage module). All optional: without a stage,
/// clones are unavailable and broadcasts have no listeners.
struct StageHooks {
  /// Clone `original` (or the sprite named `targetName`); the stage starts
  /// the clone's when-I-start-as-a-clone scripts via spawnScript.
  std::function<vm::SpriteApi*(vm::SpriteApi*, const std::string&)>
      cloneSprite;
  /// Remove a clone sprite from the stage.
  std::function<void(vm::SpriteApi*)> destroyClone;
  /// Start all listeners of a broadcast; returns their process ids.
  std::function<std::vector<uint64_t>(const std::string&)> startListeners;
};

/// "<who> exceeded its frame budget (<frames> frames)": the text of every
/// frame-budget TimeoutError, the idle loop's and the server watchdog's.
std::string frameBudgetExceeded(const std::string& who, uint64_t frames);

/// One idle loop, as runIdleLoop() runs it.
struct IdleLoop {
  const char* owner;  ///< "scheduler", "server"
  const char* state;  ///< what the named culprits still are
  /// Is anything left to run or to wait for?
  std::function<bool()> live;
  /// Run a frame for whatever can use one; return whether anything is
  /// still ready afterwards.
  std::function<bool()> frame;
  /// Upper bound, in seconds, for one sleep while nothing is ready.
  std::function<double()> waitBound;
  /// Called once when the budget is spent: the culprits, in order.
  std::function<std::vector<std::string>()> overrun;
};

/// The one idle loop (Snap!'s step loop), behind
/// ThreadManager::runUntilIdle and serve::SessionServer::runUntilQuiet.
/// While `loop.live()`, each round snapshots `hub`, calls `loop.frame()`
/// and, when nothing is ready afterwards, sleeps on the hub until a
/// completion lands after the snapshot (so none is missed) or
/// `loop.waitBound()` elapses. A parked wait thus costs a round, never a
/// frame. Past `maxRounds` rounds it throws TimeoutError:
/// frameBudgetExceeded(owner, maxRounds) + "; still <state>: " and the
/// first eight culprits, then "…".
void runIdleLoop(vm::WakeHub& hub, uint64_t maxRounds, const IdleLoop& loop);

class ThreadManager : public vm::Host {
 public:
  ThreadManager(const blocks::BlockRegistry* registry,
                const vm::PrimitiveTable* primitives);

  // --- configuration ------------------------------------------------------
  void setInterference(InterferenceModel model) { interference_ = model; }
  const InterferenceModel& interference() const { return interference_; }
  /// Virtual seconds added per frame (default 1.0: one timestep unit).
  void setSecondsPerFrame(double seconds) { secondsPerFrame_ = seconds; }
  /// Interpreter steps each process may take per frame.
  void setSliceSteps(size_t steps) { sliceSteps_ = steps; }
  void setMaxWorkers(size_t workers) { maxWorkers_ = workers; }
  /// Per-session native-tier control: with the tier off, rings compiled
  /// by this manager's frames never count hotness and never go native
  /// (a TierScope wraps each frame; see native/tier.hpp).
  void setNativeTier(bool enabled) { nativeTier_.enabled = enabled; }
  bool nativeTier() const { return nativeTier_.enabled; }
  void setStageHooks(StageHooks hooks) { hooks_ = std::move(hooks); }
  /// Parent every process spawned from now on under `root`: each spawn
  /// gets a fresh child CancelToken, so tripping the root (a tenant
  /// shed, a deadline, a watchdog) cancels this manager's processes —
  /// and, through the per-process tokens the parallel blocks chain onto,
  /// their in-flight pool work — without touching any other manager.
  void setDefaultCancelToken(CancelTokenPtr root) {
    defaultToken_ = std::move(root);
  }

  // --- process management --------------------------------------------------
  /// The handle returned by spawn*: the process pointer is valid until the
  /// process finishes and is reaped; the status outlives it and receives
  /// the final result/error.
  struct SpawnResult {
    vm::Process* process;
    std::shared_ptr<const vm::ProcessStatus> status;
  };

  /// Start a process running `script`; it receives its first slice on the
  /// *next* frame (Snap! starts scripts at the following scheduler pass).
  SpawnResult spawnScript(blocks::ScriptPtr script, blocks::EnvPtr env,
                          vm::SpriteApi* sprite = nullptr);
  /// Start a process evaluating a reporter expression.
  SpawnResult spawnExpression(blocks::BlockPtr expression,
                              blocks::EnvPtr env,
                              vm::SpriteApi* sprite = nullptr);

  /// Convenience: spawn an expression, run until idle, return its value.
  /// Throws Error if the process errored.
  blocks::Value evaluate(blocks::BlockPtr expression, blocks::EnvPtr env,
                         vm::SpriteApi* sprite = nullptr,
                         uint64_t maxFrames = 1'000'000);

  /// Stop every process bound to `sprite` (used when a clone dies).
  void stopProcessesFor(vm::SpriteApi* sprite);
  /// Stop everything (the red stop button).
  void stopAll();

  // --- the frame loop ------------------------------------------------------
  /// Execute one frame: pollParked(), then runPolledFrame().
  void runFrame();
  /// One frame for a caller that has just polled: unless stolen by
  /// interference, give every runnable process one slice; then advance
  /// the virtual clock and reap. Parked processes consume no slices.
  void runPolledFrame();
  /// Run frames until no process is runnable or parked; returns frames
  /// executed. Each round of runIdleLoop() polls and runs a frame if a
  /// process is ready; when every live process is parked it sleeps on the
  /// wake hub instead — parked waits execute zero frames. Throws
  /// TimeoutError after `maxFrames` rounds (runaway guard), naming the
  /// processes still runnable or parked and counting one timeout.
  uint64_t runUntilIdle(uint64_t maxFrames = 1'000'000);

  /// Wake parked processes whose completion callback fired, and fail (with
  /// the token's typed reason, attributed to the process) parked processes
  /// whose cancel token tripped — the deadline watchdog for processes that
  /// consume no frames. Returns hasReadyWork().
  bool pollParked();

  bool idle() const;
  /// Any process currently Ready?
  bool hasReadyWork() const;
  /// Upper bound for one hub wait while everything live is parked: the
  /// nearest deadline over parked processes' tokens (parent chains
  /// included) and `cap`, clamped to [0.1ms, 50ms] so an un-notified
  /// external cancel is still honoured promptly. The serving layer folds
  /// its tenants' bounds by passing each one the bound so far.
  double parkedWaitBound(double cap = HUGE_VAL) const;
  uint64_t frameCount() const { return frame_; }
  size_t runnableCount() const;

  // --- resumable clock state ----------------------------------------------
  /// The virtual clock, as checkpointable state. A supervised restart
  /// restores this into a fresh manager before the workload's resume hook
  /// re-spawns its scripts, so `timer`-reading scripts and frame-count
  /// accounting continue from the checkpoint instead of rewinding to 0.
  struct ClockState {
    uint64_t frame = 0;
    double now = 0;
    double timerStart = 0;
  };
  ClockState clockState() const { return {frame_, now_, timerStart_}; }
  void restoreClockState(const ClockState& state) {
    frame_ = state.frame;
    now_ = state.now;
    timerStart_ = state.timerStart;
  }

  /// One failed process, with scheduler-side attribution. The log is
  /// capped at kMaxRecordedErrors entries (a crash-looping spawner must
  /// not grow the scheduler without bound); droppedErrorCount() says how
  /// many were discarded past the cap.
  struct RecordedError {
    uint64_t processId = 0;
    std::string opcode;  ///< the process's root opcode
    std::string message;
    ErrorClass errorClass = ErrorClass::Generic;

    /// "process <id> (<root opcode>): <message>"
    std::string text() const;
  };
  static constexpr size_t kMaxRecordedErrors = 64;

  /// The text() of every recorded failure, in completion order.
  std::vector<std::string> errors() const;
  /// The failures in structured form, capped at kMaxRecordedErrors.
  const std::vector<RecordedError>& recordedErrors() const {
    return recordedErrors_;
  }
  /// Errors discarded because the log was full.
  size_t droppedErrorCount() const { return droppedErrors_; }

  /// Everything the capped log holds, moved out in one drain: the
  /// structured entries plus how many were dropped past the cap. The log
  /// and the dropped count reset to empty, so a long-lived caller (the
  /// serving layer polls this per session) sees each failure exactly once
  /// and the cap's capacity is freed for the next errors.
  struct ErrorDrain {
    std::vector<RecordedError> entries;
    size_t dropped = 0;
  };
  ErrorDrain drainErrors();
  /// Say-log of every process, in spawn order (for assertions).
  std::vector<std::string> collectSayLog() const;

  // --- vm::Host -------------------------------------------------------------
  double nowSeconds() const override { return now_; }
  void resetTimer() override { timerStart_ = now_; }
  double timerSeconds() const override { return now_ - timerStart_; }
  uint64_t broadcast(const std::string& message) override;
  bool broadcastFinished(uint64_t token) const override;
  vm::SpriteApi* makeClone(vm::SpriteApi* original,
                           const std::string& targetName) override;
  void removeClone(vm::SpriteApi* clone) override;
  std::shared_ptr<const vm::ProcessStatus> launchScript(
      blocks::ScriptPtr script, blocks::EnvPtr env,
      vm::SpriteApi* sprite) override;
  size_t maxWorkers() const override { return maxWorkers_; }
  vm::WakeHubPtr wakeHub() const override { return hub_; }

  /// Share a wake hub (the serving layer gives all its sessions one hub
  /// so any tenant's completion can rouse the server's frame loop).
  void setWakeHub(vm::WakeHubPtr hub) {
    if (hub) hub_ = std::move(hub);
  }

 private:
  struct Task {
    std::unique_ptr<vm::Process> process;
    std::shared_ptr<vm::ProcessStatus> status;
    vm::SpriteApi* sprite = nullptr;
  };

  Task& spawn(vm::SpriteApi* sprite);
  void reapFinished();
  void recordError(const vm::Process& process);

  const blocks::BlockRegistry* registry_;
  const vm::PrimitiveTable* primitives_;

  std::deque<Task> tasks_;
  std::vector<vm::SpriteApi*> clonesToRemove_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> broadcastWaits_;
  uint64_t nextBroadcastToken_ = 1;

  InterferenceModel interference_ = InterferenceModel::none();
  double secondsPerFrame_ = 1.0;
  size_t sliceSteps_ = vm::Process::kDefaultSliceSteps;
  size_t maxWorkers_ = 4;
  /// This manager's tier override, installed around each frame. Starts
  /// from the process default so PSNAP_NATIVE_TIER=0 still wins.
  native::TierConfig nativeTier_ = native::globalTierConfig();
  StageHooks hooks_;
  CancelTokenPtr defaultToken_;
  vm::WakeHubPtr hub_;

  uint64_t frame_ = 0;
  double now_ = 0;
  double timerStart_ = 0;
  std::vector<RecordedError> recordedErrors_;
  size_t droppedErrors_ = 0;
  std::vector<std::string> finishedSayLog_;
};

}  // namespace psnap::sched
