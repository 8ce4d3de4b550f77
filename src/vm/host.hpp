// Abstract services the interpreter needs from its environment.
//
// The Process/interpreter layer is deliberately independent of the concrete
// scheduler, stage, and worker pool so each can be unit-tested alone:
//
//   * Host       — clock, timer, broadcasts, clone management, launching
//                  sibling processes (the ThreadManager implements this).
//   * SpriteApi  — the motion/looks surface of the sprite a process is
//                  bound to (stage::Sprite implements this).
//
// A NullHost/NullSprite pair is provided for headless evaluation of pure
// scripts in tests and in the code generator.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blocks/block.hpp"
#include "blocks/environment.hpp"
#include "support/rng.hpp"

namespace psnap::vm {

/// The seed of every host's `pick random` stream.
inline constexpr uint64_t kRandomSeed = 0x5eed;

/// The wake channel between completion callbacks (which run on pool
/// workers) and a scheduler sleeping because every process is parked.
/// notify() is cheap, lock-light, and safe from any thread; the stamp
/// makes waits race-free — a notify that lands between "decide to sleep"
/// and "actually sleep" is observed by the stamp check, never lost.
///
/// Wake functors capture only shared_ptrs to a per-park flag and this hub
/// — never a Process or scheduler pointer — so a late completion firing
/// after the process (or its whole ThreadManager) is gone touches nothing
/// but its own captures.
struct WakeHub {
  std::mutex mutex;
  std::condition_variable cv;
  uint64_t stamp = 0;  // guarded by mutex; bumped by every notify()

  void notify() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++stamp;
    }
    cv.notify_all();
  }

  /// Current stamp, to snapshot before re-checking wake flags.
  uint64_t snapshot() {
    std::lock_guard<std::mutex> lock(mutex);
    return stamp;
  }

  /// Wait until the stamp moves past `seen` or `maxSeconds` elapses.
  /// Returns true if woken by a notify, false on timeout.
  bool waitChanged(uint64_t seen, double maxSeconds) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock,
                       std::chrono::duration<double>(maxSeconds),
                       [&] { return stamp != seen; });
  }
};
using WakeHubPtr = std::shared_ptr<WakeHub>;

/// Completion status of a process launched through Host::launchScript.
/// The launching primitive polls `done` from its yield loop (the same
/// pattern paper Listing 2 uses for Web Worker jobs).
struct ProcessStatus {
  bool done = false;
  bool errored = false;
  std::string error;
  /// The process result (for expression processes), copied at completion.
  blocks::Value result;
};

/// The sprite surface a process manipulates (motion and looks blocks).
class SpriteApi {
 public:
  virtual ~SpriteApi() = default;

  virtual const std::string& name() const = 0;
  virtual bool isClone() const = 0;

  virtual double x() const = 0;
  virtual double y() const = 0;
  virtual double heading() const = 0;
  virtual void moveSteps(double steps) = 0;
  virtual void turnBy(double degrees) = 0;
  virtual void setHeading(double degrees) = 0;
  virtual void gotoXY(double x, double y) = 0;
  virtual void changeX(double dx) = 0;
  virtual void changeY(double dy) = 0;

  virtual void setCostume(const std::string& name) = 0;
  virtual const std::string& costume() const = 0;

  virtual void setVisible(bool visible) = 0;
  virtual bool visible() const = 0;

  /// True when this sprite overlaps the sprite named `name` (circle
  /// collision over sprite positions; clones of `name` count).
  virtual bool touching(const std::string& name) const = 0;

  virtual void sayBubble(const std::string& text) = 0;
  virtual void thinkBubble(const std::string& text) = 0;

  /// The sprite-local variable frame (globals are its parent).
  virtual const blocks::EnvPtr& variables() = 0;
};

/// Scheduler/stage services. All calls happen on the scheduler thread.
class Host {
 public:
  virtual ~Host() = default;

  /// The virtual clock in seconds. One scheduler frame advances it by one
  /// "timestep unit" by default, matching the paper's concession-stand
  /// timer readout.
  virtual double nowSeconds() const = 0;

  /// Stage timer (the readout in the upper-left of paper Fig. 7).
  virtual void resetTimer() = 0;
  virtual double timerSeconds() const = 0;

  /// Fire a broadcast; returns a token to poll for doBroadcastAndWait.
  virtual uint64_t broadcast(const std::string& message) = 0;
  virtual bool broadcastFinished(uint64_t token) const = 0;

  /// Create a clone of `original` (or of the sprite named `targetName`
  /// when non-empty), run its when-I-start-as-a-clone hats, and return it.
  /// Returns nullptr when there is no stage.
  virtual SpriteApi* makeClone(SpriteApi* original,
                               const std::string& targetName) = 0;

  /// Schedule a clone (and its running processes) for removal at the end
  /// of the current frame.
  virtual void removeClone(SpriteApi* clone) = 0;

  /// Launch a sibling process running `script` under `env`, bound to
  /// `sprite` (may be null). The returned status flips `done` when the
  /// process finishes or errors.
  virtual std::shared_ptr<const ProcessStatus> launchScript(
      blocks::ScriptPtr script, blocks::EnvPtr env, SpriteApi* sprite) = 0;

  /// Default worker-pool width (navigator.hardwareConcurrency analog).
  virtual size_t maxWorkers() const = 0;

  /// The host's wake hub, captured by parked processes' wake functors so
  /// a completion can rouse a sleeping scheduler. May be null (headless
  /// hosts): parking still works, the waker just has nobody to poke.
  virtual WakeHubPtr wakeHub() const { return nullptr; }

  /// The stream `pick random` draws from: one per host, seeded with
  /// kRandomSeed, so one host's numbers never depend on another's draws.
  virtual Rng& random() = 0;
};

/// A do-nothing host for headless script evaluation: the clock is manually
/// advanced, broadcasts complete immediately, clones are unavailable, and
/// launchScript throws.
class NullHost : public Host {
 public:
  double nowSeconds() const override { return now_; }
  void advance(double seconds) { now_ += seconds; }
  void resetTimer() override { timerStart_ = now_; }
  double timerSeconds() const override { return now_ - timerStart_; }
  uint64_t broadcast(const std::string& message) override;
  bool broadcastFinished(uint64_t) const override { return true; }
  SpriteApi* makeClone(SpriteApi*, const std::string&) override {
    return nullptr;
  }
  void removeClone(SpriteApi*) override {}
  std::shared_ptr<const ProcessStatus> launchScript(blocks::ScriptPtr,
                                                    blocks::EnvPtr,
                                                    SpriteApi*) override;
  size_t maxWorkers() const override { return 4; }
  Rng& random() override { return random_; }

  /// Messages broadcast so far (for assertions in tests).
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  double now_ = 0;
  double timerStart_ = 0;
  Rng random_{kRandomSeed};
  std::vector<std::string> messages_;
};

}  // namespace psnap::vm
