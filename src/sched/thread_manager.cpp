#include "sched/thread_manager.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "workers/stats.hpp"

namespace psnap::sched {

using blocks::BlockPtr;
using blocks::EnvPtr;
using blocks::ScriptPtr;
using vm::Process;
using vm::ProcessStatus;
using vm::SpriteApi;

ThreadManager::ThreadManager(const blocks::BlockRegistry* registry,
                             const vm::PrimitiveTable* primitives)
    : registry_(registry),
      primitives_(primitives),
      hub_(std::make_shared<vm::WakeHub>()) {
  if (!registry_ || !primitives_) {
    throw Error("ThreadManager requires a registry and primitive table");
  }
}

ThreadManager::Task& ThreadManager::spawn(SpriteApi* sprite) {
  Task task;
  task.process = std::make_unique<Process>(registry_, primitives_, this,
                                           sprite);
  if (defaultToken_) {
    // A fresh child per process: the root cancels them all, while one
    // process's own trip never back-propagates to its siblings.
    task.process->setCancelToken(CancelToken::create(defaultToken_));
  }
  task.status = std::make_shared<ProcessStatus>();
  task.sprite = sprite;
  tasks_.push_back(std::move(task));
  return tasks_.back();
}

ThreadManager::SpawnResult ThreadManager::spawnScript(ScriptPtr script,
                                                      EnvPtr env,
                                                      SpriteApi* sprite) {
  Task& task = spawn(sprite);
  task.process->startScript(std::move(script), std::move(env));
  return {task.process.get(), task.status};
}

ThreadManager::SpawnResult ThreadManager::spawnExpression(BlockPtr expression,
                                                          EnvPtr env,
                                                          SpriteApi* sprite) {
  Task& task = spawn(sprite);
  task.process->startExpression(std::move(expression), std::move(env));
  return {task.process.get(), task.status};
}

blocks::Value ThreadManager::evaluate(BlockPtr expression, EnvPtr env,
                                      SpriteApi* sprite,
                                      uint64_t maxFrames) {
  SpawnResult handle =
      spawnExpression(std::move(expression), std::move(env), sprite);
  runUntilIdle(maxFrames);
  if (handle.status->errored) {
    throw Error("evaluate failed: " + handle.status->error);
  }
  return handle.status->result;
}

void ThreadManager::stopProcessesFor(SpriteApi* sprite) {
  for (Task& task : tasks_) {
    if (task.sprite == sprite &&
        (task.process->runnable() || task.process->blocked())) {
      task.process->terminate();
    }
  }
}

void ThreadManager::stopAll() {
  for (Task& task : tasks_) {
    if (task.process->runnable() || task.process->blocked()) {
      task.process->terminate();
    }
  }
}

std::string frameBudgetExceeded(const std::string& who, uint64_t frames) {
  return who + " exceeded its frame budget (" + std::to_string(frames) +
         " frames)";
}

void runIdleLoop(vm::WakeHub& hub, uint64_t maxRounds, const IdleLoop& loop) {
  for (uint64_t rounds = 0; loop.live(); ++rounds) {
    if (rounds == maxRounds) {
      // A structured timeout with attribution: name who is still live, so
      // "which script (or tenant) is spinning" is in the error, not a
      // debugger session.
      constexpr size_t kMaxNamed = 8;
      const std::vector<std::string> names = loop.overrun();
      std::string who;
      for (size_t i = 0; i < names.size(); ++i) {
        if (i == kMaxNamed) {
          who += ", …";
          break;
        }
        who += (i > 0 ? ", " : "") + names[i];
      }
      throw TimeoutError(frameBudgetExceeded(loop.owner, maxRounds) +
                         "; still " + loop.state + ": " + who);
    }
    // Snapshot before the frame polls: a completion landing anywhere after
    // its poll bumps the stamp, and the wait below returns at once.
    const uint64_t seen = hub.snapshot();
    if (!loop.frame() && loop.live()) hub.waitChanged(seen, loop.waitBound());
  }
}

bool ThreadManager::pollParked() {
  bool failedAny = false;
  for (Task& task : tasks_) {
    Process& process = *task.process;
    if (!process.blocked()) continue;
    if (process.wakeReady()) {
      process.unpark();
      continue;
    }
    // Parked processes consume no frames, so the frame loop never reaches
    // their cancellation checkpoints — observe the token here. A trip
    // fails the process with its typed reason, and reapFinished records
    // it under the process's own id and opcode (not the frame loop's).
    process.failIfCancelled();
    failedAny |= process.finished();
  }
  // Record and reap deadline failures immediately: callers that skip the
  // frame for fully-parked tenants (the serving layer) still see the
  // failure in the error log.
  if (failedAny) reapFinished();
  return hasReadyWork();
}

void ThreadManager::runFrame() {
  pollParked();
  runPolledFrame();
}

void ThreadManager::runPolledFrame() {
  ++frame_;
  if (!interference_.steals(frame_)) {
    // Processes spawned during this frame run starting next frame, so only
    // iterate over the tasks that existed when the frame began.
    const size_t count = tasks_.size();
    for (size_t i = 0; i < count; ++i) {
      Task& task = tasks_[i];
      if (!task.process->runnable()) continue;
      task.process->runSlice(sliceSteps_);
      // A handler that parked on an operation already complete gets its
      // wake functor fired inline during registration; finish the wake in
      // the same frame instead of charging one frame per completed park.
      while (task.process->blocked() && task.process->wakeReady()) {
        task.process->unpark();
        task.process->runSlice(sliceSteps_);
      }
    }
  }
  now_ += secondsPerFrame_;
  reapFinished();
}

double ThreadManager::parkedWaitBound(double cap) const {
  // The hub wait must return in time for the nearest parked deadline
  // (parent chains included), and stay short enough that an external
  // stopAll()/cancel — which does not notify the hub — is honoured
  // promptly. 50ms is invisible next to a frame's work but bounds the
  // worst-case latency of un-notified cancellation.
  constexpr double kMaxWait = 0.05;
  constexpr double kMinWait = 0.0001;
  double bound = std::min(cap, kMaxWait);
  for (const Task& task : tasks_) {
    if (!task.process->blocked()) continue;
    const CancelTokenPtr& token = task.process->cancelToken();
    if (token) bound = std::min(bound, token->remainingSeconds());
  }
  return std::max(bound, kMinWait);
}

uint64_t ThreadManager::runUntilIdle(uint64_t maxFrames) {
  const uint64_t first = frame_;
  runIdleLoop(*hub_, maxFrames,
              {"scheduler", "runnable", [this] { return !idle(); },
               [this] {
                 if (pollParked()) runPolledFrame();
                 return hasReadyWork();
               },
               [this] { return parkedWaitBound(); },
               [this] {
                 workers::substrateStats().bump(
                     &workers::SubstrateStats::timeouts);
                 std::vector<std::string> names;
                 for (const Task& task : tasks_) {
                   const Process& process = *task.process;
                   if (!process.runnable() && !process.blocked()) continue;
                   names.push_back("process " + std::to_string(process.id()) +
                                   " (" + process.rootOpcode() + ")" +
                                   (process.blocked() ? " [parked]" : ""));
                 }
                 return names;
               }});
  return frame_ - first;
}

bool ThreadManager::idle() const {
  return std::none_of(tasks_.begin(), tasks_.end(), [](const Task& task) {
    return task.process->runnable() || task.process->blocked();
  });
}

bool ThreadManager::hasReadyWork() const {
  return std::any_of(tasks_.begin(), tasks_.end(), [](const Task& task) {
    return task.process->runnable();
  });
}

size_t ThreadManager::runnableCount() const {
  return static_cast<size_t>(
      std::count_if(tasks_.begin(), tasks_.end(), [](const Task& task) {
        return task.process->runnable();
      }));
}

std::vector<std::string> ThreadManager::collectSayLog() const {
  std::vector<std::string> log = finishedSayLog_;
  for (const Task& task : tasks_) {
    log.insert(log.end(), task.process->sayLog().begin(),
               task.process->sayLog().end());
  }
  return log;
}

uint64_t ThreadManager::broadcast(const std::string& message) {
  uint64_t token = nextBroadcastToken_++;
  std::vector<uint64_t> listeners;
  if (hooks_.startListeners) {
    listeners = hooks_.startListeners(message);
  }
  broadcastWaits_.emplace(token, std::move(listeners));
  return token;
}

bool ThreadManager::broadcastFinished(uint64_t token) const {
  auto it = broadcastWaits_.find(token);
  if (it == broadcastWaits_.end()) return true;
  for (uint64_t id : it->second) {
    for (const Task& task : tasks_) {
      if (task.process->id() == id &&
          (task.process->runnable() || task.process->blocked())) {
        return false;
      }
    }
  }
  return true;
}

SpriteApi* ThreadManager::makeClone(SpriteApi* original,
                                    const std::string& targetName) {
  if (!hooks_.cloneSprite) return nullptr;
  return hooks_.cloneSprite(original, targetName);
}

void ThreadManager::removeClone(SpriteApi* clone) {
  if (!clone) return;
  stopProcessesFor(clone);
  clonesToRemove_.push_back(clone);
}

void ThreadManager::recordError(const Process& process) {
  if (recordedErrors_.size() >= kMaxRecordedErrors) {
    ++droppedErrors_;
    return;
  }
  recordedErrors_.push_back({process.id(), process.rootOpcode(),
                             process.error(), process.errorClass()});
}

std::string ThreadManager::RecordedError::text() const {
  return "process " + std::to_string(processId) + " (" + opcode +
         "): " + message;
}

std::vector<std::string> ThreadManager::errors() const {
  std::vector<std::string> texts;
  texts.reserve(recordedErrors_.size());
  for (const RecordedError& record : recordedErrors_) {
    texts.push_back(record.text());
  }
  return texts;
}

ThreadManager::ErrorDrain ThreadManager::drainErrors() {
  ErrorDrain drain;
  drain.entries = std::move(recordedErrors_);
  drain.dropped = droppedErrors_;
  recordedErrors_.clear();
  droppedErrors_ = 0;
  return drain;
}

std::shared_ptr<const ProcessStatus> ThreadManager::launchScript(
    ScriptPtr script, EnvPtr env, SpriteApi* sprite) {
  Task& task = spawn(sprite);
  task.process->startScript(std::move(script), std::move(env));
  return task.status;
}

void ThreadManager::reapFinished() {
  for (Task& task : tasks_) {
    if (!task.process->finished() || task.status->done) continue;
    task.status->result = task.process->result();
    task.status->done = true;
    if (task.process->errored()) {
      task.status->errored = true;
      task.status->error = task.process->error();
      recordError(*task.process);
    }
  }
  // Drop finished tasks (their status objects stay alive through the
  // shared_ptr held by whoever launched them).
  while (!tasks_.empty() && tasks_.front().process->finished()) {
    finishedSayLog_.insert(finishedSayLog_.end(),
                           tasks_.front().process->sayLog().begin(),
                           tasks_.front().process->sayLog().end());
    tasks_.pop_front();
  }
  // Physically remove clones whose removal was requested this frame.
  if (!clonesToRemove_.empty() && hooks_.destroyClone) {
    for (SpriteApi* clone : clonesToRemove_) {
      // Guard: only destroy once no runnable process references the clone.
      stopProcessesFor(clone);
      hooks_.destroyClone(clone);
    }
  }
  clonesToRemove_.clear();
}

}  // namespace psnap::sched
