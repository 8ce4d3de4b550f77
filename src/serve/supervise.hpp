// Supervision primitives for the session server: durable checkpoints,
// restart budgets, and recovery (DESIGN.md "Supervision").
//
// The model is Parsl's retry-from-checkpoint for deferred apps: a failed
// session is not a lost session but a *replay* from its newest
// known-good state. Three pieces live here, all policy-free mechanics
// the server composes:
//
//   * the checkpoint format — one `project::saveProjectSnapshot` file
//     per (session, sequence), named `session-<id>.<seq>.ckpt`, with a
//     CheckpointMeta record embedded as a reserved project global so the
//     snapshot format itself stays unchanged. Writes inherit the persist
//     writer's temp-and-rename atomicity: a crash mid-write leaves the
//     previous generation intact and a stage file the orphan sweep
//     (persist::sweepOrphanedTemps) clears on the next open.
//   * generation management — the newest `kKeepGenerations` checkpoints
//     are kept per session; the loader walks newest-to-oldest past
//     corrupt generations (and the RecoveryCorruption fault point), so
//     one torn file degrades recovery freshness, never recovery itself.
//   * change detection — CheckpointHasher folds the value plane's COW
//     version stamps into a content fingerprint: a list whose version is
//     unchanged since the last checkpoint re-uses its cached hash
//     without rescanning (O(1) per unchanged list, however large), so
//     an idle session's periodic checkpoint degenerates to a hash
//     compare and a skip.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "blocks/value.hpp"
#include "project/project.hpp"
#include "sched/thread_manager.hpp"

namespace psnap::serve {

/// Erlang-style restart budget: at most maxRestarts restarts of a session
/// since it was brought up on this server (a lifetime budget; a session
/// recovered by a successor server starts at 0), with backoffs measured
/// on the server's frame clock (deterministic — no wall time).
struct RestartPolicy {
  /// Restarts allowed (0 = supervision never restarts; failures stay
  /// Failed as before).
  uint32_t maxRestarts = 0;
  /// First restart waits backoffBaseFrames server frames; each further
  /// restart doubles the wait, capped at backoffCapFrames.
  uint64_t backoffBaseFrames = 2;
  uint64_t backoffCapFrames = 64;

  /// The backoff delay before restart attempt `restarts` (1-based).
  uint64_t backoffFrames(uint32_t restarts) const;
};

/// Everything the supervisor must remember alongside the project state
/// to resume a session elsewhere: identity, progress accounting, and the
/// scheduler's virtual clock.
struct CheckpointMeta {
  uint64_t sessionId = 0;
  uint64_t seq = 0;           ///< checkpoint generation, monotone per session
  std::string label;          ///< workload label (recovery factory key)
  uint64_t framesRun = 0;     ///< session frames executed at capture
  uint32_t restarts = 0;      ///< restarts consumed at capture
  sched::ThreadManager::ClockState clock;
};

/// Checkpoint generations kept per session (newest first); older ones
/// are pruned after each successful write.
inline constexpr uint64_t kKeepGenerations = 2;

/// `<dir>/session-<id>.<seq>.ckpt`
std::string checkpointPath(const std::string& dir, uint64_t sessionId,
                           uint64_t seq);

/// One checkpoint file found on disk.
struct CheckpointRef {
  uint64_t sessionId = 0;
  uint64_t seq = 0;
  std::string path;
};

/// All checkpoint files under `dir`, grouped by nothing: every session,
/// newest seq first within a session. A missing directory lists empty.
std::vector<CheckpointRef> listCheckpoints(const std::string& dir);

/// One session's checkpoints, newest seq first.
std::vector<CheckpointRef> listCheckpoints(const std::string& dir,
                                           uint64_t sessionId);

/// Write one checkpoint generation: meta is embedded as a reserved
/// global, the file is staged and renamed atomically, and older
/// generations beyond kKeepGenerations are pruned. Throws as
/// saveProjectSnapshot does; the CheckpointWriteFailure fault point
/// fires here (tagged with the session id) before any file is staged.
void writeCheckpoint(const std::string& dir, const CheckpointMeta& meta,
                     const project::Project& project);

struct LoadedCheckpoint {
  CheckpointMeta meta;
  project::Project project;
};

/// Load the newest generation that reads back valid, walking past
/// corrupt files (and RecoveryCorruption injections, tagged with the
/// session id) to older generations. Empty when the session has no
/// loadable checkpoint at all — the supervisor then restarts from
/// scratch.
std::optional<LoadedCheckpoint> loadNewestCheckpoint(const std::string& dir,
                                                     uint64_t sessionId);

/// Delete every checkpoint of `sessionId` (a completed session needs no
/// recovery state). Returns files removed.
size_t removeCheckpoints(const std::string& dir, uint64_t sessionId);

/// Content fingerprint over a project's mutable state, COW-accelerated:
/// lists are cached by (address, version) — the pinned ListPtr keeps the
/// address from being recycled — so unchanged lists cost one version
/// compare instead of a rescan. One hasher instance belongs to one
/// session's checkpoint loop; equal successive fingerprints mean the
/// checkpoint write can be skipped.
class CheckpointHasher {
 public:
  uint64_t fingerprint(const project::Project& project);

 private:
  uint64_t hashValue(const blocks::Value& value);
  uint64_t hashList(const blocks::ListPtr& list);

  struct ListEntry {
    blocks::ListPtr pin;  ///< prevents address reuse while cached
    uint64_t version = 0;
    uint64_t hash = 0;
  };
  std::unordered_map<const blocks::List*, ListEntry> lists_;
};

}  // namespace psnap::serve
