#include "mapreduce/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <thread>
#include <utility>

#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "workers/stats.hpp"
#include "workers/worker_pool.hpp"

namespace psnap::mr {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;
using workers::TaskGroup;
using workers::WorkerPool;

namespace {

/// Bounded deterministic backoff before a stage-task retry: 100us, 200us,
/// 400us, … capped at ~2ms — the same curve as Parallel's chunk retries,
/// and fixed (no jitter) for the same reproducible-chaos reason.
void stageRetryBackoff(int attempt) {
  const int64_t micros =
      std::min<int64_t>(int64_t{100} << std::min(attempt - 1, 8), 2000);
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

/// A stage task's retry rung: a transient substrate fault restarts `body`
/// from scratch after a backoff. Anything else, or a fault past
/// `maxRetries`, fails the task group and reaches the degrade rung.
template <typename Body>
void withStageRetries(int maxRetries, workers::SubstrateStats* stats,
                      const Body& body) {
  for (int attempt = 0;;) {
    try {
      body();
      return;
    } catch (...) {
      std::exception_ptr error = std::current_exception();
      if (!isRetryableClass(classifyError(error)) || attempt >= maxRetries) {
        std::rethrow_exception(error);
      }
      ++attempt;
      stats->bump(&workers::SubstrateStats::retries);
      stageRetryBackoff(attempt);
    }
  }
}

// A pair's sort key, computed once per pair instead of once per
// comparison. `hash` is the full 64-bit hash of the key's order class:
// keys the order treats as equivalent always hash equal, which is what
// lets a shard find a key's class in a hash table and lets the shuffle
// shard by `hash % shards` (the ordering argument is in DESIGN.md,
// "Executor architecture").
//
// A text key's rank is its own bytes, compared case-insensitively on the
// fly (strings::compareIgnoreCase orders exactly like toLower-then-< over
// unsigned bytes). Numeric keys never need a rank, so only booleans,
// lists and nothing render their display.
struct SortKey {
  const Value* key = nullptr;  // the pair's key slot, owned by the Shuffle
  std::string shown;           // display(), for non-numeric non-text keys
  double num = 0;
  uint64_t hash = 0;
  bool numeric = false;
};

std::string_view rankOf(const SortKey& k) {
  return k.key->isText() ? k.key->textView() : std::string_view(k.shown);
}

SortKey makeKey(const Value& key) {
  SortKey k;
  k.key = &key;
  k.numeric = key.numericValue(k.num);
  if (k.numeric) {
    // -0 and 0 are one key, and all NaNs are one class.
    k.hash = std::isnan(k.num) ? 0x7ff8000000000000ull
                               : std::hash<double>{}(k.num == 0 ? 0.0 : k.num);
  } else if (key.isText()) {
    k.hash = key.loweredHash();  // cached on the shared rep for long text
  } else {
    k.shown = key.display();
    k.hash = strings::hashLowered(k.shown);
  }
  return k;
}

/// The shuffle's key order, a strict weak ordering over every key: all
/// numeric keys first, by number (NaN after every other number), then
/// all other keys by case-insensitive text.
bool keyLess(const SortKey& a, const SortKey& b) {
  if (a.numeric != b.numeric) return a.numeric;
  if (a.numeric) {
    if (std::isnan(a.num) || std::isnan(b.num)) {
      return !std::isnan(a.num) && std::isnan(b.num);
    }
    return a.num < b.num;
  }
  return strings::compareIgnoreCase(rankOf(a), rankOf(b)) < 0;
}

/// `a.key->equals(*b.key)` for two keys of one order class. Where both
/// are numeric or both are text, the class already decides it: numbers
/// of one class are equal unless NaN, and non-numeric texts of one class
/// are equal ignoring case, which is what Value::equals compares.
bool sameKey(const SortKey& a, const SortKey& b) {
  if (a.numeric) return a.num == b.num;
  if (a.key->isText() && b.key->isText()) return true;
  return a.key->equals(*b.key);
}

/// One group of the shuffle: its key (the first pair's key), its value
/// (the values list, then the reduced value), and the head key of its
/// order class, by which shards merge.
struct Group {
  Value key;
  Value value;
  const SortKey* order = nullptr;
};

constexpr uint32_t kNone = UINT32_MAX;

/// The shuffle over flat pair arrays: pair i is {pairKeys[i],
/// pairValues[i]}. Slot i of every array is written by the one slice task
/// covering i, and binned[slice] by that slice alone, so a slice that
/// restarts from scratch rewrites all of its state exactly.
struct Shuffle {
  Shuffle(size_t count, size_t shards)
      : n(count),
        shardCount(shards),
        pairKeys(count),
        pairValues(count),
        keys(count),
        binned(shards, std::vector<std::vector<uint32_t>>(shards)) {}

  /// Slice s covers [s * per(), min((s + 1) * per(), n)).
  size_t per() const { return (n + shardCount - 1) / shardCount; }

  /// Store item i's map result: an explicit [key, value] pair is split
  /// into the two arrays; any other result is keyed by the item.
  void setPair(size_t i, const Value& item, Value mapped) {
    if (mapped.isList() && mapped.asList()->length() == 2) {
      const Value& key = mapped.asList()->item(1);
      if (!key.isTransferable()) {
        throw Error(
            "mapReduce: explicit [key, value] pair has a non-transferable "
            "key of kind '" +
            std::string(blocks::valueKindName(key.kind())) +
            "'; keys must be cloneable (no rings)");
      }
      pairKeys[i] = key;
      pairValues[i] = mapped.asList()->item(2);
      return;
    }
    pairKeys[i] = item;
    pairValues[i] = std::move(mapped);
  }

  /// Compute pair i's sort key and bin its index by shard under `slice`.
  void bin(size_t slice, size_t i) {
    keys[i] = makeKey(pairKeys[i]);
    binned[slice][keys[i].hash % shardCount].push_back(uint32_t(i));
  }

  /// One shard's groups in key order — exactly the groups a stable sort
  /// of the shard's pairs plus adjacent Value::equals grouping forms,
  /// at the cost of sorting only the distinct keys.
  std::vector<Group> group(size_t shard) const {
    // Slices cover ascending contiguous ranges, so `indices` is ascending
    // and every class below lists its members in pair order.
    std::vector<uint32_t> indices;
    for (const auto& slice : binned) {
      indices.insert(indices.end(), slice[shard].begin(), slice[shard].end());
    }
    // 1. Hash classes: open addressing on the full hash. A slot matches
    //    only a key that neither orders before nor after its class head.
    size_t capacity = 16;
    while (capacity < 2 * indices.size()) capacity *= 2;
    std::vector<uint32_t> slots(capacity, kNone);
    std::vector<uint32_t> heads;  // per class: its first member
    std::vector<uint32_t> last;   // per class: its latest member
    std::vector<uint32_t> next(indices.size(), kNone);  // member chains
    for (uint32_t m = 0; m < indices.size(); ++m) {
      const SortKey& key = keys[indices[m]];
      size_t slot = key.hash & (capacity - 1);
      for (; slots[slot] != kNone; slot = (slot + 1) & (capacity - 1)) {
        const SortKey& head = keys[indices[heads[slots[slot]]]];
        if (head.hash == key.hash && !keyLess(head, key) &&
            !keyLess(key, head)) {
          break;
        }
      }
      if (slots[slot] == kNone) {
        slots[slot] = uint32_t(heads.size());
        heads.push_back(m);
        last.push_back(m);
      } else {
        next[last[slots[slot]]] = m;
        last[slots[slot]] = m;
      }
    }
    // 2. Sort only the class heads.
    std::vector<uint32_t> order(heads.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return keyLess(keys[indices[heads[a]]], keys[indices[heads[b]]]);
    });
    // 3. In key order, split each class into runs of keys equal to the
    //    run's first key; each run's values list is built once.
    std::vector<Group> groups;
    for (uint32_t c : order) {
      const SortKey* head = &keys[indices[heads[c]]];
      for (uint32_t m = heads[c]; m != kNone;) {
        const SortKey& run = keys[indices[m]];
        std::vector<Value> values;
        do {
          values.push_back(pairValues[indices[m]]);
          m = next[m];
        } while (m != kNone && sameKey(run, keys[indices[m]]));
        groups.push_back({*run.key, Value(List::make(std::move(values))),
                          head});
      }
    }
    return groups;
  }

  size_t n;
  size_t shardCount;
  std::vector<Value> pairKeys;
  std::vector<Value> pairValues;
  std::vector<SortKey> keys;
  std::vector<std::vector<std::vector<uint32_t>>> binned;  // [slice][shard]
};

/// Serial W-way merge of per-shard group lists, each in key order. A
/// class lives in one shard, so keys never tie across shards and the
/// strict merge reconstitutes the global order.
std::vector<Group> mergeShards(std::vector<std::vector<Group>>& shards) {
  if (shards.size() == 1) return std::move(shards[0]);
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  std::vector<Group> out;
  out.reserve(total);
  std::vector<size_t> cursor(shards.size(), 0);
  while (out.size() < total) {
    size_t best = shards.size();
    for (size_t s = 0; s < shards.size(); ++s) {
      if (cursor[s] >= shards[s].size()) continue;
      if (best == shards.size() || keyLess(*shards[s][cursor[s]].order,
                                           *shards[best][cursor[best]].order)) {
        best = s;
      }
    }
    out.push_back(std::move(shards[best][cursor[best]++]));
  }
  return out;
}

/// The output list of [key, value] pairs.
ListPtr outputOf(std::vector<Group>& groups) {
  std::vector<Value> out;
  out.reserve(groups.size());
  for (Group& group : groups) {
    out.emplace_back(
        List::make({std::move(group.key), std::move(group.value)}));
  }
  return List::make(std::move(out));
}

/// run()'s shuffle: bin every pair by shard, group each shard, merge.
/// Inputs under 256 pairs and sequential runs take the same code path
/// with one shard on the calling thread.
///
/// Shuffle tasks append into shared per-slice bins, so they are NOT
/// retryable in place (a rerun would double-bin); a substrate failure
/// here propagates out and run()'s outer ladder rung re-executes the
/// whole pipeline sequentially. The task-throw fault point therefore
/// wraps the *task* bodies, never the sequential shardCount == 1 path.
std::vector<Group> shuffleAndGroup(Shuffle& s, const CancelTokenPtr& token) {
  if (s.shardCount == 1) {
    for (size_t i = 0; i < s.n; ++i) s.bin(0, i);
    return s.group(0);
  }
  std::vector<std::vector<Group>> shards(s.shardCount);
  auto phase = [&](const std::function<void(size_t)>& body) {
    std::vector<TaskGroup::Task> tasks;
    tasks.reserve(s.shardCount);
    for (size_t t = 0; t < s.shardCount; ++t) {
      tasks.push_back([&body](size_t task) {
        fault::inject(fault::Point::TaskThrow);
        body(task);
      });
    }
    auto group = std::make_shared<TaskGroup>(std::move(tasks), token);
    WorkerPool::shared().submit(group);
    group->wait();
    group->rethrowIfError();
  };
  phase([&s](size_t slice) {
    const size_t end = std::min((slice + 1) * s.per(), s.n);
    for (size_t i = slice * s.per(); i < end; ++i) s.bin(slice, i);
  });
  phase([&](size_t shard) { shards[shard] = s.group(shard); });
  return mergeShards(shards);
}

/// One pipeline pass, either parallel or sequential. Throws on failure
/// (with the original exception type); run() owns the degradation
/// decision.
ListPtr runOnce(const ListPtr& input, const MapFn& mapFn,
                const ReduceFn& reduceFn, const Options& options,
                bool sequential, const CancelTokenPtr& token,
                Stats& local) {
  const size_t width = options.workers == 0 ? 4 : options.workers;
  const size_t n = input->length();
  const blocks::ItemSpan items = input->items();
  Shuffle shuffle(n, (sequential || n < 256) ? 1 : width);

  workers::ParallelOptions phaseOptions;
  phaseOptions.maxWorkers = options.workers;
  phaseOptions.maxRetries = options.maxRetries;
  // The pipeline deadline lives in `token`; the phase Parallels must not
  // degrade internally (this function owns the outer ladder rung).
  phaseOptions.allowDegrade = false;
  phaseOptions.cancel = token;

  // --- map phase -------------------------------------------------------------
  if (sequential) {
    for (size_t i = 0; i < n; ++i) {
      shuffle.setPair(i, items[i], mapFn(items[i]));
    }
    local.mapMakespan = n;
  } else {
    workers::Parallel job(items, phaseOptions);
    job.map(mapFn);
    std::vector<Value> mapped = job.takeData();  // waits; throws on error
    for (size_t i = 0; i < n; ++i) {
      shuffle.setPair(i, items[i], std::move(mapped[i]));
    }
    local.mapMakespan = job.virtualMakespan();
  }

  // --- shuffle: hash classes, sorted heads, equal-key runs -------------------
  std::vector<Group> groups = shuffleAndGroup(shuffle, token);
  local.distinctKeys = groups.size();

  // --- reduce phase ---------------------------------------------------------------
  if (sequential) {
    for (Group& group : groups) group.value = reduceFn(group.value.asList());
    local.reduceMakespan = groups.size();
  } else {
    std::vector<Value> lists;
    lists.reserve(groups.size());
    for (const Group& group : groups) lists.push_back(group.value);
    workers::Parallel job(lists, phaseOptions);
    job.map([reduceFn](const Value& values) {
      return reduceFn(values.asList());
    });
    std::vector<Value> reduced = job.takeData();
    for (size_t g = 0; g < groups.size(); ++g) {
      groups[g].value = std::move(reduced[g]);
    }
    local.reduceMakespan = job.virtualMakespan();
  }
  return outputOf(groups);
}

}  // namespace

ReduceFn identityReduce() {
  return [](const ListPtr& values) { return Value(values); };
}

ListPtr run(const ListPtr& input, const MapFn& mapFn,
            const ReduceFn& reduceFn, const Options& options, Stats* stats) {
  if (!input) throw Error("mapReduce: null input list");
  Stats local;
  local.inputItems = input->length();

  // One token spans the whole pipeline, so map, shuffle and reduce share
  // a single wall-clock budget instead of each phase getting its own.
  CancelTokenPtr token;
  if (options.deadlineSeconds > 0) {
    token = CancelToken::withDeadline(options.deadlineSeconds,
                                      options.cancel);
  } else {
    token = options.cancel;  // may be null
  }

  ListPtr out;
  if (options.sequential) {
    out = runOnce(input, mapFn, reduceFn, options, true, token, local);
  } else {
    try {
      out = runOnce(input, mapFn, reduceFn, options, false, token, local);
    } catch (...) {
      std::exception_ptr error = std::current_exception();
      // Only a *transient* substrate failure earns the sequential rerun.
      // Timeout/Cancelled must not (a rerun after a blown deadline only
      // blows it further) and user-script errors are deterministic.
      if (!options.allowDegrade ||
          classifyError(error) != ErrorClass::Substrate) {
        std::rethrow_exception(error);
      }
      workers::substrateStats().bump(&workers::SubstrateStats::downgrades);
      local = Stats{};
      local.inputItems = input->length();
      local.degraded = true;
      out = runOnce(input, mapFn, reduceFn, options, true, token, local);
    }
  }

  if (stats) *stats = local;
  return out;
}

// --- Job: the completion-chained pipeline -----------------------------------

struct Job::Pipeline {
  ListPtr input;
  MapFn mapFn;
  ReduceFn reduceFn;
  Options options;
  workers::SubstrateStats* stats = nullptr;  // the constructing tenant's

  // Stage 1 output: the flat pairs, their sort keys and shard bins.
  Shuffle shuffle{0, 1};
  // Stage 2 output: per shard, its reduced groups in key order.
  std::vector<std::vector<Group>> shards;

  std::shared_ptr<TaskGroup> stage1;
  std::shared_ptr<TaskGroup> stage2;
};

Job::Job(ListPtr input, MapFn mapFn, ReduceFn reduceFn, Options options)
    : pipe_(std::make_unique<Pipeline>()) {
  Pipeline& p = *pipe_;
  p.input = std::move(input);
  p.mapFn = std::move(mapFn);
  p.reduceFn = std::move(reduceFn);
  p.options = std::move(options);
  p.stats = &workers::substrateStats();
  // One token spans the whole pipeline (map, shuffle and reduce share a
  // single wall-clock budget) and doubles as the cancel() handle, so it
  // exists even without a deadline or parent.
  token_ = p.options.deadlineSeconds > 0
               ? CancelToken::withDeadline(p.options.deadlineSeconds,
                                           p.options.cancel)
               : CancelToken::create(p.options.cancel);
  if (!p.input) {
    settleError(std::make_exception_ptr(Error("mapReduce: null input list")));
    return;
  }
  const size_t n = p.input->length();
  stats_.inputItems = n;
  if (n == 0) {
    result_ = List::make();
    settleOk();
    return;
  }
  const size_t width = p.options.workers == 0 ? 4 : p.options.workers;
  // Same small-input threshold as run(): a single shard keeps the chain's
  // overhead off short lists without changing the output.
  p.shuffle = Shuffle(n, n < 256 ? 1 : std::max<size_t>(1, width));
  p.shards.resize(p.shuffle.shardCount);
  startStage1();
}

// Every path out of the chain settles the latch exactly once, as its last
// touch of the Job; ~Job's latch wait is therefore a full join.
Job::~Job() { latch_.wait(); }

void Job::onComplete(workers::CompletionLatch::Callback cb) {
  latch_.onSettle(std::move(cb));
}

void Job::cancel(const std::string& reason) { token_->cancel(reason); }

void Job::startStage1() {
  Pipeline& p = *pipe_;
  const size_t per = p.shuffle.per();
  stats_.mapMakespan = std::min(per, p.shuffle.n);
  std::vector<TaskGroup::Task> tasks;
  tasks.reserve(p.shuffle.shardCount);
  for (size_t s = 0; s < p.shuffle.shardCount; ++s) {
    tasks.push_back([this, per](size_t slice) {
      Pipeline& p = *pipe_;
      Shuffle& s = p.shuffle;
      const blocks::ItemSpan items = p.input->items();
      const size_t begin = slice * per;
      const size_t end = std::min(begin + per, s.n);
      // mapFn is pure and every slot this slice writes is its own, so a
      // retry restarts the slice exactly.
      withStageRetries(p.options.maxRetries, p.stats, [&] {
        for (auto& bin : s.binned[slice]) bin.clear();
        // Native chunk path: copy the slice's items into its pairValues
        // slots and transform them there (pairs stay keyed by the
        // ORIGINAL items, which p.input still holds). A false return
        // writes nothing, and the loop below maps every item itself.
        bool batched = false;
        if (p.options.mapBatch && end > begin) {
          std::copy(items.begin() + begin, items.begin() + end,
                    s.pairValues.begin() + begin);
          batched = p.options.mapBatch(s.pairValues.data() + begin,
                                       end - begin);
          // The slots now hold mapped values: a retry must copy afresh.
          if (batched) fault::inject(fault::Point::TaskThrow);
        }
        for (size_t i = begin; i < end; ++i) {
          if (!batched) fault::inject(fault::Point::TaskThrow);
          if ((i - begin) % 512 == 511) token_->checkpoint();
          s.setPair(i, items[i],
                    batched ? std::move(s.pairValues[i]) : p.mapFn(items[i]));
          s.bin(slice, i);
        }
      });
    });
  }
  p.stage1 = std::make_shared<TaskGroup>(std::move(tasks), token_);
  submitStage(p.stage1, [this] { stage1Done(); });
}

void Job::stage1Done() {
  Pipeline& p = *pipe_;
  std::exception_ptr error = p.stage1->error();
  if (!error && token_->cancelled()) {
    try {
      token_->checkpoint();
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (error) {
    failOrDegrade(error);
    return;
  }
  startStage2();
}

void Job::startStage2() {
  Pipeline& p = *pipe_;
  std::vector<TaskGroup::Task> tasks;
  tasks.reserve(p.shuffle.shardCount);
  for (size_t s = 0; s < p.shuffle.shardCount; ++s) {
    tasks.push_back([this](size_t shard) {
      Pipeline& p = *pipe_;
      // Everything below is task-local until the final move into
      // p.shards, so a retry restarts the shard exactly.
      withStageRetries(p.options.maxRetries, p.stats, [&] {
        fault::inject(fault::Point::TaskThrow);
        std::vector<Group> groups = p.shuffle.group(shard);
        // Reduce each group in place — per-group reduction is independent
        // of how groups were formed, so fusing it here leaves the output
        // bytes unchanged.
        for (size_t g = 0; g < groups.size(); ++g) {
          fault::inject(fault::Point::TaskThrow);
          if (g % 256 == 255) token_->checkpoint();
          groups[g].value = p.reduceFn(groups[g].value.asList());
        }
        p.shards[shard] = std::move(groups);
      });
    });
  }
  p.stage2 = std::make_shared<TaskGroup>(std::move(tasks), token_);
  submitStage(p.stage2, [this] { stage2Done(); });
}

void Job::stage2Done() {
  Pipeline& p = *pipe_;
  std::exception_ptr error = p.stage2->error();
  if (!error && token_->cancelled()) {
    try {
      token_->checkpoint();
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (error) {
    failOrDegrade(error);
    return;
  }
  uint64_t makespan = 0;
  for (const auto& shard : p.shards) {
    makespan = std::max<uint64_t>(makespan, shard.size());
  }
  std::vector<Group> groups = mergeShards(p.shards);
  stats_.distinctKeys = groups.size();
  stats_.reduceMakespan = makespan;
  result_ = outputOf(groups);
  settleOk();
}

void Job::submitStage(const std::shared_ptr<TaskGroup>& stage,
                      workers::CompletionLatch::Callback continuation) {
  try {
    WorkerPool::shared().submit(stage);
  } catch (const SubstrateError&) {
    // The pool cannot take the stage (stopped or saturated); the group is
    // untouched (submit is all-or-nothing). Drain it inline on this
    // thread — the constructing thread for stage 1, possibly a worker
    // for a later stage — or, with degradation forbidden, settle typed
    // (constructors do not throw; jobs fail).
    if (!pipe_->options.allowDegrade) {
      settleError(std::current_exception());
      return;
    }
    if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
      pipe_->stats->bump(&workers::SubstrateStats::downgrades);
    }
    stage->onComplete(std::move(continuation));
    while (stage->runOne()) {
    }
    return;
  }
  // Registered after a successful submit so a refused stage never leaves
  // a dangling continuation; if the workers already finished the stage,
  // this fires the continuation right here.
  stage->onComplete(std::move(continuation));
}

void Job::failOrDegrade(std::exception_ptr error) {
  Pipeline& p = *pipe_;
  // Only a *transient* substrate failure earns the sequential rerun.
  // Timeout/Cancelled must not (a rerun after a blown deadline only blows
  // it further) and user-script errors are deterministic.
  if (!p.options.allowDegrade ||
      classifyError(error) != ErrorClass::Substrate) {
    settleError(error);
    return;
  }
  // Rerun sequentially on whichever thread observed the failure, under
  // the *same* token — the deadline does not restart. The rerun's
  // retries/downgrades belong to the constructing tenant.
  workers::StatsScope scope(*p.stats);
  if (!degraded_.exchange(true, std::memory_order_acq_rel)) {
    p.stats->bump(&workers::SubstrateStats::downgrades);
  }
  Stats local;
  local.inputItems = p.shuffle.n;
  local.degraded = true;
  try {
    result_ = runOnce(p.input, p.mapFn, p.reduceFn, p.options, true, token_,
                      local);
    stats_ = local;
    settleOk();
  } catch (...) {
    settleError(std::current_exception());
  }
}

void Job::settleOk() {
  done_.store(true, std::memory_order_release);
  latch_.settle();
}

void Job::settleError(std::exception_ptr error) {
  errorPtr_ = error;
  errorClass_ = classifyError(error);
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    error_ = e.what();
  } catch (...) {
    error_ = "unknown mapReduce error";
  }
  failed_.store(true, std::memory_order_release);
  done_.store(true, std::memory_order_release);
  latch_.settle();
}

}  // namespace psnap::mr
