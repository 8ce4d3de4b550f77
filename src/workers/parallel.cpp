#include "workers/parallel.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "support/fault.hpp"
#include "workers/grain.hpp"
#include "workers/stats.hpp"

namespace psnap::workers {

using blocks::Value;

namespace {
constexpr size_t kDefaultWorkers = 4;  // the paper's Web Worker default
}  // namespace

Parallel::Parallel(blocks::ItemSpan data, ParallelOptions options)
    : workers_(options.maxWorkers == 0 ? kDefaultWorkers
                                       : options.maxWorkers),
      options_(options),
      stats_(&substrateStats()),
      perWorker_(options.maxWorkers == 0 ? kDefaultWorkers
                                         : options.maxWorkers) {
  if (options_.chunkSize == 0) options_.chunkSize = 1;
  if (options_.maxRetries < 0) options_.maxRetries = 0;
  cloneIn(data);
}

Parallel::Parallel(const blocks::ListPtr& list, ParallelOptions options)
    : Parallel(list ? list->items() : blocks::ItemSpan(), options) {}

Parallel::~Parallel() {
  // Chunk tasks capture `this`; they must finish before the object dies.
  if (group_) group_->wait();
}

void Parallel::cloneIn(blocks::ItemSpan source) {
  // Snapshot transfer: structuredClone is a scalar copy / refcount bump
  // per element (lists take an O(1) frozen buffer snapshot, text is
  // shared-immutable), so the seed's parallel clone pass — slice tasks
  // deep-copying on the pool — is gone entirely. Isolation is still
  // anchored at construction time: later mutation of the source detaches
  // at the COW gate and never reaches this job, and vice versa.
  fault::inject(fault::Point::TransferFailure);  // clone-in boundary
  data_.reserve(source.size());
  for (const Value& v : source) data_.push_back(v.structuredClone());
}

void Parallel::recordError(std::exception_ptr error) {
  {
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (!failedFlag_.load(std::memory_order_relaxed)) {
      errorPtr_ = error;
      failedFlag_.store(true, std::memory_order_release);
    }
  }
  // Fail-fast: unstarted sibling chunks are skipped, not drained.
  if (group_) group_->cancel();
}

bool Parallel::keepGoing() const {
  if (failedFlag_.load(std::memory_order_acquire)) return false;
  return !(group_ && group_->cancelRequested());
}

uint64_t Parallel::processedItems() const {
  uint64_t total = 0;
  for (const CounterSlot& slot : perWorker_) {
    total += slot.items.load(std::memory_order_relaxed);
  }
  return total;
}

void Parallel::mapRange(const MapFn& fn, size_t begin, size_t end,
                        size_t w) {
  // The retry loop is exact: each element is written at most once, and a
  // throw from fn leaves data_[i] unwritten, so resuming at i re-applies
  // fn to the original input. Only the substrate class retries — a
  // TypeError from the user's ring is deterministic and rethrows
  // immediately with its original type.
  size_t i = begin;
  withRetries(options_.maxRetries, stats_, [&] {
    fault::inject(fault::Point::TaskThrow);
    // Native chunk path: tried once, on a still-pristine range (batch_
    // writes all-or-nothing, so a false return or a later retry always
    // finds the original inputs). A true return means every element of
    // the range is already mapped.
    if (i == begin && batch_ && batch_(data_.data() + begin, end - begin)) {
      i = end;
    }
    for (; i < end; ++i) data_[i] = fn(data_[i]);
  });
  perWorker_[w].items.fetch_add(end - begin, std::memory_order_relaxed);
}

void Parallel::launch(std::function<void(size_t)> body, size_t taskCount) {
  if (launched_.exchange(true)) {
    throw Error("Parallel: an operation is already running on this object");
  }
  if (options_.deadlineSeconds > 0 || options_.cancel) {
    token_ = options_.deadlineSeconds > 0
                 ? CancelToken::withDeadline(options_.deadlineSeconds,
                                             options_.cancel)
                 : CancelToken::create(options_.cancel);
  }
  std::vector<TaskGroup::Task> tasks;
  tasks.reserve(taskCount);
  for (size_t w = 0; w < taskCount; ++w) {
    tasks.push_back([this, body](size_t index) {
      try {
        body(index);
      } catch (...) {
        recordError(std::current_exception());
      }
    });
  }
  group_ = std::make_shared<TaskGroup>(std::move(tasks), token_);
  {
    // Attach callbacks registered before launch. An empty group settled
    // in its constructor, so these may fire right here on the caller.
    std::vector<std::function<void()>> pending;
    {
      std::lock_guard<std::mutex> lock(errorMutex_);
      pending.swap(pendingCallbacks_);
    }
    for (auto& cb : pending) group_->onComplete(std::move(cb));
  }
  // A refused launch degrades: the chunk tasks drain on the caller — the
  // sequential rung of the ladder — rather than failing a correct script.
  switch (startGroup(group_,
                     drainsInline(inputSize_, options_.itemCostNs, workers_),
                     options_.allowDegrade)) {
    case Started::Pooled:
      break;
    case Started::Inline:
      inline_ = true;
      break;
    case Started::Degraded:
      degraded_.store(true, std::memory_order_relaxed);
      stats_->bump(&SubstrateStats::downgrades);
      break;
  }
}

void Parallel::map(MapFn fn, MapBatchFn batch) {
  batch_ = std::move(batch);
  const size_t n = data_.size();
  inputSize_ = n;
  switch (options_.distribution) {
    case Distribution::Dynamic: {
      const size_t chunk = options_.chunkSize;
      // Only as many chunk tasks as there are chunks to claim; idle
      // logical workers keep their zero itemsPerWorker slot.
      const size_t taskCount =
          std::min(workers_, (n + chunk - 1) / chunk);
      launch(
          [this, fn, n, chunk](size_t w) {
            while (keepGoing()) {
              size_t begin = cursor_.fetch_add(chunk);
              if (begin >= n) break;
              mapRange(fn, begin, std::min(begin + chunk, n), w);
            }
          },
          taskCount);
      break;
    }
    case Distribution::Contiguous: {
      const size_t per = (n + workers_ - 1) / workers_;
      const size_t taskCount = per == 0 ? 0 : (n + per - 1) / per;
      launch(
          [this, fn, n, per](size_t w) {
            if (!keepGoing()) return;
            size_t begin = w * per;
            mapRange(fn, begin, std::min(begin + per, n), w);
          },
          taskCount);
      break;
    }
    case Distribution::BlockCyclic: {
      const size_t chunk = options_.chunkSize;
      const size_t stride = chunk * workers_;
      const size_t taskCount =
          std::min(workers_, (n + chunk - 1) / chunk);
      launch(
          [this, fn, n, chunk, stride](size_t w) {
            for (size_t base = w * chunk; base < n && keepGoing();
                 base += stride) {
              mapRange(fn, base, std::min(base + chunk, n), w);
            }
          },
          taskCount);
      break;
    }
  }
}

void Parallel::reduce(ReduceFn fn) {
  isReduce_ = true;
  combiner_ = fn;
  const size_t n = data_.size();
  inputSize_ = n;
  partials_.assign(workers_, Value());
  const size_t per = (n + workers_ - 1) / workers_;
  const size_t taskCount = per == 0 ? 0 : (n + per - 1) / per;
  launch(
      [this, fn, n, per](size_t w) {
        size_t begin = w * per;
        size_t end = std::min(begin + per, n);
        if (begin >= end || !keepGoing()) return;
        // Same exact-resume retry structure as mapRange: a throw from fn
        // leaves acc at the last good fold, so the retry resumes at i.
        Value acc = data_[begin];
        size_t i = begin + 1;
        withRetries(options_.maxRetries, stats_, [&] {
          fault::inject(fault::Point::TaskThrow);
          for (; i < end; ++i) acc = fn(acc, data_[i]);
        });
        perWorker_[w].items.fetch_add(end - begin,
                                      std::memory_order_relaxed);
        partials_[w] = std::move(acc);
      },
      taskCount);
}

bool Parallel::resolved() const {
  return launched_.load() && group_ && group_->done();
}

void Parallel::onComplete(std::function<void()> cb) {
  {
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (!group_) {
      pendingCallbacks_.push_back(std::move(cb));
      return;
    }
  }
  group_->onComplete(std::move(cb));
}

void Parallel::cancel(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(errorMutex_);
    cancelReason_ = reason;
  }
  if (token_) token_->cancel(reason);
  if (group_) group_->cancel();
}

void Parallel::wait() {
  if (!launched_.load()) return;
  if (joined_) return;
  group_->wait();
  joined_ = true;
  // A cancellation (explicit or deadline) that stopped work before every
  // item was processed becomes the operation's typed error. A deadline
  // that trips only after the last item completed is not a failure.
  if (!failedFlag_.load(std::memory_order_acquire) &&
      group_->cancelRequested() && processedItems() < inputSize_) {
    try {
      if (token_) token_->checkpoint();
      std::string reason;
      {
        std::lock_guard<std::mutex> lock(errorMutex_);
        reason = cancelReason_;
      }
      throw CancelledError(reason);
    } catch (...) {
      if (classifyError(std::current_exception()) == ErrorClass::Timeout) {
        stats_->bump(&SubstrateStats::timeouts);
      }
      recordError(std::current_exception());
    }
  }
  if (isReduce_ && !failedFlag_.load()) foldReducePartials();
}

void Parallel::foldReducePartials() {
  // Combine the per-worker partials in worker order.
  Value acc;
  bool first = true;
  for (Value& partial : partials_) {
    if (partial.isNothing()) continue;  // worker had an empty range
    if (first) {
      acc = std::move(partial);
      first = false;
    } else {
      acc = combiner_(acc, partial);
    }
  }
  data_.clear();
  if (!first) data_.push_back(std::move(acc));
}

bool Parallel::failed() const { return failedFlag_.load(); }

const std::vector<Value>& Parallel::data() {
  wait();
  if (failedFlag_.load()) {
    // Surface the original exception type (a TypeError stays a
    // TypeError), not a flattened base-class copy of its message.
    std::rethrow_exception(errorPtr_);
  }
  return data_;
}

std::vector<Value> Parallel::takeData() {
  data();  // wait + error check (throws with the original type)
  fault::inject(fault::Point::TransferFailure);  // clone-out boundary
  return std::move(data_);
}

std::vector<uint64_t> Parallel::itemsPerWorker() const {
  std::vector<uint64_t> out;
  out.reserve(perWorker_.size());
  for (const CounterSlot& slot : perWorker_) {
    out.push_back(slot.items.load(std::memory_order_relaxed));
  }
  return out;
}

uint64_t Parallel::virtualMakespan() const {
  uint64_t makespan = 0;
  for (const CounterSlot& slot : perWorker_) {
    makespan =
        std::max(makespan, slot.items.load(std::memory_order_relaxed));
  }
  return makespan;
}

}  // namespace psnap::workers
