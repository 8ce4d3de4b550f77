#include "workers/parallel.hpp"

#include <algorithm>
#include <utility>

#include "support/fault.hpp"
#include "workers/grain.hpp"
#include "workers/stats.hpp"

namespace psnap::workers {

using blocks::Value;

Parallel::Parallel(blocks::ItemSpan data, ParallelOptions options)
    : workers_(options.maxWorkers == 0 ? kDefaultWorkers
                                       : options.maxWorkers),
      options_(options),
      token_(CancelToken::create(options.cancel)),
      stats_(&substrateStats()),
      perWorker_(workers_) {
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

void Parallel::launch(TaskGroup::Task body, size_t taskCount) {
  if (group_) {
    throw Error("Parallel: an operation is already running on this object");
  }
  // Chunk bodies throw straight into the group: it keeps the first error
  // (original type preserved) and cancels the unstarted siblings.
  group_ = std::make_shared<TaskGroup>(
      std::vector<TaskGroup::Task>(taskCount, std::move(body)), token_,
      stats_);
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
      // Guided claims: a claim takes half of a fair share of what is
      // left, never fewer than `chunk` items, so the per-claim work (the
      // cursor, the retry frame, the fault draw, the batch attempt, the
      // count) is paid O(tasks · log n) times instead of once per chunk,
      // and the shrinking tail still balances skewed item costs.
      const size_t divisor = 2 * std::max<size_t>(taskCount, 1);
      launch(
          [this, fn, n, chunk, divisor](size_t w) {
            size_t begin = cursor_.load();
            while (keepGoing() && begin < n) {
              const size_t end =
                  std::min(n, begin + std::max(chunk, (n - begin) / divisor));
              if (cursor_.compare_exchange_weak(begin, end)) {
                mapRange(fn, begin, end, w);
                begin = cursor_.load();
              }
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

bool Parallel::resolved() const { return group_ && group_->done(); }

void Parallel::onComplete(std::function<void()> cb) {
  if (!group_) {
    throw Error("Parallel: onComplete before map()");
  }
  group_->onComplete(std::move(cb));
}

void Parallel::cancel(const std::string& reason) {
  token_->cancel(reason);
  if (group_) group_->cancel();
}

std::exception_ptr Parallel::failure() const {
  if (!resolved()) return nullptr;
  if (std::exception_ptr error = group_->error()) return error;
  // A cancellation that stopped work before every item was processed is
  // the operation's typed error; one that tripped after the last item
  // completed is not a failure. Both facts are fixed once resolved.
  return processedItems() < inputSize_ ? group_->failure() : nullptr;
}

void Parallel::wait() {
  if (!group_ || joined_) return;
  group_->wait();
  joined_ = true;
  const std::exception_ptr error = failure();
  if (classifyError(error) == ErrorClass::Timeout) {
    stats_->bump(&SubstrateStats::timeouts);
  }
}

const std::vector<Value>& Parallel::data() {
  wait();
  // Surface the original exception type (a TypeError stays a TypeError),
  // not a flattened base-class copy of its message.
  if (std::exception_ptr error = failure()) std::rethrow_exception(error);
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
