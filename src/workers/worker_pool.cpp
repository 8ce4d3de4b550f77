#include "workers/worker_pool.hpp"

#include <malloc.h>

#include <algorithm>

#include "support/error.hpp"
#include "support/fault.hpp"

namespace psnap::workers {

namespace {
/// Shared availability gate for both submit overloads: real unavailability
/// (a stopped pool) and the injected pool-saturation fault surface the
/// same way, as a SubstrateError before anything is enqueued.
void checkAcceptsWork(bool stopped) {
  if (stopped) {
    throw SubstrateError("worker pool is stopped and accepts no work");
  }
  fault::inject(fault::Point::PoolSaturation);
}

/// Chunks smaller than this come from malloc's arenas, not from mmap.
constexpr int kArenaChunkBytes = 4 << 20;

/// Keep the memory one job frees for the next job. A job's scratch (its
/// slices' columns and bins, its shards' runs, its output) is allocated
/// on the pool's threads and freed when the job ends. With glibc's
/// default thresholds, which only rise as large mmap'd chunks are freed,
/// much of it goes back to the kernel between jobs and the next job
/// faults it in again: up to 80 extra page faults per 100k-word count,
/// a number and a kernel cost that change from run to run. Fixed
/// thresholds keep it in the arenas: chunks under kArenaChunkBytes come
/// from them, and an arena is trimmed only past twice that of free top.
void keepFreedMemory() {
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, kArenaChunkBytes);
  mallopt(M_TRIM_THRESHOLD, 2 * kArenaChunkBytes);
#endif
}
}  // namespace

WorkerPool::WorkerPool(size_t width) {
  const size_t count = width == 0 ? kDefaultWorkers : width;
  slots_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
  threads_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this, i] { workerMain(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(parkMutex_);
    stop_.store(true);
  }
  parkCv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Drain jobs submitted after the workers left (none in practice; the
  // queue must not leak closures holding resources).
  for (auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    slot->jobs.clear();
  }
}

void WorkerPool::push(size_t slot, std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(slots_[slot]->mutex);
    slots_[slot]->jobs.push_back(std::move(job));
  }
  queued_.fetch_add(1);  // seq_cst: pairs with the sleepers_ check below
  if (sleepers_.load() > 0) {
    // The empty critical section orders this notify against a worker
    // that is between its last queued_ check and cv wait.
    { std::lock_guard<std::mutex> lock(parkMutex_); }
    parkCv_.notify_one();
  }
}

void WorkerPool::submit(std::function<void()> job) {
  checkAcceptsWork(stop_.load(std::memory_order_relaxed));
  push(nextSlot_.fetch_add(1, std::memory_order_relaxed) % slots_.size(),
       std::move(job));
}

void WorkerPool::submit(const std::shared_ptr<TaskGroup>& group) {
  checkAcceptsWork(stop_.load(std::memory_order_relaxed));
  const size_t runners = std::min(group->size(), slots_.size());
  for (size_t i = 0; i < runners; ++i) {
    push(nextSlot_.fetch_add(1, std::memory_order_relaxed) % slots_.size(),
         [group] { group->drain(); });
  }
}

std::vector<uint64_t> WorkerPool::jobsPerWorker() const {
  std::vector<uint64_t> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    out.push_back(slot->executed.load(std::memory_order_relaxed));
  }
  return out;
}

WorkerPool& WorkerPool::shared() {
  static const bool kept = (keepFreedMemory(), true);
  (void)kept;
  static WorkerPool pool(
      std::max<size_t>(kDefaultWorkers, std::thread::hardware_concurrency()));
  return pool;
}

bool WorkerPool::tryRunOne(size_t self) {
  const size_t count = slots_.size();
  for (size_t k = 0; k < count; ++k) {
    const size_t victim = (self + k) % count;
    std::function<void()> job;
    {
      std::lock_guard<std::mutex> lock(slots_[victim]->mutex);
      if (slots_[victim]->jobs.empty()) continue;
      if (victim == self) {
        // Own deque: LIFO keeps the working set warm.
        job = std::move(slots_[victim]->jobs.back());
        slots_[victim]->jobs.pop_back();
      } else {
        // Steal the oldest job: FIFO order minimizes contention with the
        // victim's own LIFO end.
        job = std::move(slots_[victim]->jobs.front());
        slots_[victim]->jobs.pop_front();
      }
    }
    queued_.fetch_sub(1, std::memory_order_relaxed);
    // Chaos hook: the worker goes unresponsive (sleep, never throw) while
    // it holds the job it just claimed — the cooperative model's stand-in
    // for a stalled Web Worker. Drawn here, not at the top of the loop,
    // so each claimed job pays the stall armed when it was claimed and a
    // worker idle across a test boundary carries none into the next test.
    fault::inject(fault::Point::WorkerStall);
    job();
    slots_[self]->executed.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void WorkerPool::workerMain(size_t index) {
  while (true) {
    // Drain before honouring stop: pending jobs always run.
    if (tryRunOne(index)) continue;
    if (stop_.load(std::memory_order_relaxed)) break;
    std::unique_lock<std::mutex> lock(parkMutex_);
    sleepers_.fetch_add(1);  // seq_cst: pairs with push()'s queued_ add
    parkCv_.wait(lock, [this] {
      return stop_.load(std::memory_order_relaxed) || queued_.load() > 0;
    });
    sleepers_.fetch_sub(1);
  }
}

}  // namespace psnap::workers
