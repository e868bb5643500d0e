#include "util/parallel.h"

#include <sched.h>

#include <algorithm>

namespace hipads {

uint32_t HardwareThreads() {
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<uint32_t>(std::max(1, CPU_COUNT(&mask)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

uint32_t ThreadsForWork(uint64_t work, uint64_t per_thread,
                        uint32_t max_threads) {
  return static_cast<uint32_t>(std::clamp<uint64_t>(
      work / per_thread, 1, std::min(HardwareThreads(), max_threads)));
}

uint32_t ClampThreads(uint64_t requested) {
  return static_cast<uint32_t>(
      std::min<uint64_t>(requested, HardwareThreads()));
}

ThreadPool::ThreadPool(uint32_t num_threads)
    : num_threads_(num_threads == 0 ? HardwareThreads() : num_threads) {
  workers_.reserve(num_threads_ - 1);
  for (uint32_t t = 0; t + 1 < num_threads_; ++t) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Drain(Batch& batch) {
  size_t executed = 0;
  for (;;) {
    size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) break;
    (*batch.task)(i);
    ++executed;
  }
  if (executed == 0) return;
  size_t done =
      batch.done.fetch_add(executed, std::memory_order_acq_rel) + executed;
  if (done == batch.count) {
    // Taking the lock before notifying guarantees the waiter is either not
    // yet checking its predicate or already inside wait().
    MutexLock lock(mu_);
    done_cv_.NotifyAll();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      MutexLock lock(mu_);
      while (!stop_ && generation_ == seen_generation) work_cv_.Wait(mu_);
      if (stop_) return;
      seen_generation = generation_;
      batch = batch_;
    }
    if (batch != nullptr) Drain(*batch);
  }
}

void ThreadPool::RunTasks(size_t count,
                          const std::function<void(size_t)>& task) {
  if (count == 0) return;
  if (num_threads_ == 1 || count == 1) {
    for (size_t i = 0; i < count; ++i) task(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->task = &task;
  batch->count = count;
  {
    MutexLock lock(mu_);
    batch_ = batch;
    ++generation_;
  }
  work_cv_.NotifyAll();
  Drain(*batch);  // the caller participates
  {
    MutexLock lock(mu_);
    while (batch->done.load(std::memory_order_acquire) != batch->count) {
      done_cv_.Wait(mu_);
    }
    batch_.reset();
  }
}

void ThreadPool::ParallelFor(
    size_t n, const std::function<void(size_t, size_t, uint32_t)>& fn) {
  if (n == 0) return;
  size_t chunk = (n + num_threads_ - 1) / num_threads_;
  size_t num_chunks = (n + chunk - 1) / chunk;
  RunTasks(num_chunks, [&](size_t t) {
    size_t begin = t * chunk;
    size_t end = std::min(n, begin + chunk);
    fn(begin, end, static_cast<uint32_t>(t));
  });
}

void ThreadPool::ParallelRanges(
    const std::vector<size_t>& bounds,
    const std::function<void(size_t, size_t, uint32_t)>& fn) {
  if (bounds.size() < 2) return;
  RunTasks(bounds.size() - 1, [&](size_t t) {
    if (bounds[t] < bounds[t + 1]) {
      fn(bounds[t], bounds[t + 1], static_cast<uint32_t>(t));
    }
  });
}

}  // namespace hipads
