// A small fixed-size thread pool with deterministic work decomposition.
//
// All parallelism in hipads flows through this pool: the parallel ADS
// builders (rank-window pruned Dijkstra, round-sharded DP) and the
// embarrassingly-parallel whole-graph estimator loops. Work is always
// decomposed into an explicit, input-dependent-only list of tasks (static
// chunks or target-aligned ranges), so which thread executes a task never
// affects any output — the property the bit-identical builder guarantees
// rest on. The one exception, the pruned builder's window searches, claims
// sources dynamically and then orders every result by (target, source)
// alone before anything reads it. Threads are spawned once and reused
// across rounds/windows, avoiding the per-round std::thread churn of a
// naive implementation.

#ifndef HIPADS_UTIL_PARALLEL_H_
#define HIPADS_UTIL_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace hipads {

/// The CPUs this process may run on: the size of the calling thread's
/// affinity mask (so a `taskset` or cpuset-pinned process sees its own
/// width), or hardware_concurrency where the mask cannot be read, bounded
/// by the process's cgroup CPU quota (CgroupCpuLimit) when it has one. At
/// least 1.
uint32_t HardwareThreads();

/// The tightest cgroup CPU quota on the path from this process's own cgroup
/// up to the root of its hierarchy, as whole CPUs (quota / period rounded
/// up): cgroup v2 `cpu.max`, v1 `cpu.cfs_quota_us` / `cpu.cfs_period_us`.
/// 0 when no level sets a quota or none can be read. Read once per process.
uint32_t CgroupCpuLimit();

/// Whole CPUs a quota of `quota` per `period` grants (rounded up, at most
/// UINT32_MAX); 0, meaning no quota, for a quota or period that is not
/// positive.
uint32_t CpusFromQuota(int64_t quota, int64_t period);

/// The CPUs a cgroup v2 `cpu.max` text grants ("<quota> <period>"), or 0
/// for "max <period>" and for text that does not parse.
uint32_t ParseCgroupV2CpuMax(std::string_view cpu_max);

/// The CPUs cgroup v1 `cpu.cfs_quota_us` and `cpu.cfs_period_us` texts
/// grant, or 0 for a quota of -1 and for text that does not parse.
uint32_t ParseCgroupV1CpuQuota(std::string_view quota, std::string_view period);

/// A cgroup directory whose CPU quota bounds the process.
struct CgroupCpuDir {
  std::string path;
  // Read cpu.max; otherwise cpu.cfs_quota_us / cpu.cfs_period_us.
  bool v2 = false;
};

/// The directories CgroupCpuLimit reads, from the process's own cgroup up
/// to each hierarchy's mount point, given the texts of /proc/self/cgroup
/// and /proc/self/mountinfo: the cgroup v2 hierarchy and the v1 hierarchy
/// that carries the `cpu` controller, wherever each is mounted.
std::vector<CgroupCpuDir> CgroupCpuDirs(std::string_view proc_self_cgroup,
                                        std::string_view mountinfo);

/// A pool width sized to its input: one thread per whole `per_thread`
/// units of `work`, at least 1 and at most min(`max_threads`,
/// HardwareThreads()). Work under two units runs on the calling thread.
uint32_t ThreadsForWork(uint64_t work, uint64_t per_thread,
                        uint32_t max_threads = UINT32_MAX);

/// A thread count asked for from outside — a wire request or a
/// command-line flag — bounded to min(requested, HardwareThreads()); 0
/// stays 0, which ThreadPool reads as HardwareThreads(). Without the bound
/// a hostile or mistyped value would make ThreadPool spawn billions of
/// workers. Results never depend on the thread count, so the bound never
/// changes an answer.
uint32_t ClampThreads(uint64_t requested);

/// Fixed-size pool. The calling thread participates in every batch, so a
/// pool of T threads holds T-1 workers; a pool of 1 runs everything inline.
class ThreadPool {
 public:
  /// `num_threads` = 0 uses HardwareThreads().
  explicit ThreadPool(uint32_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  /// Runs task(0) .. task(count-1) across the pool and blocks until all
  /// complete. Tasks are claimed dynamically (atomic counter), so outputs
  /// must be indexed by task id, never by thread. Not reentrant: a task
  /// must not submit work to the same pool.
  void RunTasks(size_t count, const std::function<void(size_t)>& task);

  /// Splits [0, n) into num_threads() contiguous chunks (the same static
  /// decomposition for a given (n, num_threads)) and runs
  /// fn(begin, end, chunk_index) for each non-empty chunk. Blocks until done.
  void ParallelFor(size_t n,
                   const std::function<void(size_t, size_t, uint32_t)>& fn);

  /// Runs fn(bounds[i], bounds[i+1], i) for every consecutive pair of
  /// `bounds` (a non-decreasing partition of an index range) with a
  /// non-empty range. Used where chunk boundaries must align with data
  /// boundaries (e.g. one ADS target never spans two chunks).
  void ParallelRanges(const std::vector<size_t>& bounds,
                      const std::function<void(size_t, size_t, uint32_t)>& fn);

 private:
  // One RunTasks invocation. Heap-allocated and shared with workers so a
  // worker that wakes late only ever sees a fully-published, immutable
  // batch (its atomics are the only mutable state); draining an already
  // finished batch is a no-op.
  struct Batch {
    const std::function<void(size_t)>* task = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };

  void WorkerLoop();
  void Drain(Batch& batch);

  const uint32_t num_threads_;  // immutable after construction
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  // workers wait for a new batch
  CondVar done_cv_;  // RunTasks waits for completion
  uint64_t generation_ HIPADS_GUARDED_BY(mu_) = 0;  // batch sequence number
  bool stop_ HIPADS_GUARDED_BY(mu_) = false;
  std::shared_ptr<Batch> batch_ HIPADS_GUARDED_BY(mu_);
};

}  // namespace hipads

#endif  // HIPADS_UTIL_PARALLEL_H_
