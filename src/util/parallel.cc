#include "util/parallel.h"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iterator>
#include <utility>

namespace hipads {

namespace {

// The whitespace-separated fields of `text`.
std::vector<std::string_view> Fields(std::string_view text) {
  std::vector<std::string_view> fields;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t' ||
                               text[i] == '\n')) {
      ++i;
    }
    const size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t' &&
           text[i] != '\n') {
      ++i;
    }
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
  return fields;
}

// `field` as a whole decimal integer.
bool ParseInt(std::string_view field, int64_t* value) {
  const char* end = field.data() + field.size();
  auto [ptr, ec] = std::from_chars(field.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

// Whether the comma-separated `list` holds `item`.
bool ListHolds(std::string_view list, std::string_view item) {
  while (!list.empty()) {
    const size_t comma = list.find(',');
    if (list.substr(0, comma) == item) return true;
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  return false;
}

// The lines of `text`, without their newlines.
std::vector<std::string_view> Lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const size_t nl = text.find('\n');
    lines.push_back(text.substr(0, nl));
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
  return lines;
}

// The directory of cgroup `path` in a hierarchy mounted at `mount_point`
// with `mount_root` as its root, then every parent up to the mount point.
void AppendCgroupDirs(std::string_view path, std::string_view mount_root,
                      std::string_view mount_point, bool v2,
                      std::vector<CgroupCpuDir>* dirs) {
  std::string_view rel;  // below the mount point
  if (mount_root == "/") {
    rel = path;
  } else if (path.substr(0, mount_root.size()) == mount_root &&
             (path.size() == mount_root.size() ||
              path[mount_root.size()] == '/')) {
    rel = path.substr(mount_root.size());
  }
  // Otherwise the process's cgroup is the mount's root (a cgroup
  // namespace), and only the mount point itself is readable.
  while (!rel.empty() && rel.back() == '/') rel.remove_suffix(1);
  for (;;) {
    CgroupCpuDir dir{std::string(mount_point), v2};
    dir.path += rel;
    dirs->push_back(std::move(dir));
    if (rel.empty()) return;
    rel = rel.substr(0, rel.rfind('/'));
  }
}

// The whole content of a small file, or "" when it cannot be read.
std::string ReadSmallFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace

uint32_t CpusFromQuota(int64_t quota, int64_t period) {
  if (quota <= 0 || period <= 0) return 0;
  const uint64_t cpus = (static_cast<uint64_t>(quota) - 1) /
                            static_cast<uint64_t>(period) +
                        1;
  return static_cast<uint32_t>(std::min<uint64_t>(cpus, UINT32_MAX));
}

uint32_t ParseCgroupV2CpuMax(std::string_view cpu_max) {
  const std::vector<std::string_view> fields = Fields(cpu_max);
  int64_t quota = 0, period = 0;
  if (fields.size() != 2 || !ParseInt(fields[0], &quota) ||
      !ParseInt(fields[1], &period)) {
    return 0;  // "max <period>" included
  }
  return CpusFromQuota(quota, period);
}

uint32_t ParseCgroupV1CpuQuota(std::string_view quota,
                               std::string_view period) {
  const std::vector<std::string_view> q = Fields(quota);
  const std::vector<std::string_view> p = Fields(period);
  int64_t quota_us = 0, period_us = 0;
  if (q.size() != 1 || p.size() != 1 || !ParseInt(q[0], &quota_us) ||
      !ParseInt(p[0], &period_us)) {
    return 0;
  }
  return CpusFromQuota(quota_us, period_us);  // -1: no quota
}

std::vector<CgroupCpuDir> CgroupCpuDirs(std::string_view proc_self_cgroup,
                                        std::string_view mountinfo) {
  // /proc/self/cgroup: "<id>:<controllers>:<path>"; v2 is "0::<path>".
  std::string_view v2_path, v1_path;
  bool has_v2 = false, has_v1 = false;
  for (std::string_view line : Lines(proc_self_cgroup)) {
    const size_t c1 = line.find(':');
    const size_t c2 =
        c1 == std::string_view::npos ? c1 : line.find(':', c1 + 1);
    if (c2 == std::string_view::npos) continue;
    const std::string_view id = line.substr(0, c1);
    const std::string_view controllers = line.substr(c1 + 1, c2 - c1 - 1);
    const std::string_view path = line.substr(c2 + 1);
    // The kernel writes absolute paths; AppendCgroupDirs walks up by '/'.
    if (path.empty() || path[0] != '/') continue;
    if (id == "0" && controllers.empty()) {
      v2_path = path;
      has_v2 = true;
    } else if (ListHolds(controllers, "cpu")) {
      v1_path = path;
      has_v1 = true;
    }
  }
  // /proc/self/mountinfo: "<id> <parent> <dev> <root> <mount point>
  // <options> [optional fields] - <fstype> <source> <super options>".
  std::vector<CgroupCpuDir> dirs;
  for (std::string_view line : Lines(mountinfo)) {
    const std::vector<std::string_view> f = Fields(line);
    const auto dash = std::find(f.begin(), f.end(), "-");
    if (f.size() < 5 || dash == f.end() || f.end() - dash < 4) continue;
    const std::string_view fstype = dash[1];
    if (fstype == "cgroup2" && has_v2) {
      AppendCgroupDirs(v2_path, f[3], f[4], /*v2=*/true, &dirs);
    } else if (fstype == "cgroup" && has_v1 && ListHolds(dash[3], "cpu")) {
      AppendCgroupDirs(v1_path, f[3], f[4], /*v2=*/false, &dirs);
    }
  }
  return dirs;
}

uint32_t CgroupCpuLimit() {
  static const uint32_t limit = [] {
    uint32_t tightest = 0;
    for (const CgroupCpuDir& dir :
         CgroupCpuDirs(ReadSmallFile("/proc/self/cgroup"),
                       ReadSmallFile("/proc/self/mountinfo"))) {
      const uint32_t cpus =
          dir.v2 ? ParseCgroupV2CpuMax(ReadSmallFile(dir.path + "/cpu.max"))
                 : ParseCgroupV1CpuQuota(
                       ReadSmallFile(dir.path + "/cpu.cfs_quota_us"),
                       ReadSmallFile(dir.path + "/cpu.cfs_period_us"));
      if (cpus != 0 && (tightest == 0 || cpus < tightest)) tightest = cpus;
    }
    return tightest;
  }();
  return limit;
}

uint32_t HardwareThreads() {
  cpu_set_t mask;
  uint32_t cpus = sched_getaffinity(0, sizeof(mask), &mask) == 0
                      ? static_cast<uint32_t>(std::max(1, CPU_COUNT(&mask)))
                      : std::max(1u, std::thread::hardware_concurrency());
  const uint32_t quota = CgroupCpuLimit();
  return quota != 0 ? std::min(cpus, quota) : cpus;
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
