// Process-wide metrics: named counters, gauges and log2-bucket
// histograms behind one registry, so every layer of the serving stack
// reports through a single mechanism instead of bespoke accessors.
//
// Design constraints, in order:
//
//   * The RECORD path is lock-free: one relaxed atomic op per event.
//     Registration (name -> instrument) takes a mutex, so call sites
//     resolve their instrument pointer once (instrument addresses are
//     stable for the life of the process) and record through it.
//   * Metrics never influence responses, and no code branches on an
//     instrument. Counters and histograms are samples — a build with
//     HIPADS_DISABLE_METRICS, or a process with SetMetricsEnabled(false),
//     must produce bitwise-identical response bytes. Gauges are exempt
//     from both switches so that a level stays balanced: an Add(1) made
//     before the kill switch flips and its Add(-1) made after it still
//     cancel.
//   * Determinism: the deterministic estimator trees (src/ads, ...)
//     may record COUNTS only — totals there are thread-count invariant.
//     Wall-clock instruments (MetricHistogram fed by
//     ScopedLatencyTimer) are reserved for src/serve and tools;
//     hipads-lint HL006 enforces the split.
//
// Two ownership modes share one namespace:
//
//   * Registry-owned: MetricsRegistry::Get().Counter("name") creates on
//     first use and returns a stable pointer — for process-global call
//     sites (resolve once into a static, record forever).
//   * Instance-owned: RegisteredCounter members attach themselves under
//     a shared name and detach on destruction — for per-object counts
//     that tests read through the owning object (cache hit counts, shard
//     load counts). Snapshot() sums every counter registered under a
//     name, so N caches named "serve.cache.point" scrape as one total.

#ifndef HIPADS_UTIL_METRICS_H_
#define HIPADS_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace hipads {

namespace metrics_internal {
extern std::atomic<bool> g_enabled;
}  // namespace metrics_internal

/// Runtime kill switch for counter/histogram recording (gauges keep
/// tracking — see the file comment). Defaults to enabled.
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

/// Monotonic event count. Recording is one relaxed fetch_add.
class MetricCounter {
 public:
  void Add(uint64_t n = 1) {
#if !defined(HIPADS_DISABLE_METRICS)
    if (MetricsEnabled()) value_.fetch_add(n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  /// Unconditional store — registry/move plumbing, not a record path.
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Signed level (in-flight requests, active sweeps). NOT gated on
/// MetricsEnabled(), so paired Adds balance across the kill switch.
class MetricGauge {
 public:
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed log2-bucket histogram of non-negative samples (latencies in
/// microseconds, batch sizes). Bucket b counts samples whose bit width
/// is b (0 -> bucket 0, 1 -> 1, [2,4) -> 2, ...), clamped to the last
/// bucket; recording is three relaxed atomic adds, no locks.
class MetricHistogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Record(uint64_t sample) {
#if !defined(HIPADS_DISABLE_METRICS)
    if (!MetricsEnabled()) return;
    buckets_[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
#else
    (void)sample;
#endif
  }

  static size_t BucketOf(uint64_t sample) {
    size_t b = 0;
    while (sample > 0 && b + 1 < kBuckets) {
      sample >>= 1;
      ++b;
    }
    return b;
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Unconditional zeroing — test-isolation plumbing, not a record path.
  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Point-in-time view of the whole registry, with every same-named
/// instrument summed. Names are sorted, so two snapshots of identical
/// state serialize identically.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::vector<uint64_t> buckets;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// "counter serve.requests.point 42" per line — the scrape format.
  std::string ToText() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":...}.
  std::string ToJson() const;
};

/// The process-wide name -> instrument table. Creation and
/// attach/detach lock; recording through the returned pointers does
/// not. Instrument addresses handed out are stable until process exit.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  /// Returns the registry-owned instrument of this name, creating it on
  /// first use. Resolve once and cache the pointer on hot paths.
  MetricCounter* Counter(const std::string& name);
  MetricGauge* Gauge(const std::string& name);
  MetricHistogram* Histogram(const std::string& name);

  /// Registers an instance-owned counter under `name`; Snapshot() sums it
  /// with everything else of that name. The caller must Detach before the
  /// counter is destroyed (RegisteredCounter does).
  void AttachCounter(const std::string& name, const MetricCounter* counter);
  void DetachCounter(const std::string& name, const MetricCounter* counter);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registry-owned instrument and DETACHED nothing —
  /// attached instance counters keep their owners' values. Test isolation
  /// only; never called by serving code.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_;
  // std::map: snapshot order is name order, deterministically.
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_
      HIPADS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_
      HIPADS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_
      HIPADS_GUARDED_BY(mu_);
  std::map<std::string, std::vector<const MetricCounter*>> attached_counters_
      HIPADS_GUARDED_BY(mu_);
};

/// A counter owned by an object but visible to the registry under a
/// shared name. Movable because some owners are (ShardedAdsSet); a
/// move re-attaches the new address and empties the source.
class RegisteredCounter {
 public:
  explicit RegisteredCounter(std::string name) : name_(std::move(name)) {
    MetricsRegistry::Get().AttachCounter(name_, &counter_);
  }
  ~RegisteredCounter() {
    if (!name_.empty()) MetricsRegistry::Get().DetachCounter(name_, &counter_);
  }
  RegisteredCounter(RegisteredCounter&& other) noexcept
      : name_(std::move(other.name_)) {
    counter_.Set(other.counter_.value());
    if (!name_.empty()) {
      MetricsRegistry::Get().DetachCounter(name_, &other.counter_);
      MetricsRegistry::Get().AttachCounter(name_, &counter_);
    }
    other.name_.clear();
    other.counter_.Set(0);
  }
  RegisteredCounter& operator=(RegisteredCounter&& other) noexcept {
    if (this != &other) {
      if (!name_.empty()) {
        MetricsRegistry::Get().DetachCounter(name_, &counter_);
      }
      name_ = std::move(other.name_);
      counter_.Set(other.counter_.value());
      if (!name_.empty()) {
        MetricsRegistry::Get().DetachCounter(name_, &other.counter_);
        MetricsRegistry::Get().AttachCounter(name_, &counter_);
      }
      other.name_.clear();
      other.counter_.Set(0);
    }
    return *this;
  }
  RegisteredCounter(const RegisteredCounter&) = delete;
  RegisteredCounter& operator=(const RegisteredCounter&) = delete;

  void Add(uint64_t n = 1) { counter_.Add(n); }
  uint64_t value() const { return counter_.value(); }

 private:
  std::string name_;  // empty after being moved from
  MetricCounter counter_;
};

/// Records the scope's wall-clock duration (microseconds) into a
/// histogram on destruction. Wall-clock: serve/tools layers only
/// (hipads-lint HL006). Null histogram or disabled metrics = no clock
/// read at all.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(MetricHistogram* hist) : hist_(hist) {
    if (hist_ != nullptr && MetricsEnabled()) {
      start_ = std::chrono::steady_clock::now();
    } else {
      hist_ = nullptr;
    }
  }
  ~ScopedLatencyTimer() {
    if (hist_ != nullptr) {
      hist_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
    }
  }
  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

 private:
  MetricHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hipads

#endif  // HIPADS_UTIL_METRICS_H_
