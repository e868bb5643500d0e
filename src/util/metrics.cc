#include "util/metrics.h"

#include <utility>

namespace hipads {

namespace metrics_internal {
std::atomic<bool> g_enabled{true};
}  // namespace metrics_internal

void SetMetricsEnabled(bool enabled) {
  metrics_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const CounterValue& c : counters) {
    out += "counter " + c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeValue& g : gauges) {
    out += "gauge " + g.name + " " + std::to_string(g.value) + "\n";
  }
  for (const HistogramValue& h : histograms) {
    out += "histogram " + h.name + " count " + std::to_string(h.count) +
           " sum " + std::to_string(h.sum) + "\n";
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Get() {
  // Leaked singleton: instrument pointers handed to call-site statics
  // must stay valid through every static destructor.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricCounter* MetricsRegistry::Counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<MetricCounter>();
  return slot.get();
}

MetricGauge* MetricsRegistry::Gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<MetricGauge>();
  return slot.get();
}

MetricHistogram* MetricsRegistry::Histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<MetricHistogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->value()});
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramValue h;
    h.name = name;
    h.count = hist->count();
    h.sum = hist->sum();
    h.buckets.resize(MetricHistogram::kBuckets);
    for (size_t i = 0; i < MetricHistogram::kBuckets; ++i) {
      h.buckets[i] = hist->bucket(i);
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Set(0);
  for (auto& [name, gauge] : gauges_) gauge->Set(0);
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace hipads
