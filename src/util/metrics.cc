#include "util/metrics.h"

#include <cstddef>
#include <cstdio>
#include <utility>

namespace hipads {

namespace metrics_internal {
std::atomic<bool> g_enabled{true};
}  // namespace metrics_internal

void SetMetricsEnabled(bool enabled) {
  metrics_internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

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

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const CounterValue& c : counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(c.name, &out);
    out.push_back(':');
    out += std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeValue& g : gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(g.name, &out);
    out.push_back(':');
    out += std::to_string(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramValue& h : histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(h.name, &out);
    out += ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) + ",\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
  }
  out += "}}";
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

void MetricsRegistry::AttachCounter(const std::string& name,
                                    const MetricCounter* counter) {
  MutexLock lock(mu_);
  attached_counters_[name].push_back(counter);
}

void MetricsRegistry::DetachCounter(const std::string& name,
                                    const MetricCounter* counter) {
  MutexLock lock(mu_);
  auto it = attached_counters_.find(name);
  if (it == attached_counters_.end()) return;
  auto& list = it->second;
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i] == counter) {
      list.erase(list.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  if (list.empty()) attached_counters_.erase(it);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  // Merge owned and attached counters name by name; both maps are
  // ordered, so the result is sorted without a second pass.
  std::map<std::string, uint64_t> counter_totals;
  for (const auto& [name, counter] : counters_) {
    counter_totals[name] += counter->value();
  }
  for (const auto& [name, list] : attached_counters_) {
    uint64_t& total = counter_totals[name];
    for (const MetricCounter* c : list) total += c->value();
  }
  for (const auto& [name, value] : counter_totals) {
    snap.counters.push_back({name, value});
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
