#include "obs/metrics.h"

#include "obs/json_writer.h"

namespace cactis::obs {

void MetricsRegistry::RegisterSource(const std::string& group, SourceFn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, source] : sources_) {
    if (name == group) {
      source = std::move(fn);
      return;
    }
  }
  sources_.emplace_back(group, std::move(fn));
}

void MetricsRegistry::UnregisterSource(const std::string& group) {
  // Taking mu_ here is what gives callers the "never runs again"
  // guarantee: snapshots invoke callbacks under the same mutex.
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->first == group) {
      sources_.erase(it);
      return;
    }
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [n, c] : counters_) {
    if (n == name) return c.get();
  }
  counters_.emplace_back(name,
                         std::unique_ptr<Counter>(new Counter(&enabled_)));
  return counters_.back().second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [n, g] : gauges_) {
    if (n == name) return g.get();
  }
  gauges_.emplace_back(name, std::unique_ptr<Gauge>(new Gauge(&enabled_)));
  return gauges_.back().second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [n, h] : histograms_) {
    if (n == name) return h.get();
  }
  histograms_.emplace_back(name,
                           std::unique_ptr<Histogram>(new Histogram(&enabled_)));
  return histograms_.back().second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  snap.groups.reserve(sources_.size());
  for (const auto& [group, fn] : sources_) {
    MetricsGroup g;
    if (fn) fn(&g);
    snap.groups.emplace_back(group, std::move(g));
  }
  for (const auto& [name, c] : counters_) {
    snap.instruments.AddCounter(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.instruments.AddGauge(name, g->value());
  }
  for (const auto& [name, h] : histograms_) {
    HistogramData d;
    d.count = h->count();
    d.sum = h->sum();
    for (size_t i = 0; i < Histogram::kBuckets; ++i) d.buckets[i] = h->bucket(i);
    snap.instruments.AddHistogram(name, std::move(d));
  }
  return snap;
}

namespace {

void WriteHistogramData(JsonWriter* w, const HistogramData& d) {
  w->BeginObject();
  w->Key("count").Uint(d.count);
  w->Key("sum").Uint(d.sum);
  // Trailing all-zero buckets are trimmed; bucket i covers
  // [2^(i-1), 2^i) with bucket 0 reserved for zero samples.
  size_t last = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (d.buckets[i] != 0) last = i + 1;
  }
  w->Key("buckets").BeginArray();
  for (size_t i = 0; i < last; ++i) w->Uint(d.buckets[i]);
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string MetricsRegistry::ToJson(const MetricsSnapshot& snap) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("enabled").Bool(enabled());

  w.Key("sources").BeginObject();
  for (const auto& [group, g] : snap.groups) {
    w.Key(group).BeginObject();
    for (const auto& [name, value] : g.counters()) w.Key(name).Uint(value);
    for (const auto& [name, value] : g.gauges()) w.Key(name).Double(value);
    for (const auto& [name, value] : g.histograms()) {
      w.Key(name);
      WriteHistogramData(&w, value);
    }
    for (const auto& [name, value] : g.json_values()) w.Key(name).Raw(value);
    w.EndObject();
  }
  w.EndObject();

  w.Key("counters").BeginObject();
  for (const auto& [name, value] : snap.instruments.counters()) {
    w.Key(name).Uint(value);
  }
  w.EndObject();

  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : snap.instruments.gauges()) {
    w.Key(name).Double(value);
  }
  w.EndObject();

  w.Key("histograms").BeginObject();
  for (const auto& [name, value] : snap.instruments.histograms()) {
    w.Key(name);
    WriteHistogramData(&w, value);
  }
  w.EndObject();

  w.EndObject();
  return w.str();
}

}  // namespace cactis::obs
