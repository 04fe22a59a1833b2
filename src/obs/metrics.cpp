#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace sld::obs {

Histogram::Histogram(double lo, double hi, std::size_t bucket_count,
                     HistogramScale scale)
    : lo_(lo), hi_(hi), scale_(scale) {
  if (!(hi > lo))
    throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bucket_count == 0)
    throw std::invalid_argument("Histogram: need at least one bucket");
  if (scale == HistogramScale::kLog && !(lo > 0.0))
    throw std::invalid_argument("Histogram: log scale requires lo > 0");
  width_ = scale == HistogramScale::kLog
               ? std::log(hi / lo) / static_cast<double>(bucket_count)
               : (hi - lo) / static_cast<double>(bucket_count);
  counts_.assign(bucket_count, 0);
}

double Histogram::edge(std::size_t i) const {
  const double steps = static_cast<double>(i);
  return scale_ == HistogramScale::kLog ? lo_ * std::exp(steps * width_)
                                        : lo_ + steps * width_;
}

void Histogram::observe(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  // Non-positive samples in log mode clamp into the first bucket (the
  // same treatment as any below-range sample).
  const double offset =
      scale_ == HistogramScale::kLog
          ? (x > 0.0 ? std::log(x / lo_) / width_ : -1.0)
          : (x - lo_) / width_;
  std::size_t idx = 0;
  if (offset > 0.0) {
    idx = std::min(static_cast<std::size_t>(offset), counts_.size() - 1);
  }
  ++counts_[idx];
}

double Histogram::percentile(double p) const {
  if (n_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(n_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      const double frac =
          (target - before) / static_cast<double>(counts_[i]);
      const double steps = static_cast<double>(i) + frac;
      // Interpolation matches the bucket layout: linear inside linear
      // buckets, geometric inside log buckets.
      const double v = scale_ == HistogramScale::kLog
                           ? lo_ * std::exp(steps * width_)
                           : lo_ + steps * width_;
      // The clamped tails are reported with the exact extrema.
      return std::clamp(v, min_, max_);
    }
  }
  return max_;
}

namespace {
template <typename T, typename List, typename... Args>
T& find_or_add(List& list, std::unordered_map<std::string, std::size_t>& index,
               const std::string& name, Args&&... args) {
  const auto it = index.find(name);
  if (it != index.end()) return *list[it->second].instrument;
  index.emplace(name, list.size());
  list.push_back({name, std::make_unique<T>(std::forward<Args>(args)...)});
  return *list.back().instrument;
}

void require_new(const std::unordered_map<std::string, std::size_t>& index,
                 const std::string& name) {
  if (index.count(name) != 0)
    throw std::logic_error("MetricsRegistry: '" + name + "' already exists");
}
}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  return find_or_add<Counter>(counters_, counter_index_, name);
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  Counter::Read read) {
  require_new(counter_index_, name);
  return find_or_add<Counter>(counters_, counter_index_, name, std::move(read));
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return find_or_add<Gauge>(gauges_, gauge_index_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name, Gauge::Read read) {
  require_new(gauge_index_, name);
  return find_or_add<Gauge>(gauges_, gauge_index_, name, std::move(read));
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                      double hi, std::size_t bucket_count,
                                      HistogramScale scale) {
  return find_or_add<Histogram>(histograms_, histogram_index_, name, lo, hi,
                                bucket_count, scale);
}

std::string MetricsRegistry::snapshot_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"counters\":{";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, counters_[i].name);
    out += ':';
    out += std::to_string(counters_[i].instrument->value());
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (i) out += ',';
    append_json_string(out, gauges_[i].name);
    out += ':';
    append_json_number(out, gauges_[i].instrument->value());
  }
  out += "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    if (i) out += ',';
    const Histogram& h = *histograms_[i].instrument;
    append_json_string(out, histograms_[i].name);
    out += ":{\"count\":";
    out += std::to_string(h.count());
    out += ",\"mean\":";
    append_json_number(out, h.mean());
    out += ",\"min\":";
    append_json_number(out, h.min());
    out += ",\"max\":";
    append_json_number(out, h.max());
    out += ",\"p50\":";
    append_json_number(out, h.p50());
    out += ",\"p90\":";
    append_json_number(out, h.p90());
    out += ",\"p99\":";
    append_json_number(out, h.p99());
    out += ",\"lo\":";
    append_json_number(out, h.lo());
    out += ",\"hi\":";
    append_json_number(out, h.hi());
    out += ",\"scale\":";
    out += h.scale() == HistogramScale::kLog ? "\"log\"" : "\"linear\"";
    out += ",\"buckets\":[";
    const auto& buckets = h.buckets();
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (b) out += ',';
      out += std::to_string(buckets[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace sld::obs
