#include "obs/timeseries.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/json.hpp"

namespace sld::obs {

const std::uint64_t* WindowSample::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return &v;
  return nullptr;
}

const std::uint64_t* WindowSample::delta(std::string_view name) const {
  for (const auto& [n, v] : deltas)
    if (n == name) return &v;
  return nullptr;
}

const double* WindowSample::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return &v;
  return nullptr;
}

const WindowSample::HistQ* WindowSample::hist(std::string_view name) const {
  for (const auto& h : hists)
    if (h.name == name) return &h;
  return nullptr;
}

double WindowSample::rate_per_s(std::string_view name) const {
  const std::uint64_t* d = delta(name);
  if (d == nullptr || duration_ns() <= 0) return 0.0;
  return static_cast<double>(*d) * 1e9 / static_cast<double>(duration_ns());
}

TimeseriesSampler::TimeseriesSampler(const MetricsRegistry& registry,
                                     const TimeseriesOptions& options)
    : registry_(registry),
      sink_(options.sink),
      cadence_ns_(options.cadence_ns),
      ring_capacity_(options.ring_capacity) {
  if (cadence_ns_ <= 0)
    throw std::invalid_argument("TimeseriesSampler: cadence must be > 0");
  if (ring_capacity_ == 0)
    throw std::invalid_argument("TimeseriesSampler: ring capacity must be > 0");
}

void TimeseriesSampler::begin(std::int64_t t0, std::uint64_t seed) {
  if (begun_)
    throw std::logic_error("TimeseriesSampler::begin: already begun");
  begun_ = true;
  next_end_ = t0 + cadence_ns_;
  // The baseline for window 0's deltas is the registry state at t0.
  prev_counters_.clear();
  registry_.for_each_counter([this](const std::string&, const Counter& c) {
    prev_counters_.push_back(c.value());
  });
  if (sink_ != nullptr && sink_->enabled()) {
    sink_->write(Event("ts.meta", t0)
                     .f("schema", "timeseries/v1")
                     .f("cadence_ns", cadence_ns_)
                     .f("seed", seed)
                     .finish());
  }
}

void TimeseriesSampler::advance_to(std::int64_t t) {
  if (!begun_) return;
  while (next_end_ <= t) {
    close_window(next_end_ - cadence_ns_, next_end_);
    next_end_ += cadence_ns_;
  }
}

void TimeseriesSampler::finish(std::int64_t t) {
  if (!begun_) return;
  advance_to(t);
  // Time stopped mid-window: close the partial tail so the stream always
  // accounts for every instant of the trial.
  const std::int64_t start = next_end_ - cadence_ns_;
  if (t > start) close_window(start, t);
  begun_ = false;
}

void TimeseriesSampler::close_window(std::int64_t start, std::int64_t end) {
  if (presample_) presample_(end);

  WindowSample w;
  w.index = windows_closed_;
  w.t_start_ns = start;
  w.t_end_ns = end;
  std::size_t i = 0;
  registry_.for_each_counter(
      [&](const std::string& name, const Counter& c) {
        const std::uint64_t cur = c.value();
        const std::uint64_t prev = i < prev_counters_.size()
                                       ? prev_counters_[i]
                                       : 0;  // registered mid-trial
        w.counters.emplace_back(name, cur);
        w.deltas.emplace_back(name, cur - prev);
        if (i < prev_counters_.size())
          prev_counters_[i] = cur;
        else
          prev_counters_.push_back(cur);
        ++i;
      });
  registry_.for_each_gauge([&](const std::string& name, const Gauge& g) {
    w.gauges.emplace_back(name, g.value());
  });
  registry_.for_each_histogram(
      [&](const std::string& name, const Histogram& h) {
        WindowSample::HistQ q;
        q.name = name;
        q.count = h.count();
        q.p50 = h.p50();
        q.p90 = h.p90();
        q.p99 = h.p99();
        w.hists.push_back(std::move(q));
      });

  ++windows_closed_;
  ring_.push_back(w);
  while (ring_.size() > ring_capacity_) {
    ring_.pop_front();
    ++evicted_;
  }
  emit_window(w);
  if (observer_) observer_(w);
}

void TimeseriesSampler::emit_window(const WindowSample& w) {
  if (sink_ == nullptr || !sink_->enabled()) return;
  Event e("ts.window", w.t_end_ns);
  e.f("idx", w.index).f("start", w.t_start_ns).f("end", w.t_end_ns);

  std::string obj;
  obj.reserve(256);
  obj += '{';
  for (std::size_t i = 0; i < w.counters.size(); ++i) {
    if (i) obj += ',';
    append_json_string(obj, w.counters[i].first);
    obj += ':';
    obj += std::to_string(w.counters[i].second);
  }
  obj += '}';
  e.raw("counters", obj);

  obj.clear();
  obj += '{';
  for (std::size_t i = 0; i < w.deltas.size(); ++i) {
    if (i) obj += ',';
    append_json_string(obj, w.deltas[i].first);
    obj += ':';
    obj += std::to_string(w.deltas[i].second);
  }
  obj += '}';
  e.raw("deltas", obj);

  obj.clear();
  obj += '{';
  for (std::size_t i = 0; i < w.gauges.size(); ++i) {
    if (i) obj += ',';
    append_json_string(obj, w.gauges[i].first);
    obj += ':';
    append_json_number(obj, w.gauges[i].second);
  }
  obj += '}';
  e.raw("gauges", obj);

  obj.clear();
  obj += '{';
  for (std::size_t i = 0; i < w.hists.size(); ++i) {
    if (i) obj += ',';
    const auto& h = w.hists[i];
    append_json_string(obj, h.name);
    obj += ":{\"count\":";
    obj += std::to_string(h.count);
    obj += ",\"p50\":";
    append_json_number(obj, h.p50);
    obj += ",\"p90\":";
    append_json_number(obj, h.p90);
    obj += ",\"p99\":";
    append_json_number(obj, h.p99);
    obj += '}';
  }
  obj += '}';
  e.raw("hists", obj);

  sink_->write(e.finish());
}

std::string TimeseriesSampler::render_tail(std::size_t n) const {
  std::string out;
  const std::size_t take = n < ring_.size() ? n : ring_.size();
  out += "telemetry tail: last " + std::to_string(take) + " of " +
         std::to_string(windows_closed_) + " windows (cadence " +
         std::to_string(cadence_ns_ / 1'000'000) + " ms)\n";
  for (std::size_t i = ring_.size() - take; i < ring_.size(); ++i) {
    const WindowSample& w = ring_[i];
    out += "  w" + std::to_string(w.index) + " [" +
           std::to_string(w.t_start_ns / 1'000'000) + ".." +
           std::to_string(w.t_end_ns / 1'000'000) + " ms]";
    for (const auto& [name, d] : w.deltas) {
      if (d == 0) continue;
      out += ' ' + name + "+=" + std::to_string(d);
    }
    for (const auto& [name, v] : w.gauges) {
      if (v == 0.0) continue;
      char num[48];
      std::snprintf(num, sizeof(num), " %s=%.6g", name.c_str(), v);
      out += num;
    }
    out += '\n';
  }
  return out;
}

}  // namespace sld::obs
