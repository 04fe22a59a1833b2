#include "bench_runner.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace sld::bench {

namespace {

/// A stream that swallows everything (warmup / non-reporting repeats).
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

double median_of(std::vector<double> xs) {
  const std::size_t n = xs.size();
  std::sort(xs.begin(), xs.end());
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Median absolute deviation — the noise scale bench_compare.py uses.
double mad_of(const std::vector<double>& xs) {
  const double med = median_of(xs);
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (const double x : xs) dev.push_back(std::abs(x - med));
  return median_of(std::move(dev));
}

/// Peak resident set size of this process, bytes (ru_maxrss is KiB on
/// Linux).
std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
}

std::string build_result_json(const char* name, const BenchArgs& args,
                              const std::vector<double>& wall_ms,
                              const BenchIteration& last) {
  const double median_ms = median_of(wall_ms);
  const double mad_ms = mad_of(wall_ms);
  const double secs = median_ms / 1000.0;

  std::string out;
  out.reserve(2048);
  out += "{\"schema\":\"sld-bench-result/v1\",\"name\":";
  obs::append_json_string(out, name);
  out += ",\"args\":{\"trials\":";
  out += std::to_string(args.trials);
  out += ",\"seed\":";
  out += std::to_string(args.seed);
  out += ",\"fast\":";
  out += args.fast ? "true" : "false";
  out += ",\"repeats\":";
  out += std::to_string(args.repeats);
  out += ",\"warmup\":";
  out += std::to_string(args.warmup);
  out += ",\"jobs\":";
  out += std::to_string(args.jobs);
  out += "},\"wall_ms\":{\"repeats\":[";
  for (std::size_t i = 0; i < wall_ms.size(); ++i) {
    if (i) out += ',';
    obs::append_json_number(out, wall_ms[i]);
  }
  out += "],\"median\":";
  obs::append_json_number(out, median_ms);
  out += ",\"mad\":";
  obs::append_json_number(out, mad_ms);
  out += "},\"throughput\":{\"sim_events\":";
  out += std::to_string(last.sim_events());
  out += ",\"packets\":";
  out += std::to_string(last.packets());
  out += ",\"trials\":";
  out += std::to_string(last.trials());
  out += ",\"events_per_sec\":";
  obs::append_json_number(
      out, secs > 0.0 ? static_cast<double>(last.sim_events()) / secs : 0.0);
  out += ",\"packets_per_sec\":";
  obs::append_json_number(
      out, secs > 0.0 ? static_cast<double>(last.packets()) / secs : 0.0);
  out += "},\"peak_rss_bytes\":";
  out += std::to_string(peak_rss_bytes());

  // Memory & hot-path roll-up, present only when the bench ran with
  // --memstats. The integer fields are exact (identical at any --jobs);
  // the derived ratios and p99s ride along for humans and dashboards.
  if (last.memhot().enabled) {
    const obs::MemHotTotals& m = last.memhot();
    const double events = static_cast<double>(last.sim_events());
    out += ",\"memstats\":{\"allocs\":";
    out += std::to_string(m.allocs);
    out += ",\"alloc_bytes\":";
    out += std::to_string(m.alloc_bytes);
    out += ",\"frees\":";
    out += std::to_string(m.frees);
    out += ",\"freed_bytes\":";
    out += std::to_string(m.freed_bytes);
    out += ",\"peak_live_bytes\":";
    out += std::to_string(m.peak_live_bytes);
    out += ",\"allocs_per_event\":";
    obs::append_json_number(
        out, events > 0.0 ? static_cast<double>(m.allocs) / events : 0.0);
    out += ",\"bytes_per_event\":";
    obs::append_json_number(
        out,
        events > 0.0 ? static_cast<double>(m.alloc_bytes) / events : 0.0);
    out += ",\"max_queue_depth\":";
    out += std::to_string(m.max_queue_depth);
    out += ",\"queue_depth_p99\":";
    obs::append_json_number(out, m.queue_depth_p99);
    out += ",\"sift_up_steps\":";
    out += std::to_string(m.sift_up_steps);
    out += ",\"sift_down_steps\":";
    out += std::to_string(m.sift_down_steps);
    out += ",\"scans\":";
    out += std::to_string(m.scans);
    out += ",\"scan_nodes\":";
    out += std::to_string(m.scan_nodes);
    out += ",\"scan_fanout_mean\":";
    obs::append_json_number(out, m.scan_fanout_mean());
    out += ",\"packet_lifetime_p99_ns\":";
    obs::append_json_number(out, m.packet_lifetime_p99_ns);
    out += "}";
  }

  out += ",\"host\":{";
  struct utsname un {};
  const bool have_uname = uname(&un) == 0;
  out += "\"os\":";
  obs::append_json_string(out, have_uname ? un.sysname : "unknown");
  out += ",\"arch\":";
  obs::append_json_string(out, have_uname ? un.machine : "unknown");
  out += ",\"hostname\":";
  obs::append_json_string(out, have_uname ? un.nodename : "unknown");
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  out += ",\"cpus\":";
  out += std::to_string(cpus > 0 ? cpus : 0);
  out += ",\"compiler\":";
#if defined(__VERSION__)
  obs::append_json_string(out, __VERSION__);
#else
  obs::append_json_string(out, "unknown");
#endif
  out += ",\"build\":";
#if defined(SLD_BENCH_BUILD_TYPE)
  obs::append_json_string(out, SLD_BENCH_BUILD_TYPE);
#else
  obs::append_json_string(out, "unknown");
#endif
  out += ",\"git\":";
#if defined(SLD_BENCH_GIT_SHA)
  obs::append_json_string(out, SLD_BENCH_GIT_SHA);
#else
  obs::append_json_string(out, "unknown");
#endif
  out += "},\"timestamp_unix\":";
  out += std::to_string(static_cast<long long>(std::time(nullptr)));
  out += "}\n";
  return out;
}

}  // namespace

void BenchIteration::add_experiment(const core::AggregateSummary& agg,
                                    std::uint64_t trials) {
  sim_events_ += agg.total_sched_events;
  packets_ += agg.total_packets;
  trials_ += trials;
  memhot_.merge(agg.memhot);
}

std::unique_ptr<obs::JsonlSink> BenchIteration::open_jsonl_sink(
    const char* flag, const std::string& path) const {
  if (path.empty()) return nullptr;
  if (!report_) return std::make_unique<obs::JsonlSink>(*out_);
  try {
    return std::make_unique<obs::JsonlSink>(path);
  } catch (const std::exception& e) {
    std::cerr << flag << ": " << e.what() << "\n";
    std::exit(2);
  }
}

void BenchIteration::add_trial(const core::TrialSummary& summary) {
  sim_events_ += summary.sched_events;
  packets_ += summary.channel.transmissions;
  trials_ += 1;
  memhot_.merge(summary.memhot);
}

int run_main(const char* name, const BenchArgs& args, const BenchBody& body) {
  NullBuffer null_buffer;
  std::ostream null_out(&null_buffer);

  for (std::size_t w = 0; w < args.warmup; ++w) {
    BenchIteration it(null_out, /*report=*/false);
    body(it);
  }

  std::vector<double> wall_ms;
  wall_ms.reserve(args.repeats);
  BenchIteration last(null_out, false);
  for (std::size_t r = 0; r < args.repeats; ++r) {
    const bool report = r + 1 == args.repeats;
    BenchIteration it(report ? std::cout : null_out, report);
    const auto start = std::chrono::steady_clock::now();
    body(it);
    wall_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    last = it;
  }

  if (args.memstats) std::cerr << obs::Memstats::format_table();

  if (!args.json_path.empty()) {
    std::ofstream json_out(args.json_path);
    if (!json_out) {
      std::cerr << "--json: cannot open " << args.json_path << "\n";
      return 2;
    }
    json_out << build_result_json(name, args, wall_ms, last);
    if (!json_out) {
      std::cerr << "--json: write failed: " << args.json_path << "\n";
      return 2;
    }
  }
  return 0;
}

}  // namespace sld::bench
