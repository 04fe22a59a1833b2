// Shared helpers for the figure-reproduction benches: a tiny flag parser
// so every bench can be re-run with more statistical power without
// recompiling. Flags every bench takes (all documented in DESIGN.md
// "Bench flags"):
//   --trials N     trials per sweep point
//   --seed S       base RNG seed
//   --fast         shrink sweeps for smoke runs
//   --repeats N    measured repetitions of the whole workload (default 1)
//   --warmup N     unmeasured warmup repetitions (default 0)
//   --json FILE    machine-readable BENCH result (bench_runner.hpp)
//   --jobs N       worker threads per experiment (1 = serial, 0 = hardware)
//   --memstats     allocation + hot-path telemetry (table on stderr,
//                  "memstats" block in --json)
// A bench that writes traces or telemetry registers those flags in its
// own ExtraFlagFn table (StreamFlags below), so every other bench rejects
// them as unknown.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/slo.hpp"

namespace sld::bench {

/// Strict whole-string integer parse for bench flags: garbage, trailing
/// text, or out-of-range input exits(2) with a flag-prefixed message.
inline long long parse_strict_ll(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    std::cerr << flag << ": not a number: '" << text << "'\n";
    std::exit(2);
  }
  if (errno == ERANGE) {
    std::cerr << flag << ": out of range: '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// Strict whole-string floating-point parse; rejects garbage, trailing
/// text, infinities and NaN.
inline double parse_strict_double(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    std::cerr << flag << ": not a number: '" << text << "'\n";
    std::exit(2);
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    std::cerr << flag << ": out of range: '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// As parse_strict_ll but additionally rejects zero and negative values —
/// shard counts, queue bounds and flood volumes must be positive.
inline long long parse_positive_ll(const char* flag, const char* text) {
  const long long v = parse_strict_ll(flag, text);
  if (v <= 0) {
    std::cerr << flag << ": must be positive: '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

/// As parse_strict_double but additionally rejects zero and negative
/// values — rates and Zipf exponents must be positive.
inline double parse_positive_double(const char* flag, const char* text) {
  const double v = parse_strict_double(flag, text);
  if (v <= 0.0) {
    std::cerr << flag << ": must be positive: '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

struct BenchArgs {
  std::size_t trials = 5;
  std::uint64_t seed = 1;
  bool fast = false;  // benches may shrink sweeps under --fast
  /// Measured repetitions of the whole workload ("--repeats N"). The
  /// human-readable tables print once (on the last repeat); wall time is
  /// recorded per repeat and summarised as median + MAD.
  std::size_t repeats = 1;
  /// Unmeasured warmup repetitions before the measured ones.
  std::size_t warmup = 0;
  /// Machine-readable bench-result destination ("--json FILE"); empty
  /// means no BENCH_*.json is written.
  std::string json_path;
  /// Worker threads per experiment ("--jobs N"): 1 (the default) runs the
  /// classic serial loop, 0 means hardware concurrency, N>1 runs up to N
  /// trials at once through core::run_indexed (never more workers than
  /// items). Every aggregate, golden, and stream is byte-identical across
  /// values (tests/test_executor.cpp) — only wall time changes.
  std::size_t jobs = 1;
  /// Memory & hot-path micro-observability ("--memstats"): per-scope
  /// allocation counts, queue-depth / bucket-move / scan-fanout statistics.
  /// Summary table on stderr; a "memstats" block in --json. Off by
  /// default — stdout (and the golden hash) is byte-identical either way.
  bool memstats = false;

  /// Pulls the value operand of `flag` off the command line (exits 2 when
  /// it is missing).
  using NextArgFn = std::function<const char*(const char*)>;
  /// Called for every flag parse() itself does not recognise. Pull value
  /// operands with the provided `next(flag)` callback; return true when
  /// the flag was consumed, false to make parse() reject it as unknown.
  using ExtraFlagFn =
      std::function<bool(const std::string& flag, const NextArgFn& next)>;

  static BenchArgs parse(int argc, char** argv) {
    return parse(argc, argv, nullptr, "");
  }

  /// Like parse() but benches may register extra flags (strictly parsed
  /// via the parse_* helpers above); `extra_help` lines are appended to
  /// the --help text.
  static BenchArgs parse(int argc, char** argv, const ExtraFlagFn& extra,
                         const std::string& extra_help) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const NextArgFn next_arg = [&](const char* flag) -> const char* {
        if (i + 1 >= argc) {
          std::cerr << flag << " requires a value\n";
          std::exit(2);
        }
        return argv[++i];
      };
      auto next_value = [&](const char* flag) -> long long {
        const long long v = parse_strict_ll(flag, next_arg(flag));
        if (v < 0) {
          std::cerr << flag << ": must be non-negative: '"
                    << argv[i] << "'\n";
          std::exit(2);
        }
        return v;
      };
      if (a == "--trials") {
        args.trials = static_cast<std::size_t>(next_value("--trials"));
        if (args.trials == 0) {
          std::cerr << "--trials: must be at least 1\n";
          std::exit(2);
        }
      } else if (a == "--seed") {
        args.seed = static_cast<std::uint64_t>(next_value("--seed"));
      } else if (a == "--fast") {
        args.fast = true;
      } else if (a == "--repeats") {
        args.repeats = static_cast<std::size_t>(next_value("--repeats"));
        if (args.repeats == 0) {
          std::cerr << "--repeats: must be at least 1\n";
          std::exit(2);
        }
      } else if (a == "--warmup") {
        args.warmup = static_cast<std::size_t>(next_value("--warmup"));
      } else if (a == "--json") {
        args.json_path = next_arg("--json");
      } else if (a == "--jobs") {
        args.jobs = static_cast<std::size_t>(next_value("--jobs"));
      } else if (a == "--memstats") {
        args.memstats = true;
      } else if (a == "--help" || a == "-h") {
        std::cout
            << "usage: " << argv[0]
            << " [--trials N] [--seed S] [--fast]"
            << " [--repeats N] [--warmup N]"
            << " [--json FILE] [--jobs N] [--memstats]\n"
            << "  --trials N     trials per sweep point (default 5)\n"
            << "  --seed S       base RNG seed (default 1)\n"
            << "  --fast         shrink sweeps for smoke runs\n"
            << "  --repeats N    measured repetitions of the workload "
               "(default 1)\n"
            << "  --warmup N     unmeasured warmup repetitions (default 0)\n"
            << "  --json FILE    machine-readable bench result "
               "(sld-bench-result/v1)\n"
            << "  --jobs N       worker threads per experiment "
               "(default 1 = serial, 0 = hardware concurrency)\n"
            << "  --memstats     allocation + hot-path telemetry "
               "(stderr table; \"memstats\" block in --json)\n"
            << extra_help;
        std::exit(0);
      } else if (extra && extra(a, next_arg)) {
        // consumed by the bench's own flag table
      } else {
        std::cerr << "unknown flag: " << a << "\n";
        std::exit(2);
      }
    }
    return args;
  }
};

/// The telemetry flags of the benches that drive their own alert timeline
/// (ext_alert_storm, ext_framing_dos). Offer every flag to consume() from
/// the bench's ExtraFlagFn, and append help() to its help text.
struct StreamFlags {
  /// JSONL event trace ("--trace FILE"); empty means tracing off.
  std::string trace_path;
  /// `timeseries/v1` JSONL destination ("--timeseries FILE"); empty means
  /// no telemetry stream.
  std::string timeseries_path;
  /// SLO rule spec ("--slo SPEC"): inline rules separated by ';', or
  /// "@file" to read a rule file. Empty means the bench's defaults.
  std::string slo_spec;
  /// Sample peak process RSS into the telemetry stream as a `mem.rss_kb`
  /// gauge ("--rss"; visible only with --timeseries). Off by default: RSS
  /// is host state and varies machine to machine.
  bool rss = false;

  /// True when `flag` is one of the four (its operand is pulled by `next`).
  bool consume(const std::string& flag, const BenchArgs::NextArgFn& next) {
    if (flag == "--trace") {
      trace_path = next("--trace");
    } else if (flag == "--timeseries") {
      timeseries_path = next("--timeseries");
    } else if (flag == "--slo") {
      slo_spec = next("--slo");
    } else if (flag == "--rss") {
      rss = true;
    } else {
      return false;
    }
    return true;
  }

  static std::string help() {
    std::string text =
        "  --trace FILE   JSONL event trace\n"
        "  --timeseries FILE  timeseries/v1 telemetry JSONL\n"
        "  --slo SPEC     SLO rules, inline or @file: ";
    text += sld::obs::slo_spec_grammar();
    text += "\n  --rss          sample peak RSS into the telemetry stream "
            "(mem.rss_kb gauge)\n";
    return text;
  }

  /// Parses --slo (reading "@file" specs from disk). Returns `fallback`'s
  /// rules when no spec was given; exits(2) on malformed rules, matching
  /// the strict-flag convention.
  std::vector<sld::obs::SloRule> parse_slo(const std::string& fallback) const {
    std::string spec = slo_spec.empty() ? fallback : slo_spec;
    if (spec.empty()) return {};
    if (spec[0] == '@') {
      std::ifstream in(spec.substr(1));
      if (!in.is_open()) {
        std::cerr << "--slo: cannot open " << spec.substr(1) << "\n";
        std::exit(2);
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      spec = buf.str();
    }
    try {
      return sld::obs::parse_slo_spec(spec);
    } catch (const std::exception& e) {
      std::cerr << "--slo: " << e.what() << "\n";
      std::exit(2);
    }
  }
};

}  // namespace sld::bench
