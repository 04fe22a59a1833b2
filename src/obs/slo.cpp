#include "obs/slo.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace sld::obs {

namespace {

[[noreturn]] void fail(const std::string& rule, const std::string& why) {
  throw std::invalid_argument("SLO rule '" + rule + "': " + why);
}

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string cur;
  int paren_depth = 0;  // "burn(bad/total, 0.01)" is ONE token
  for (const char c : text) {
    if (c == '(') ++paren_depth;
    if (c == ')' && paren_depth > 0) --paren_depth;
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (paren_depth > 0) continue;  // swallow spaces inside parentheses
      if (!cur.empty()) tokens.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) tokens.push_back(std::move(cur));
  return tokens;
}

double parse_double(const std::string& rule, const std::string& what,
                    const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v))
    fail(rule, what + " is not a number: '" + text + "'");
  return v;
}

std::size_t parse_count(const std::string& rule, const std::string& what,
                        const std::string& text) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v < 1)
    fail(rule, what + " must be a positive integer: '" + text + "'");
  return static_cast<std::size_t>(v);
}

SloRule parse_rule(const std::string& text) {
  const std::vector<std::string> tokens = tokenize(text);
  if (tokens.size() < 4)
    throw std::invalid_argument(
        "SLO rule '" + text + "': expected 'name source(metric) cmp "
        "threshold [sustain=N] [clear=N]'");

  SloRule rule;
  rule.name = tokens[0];

  const std::string& src = tokens[1];
  const std::size_t open = src.find('(');
  if (open == std::string::npos || src.back() != ')')
    fail(rule.name, "source must be fn(metric): '" + src + "'");
  const std::string fn = src.substr(0, open);
  const std::string inner = src.substr(open + 1, src.size() - open - 2);
  if (fn == "rate") {
    rule.source = SloSource::kRate;
  } else if (fn == "total") {
    rule.source = SloSource::kTotal;
  } else if (fn == "gauge") {
    rule.source = SloSource::kGauge;
  } else if (fn == "p50") {
    rule.source = SloSource::kP50;
  } else if (fn == "p90") {
    rule.source = SloSource::kP90;
  } else if (fn == "p99") {
    rule.source = SloSource::kP99;
  } else if (fn == "burn") {
    rule.source = SloSource::kBurn;
  } else {
    fail(rule.name, "unknown source '" + fn +
                        "' (rate|total|gauge|p50|p90|p99|burn)");
  }
  if (rule.source == SloSource::kBurn) {
    const std::size_t slash = inner.find('/');
    const std::size_t comma = inner.find(',');
    if (slash == std::string::npos || comma == std::string::npos ||
        comma < slash)
      fail(rule.name, "burn wants burn(bad/total,objective): '" + src + "'");
    rule.metric = inner.substr(0, slash);
    rule.total_metric = inner.substr(slash + 1, comma - slash - 1);
    rule.objective =
        parse_double(rule.name, "burn objective", inner.substr(comma + 1));
    if (rule.objective <= 0.0) fail(rule.name, "burn objective must be > 0");
  } else {
    rule.metric = inner;
  }
  if (rule.metric.empty()) fail(rule.name, "empty metric name");

  const std::string& cmp = tokens[2];
  if (cmp == ">") {
    rule.cmp = SloCmp::kGt;
  } else if (cmp == ">=") {
    rule.cmp = SloCmp::kGe;
  } else if (cmp == "<") {
    rule.cmp = SloCmp::kLt;
  } else if (cmp == "<=") {
    rule.cmp = SloCmp::kLe;
  } else {
    fail(rule.name, "unknown comparator '" + cmp + "' (>|>=|<|<=)");
  }
  rule.threshold = parse_double(rule.name, "threshold", tokens[3]);

  for (std::size_t i = 4; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (t.rfind("sustain=", 0) == 0) {
      rule.sustain_windows = parse_count(rule.name, "sustain", t.substr(8));
    } else if (t.rfind("clear=", 0) == 0) {
      rule.clear_windows = parse_count(rule.name, "clear", t.substr(6));
    } else {
      fail(rule.name, "unexpected token '" + t + "'");
    }
  }
  return rule;
}

}  // namespace

std::vector<SloRule> parse_slo_spec(const std::string& spec) {
  std::vector<SloRule> rules;
  std::string entry;
  const auto flush = [&] {
    // Strip comments and surrounding whitespace; skip blank entries.
    const std::size_t hash = entry.find('#');
    if (hash != std::string::npos) entry.erase(hash);
    const std::size_t first = entry.find_first_not_of(" \t");
    if (first == std::string::npos) {
      entry.clear();
      return;
    }
    const std::size_t last = entry.find_last_not_of(" \t");
    rules.push_back(parse_rule(entry.substr(first, last - first + 1)));
    entry.clear();
  };
  for (const char c : spec) {
    if (c == ';' || c == '\n') {
      flush();
    } else {
      entry += c;
    }
  }
  flush();
  return rules;
}

const char* slo_spec_grammar() {
  return "name source(metric) cmp threshold [sustain=N] [clear=N] where "
         "source is rate|total|gauge|p50|p90|p99 or burn(bad/total,obj), "
         "cmp is >|>=|<|<=; rules separated by ';' or newlines";
}

SloMonitor::SloMonitor(std::vector<SloRule> rules)
    : rules_(std::move(rules)), states_(rules_.size()) {}

std::size_t SloMonitor::active() const {
  std::size_t n = 0;
  for (const RuleState& s : states_)
    if (s.breached) ++n;
  return n;
}

SloMonitor::Eval SloMonitor::evaluate(const SloRule& rule,
                                      const WindowSample& w) const {
  Eval e;
  switch (rule.source) {
    case SloSource::kRate: {
      const std::uint64_t* d = w.delta(rule.metric);
      if (d == nullptr) return e;
      e.value = w.rate_per_s(rule.metric);
      break;
    }
    case SloSource::kTotal: {
      const std::uint64_t* c = w.counter(rule.metric);
      if (c == nullptr) return e;
      e.value = static_cast<double>(*c);
      break;
    }
    case SloSource::kGauge: {
      const double* g = w.gauge(rule.metric);
      if (g == nullptr) return e;
      e.value = *g;
      break;
    }
    case SloSource::kP50:
    case SloSource::kP90:
    case SloSource::kP99: {
      const WindowSample::HistQ* h = w.hist(rule.metric);
      if (h == nullptr) return e;
      e.value = rule.source == SloSource::kP50
                    ? h->p50
                    : rule.source == SloSource::kP90 ? h->p90 : h->p99;
      break;
    }
    case SloSource::kBurn: {
      const std::uint64_t* bad = w.delta(rule.metric);
      const std::uint64_t* total = w.delta(rule.total_metric);
      if (bad == nullptr || total == nullptr) return e;
      // Burn rate: observed bad fraction over the window, normalized by
      // the objective. An all-quiet window (total delta 0) burns nothing.
      const std::uint64_t denom = *total;
      e.value = denom == 0 ? 0.0
                           : (static_cast<double>(*bad) /
                              static_cast<double>(denom)) /
                                 rule.objective;
      break;
    }
  }
  e.defined = true;
  switch (rule.cmp) {
    case SloCmp::kGt:
      e.bad = e.value > rule.threshold;
      break;
    case SloCmp::kGe:
      e.bad = e.value >= rule.threshold;
      break;
    case SloCmp::kLt:
      e.bad = e.value < rule.threshold;
      break;
    case SloCmp::kLe:
      e.bad = e.value <= rule.threshold;
      break;
  }
  return e;
}

void SloMonitor::on_window(const WindowSample& w) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& rule = rules_[i];
    RuleState& state = states_[i];
    const Eval e = evaluate(rule, w);
    // A window without the metric counts as good: the rule cannot breach
    // on signals that do not exist yet.
    const bool bad = e.defined && e.bad;
    if (!state.breached) {
      if (bad) {
        if (++state.bad_streak >= rule.sustain_windows) {
          state.breached = true;
          state.good_streak = 0;
          ++breaches_;
          fire(rule, state, /*breach=*/true, w, e.value);
        }
      } else {
        state.bad_streak = 0;
      }
    } else {
      if (!bad) {
        if (++state.good_streak >= rule.clear_windows) {
          state.breached = false;
          state.bad_streak = 0;
          ++recovers_;
          fire(rule, state, /*breach=*/false, w, e.value);
        }
      } else {
        state.good_streak = 0;
      }
    }
  }
}

void SloMonitor::fire(const SloRule& rule, const RuleState& state,
                      bool breach, const WindowSample& w, double value) {
  if (log_.size() < kMaxLog) {
    LogEntry entry;
    entry.rule = rule.name;
    entry.breach = breach;
    entry.t_ns = w.t_end_ns;
    entry.window = w.index;
    entry.value = value;
    log_.push_back(std::move(entry));
  } else {
    ++log_dropped_;
  }
  for (const Tracer& tracer : tracers_) {
    if (!tracer.on()) continue;
    Event e(breach ? "slo.breach" : "slo.recover", w.t_end_ns);
    e.f("rule", rule.name)
        .f("value", value)
        .f("threshold", rule.threshold)
        .f("window", w.index)
        .f("windows",
           static_cast<std::uint64_t>(breach ? state.bad_streak
                                             : state.good_streak));
    tracer.emit(std::move(e));
  }
}

std::string SloMonitor::verdict_json() const {
  std::string out;
  out.reserve(256);
  out += "{\"rules\":";
  out += std::to_string(rules_.size());
  out += ",\"breaches\":";
  out += std::to_string(breaches_);
  out += ",\"recovers\":";
  out += std::to_string(recovers_);
  out += ",\"active\":";
  out += std::to_string(active());
  out += ",\"healthy\":";
  out += healthy() ? "true" : "false";
  out += ",\"log\":[";
  for (std::size_t i = 0; i < log_.size(); ++i) {
    if (i) out += ',';
    const LogEntry& entry = log_[i];
    out += "{\"rule\":";
    append_json_string(out, entry.rule);
    out += ",\"kind\":";
    out += entry.breach ? "\"breach\"" : "\"recover\"";
    out += ",\"t\":";
    out += std::to_string(entry.t_ns);
    out += ",\"window\":";
    out += std::to_string(entry.window);
    out += ",\"value\":";
    append_json_number(out, entry.value);
    out += '}';
  }
  out += "],\"log_dropped\":";
  out += std::to_string(log_dropped_);
  out += '}';
  return out;
}

}  // namespace sld::obs
