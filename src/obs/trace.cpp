#include "obs/trace.hpp"

#include <ostream>
#include <stdexcept>

#include "obs/json.hpp"

namespace sld::obs {

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path,
                                             std::ios::out | std::ios::trunc)),
      os_(owned_.get()) {
  if (!owned_->is_open())
    throw std::runtime_error("JsonlSink: cannot open " + path);
}

void JsonlSink::write(std::string_view line) {
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  os_->put('\n');
  ++records_;
}

Event::Event(std::string_view type, std::int64_t t_ns) {
  buf_.reserve(128);
  buf_ += "{\"t\":";
  buf_ += std::to_string(t_ns);
  buf_ += ",\"e\":";
  append_json_string(buf_, type);
}

void Event::key_prefix(std::string_view key) {
  buf_ += ',';
  append_json_string(buf_, key);
  buf_ += ':';
}

Event& Event::f(std::string_view key, std::string_view v) {
  key_prefix(key);
  append_json_string(buf_, v);
  return *this;
}

Event& Event::f(std::string_view key, bool v) {
  key_prefix(key);
  buf_ += v ? "true" : "false";
  return *this;
}

Event& Event::f(std::string_view key, double v) {
  key_prefix(key);
  append_json_number(buf_, v);
  return *this;
}

Event& Event::f(std::string_view key, std::int64_t v) {
  key_prefix(key);
  buf_ += std::to_string(v);
  return *this;
}

Event& Event::f(std::string_view key, std::uint64_t v) {
  key_prefix(key);
  buf_ += std::to_string(v);
  return *this;
}

Event& Event::raw(std::string_view key, std::string_view json) {
  key_prefix(key);
  buf_ += json;
  return *this;
}

std::string Event::finish() {
  buf_ += '}';
  return std::move(buf_);
}

}  // namespace sld::obs
