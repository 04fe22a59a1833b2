#include "util/table.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sld::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
  return *this;
}

Table& Table::cell(std::string v) {
  if (rows_.empty()) throw std::logic_error("Table::cell before row()");
  rows_.back().emplace_back(std::move(v));
  return *this;
}

Table& Table::cell(const char* v) { return cell(std::string(v)); }

Table& Table::cell(double v) {
  if (rows_.empty()) throw std::logic_error("Table::cell before row()");
  rows_.back().emplace_back(v);
  return *this;
}

Table& Table::cell(long long v) {
  if (rows_.empty()) throw std::logic_error("Table::cell before row()");
  rows_.back().emplace_back(v);
  return *this;
}

Table& Table::cell(std::size_t v) {
  if (rows_.empty()) throw std::logic_error("Table::cell before row()");
  rows_.back().emplace_back(static_cast<std::uint64_t>(v));
  return *this;
}

namespace {
/// RFC 4180 quoting: a field containing a comma, quote, CR, or LF is
/// wrapped in double quotes, with embedded quotes doubled.
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string render(const Table::Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<long long>(&c)) return std::to_string(*i);
  if (const auto* u = std::get_if<std::uint64_t>(&c)) return std::to_string(*u);
  const double d = std::get<double>(c);
  std::ostringstream os;
  if (std::abs(d) != 0.0 && (std::abs(d) < 1e-4 || std::abs(d) >= 1e7)) {
    os.precision(6);
    os << std::scientific << d;
  } else {
    os.precision(6);
    os << d;
  }
  return os.str();
}
}  // namespace

void Table::print_csv(std::ostream& os, const std::string& title) const {
  os << "# " << title << '\n';
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (i) os << ',';
    os << csv_escape(header_[i]);
  }
  os << '\n';
  for (const auto& r : rows_) {
    if (r.size() != header_.size())
      throw std::logic_error("Table: row width != header width");
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (i) os << ',';
      os << csv_escape(render(r[i]));
    }
    os << '\n';
  }
}

}  // namespace sld::util
