// Small CSV-style table printer used by the figure-reproduction benches so
// that every bench emits uniformly formatted, machine-parsable series.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace sld::util {

/// A column-oriented table: fixed header, rows of cells, CSV output.
class Table {
 public:
  using Cell = std::variant<std::string, double, long long, std::uint64_t>;

  explicit Table(std::vector<std::string> header);

  /// Starts a new row; follow with `cell()` calls. Rows are validated to
  /// have exactly `header.size()` cells when printed.
  Table& row();
  Table& cell(std::string v);
  Table& cell(const char* v);
  Table& cell(double v);
  Table& cell(long long v);
  Table& cell(int v) { return cell(static_cast<long long>(v)); }
  /// Counts and checksums: printed unsigned, so 2^63 and up stay positive.
  Table& cell(std::size_t v);

  std::size_t row_count() const { return rows_.size(); }

  /// Writes `# title`, a CSV header line, then one CSV line per row.
  void print_csv(std::ostream& os, const std::string& title) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace sld::util
