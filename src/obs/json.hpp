// The JSON string and number writer shared by every JSON emitter: trace
// records, the metrics snapshot, the time-series windows, the SLO verdict
// and the bench result records.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace sld::obs {

/// Appends `s` as a quoted JSON string. Quotes and backslashes are
/// escaped, and so is every control byte below 0x20 (\n, \r and \t by
/// name, the rest as \u00XX), which JSON does not allow raw.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += esc;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Appends `v` with ten significant digits (%.10g), or null for NaN and
/// the infinities, which JSON cannot represent.
inline void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char num[40];
  std::snprintf(num, sizeof(num), "%.10g", v);
  out += num;
}

}  // namespace sld::obs
