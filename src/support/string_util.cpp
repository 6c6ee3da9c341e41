#include "support/string_util.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "support/common.hpp"

namespace aal {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string format_double_roundtrip(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value < 0.0 ? "-inf" : "inf";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  std::string out(buf, res.ptr);
  // Keep doubles visually distinct from integers ("1" -> "1.0") so parsers
  // can recover the original value type without a schema.
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::int64_t parse_int64_strict(std::string_view s) {
  std::int64_t value = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), value);
  AAL_CHECK(res.ec == std::errc{} && res.ptr == s.data() + s.size(),
            "not a valid integer: '" << s << "'");
  return value;
}

double parse_double_strict(std::string_view s) {
  // std::from_chars for doubles does not accept "nan"/"inf" uniformly across
  // standard libraries; strtod does, and the end-pointer check restores the
  // whole-string strictness from_chars would give.
  AAL_CHECK(!s.empty() && !std::isspace(static_cast<unsigned char>(s.front())),
            "not a valid double: '" << s << "'");
  const std::string buf(s);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  // ERANGE on a finite result is subnormal underflow (e.g. "5e-324"), which
  // strtod still parses exactly; only overflow to +/-HUGE_VAL is an error.
  const bool overflow = errno == ERANGE && std::isinf(value);
  AAL_CHECK(end == buf.c_str() + buf.size() && end != buf.c_str() && !overflow,
            "not a valid double: '" << s << "'");
  return value;
}

bool parse_bool01_strict(std::string_view s) {
  AAL_CHECK(s == "0" || s == "1", "not a valid 0/1 boolean: '" << s << "'");
  return s == "1";
}

std::string format_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string format_count(std::int64_t n) {
  const char* suffix = "";
  double v = static_cast<double>(n);
  if (n >= 1'000'000'000) {
    v /= 1e9;
    suffix = "B";
  } else if (n >= 1'000'000) {
    v /= 1e6;
    suffix = "M";
  } else if (n >= 1'000) {
    v /= 1e3;
    suffix = "K";
  } else {
    return std::to_string(n);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%s", v, suffix);
  return buf;
}

namespace {

/// Levenshtein distance; the candidate lists are tiny, so the quadratic
/// table is irrelevant.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::optional<std::string> closest_match(
    std::string_view name, const std::vector<std::string>& candidates) {
  const std::string* closest = nullptr;
  std::size_t best = 0;
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (closest == nullptr || d < best) {
      best = d;
      closest = &c;
    }
  }
  if (closest == nullptr || best > name.size() / 2 + 1) return std::nullopt;
  return *closest;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

void TextTable::set_header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(Row{std::move(cells), false});
}

void TextTable::add_separator() { rows_.push_back(Row{{}, true}); }

std::string TextTable::to_string() const {
  // Compute column widths over header and all rows.
  std::vector<std::size_t> widths;
  auto fit = [&widths](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  fit(header_);
  for (const auto& row : rows_) {
    if (!row.separator) fit(row.cells);
  }

  std::ostringstream os;
  auto emit_rule = [&os, &widths]() {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto emit_row = [&os, &widths](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string{};
      os << ' ' << cell << std::string(widths[i] - cell.size() + 1, ' ') << '|';
    }
    os << '\n';
  };

  emit_rule();
  if (!header_.empty()) {
    emit_row(header_);
    emit_rule();
  }
  for (const auto& row : rows_) {
    if (row.separator) {
      emit_rule();
    } else {
      emit_row(row.cells);
    }
  }
  emit_rule();
  return os.str();
}

}  // namespace aal
