// String formatting helpers for log lines, experiment reports and record
// serialization.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aal {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Fixed-precision double formatting ("%.4f" style) without locale issues.
std::string format_double(double value, int precision = 4);

/// Shortest decimal form that parses back to the exact same double (via
/// std::to_chars). Non-finite values render as "nan", "inf" and "-inf";
/// integral values keep a ".0" suffix so readers can tell doubles from
/// integers. Used by the trace/metrics JSON serializers, whose byte-exact
/// reproducibility golden tests rely on.
std::string format_double_roundtrip(double value);

/// Escapes a string for use inside a JSON string literal (the surrounding
/// quotes are not added): backslash, double quote and control characters.
std::string json_escape(std::string_view s);

/// Strict whole-string integer parse; throws InvalidArgument on empty input,
/// trailing characters or overflow (std::stoll silently accepts "12abc").
std::int64_t parse_int64_strict(std::string_view s);

/// Strict whole-string double parse; accepts "nan"/"inf"/"-inf". Throws
/// InvalidArgument on empty input or trailing characters.
double parse_double_strict(std::string_view s);

/// Strict "0"/"1" boolean field parse; throws InvalidArgument otherwise.
bool parse_bool01_strict(std::string_view s);

/// Formats a fraction as a signed percentage string, e.g. -0.1384 -> "-13.84%".
std::string format_percent(double fraction, int precision = 2);

/// Human-readable large count, e.g. 209715200 -> "209.7M".
std::string format_count(std::int64_t n);

/// The candidate nearest to `name` by Levenshtein distance, for "did you
/// mean" hints; nullopt when none is within name.size() / 2 + 1 edits.
/// Ties go to the earliest candidate.
std::optional<std::string> closest_match(
    std::string_view name, const std::vector<std::string>& candidates);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Simple fixed-width text-table builder used by the bench harnesses to
/// print paper-style tables.
class TextTable {
 public:
  void set_header(std::vector<std::string> cells);
  void add_row(std::vector<std::string> cells);
  void add_separator();
  /// Renders with column widths fitted to content.
  std::string to_string() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };
  std::vector<std::string> header_;
  std::vector<Row> rows_;
};

}  // namespace aal
