// Small string helpers shared across the YAML parser, the Ansible model and
// the data pipeline. All functions are pure and allocation behaviour is
// documented where it matters for the parser hot path.
#pragma once

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace wisdom::util {

// Split on a single character; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view text, char sep);

// Split on any run of whitespace; drops empty fields.
std::vector<std::string> split_ws(std::string_view text);

// Split into lines; both "\n" and trailing-newline-less inputs are handled.
std::vector<std::string> split_lines(std::string_view text);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

std::string_view trim(std::string_view text);
std::string_view trim_left(std::string_view text);
std::string_view trim_right(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);
bool contains(std::string_view text, std::string_view needle);

std::string to_lower(std::string_view text);
std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to);

// Number of leading spaces. Tabs are not counted: YAML forbids tabs in
// indentation and the parser reports them as errors before calling this.
std::size_t indent_width(std::string_view line);

// Repeat a string n times.
std::string repeat(std::string_view unit, std::size_t n);

// Format a double with fixed decimals (benchmark tables).
std::string fmt_fixed(double value, int decimals);

// True if the text parses completely as a decimal integer.
bool is_integer(std::string_view text);

// Parses the whole of `text` as a finite number in [lo, hi] into *out, for
// command-line flags. Trailing characters, a non-number, NaN or infinity,
// or a value out of range fail and leave *out unchanged, so a typo ends at
// the usage text instead of running with some other value.
template <typename T>
bool parse_number(std::string_view text, T lo, T hi, T* out) {
  const char* end = text.data() + text.size();
  T parsed{};
  auto result = std::from_chars(text.data(), end, parsed);
  if (result.ec != std::errc() || result.ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return false;
  }
  if (parsed < lo || parsed > hi) return false;
  *out = parsed;
  return true;
}

// The body of a JSON string literal for `text` (no surrounding quotes):
// quote, backslash, \n, \r and \t get their short escapes, every other
// control byte a \u00XX escape; all other bytes pass through unchanged.
std::string json_escape(std::string_view text);

}  // namespace wisdom::util
