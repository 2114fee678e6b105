#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace wisdom::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    std::size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') {
      std::string_view line = text.substr(start, i - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      out.emplace_back(line);
      start = i + 1;
    }
  }
  if (start < text.size()) {
    std::string_view line = text.substr(start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    out.emplace_back(line);
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view trim_left(std::string_view text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
    ++i;
  return text.substr(i);
}

std::string_view trim_right(std::string_view text) {
  std::size_t n = text.size();
  while (n > 0 && std::isspace(static_cast<unsigned char>(text[n - 1]))) --n;
  return text.substr(0, n);
}

std::string_view trim(std::string_view text) {
  return trim_left(trim_right(text));
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains(std::string_view text, std::string_view needle) {
  return text.find(needle) != std::string_view::npos;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string replace_all(std::string_view text, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  for (;;) {
    std::size_t hit = text.find(from, pos);
    if (hit == std::string_view::npos) break;
    out.append(text.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  out.append(text.substr(pos));
  return out;
}

std::size_t indent_width(std::string_view line) {
  std::size_t i = 0;
  while (i < line.size() && line[i] == ' ') ++i;
  return i;
}

std::string repeat(std::string_view unit, std::size_t n) {
  std::string out;
  out.reserve(unit.size() * n);
  for (std::size_t i = 0; i < n; ++i) out.append(unit);
  return out;
}

std::string fmt_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

bool is_integer(std::string_view text) {
  if (text.empty()) return false;
  std::size_t i = (text[0] == '-' || text[0] == '+') ? 1 : 0;
  if (i == text.size()) return false;
  for (; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) return false;
  }
  return true;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[c >> 4];
          out += hex[c & 0xF];
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

}  // namespace wisdom::util
