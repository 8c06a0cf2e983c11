#include "core/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace vecfd::core {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) {
    throw std::invalid_argument("Table: needs at least one column");
  }
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table: row width != header width");
  }
  rows_.push_back(std::move(cells));
}

namespace {
/// Printed width of a UTF-8 cell: its code points (continuation bytes,
/// 10xxxxxx, do not start one), so "§4" pads like a two-letter cell.
std::size_t display_width(const std::string& cell) {
  return static_cast<std::size_t>(
      std::count_if(cell.begin(), cell.end(), [](char ch) {
        return (static_cast<unsigned char>(ch) & 0xC0u) != 0x80u;
      }));
}
}  // namespace

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = display_width(headers_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], display_width(row[c]));
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c];
      os << std::string(width[c] - display_width(row[c]), ' ');
    }
    os << " |\n";
  };
  emit_row(headers_);
  os << '|';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, 100.0 * fraction);
  return buf;
}

std::string banner(const std::string& artifact, const std::string& title) {
  std::ostringstream os;
  const std::string line(72, '=');
  os << line << '\n'
     << artifact << " — " << title << '\n'
     << line << '\n';
  return os.str();
}

}  // namespace vecfd::core
