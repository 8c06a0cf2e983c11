// vecfd::core — paper-style table rendering.
//
// Every bench binary prints its table/figure data through these helpers so
// the output format is uniform and diffable (EXPERIMENTS.md records it).
#pragma once

#include <string>
#include <vector>

namespace vecfd::core {

/// Simple aligned ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// number formatting helpers
std::string fmt(double v, int precision = 2);
std::string fmt_pct(double fraction, int precision = 1);  ///< 0.42 → "42.0%"

/// Render a title banner for a bench binary, naming the paper artifact.
std::string banner(const std::string& artifact, const std::string& title);

}  // namespace vecfd::core
