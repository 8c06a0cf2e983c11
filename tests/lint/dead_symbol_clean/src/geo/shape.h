// vecfd-lint fixture: dead-symbol COMPLIANT (mini repo root) — every
// function declared under src/ is named by a shipped program, or stays
// with a justified allow marker.  Not compiled.
#pragma once

#include <string>

namespace geo {

double area(double w, double h);
double perimeter(double w, double h);
/// Only scale() calls it: a call from another function in the library is
/// a use.
inline double clamp01(double v) { return v < 0.0 ? 0.0 : v > 1.0 ? 1.0 : v; }
inline double scale(double v, double s = clamp01(0.5)) { return v * s; }

class Shape {
 public:
  virtual ~Shape() = default;
  // Called through the base: the override's name is used.
  virtual double measure() const = 0;
};

class Box final : public Shape {
 public:
  Box(double w, double h) : w_(w), h_(h) {}  // a constructor, never flagged
  Box(const Box&) = default;
  Box& operator=(const Box&) = delete;
  bool operator==(const Box& o) const { return w_ == o.w_ && h_ == o.h_; }
  double measure() const override { return area(w_, h_); }
  const std::string& name() const { return name_; }
  // vecfd-lint: allow(dead-symbol) fixture: kept for a debugger session
  double aspect() const { return w_ / h_; }

 private:
  double w_, h_;
  std::string name_ = "box";
};

}  // namespace geo
