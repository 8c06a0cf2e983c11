// vecfd-lint fixture: dead-symbol VIOLATIONS (mini repo root).  A function
// declared under src/ that only its own declaration and definition — and
// the tests — name is dead in the shipped programs.  Parsed only by
// tools/vecfd_lint.py --self-test via --repo-root.  Not compiled.
#pragma once

namespace geo {

double area(double w, double h);
double perimeter(double w, double h);  // EXPECT-FINDING(dead-symbol)

class Box {
 public:
  Box(double w, double h) : w_(w), h_(h) {}
  double width() const { return w_; }
  // An inline accessor only a test reads.
  double height() const { return h_; }  // EXPECT-FINDING(dead-symbol)
  // An allow marker without a justification does not suppress.
  // vecfd-lint: allow(dead-symbol)
  int debug_id() const;  // EXPECT-FINDING(dead-symbol)

 private:
  double w_, h_;
};

}  // namespace geo
