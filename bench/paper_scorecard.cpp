// paper_scorecard — the paper's evaluation (§2.3, §4, Figures 2–13,
// Tables 3–6) and the model's design ablations as one table: per claim,
// the modelled value next to the published one with its relative error,
// or a PASS/FAIL verdict for a shape claim.  The rows live in
// bench/paper_scorecard.h; BENCH_PR5.json pins their values.
//
// Takes no flags and always runs the full 16×20×24 workload.  Per-
// VECTOR_SIZE tables come from `vecfd-run --sweep --machine M --csv FILE`.
#include <cstdio>
#include <iostream>

#include "core/report.h"
#include "paper_scorecard.h"

int main(int argc, char** argv) {
  using namespace vecfd;
  using bench::scorecard::Row;
  if (argc > 1) {
    std::cerr << "usage: paper_scorecard (takes no arguments; got '"
              << argv[1] << "')\n";
    return 2;
  }
  std::cout << core::banner("§2.3, §4, Figures 2-13, Tables 3-6",
                            "paper scorecard")
            << "workload: 16x20x24 = 7680 hex elements\n\n";
  const bench::scorecard::Evidence e = bench::scorecard::measure();

  auto num = [](const char* format, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, format, v);
    return std::string(buf);
  };
  core::Table t({"source", "claim", "paper", "model", "check"});
  int pass = 0;
  int fail = 0;
  for (const Row& row : bench::scorecard::kRows) {
    const double v = row.model(e);
    if (row.kind == Row::kShape) {
      const bool ok = v != 0.0;
      ++(ok ? pass : fail);
      t.add_row({row.source, row.claim, "shape", "", ok ? "PASS" : "FAIL"});
    } else {
      const double err = (v - row.published) / row.published;
      t.add_row({row.source, row.claim, num("%.4g", row.published),
                 num("%.4g", v), num("%+.1f%%", 100.0 * err)});
    }
  }
  std::cout << t.to_string() << "\nshape claims: " << pass << " PASS, "
            << fail << " FAIL; value claims show (model - paper) / paper\n";
  return 0;
}
