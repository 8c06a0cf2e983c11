// Tests for the CSV export used by vecfd-run and plotting scripts.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/csv.h"

namespace {

using vecfd::core::Experiment;
using vecfd::core::Measurement;

struct Fixture {
  Fixture() : mesh({.nx = 4, .ny = 2, .nz = 2}), state(mesh) {}
  vecfd::fem::Mesh mesh;
  vecfd::fem::State state;
};

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(cell);
  return out;
}

TEST(Csv, HeaderAndRowHaveSameArity) {
  Fixture f;
  const Experiment ex(f.mesh, f.state);
  vecfd::miniapp::MiniAppConfig cfg;
  cfg.vector_size = 16;
  const Measurement m = ex.run(vecfd::platforms::riscv_vec(), cfg);

  std::ostringstream os;
  vecfd::core::write_csv_header(os);
  vecfd::core::write_measurement_row(os, m);
  std::istringstream is(os.str());
  std::string header;
  std::string row;
  std::getline(is, header);
  std::getline(is, row);
  const auto h = split(header);
  const auto r = split(row);
  EXPECT_EQ(h.size(), r.size());
  // 23 scalar columns (incl. effective_strip, the solve format, the
  // gather-quality counters and the halo counters of the sharded solve)
  // + 11 phases x 3 (8 assembly + momentum solve + pressure solve +
  // correction), both derived from miniapp::kNumInstrumentedPhases
  EXPECT_EQ(h.size(), 23u + 3u * vecfd::miniapp::kNumInstrumentedPhases);
  EXPECT_NE(header.find("vector_size,effective_strip"), std::string::npos);
  EXPECT_NE(header.find("scheme,format"), std::string::npos);
  EXPECT_NE(header.find("gather_lines,coalesced_lanes,pad_lanes"),
            std::string::npos);
  EXPECT_NE(header.find("ph9_cycles"), std::string::npos);
  EXPECT_NE(header.find("ph11_avl"), std::string::npos);
}

// Regression: a requested VECTOR_SIZE above vlmax is clamped by vsetvl
// inside every solve kernel (solver::solve_effective_strip); the row must
// carry the strip that actually ran next to the requested size, not
// mislabel e.g. a vs=512 sweep point on a vlmax=256 machine.
TEST(Csv, EffectiveStripRecordsTheClampedStrip) {
  Fixture f;
  const Experiment ex(f.mesh, f.state);
  vecfd::miniapp::MiniAppConfig cfg;
  cfg.vector_size = 512;

  const auto vec = vecfd::platforms::riscv_vec();
  ASSERT_LT(vec.vlmax, 512);  // the premise of the mislabeling bug
  std::ostringstream os;
  vecfd::core::write_measurement_row(os, ex.run(vec, cfg));
  auto r = split(os.str());
  EXPECT_EQ(r[4], "512");                             // requested
  EXPECT_EQ(r[5], std::to_string(vec.vlmax));         // actually ran

  // at or below vlmax the strip passes through...
  cfg.vector_size = 64;
  std::ostringstream os2;
  vecfd::core::write_measurement_row(os2, ex.run(vec, cfg));
  EXPECT_EQ(split(os2.str())[5], "64");

  // ...and a scalar-only machine runs scalar loops honouring the request
  cfg.vector_size = 512;
  std::ostringstream os3;
  vecfd::core::write_measurement_row(
      os3, ex.run(vecfd::platforms::riscv_vec_scalar(), cfg));
  EXPECT_EQ(split(os3.str())[5], "512");
}

TEST(Csv, SolveRunPopulatesPhase9Columns) {
  Fixture f;
  const Experiment ex(f.mesh, f.state);
  vecfd::miniapp::MiniAppConfig cfg;
  cfg.vector_size = 16;
  cfg.scheme = vecfd::fem::Scheme::kSemiImplicit;

  // without the solve the ph9 columns are zero...
  const Measurement off = ex.run(vecfd::platforms::riscv_vec(), cfg);
  std::ostringstream os_off;
  vecfd::core::write_measurement_row(os_off, off);
  const auto r_off = split(os_off.str());
  ASSERT_EQ(r_off.size(), 23u + 3u * vecfd::miniapp::kNumInstrumentedPhases);
  EXPECT_DOUBLE_EQ(std::stod(r_off[23 + 24]), 0.0);  // ph9_cycles

  // ...and a --solve run fills them, same arity as the header
  cfg.run_solve = true;
  const Measurement on = ex.run(vecfd::platforms::riscv_vec(), cfg);
  std::ostringstream os_on;
  vecfd::core::write_csv_header(os_on);
  vecfd::core::write_measurement_row(os_on, on);
  std::istringstream is(os_on.str());
  std::string header;
  std::string row;
  std::getline(is, header);
  std::getline(is, row);
  const auto h = split(header);
  const auto r_on = split(row);
  EXPECT_EQ(h.size(), r_on.size());
  EXPECT_GT(std::stod(r_on[23 + 24]), 0.0);                    // ph9_cycles
  EXPECT_NEAR(std::stod(r_on[23 + 26]), on.phase_metrics[9].avl, 1e-9);
}

TEST(Csv, RowCarriesIdentityAndMetrics) {
  Fixture f;
  const Experiment ex(f.mesh, f.state);
  vecfd::miniapp::MiniAppConfig cfg;
  cfg.vector_size = 16;
  cfg.opt = vecfd::miniapp::OptLevel::kIVec2;
  const Measurement m = ex.run(vecfd::platforms::sx_aurora(), cfg);

  std::ostringstream os;
  vecfd::core::write_measurement_row(os, m);
  const auto r = split(os.str());
  EXPECT_EQ(r[0], "sx-aurora");
  EXPECT_EQ(r[1], "IVEC2");
  EXPECT_EQ(r[2], "explicit");
  EXPECT_EQ(r[3], "ell");                               // solve format
  EXPECT_EQ(r[4], "16");
  EXPECT_EQ(r[5], "16");                                // effective strip
  EXPECT_GT(std::stod(r[6]), 0.0);                      // cycles
  EXPECT_NEAR(std::stod(r[9]), m.overall.mv, 1e-9);     // mv
  EXPECT_NEAR(std::stod(r[12]), m.overall.avl, 1e-9);   // avl
}

TEST(Csv, WriteCsvEmitsAllRows) {
  Fixture f;
  const Experiment ex(f.mesh, f.state);
  vecfd::miniapp::MiniAppConfig cfg;
  std::vector<vecfd::core::SweepPoint> points;
  for (int vs : {8, 16}) {
    cfg.vector_size = vs;
    points.push_back({vecfd::platforms::riscv_vec(), cfg});
  }
  const auto ms = ex.run_points(points);
  std::ostringstream os;
  vecfd::core::write_csv(os, ms);
  int lines = 0;
  std::string l;
  std::istringstream is(os.str());
  while (std::getline(is, l)) ++lines;
  EXPECT_EQ(lines, 3);  // header + 2 rows
}

}  // namespace
