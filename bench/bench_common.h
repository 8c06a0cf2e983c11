// Shared setup for the bench binaries.
//
// The paper's evaluation runs on one workload: a structured hex mesh of
// 16×20×24 = 7680 elements (divisible by every studied VECTOR_SIZE: 16,
// 64, 128, 240, 256, 512) with the deterministic Taylor–Green-style
// initial field.  VECFD_BENCH_SMALL=1 in the environment switches
// Workload to a 960-element mesh for quick runs; the paper scorecard
// (paper_scorecard.h) always runs the full mesh.
#pragma once

#include <climits>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/advisor.h"
#include "core/experiment.h"
#include "core/report.h"
#include "fem/mesh.h"
#include "fem/state.h"
#include "metrics/metrics.h"
#include "platforms/platforms.h"

namespace vecfd::bench {

inline bool small_run() {
  const char* e = std::getenv("VECFD_BENCH_SMALL");
  return e != nullptr && e[0] == '1';
}

/// The paper's evaluation mesh, 16×20×24 = 7680 elements.
inline constexpr fem::MeshConfig kPaperMesh{.nx = 16, .ny = 20, .nz = 24};

struct Workload {
  Workload()
      : mesh(small_run() ? fem::MeshConfig{.nx = 8, .ny = 10, .nz = 12}
                         : kPaperMesh),
        state(mesh) {}
  fem::Mesh mesh;
  fem::State state;
};

/// The paper's studied VECTOR_SIZE values (§2.3).
inline constexpr auto& kVectorSizes = miniapp::kStudiedVectorSizes;

/// Worker threads for sweep fan-out: VECFD_BENCH_JOBS in the environment
/// (unset/0 = all cores, 1 = serial).  Results are byte-identical at any
/// job count; the knob exists for timing comparisons.  A value that is not
/// a whole non-negative base-10 integer is named on stderr and exits 2,
/// the vecfd-run --jobs contract.
inline int sweep_jobs() {
  const char* e = std::getenv("VECFD_BENCH_JOBS");
  if (e == nullptr) return 0;
  char* end = nullptr;
  const long v = std::strtol(e, &end, 10);
  if (end == e || *end != '\0' || v < 0 || v > INT_MAX) {
    std::cerr << "VECFD_BENCH_JOBS: invalid job count '" << e
              << "' (want 0 = all cores, or a positive integer)\n";
    std::exit(2);
  }
  return static_cast<int>(v);
}

/// Parallel kVectorSizes sweep at a fixed optimization level.
inline std::vector<core::Measurement> run_size_sweep(
    const core::Experiment& ex, const sim::MachineConfig& machine,
    miniapp::MiniAppConfig cfg) {
  return ex.sweep_vector_sizes(machine, cfg, kVectorSizes, sweep_jobs());
}

inline void print_workload(const Workload& w) {
  std::cout << "workload: " << w.mesh.num_elements() << " hex elements, "
            << w.mesh.num_nodes() << " nodes"
            << (small_run() ? " (VECFD_BENCH_SMALL)" : "") << "\n\n";
}

}  // namespace vecfd::bench
