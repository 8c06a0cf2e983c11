// Shared setup for the paper-reproduction bench binaries.
//
// Every table/figure of the evaluation runs on the same workload: a
// structured hex mesh of 16×20×24 = 7680 elements (divisible by every
// studied VECTOR_SIZE: 16, 64, 128, 240, 256, 512) with the deterministic
// Taylor–Green-style initial field.  VECFD_BENCH_SMALL=1 in the
// environment switches to a 960-element mesh for quick runs.
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

struct Workload {
  Workload()
      : mesh(small_run()
                 ? fem::MeshConfig{.nx = 8, .ny = 10, .nz = 12}
                 : fem::MeshConfig{.nx = 16, .ny = 20, .nz = 24}),
        state(mesh) {}
  fem::Mesh mesh;
  fem::State state;
};

/// The paper's studied VECTOR_SIZE values (§2.3).
inline constexpr int kVectorSizes[] = {16, 64, 128, 240, 256, 512};

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

/// The paper's full evaluation grid — kVectorSizes × {vanilla, VEC2, IVEC2,
/// VEC1} on one machine — fanned out over all cores.  Size-major: the
/// measurement for (kVectorSizes[si], core::kSweepOptLevels[oi]) is at
/// index si * std::size(core::kSweepOptLevels) + oi.
inline std::vector<core::Measurement> run_paper_grid(
    const core::Experiment& ex, const sim::MachineConfig& machine,
    miniapp::MiniAppConfig cfg) {
  return ex.sweep_grid(machine, cfg, kVectorSizes, core::kSweepOptLevels,
                       sweep_jobs());
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
