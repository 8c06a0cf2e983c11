#include "core/experiment.h"

#include <cstddef>

#include "core/parallel.h"

namespace vecfd::core {

Experiment::Experiment(const fem::Mesh& mesh, const fem::State& state)
    : mesh_(&mesh), state_(&state) {}

Measurement Experiment::run(const sim::MachineConfig& machine,
                            const miniapp::MiniAppConfig& app) const {
  miniapp::MiniApp ma(*mesh_, *state_, app);
  sim::Vpu vpu(machine);
  miniapp::MiniAppResult r = ma.run(vpu);

  Measurement m;
  m.machine = machine;
  m.app = app;
  m.plan = ma.plan(machine);
  m.total = r.total;
  m.total_cycles = r.total.total_cycles();
  for (int p = 0; p <= miniapp::kNumInstrumentedPhases; ++p) {
    m.phase[p] = r.phase[p];
    m.phase_metrics[p] = metrics::compute(r.phase[p], machine.vlmax);
  }
  m.overall = metrics::compute(r.total, machine.vlmax);
  m.solve = std::move(r.solve);
  m.has_solve = r.has_solve;
  m.rhs = std::move(r.rhs);
  return m;
}

std::vector<Measurement> Experiment::run_points(
    std::span<const SweepPoint> points, int jobs) const {
  std::vector<Measurement> out(points.size());
  parallel_for_index(points.size(), jobs, [&](std::size_t i) {
    out[i] = run(points[i].machine, points[i].app);
  });
  return out;
}

std::vector<Measurement> Experiment::sweep_grid(
    const sim::MachineConfig& machine, miniapp::MiniAppConfig app,
    std::span<const int> sizes, std::span<const miniapp::OptLevel> levels,
    int jobs) const {
  std::vector<SweepPoint> points;
  points.reserve(sizes.size() * levels.size());
  for (int vs : sizes) {
    for (miniapp::OptLevel o : levels) {
      app.vector_size = vs;
      app.opt = o;
      points.push_back({machine, app});
    }
  }
  return run_points(points, jobs);
}

}  // namespace vecfd::core
