#include "core/campaign.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/parallel.h"
#include "miniapp/checkpoint.h"
#include "sim/vpu.h"

namespace vecfd::core {

namespace {

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

bool degrade_point(CampaignPoint& point) {
  using solver::PrecondKind;
  using solver::SpmvFormat;
  if (point.precond == PrecondKind::kDeflate) {
    point.precond = PrecondKind::kCheby;
    return true;
  }
  if (point.precond == PrecondKind::kCheby) {
    point.precond = PrecondKind::kJacobi;
    return true;
  }
  if (point.shards > 1) {
    point.shards = 1;
    return true;
  }
  if (point.format == SpmvFormat::kSell) {
    point.format = SpmvFormat::kEll;
    return true;
  }
  if (point.format == SpmvFormat::kEll) {
    point.format = SpmvFormat::kCsrHost;
    return true;
  }
  return false;
}

bool attempt_failed(const CampaignRun& run) {
  return run.solver_failures > 0 || !std::isfinite(run.final_divergence);
}

Campaign::Campaign(std::vector<miniapp::Scenario> scenarios)
    : scenarios_(std::move(scenarios)) {
  if (scenarios_.empty()) {
    throw std::invalid_argument("Campaign: no scenarios");
  }
  meshes_.reserve(scenarios_.size());
  for (const miniapp::Scenario& s : scenarios_) {
    meshes_.emplace_back(s.mesh);
  }
}

std::vector<CampaignPoint> Campaign::grid(
    std::span<const sim::MachineConfig> machines, std::span<const int> sizes,
    int steps) const {
  std::vector<CampaignPoint> points;
  points.reserve(scenarios_.size() * machines.size() * sizes.size());
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    for (const sim::MachineConfig& m : machines) {
      for (int vs : sizes) {
        CampaignPoint p;
        p.scenario = static_cast<int>(s);
        p.machine = m;
        p.vector_size = vs;
        p.steps = steps;
        points.push_back(p);
      }
    }
  }
  return points;
}

CampaignRun Campaign::run(const CampaignPoint& point) const {
  return run(point, RunExtras{});
}

CampaignRun Campaign::run(const CampaignPoint& point,
                          const RunExtras& extras) const {
  if (point.scenario < 0 ||
      point.scenario >= static_cast<int>(scenarios_.size())) {
    throw std::out_of_range("Campaign::run: bad scenario index");
  }
  const miniapp::Scenario& scen =
      scenarios_[static_cast<std::size_t>(point.scenario)];
  miniapp::TimeLoop loop(mesh(point.scenario), scen, point);
  if (!extras.checkpoint_file.empty()) {
    const std::uint64_t hash = miniapp::timeloop_config_hash(
        scen.name, mesh(point.scenario), point, point.machine);
    if (extras.resume && file_exists(extras.checkpoint_file)) {
      loop.restore(miniapp::load_checkpoint(extras.checkpoint_file), hash);
    }
    if (point.checkpoint_every > 0) {
      const std::string file = extras.checkpoint_file;
      loop.set_checkpoint_sink(
          hash, [file](const miniapp::TimeLoopCheckpoint& c) {
            miniapp::save_checkpoint(file, c);
          });
    }
  }
  sim::Vpu vpu(point.machine);

  CampaignRun run;
  run.scenario = scen.name;
  run.point = point;
  run.loop = loop.run(vpu);
  run.total_cycles = run.loop.cycles;
  run.overall = metrics::compute(run.loop.total, point.machine.vlmax);
  for (int p = 0; p <= miniapp::kNumInstrumentedPhases; ++p) {
    run.phase_metrics[static_cast<std::size_t>(p)] = metrics::compute(
        run.loop.phase[static_cast<std::size_t>(p)], point.machine.vlmax);
  }
  // One aggregated failure count per POINT: the sharded pressure path
  // returns a single SolveReport per step (never one per shard), and its
  // setup failures fall back to the legacy solve whose instrumented
  // failure exit is counted here exactly once — so solver_failures /
  // precond columns stay consistent across shard counts.
  for (const miniapp::StepReport& s : run.loop.steps) {
    for (const solver::SolveReport& m : s.momentum) {
      run.momentum_iterations += m.iterations;
      if (!m.failure.empty()) ++run.solver_failures;
    }
    run.pressure_iterations += s.pressure.iterations;
    if (!s.pressure.failure.empty()) ++run.solver_failures;
  }
  if (!run.loop.steps.empty()) {
    run.final_divergence = run.loop.steps.back().div_after;
  }
  run.all_converged = run.loop.all_converged;
  return run;
}

std::vector<CampaignRun> Campaign::run_points(
    std::span<const CampaignPoint> points, int jobs) const {
  std::vector<CampaignRun> out(points.size());
  // Collect-and-continue: a bad point no longer cancels its siblings
  // mid-flight, so the surviving results are deterministic; the first
  // error (in point order, not discovery order) still reaches the caller.
  std::vector<std::exception_ptr> errors =
      parallel_for_index_collect(points.size(), jobs, [&](std::size_t i) {
        out[i] = run(points[i]);
      });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

std::vector<CampaignOutcome> Campaign::run_points_ft(
    std::span<const CampaignPoint> points, const CampaignFtOptions& opts,
    int jobs) const {
  std::vector<CampaignOutcome> out(points.size());
  parallel_for_index_collect(points.size(), jobs, [&](std::size_t i) {
    CampaignOutcome& o = out[i];
    o.requested = points[i];
    // Faults and checkpoints belong to attempt 0 only: retries are the
    // recovery path and must run clean, and a degraded retry's config hash
    // would make its checkpoint unloadable by a later --resume of the
    // requested point.
    CampaignPoint current = points[i];
    const int point_index = static_cast<int>(i);
    if (opts.faults != nullptr) {
      current.fault = opts.faults->spec_for(point_index);
    }
    current.checkpoint_every = opts.checkpoint_every;
    const bool death =
        opts.faults != nullptr && opts.faults->worker_death(point_index);

    for (int attempt = 0;; ++attempt) {
      o.attempts = attempt + 1;
      bool ran = false;
      try {
        if (attempt == 0 && death) {
          throw std::runtime_error("injected worker death (fault plan)");
        }
        RunExtras extras;
        if (attempt == 0) {
          extras.resume = opts.resume;
          if (opts.checkpoint_every > 0 && !opts.checkpoint_dir.empty()) {
            extras.checkpoint_file = opts.checkpoint_dir + "/point_" +
                                     std::to_string(i) + ".ckpt";
          }
        }
        o.run = run(current, extras);
        ran = true;
        o.error.clear();
      } catch (const std::exception& e) {
        o.error = e.what();
      }

      if (ran && !attempt_failed(o.run)) {
        o.final_status = o.degraded ? "degraded" : "ok";
        return;
      }
      CampaignPoint next = current;
      if (attempt >= opts.retry.max_retries || !degrade_point(next)) {
        // Exhausted (or bottom rung already): keep the last real run if
        // one completed, else synthesize the row identity so the CSV can
        // still name the point that died.
        if (!ran && o.run.scenario.empty()) {
          o.run.scenario =
              scenarios_[static_cast<std::size_t>(current.scenario)].name;
          o.run.point = current;
        }
        o.final_status = "failed";
        return;
      }
      current = next;
      current.fault = {};
      current.checkpoint_every = 0;
      o.degraded = true;
    }
  });
  return out;
}

}  // namespace vecfd::core
