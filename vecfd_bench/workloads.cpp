// The four workloads of vecfd_bench.  Each repetition rebuilds its objects
// from scratch through the library's public API, so every repetition's
// modelled counters are identical and a drift between repetitions is a
// correctness failure, not noise.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>

#include "bench.h"
#include "core/campaign.h"
#include "core/csv.h"
#include "core/experiment.h"
#include "fem/mesh.h"
#include "fem/state.h"
#include "miniapp/checkpoint.h"
#include "platforms/platforms.h"
#include "sim/fault_injection.h"
#include "sim/vpu.h"

namespace vecfd::bench {

namespace {

namespace fs = std::filesystem;

/// Σ over phases ≠ 10 of the phase cycles, plus the phase-10 critical path.
double critical_path(const std::vector<sim::Counters>& phase,
                     double pressure_makespan) {
  double sum = pressure_makespan;
  for (std::size_t p = 0; p < phase.size(); ++p) {
    if (static_cast<int>(p) != miniapp::kPressurePhase) {
      sum += phase[p].total_cycles();
    }
  }
  return sum;
}

// ---- assembly_paper --------------------------------------------------------

/// Figure 11's headline pair on the paper mesh: VEC1 at VECTOR_SIZE 240 on
/// riscv-vec against the scalar VECTOR_SIZE 16 baseline.
class AssemblyPaper final : public Workload {
 public:
  void setup() override {
    ex_.reset();
    state_.reset();
    mesh_ = std::make_unique<fem::Mesh>(kMesh);
    state_ = std::make_unique<fem::State>(*mesh_);
    ex_ = std::make_unique<core::Experiment>(*mesh_, *state_);
  }

  void run() override {
    vec_ = ex_->run(platforms::riscv_vec(), vec1_config());
    scalar_ = ex_->run(platforms::riscv_vec_scalar(), scalar_config());
  }

  RepOutcome outcome() override {
    RepOutcome o;
    o.modelled_cycles = vec_.total_cycles;
    o.phase.assign(vec_.phase.begin(), vec_.phase.end());
    o.critical_path_cycles = critical_path(o.phase, 0.0);
    o.total = vec_.total;
    o.instrs = vec_.total.total_instrs() + scalar_.total.total_instrs();
    o.fingerprint = {vec_.total, scalar_.total};
    o.attempted = 2;
    const double speedup = scalar_.total_cycles / vec_.total_cycles;
    if (!std::isfinite(speedup) || speedup <= 1.0) {
      o.failed = 2;
      o.error = "speedup_vs_scalar is " + std::to_string(speedup) +
                " (want finite and > 1)";
    }
    return o;
  }

  LayerConfig layers() const override {
    LayerConfig lc;
    lc.scenario = miniapp::scenario_cavity();
    lc.scenario.mesh = kMesh;
    lc.machine = platforms::riscv_vec();
    lc.loop.steps = 1;
    lc.loop.vector_size = 240;
    lc.loop.opt = miniapp::OptLevel::kVec1;
    lc.transient = false;
    return lc;
  }

 private:
  static constexpr fem::MeshConfig kMesh{.nx = 16, .ny = 20, .nz = 24};

  static miniapp::MiniAppConfig vec1_config() {
    miniapp::MiniAppConfig c;
    c.vector_size = 240;
    c.opt = miniapp::OptLevel::kVec1;
    return c;
  }
  static miniapp::MiniAppConfig scalar_config() {
    miniapp::MiniAppConfig c;
    c.vector_size = 16;
    c.opt = miniapp::OptLevel::kScalar;
    return c;
  }

  std::unique_ptr<fem::Mesh> mesh_;
  std::unique_ptr<fem::State> state_;
  std::unique_ptr<core::Experiment> ex_;
  core::Measurement vec_;
  core::Measurement scalar_;
};

// ---- cavity_12 / cavity_20_sharded ----------------------------------------

struct CavitySpec {
  int n = 12;
  int steps = 3;
  bool shuffle = false;
  solver::SpmvFormat format = solver::SpmvFormat::kEll;
  bool rcm = false;
  int shards = 1;
};

/// One lid-driven cavity TimeLoop run on riscv-vec at VECTOR_SIZE 240.
class Cavity final : public Workload {
 public:
  explicit Cavity(CavitySpec spec) : spec_(spec) {}

  void setup() override {
    vpu_.reset();
    loop_.reset();
    scenario_ = scenario();
    mesh_ = std::make_unique<fem::Mesh>(scenario_.mesh);
    loop_ = std::make_unique<miniapp::TimeLoop>(*mesh_, scenario_,
                                                loop_config());
    vpu_ = std::make_unique<sim::Vpu>(platforms::riscv_vec());
  }

  void run() override { res_ = loop_->run(*vpu_); }

  RepOutcome outcome() override {
    RepOutcome o;
    o.modelled_cycles = res_.cycles;
    o.phase = res_.phase;
    o.critical_path_cycles =
        critical_path(o.phase, res_.pressure_makespan_cycles);
    o.total = res_.total;
    o.instrs = res_.total.total_instrs();
    o.fingerprint = {res_.total};
    for (const miniapp::StepReport& s : res_.steps) {
      for (const solver::SolveReport& m : s.momentum) count_solve(o, m);
      count_solve(o, s.pressure);
    }
    if (o.failed > 0) {
      o.error = std::to_string(o.failed) + " of " +
                std::to_string(o.attempted) + " solves did not converge";
    } else if (res_.steps.empty() ||
               !std::isfinite(res_.steps.back().div_after)) {
      o.error = "final divergence is not finite";
    }
    return o;
  }

  LayerConfig layers() const override {
    LayerConfig lc;
    lc.scenario = scenario();
    lc.machine = platforms::riscv_vec();
    lc.loop = loop_config();
    return lc;
  }

 private:
  static void count_solve(RepOutcome& o, const solver::SolveReport& r) {
    ++o.attempted;
    if (!r.converged || !r.failure.empty()) ++o.failed;
  }

  miniapp::Scenario scenario() const {
    miniapp::Scenario s = miniapp::scenario_cavity();
    s.mesh.nx = s.mesh.ny = s.mesh.nz = spec_.n;
    s.mesh.shuffle_nodes = spec_.shuffle;
    return s;
  }

  miniapp::TimeLoopConfig loop_config() const {
    miniapp::TimeLoopConfig c;
    c.steps = spec_.steps;
    c.vector_size = 240;
    c.opt = miniapp::OptLevel::kVec1;
    c.format = spec_.format;
    c.rcm_renumber = spec_.rcm;
    c.shards = spec_.shards;
    return c;
  }

  CavitySpec spec_;
  miniapp::Scenario scenario_;
  std::unique_ptr<fem::Mesh> mesh_;
  std::unique_ptr<miniapp::TimeLoop> loop_;
  std::unique_ptr<sim::Vpu> vpu_;
  miniapp::TimeLoopResult res_;
};

// ---- campaign_ft -----------------------------------------------------------

constexpr int kCampaignSteps = 2;
constexpr int kCampaignJobs = 2;

std::vector<miniapp::Scenario> campaign_scenarios() {
  std::vector<miniapp::Scenario> s = miniapp::all_scenarios();
  for (miniapp::Scenario& sc : s) sc.mesh.nx = sc.mesh.ny = sc.mesh.nz = 4;
  return s;
}

/// {cavity, channel, taylor-green} × {riscv-vec, sx-aurora,
/// riscv-vec-scalar} × VECTOR_SIZE {64, 256} in grid order, every point on
/// the deflation preconditioner.
std::vector<core::CampaignPoint> campaign_grid(const core::Campaign& camp) {
  const sim::MachineConfig machines[] = {platforms::riscv_vec(),
                                         platforms::sx_aurora(),
                                         platforms::riscv_vec_scalar()};
  const int sizes[] = {64, 256};
  std::vector<core::CampaignPoint> grid =
      camp.grid(machines, sizes, kCampaignSteps);
  for (core::CampaignPoint& p : grid) p.precond = solver::PrecondKind::kDeflate;
  return grid;
}

/// A fault-tolerant campaign of 18 small points with checkpoints, injected
/// faults and the retry ladder, written out as CSV.
///
/// The seed permutes the order the points are submitted in.  The faults
/// are planted on fixed (scenario, machine, VECTOR_SIZE) identities and
/// follow them through the permutation, so every seed runs the same points
/// and the same recoveries: the modelled totals (summed in grid order) do
/// not depend on the seed, while the fan-out sees a different schedule.
class CampaignFt final : public Workload {
 public:
  CampaignFt(std::uint64_t seed, const std::string& scratch)
      : dir_(scratch + "/campaign") {
    order_.resize(kPoints);
    std::iota(order_.begin(), order_.end(), 0);
    std::uint64_t state = seed;
    for (int i = kPoints - 1; i > 0; --i) {  // Fisher–Yates
      const auto j = static_cast<int>(splitmix64(state) %
                                      static_cast<std::uint64_t>(i + 1));
      std::swap(order_[static_cast<std::size_t>(i)],
                order_[static_cast<std::size_t>(j)]);
    }
  }

  void setup() override {
    camp_.reset();
    camp_ = std::make_unique<core::Campaign>(campaign_scenarios());
    const std::vector<core::CampaignPoint> grid = campaign_grid(*camp_);
    points_.clear();
    for (int c : order_) points_.push_back(grid[static_cast<std::size_t>(c)]);
    std::string spec;
    for (const Planted& f : kFaults) {
      if (!spec.empty()) spec += ';';
      spec += std::string(sim::to_string(f.kind)) + '@' +
              std::to_string(position(f.grid_index)) + '.' +
              std::to_string(f.step);
    }
    plan_ = sim::FaultPlan::parse(spec);
    plan_.materialize(kPoints, kCampaignSteps);
  }

  void run() override {
    // A fresh checkpoint directory is part of the campaign's IO work.
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    core::CampaignFtOptions opts;
    opts.retry.max_retries = 2;
    opts.faults = &plan_;
    opts.checkpoint_dir = dir_;
    opts.checkpoint_every = 1;
    outcomes_ = camp_->run_points_ft(points_, opts, kCampaignJobs);
    std::ofstream csv(csv_path());
    core::write_campaign_csv(csv, outcomes_);
  }

  RepOutcome outcome() override {
    RepOutcome o;
    o.phase.assign(miniapp::kNumInstrumentedPhases + 1, sim::Counters{});
    // Grid order, so the floating-point sums do not depend on the seed.
    for (int c = 0; c < kPoints; ++c) {
      const core::CampaignOutcome& out =
          outcomes_[static_cast<std::size_t>(position(c))];
      const miniapp::TimeLoopResult& loop = out.run.loop;
      o.modelled_cycles += loop.cycles;
      o.critical_path_cycles +=
          critical_path(loop.phase, loop.pressure_makespan_cycles);
      o.total += loop.total;
      for (std::size_t p = 0; p < loop.phase.size(); ++p) {
        o.phase[p] += loop.phase[p];
      }
      o.instrs += loop.total.total_instrs();
      o.fingerprint.push_back(loop.total);
      ++o.attempted;
      if (out.final_status == "failed") ++o.failed;
      o.attempts += out.attempts;
      if (out.degraded) ++o.degraded;
    }
    if (o.failed > 0) {
      o.error = std::to_string(o.failed) + " campaign points failed";
      return o;
    }
    o.error = check_files();
    return o;
  }

  LayerConfig layers() const override {
    LayerConfig lc;
    lc.scenario = campaign_scenarios().front();
    lc.machine = platforms::riscv_vec();
    lc.loop.steps = kCampaignSteps;
    lc.loop.vector_size = 256;
    lc.loop.opt = miniapp::OptLevel::kVec1;
    lc.loop.precond = solver::PrecondKind::kDeflate;
    lc.loop.checkpoint_every = 1;
    return lc;
  }

  std::vector<std::string> checkpoint_files() const override {
    std::vector<std::string> files;
    for (const auto& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".ckpt") files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

 private:
  struct Planted {
    sim::FaultKind kind;
    int grid_index;  ///< scenario·6 + machine·2 + size
    int step;
  };
  // Breakdown at (cavity, riscv-vec, 256), zero-diag at (taylor-green,
  // riscv-vec-scalar, 64), worker death at (channel, riscv-vec-scalar,
  // 256).  No nan-rhs: a NaN pressure solve runs to its iteration cap, and
  // that one long point would dominate the run.
  static constexpr Planted kFaults[] = {
      {sim::FaultKind::kSolverBreakdown, 1, 1},
      {sim::FaultKind::kZeroDiagonal, 16, 1},
      {sim::FaultKind::kWorkerDeath, 11, 0},
  };
  static constexpr int kPoints = 18;

  /// Submission position of grid point @p c.
  int position(int c) const {
    for (int i = 0; i < kPoints; ++i) {
      if (order_[static_cast<std::size_t>(i)] == c) return i;
    }
    return -1;
  }

  std::string csv_path() const { return dir_ + "/campaign.csv"; }

  /// The CSV has a header plus one row per point, and every checkpoint the
  /// run wrote loads (one per point whose first attempt started).
  std::string check_files() const {
    std::ifstream in(csv_path());
    int lines = 0;
    for (std::string line; std::getline(in, line);) ++lines;
    if (lines != kPoints + 1) {
      return "campaign CSV has " + std::to_string(lines) + " lines, want " +
             std::to_string(kPoints + 1);
    }
    int deaths = 0;
    for (const Planted& f : kFaults) {
      if (f.kind == sim::FaultKind::kWorkerDeath) ++deaths;
    }
    const std::vector<std::string> files = checkpoint_files();
    if (static_cast<int>(files.size()) != kPoints - deaths) {
      return std::to_string(files.size()) + " checkpoint files, want " +
             std::to_string(kPoints - deaths);
    }
    for (const std::string& f : files) {
      try {
        (void)miniapp::load_checkpoint(f);
      } catch (const std::exception& e) {
        return std::string("checkpoint does not load: ") + e.what();
      }
    }
    return {};
  }

  std::string dir_;         ///< checkpoints and CSV of the last run
  std::vector<int> order_;  ///< submission position → grid index
  std::unique_ptr<core::Campaign> camp_;
  std::vector<core::CampaignPoint> points_;
  sim::FaultPlan plan_;
  std::vector<core::CampaignOutcome> outcomes_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "assembly_paper", "cavity_12", "cavity_20_sharded", "campaign_ft"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch) {
  // Assembly phases 1-8 only, and the one published reference number.
  if (name == "assembly_paper") return std::make_unique<AssemblyPaper>();
  // The reference transient run: the Krylov phases 9-10 and the memory
  // model dominate, and the per-solve operators fit the modelled 1 MB L2.
  if (name == "cavity_12") {
    return std::make_unique<Cavity>(CavitySpec{});
  }
  // The only ShardedCg run (threads per BSP epoch, halo exchange, SELL and
  // RCM).  Each shard has its own hierarchy, so the shard count sets the
  // per-shard operator: ~3 MB over 2 shards is ~1.5 MB each, which misses
  // the modelled 1 MB L2 (4 shards would fit it).
  if (name == "cavity_20_sharded") {
    return std::make_unique<Cavity>(
        CavitySpec{.n = 20,
                   .steps = 1,
                   .shuffle = true,
                   .format = solver::SpmvFormat::kSell,
                   .rcm = true,
                   .shards = 2});
  }
  // Many small points: per-point setup, checkpoint and CSV IO, the retry
  // ladder and the fan-out; the memory model does little.
  if (name == "campaign_ft") {
    return std::make_unique<CampaignFt>(seed, scratch);
  }
  return nullptr;
}

CleanCampaign clean_campaign() {
  CleanCampaign c;
  c.campaign = std::make_unique<core::Campaign>(campaign_scenarios());
  c.points = campaign_grid(*c.campaign);
  c.jobs = kCampaignJobs;
  return c;
}

}  // namespace vecfd::bench
