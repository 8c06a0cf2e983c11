#include "miniapp/time_loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "fem/partition.h"
#include "fem/projection.h"
#include "miniapp/checkpoint.h"
#include "solver/vkernels.h"

namespace vecfd::miniapp {

namespace {

/// Deflation coarse space: lattice blocks of 2³ nodes.  Small blocks keep
/// the coarse space rich enough that the pressure iteration count levels
/// off under refinement (the property the precond_ladder section of
/// tools/bench_to_json gates on).
constexpr int kDeflationAggregateFactor = 2;

/// Turn row r of @p a into the identity row for every fixed node: the
/// Dirichlet value lands in the RHS and the solution exactly carries it.
/// Columns are left intact so interior rows keep their coupling to the
/// boundary values (correct for the nonsymmetric momentum operator).
void impose_dirichlet_rows(solver::CsrMatrix& a,
                           const std::vector<char>& fixed) {
  for (int r = 0; r < a.rows(); ++r) {
    if (!fixed[static_cast<std::size_t>(r)]) continue;
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      vals[k] = cols[k] == r ? 1.0 : 0.0;
    }
  }
}

/// zero-diag fault (sim/fault_injection.h): knock out the first diagonal
/// entry of the momentum operator AFTER the Dirichlet pass, so the Jacobi
/// setup of every component solve exits through its instrumented
/// SolveReport::failure path.
void inject_zero_diagonal(solver::CsrMatrix& a) {
  const auto cols = a.row_cols(0);
  const auto vals = a.row_vals(0);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (cols[k] == 0) vals[k] = 0.0;
  }
}

MiniAppConfig make_app_config(const TimeLoopConfig& cfg) {
  MiniAppConfig app;
  app.vector_size = cfg.vector_size;
  app.scheme = fem::Scheme::kSemiImplicit;
  app.opt = cfg.opt;
  app.run_solve = false;  // the loop runs its own instrumented solves
  return app;
}

}  // namespace

TimeLoop::TimeLoop(const fem::Mesh& mesh, const Scenario& scenario,
                   TimeLoopConfig cfg)
    : mesh_(&mesh),
      scen_(scenario),
      cfg_(cfg),
      state_(mesh, scenario.physics),
      app_(mesh, state_, make_app_config(cfg)) {
  if (cfg_.steps <= 0) {
    throw std::invalid_argument("TimeLoop: steps must be positive");
  }
  if (cfg_.shards < 1) {
    throw std::invalid_argument("TimeLoop: shards must be positive");
  }
  if (!scen_.initial || !scen_.velocity_bc || !scen_.pressure_pins) {
    throw std::invalid_argument("TimeLoop: scenario is missing hooks");
  }

  // Scenario initial condition on both time levels.
  const int nn = mesh_->num_nodes();
  auto unk = state_.unknowns();
  auto old = state_.unknowns_old();
  for (int n = 0; n < nn; ++n) {
    const auto f = scen_.initial(*mesh_, n);
    for (int c = 0; c < fem::kDofs; ++c) {
      unk[static_cast<std::size_t>(n) * fem::kDofs + c] = f[c];
      old[static_cast<std::size_t>(n) * fem::kDofs + c] = f[c];
    }
  }

  // Constant operators: pinned SPD Laplacian, dtfac-mass, lumped mass.
  const fem::ShapeTable& shape = app_.shape();
  pressure_pins_ = scen_.pressure_pins(*mesh_);
  if (pressure_pins_.empty()) {
    throw std::invalid_argument(
        "TimeLoop: scenario pins no pressure node (the Neumann Poisson "
        "operator would be singular)");
  }
  poisson_ = fem::assemble_pressure_laplacian(*mesh_, shape);
  fem::pin_dirichlet(poisson_, pressure_pins_);
  dtmass_ = fem::assemble_dt_mass(*mesh_, state_.physics(), shape);
  lumped_inv_ = fem::assemble_lumped_mass(*mesh_, shape);
  for (double& m : lumped_inv_) m = 1.0 / m;

  if (cfg_.rcm_renumber) {
    // One RCM ordering serves both solves (momentum and pressure share the
    // node-adjacency pattern).  The pinned Laplacian has constant values,
    // so it is permuted once here; the momentum operator changes values
    // every step, so only its PATTERN twin and the nnz map are built now
    // and step code refreshes mom_perm_.vals() in place.
    rcm_perm_ = fem::rcm_ordering(mesh_->node_adjacency());
    poisson_ = solver::permute_symmetric(poisson_, rcm_perm_);
    const solver::CsrMatrix pattern(mesh_->node_adjacency());
    mom_perm_ = solver::permute_symmetric(pattern, rcm_perm_);
    mom_value_map_.resize(pattern.nnz());
    const auto rowptr = mom_perm_.rowptr();
    for (int q = 0; q < nn; ++q) {
      const auto cs = mom_perm_.row_cols(q);
      const int old_row = rcm_perm_[static_cast<std::size_t>(q)];
      for (std::size_t k = 0; k < cs.size(); ++k) {
        mom_value_map_[static_cast<std::size_t>(rowptr[q]) + k] =
            pattern.find(old_row,
                         rcm_perm_[static_cast<std::size_t>(cs[k])]);
      }
    }
  }

  // Pressure preconditioner ladder (DESIGN.md §8): the rung knob lands on
  // the phase-10 SolveOptions; kDeflate additionally needs the structured
  // coarse space, composed with the RCM permutation when the solve runs in
  // solve order (aggregate of solve row q = aggregate of node perm[q]).
  // A nested rung that disagrees with the knob is refused, not overwritten.
  const solver::PrecondKind nested = cfg_.pressure.precond.kind;
  if (nested != solver::PrecondKind::kJacobi && nested != cfg_.precond) {
    throw std::invalid_argument(
        std::string("TimeLoop: pressure.precond.kind '") +
        solver::to_string(nested) + "' conflicts with precond '" +
        solver::to_string(cfg_.precond) + "'");
  }
  cfg_.pressure.precond.kind = cfg_.precond;
  if (cfg_.precond == solver::PrecondKind::kDeflate) {
    std::vector<int> agg =
        fem::structured_aggregates(*mesh_, kDeflationAggregateFactor);
    if (cfg_.rcm_renumber) {
      std::vector<int> agg_solve(agg.size());
      for (int q = 0; q < nn; ++q) {
        agg_solve[static_cast<std::size_t>(q)] =
            agg[static_cast<std::size_t>(
                rcm_perm_[static_cast<std::size_t>(q)])];
      }
      agg.swap(agg_solve);
    }
    cfg_.pressure.precond.aggregates = std::move(agg);
  }
}

void TimeLoop::apply_velocity_bc(std::vector<double>& vel, double t) const {
  const int nn = mesh_->num_nodes();
  std::array<double, fem::kDim> val;
  for (int n = 0; n < nn; ++n) {
    if (!scen_.velocity_bc(*mesh_, n, t, val)) continue;
    for (int d = 0; d < fem::kDim; ++d) {
      vel[static_cast<std::size_t>(n) * fem::kDim +
          static_cast<std::size_t>(d)] = val[d];
    }
  }
}

std::unique_ptr<solver::ShardedCg> TimeLoop::make_sharded(const sim::Vpu& vpu,
                                                          int slice) const {
  // Sharding serves the kJacobi rung on vector machines (DESIGN.md §9);
  // every other combination runs the legacy single-Vpu path, which is the
  // bit-identical reference anyway.
  if (cfg_.shards <= 1 || !vpu.config().vector_enabled) return nullptr;
  if (cfg_.precond != solver::PrecondKind::kJacobi) return nullptr;
  try {
    fem::MeshPartition part = fem::partition_mesh(
        *mesh_, cfg_.shards, slice,
        cfg_.rcm_renumber ? std::span<const int>(rcm_perm_)
                          : std::span<const int>{});
    return std::make_unique<solver::ShardedCg>(
        std::move(part.plan), poisson_, vpu.config(), cfg_.vector_size,
        kPressurePhase, vpu.profiler().num_phases());
  } catch (const std::runtime_error&) {
    // Zero operator diagonal: fall back so the legacy path reports the
    // failure through its instrumented SolveReport exit, bit for bit.
    return nullptr;
  }
}

void TimeLoop::set_checkpoint_sink(
    std::uint64_t config_hash,
    std::function<void(const TimeLoopCheckpoint&)> sink) {
  ckpt_hash_ = config_hash;
  ckpt_sink_ = std::move(sink);
}

void TimeLoop::restore(const TimeLoopCheckpoint& checkpoint,
                       std::uint64_t expected_hash) {
  if (checkpoint.config_hash != expected_hash) {
    throw std::runtime_error(
        "TimeLoop::restore: checkpoint config hash mismatch (written under "
        "a different scenario/config/machine — resuming would break the "
        "bit-identity contract)");
  }
  if (checkpoint.next_step < 0 ||
      checkpoint.next_step > static_cast<std::int64_t>(cfg_.steps)) {
    throw std::runtime_error(
        "TimeLoop::restore: checkpoint step cursor out of range");
  }
  if (checkpoint.unknowns.size() != state_.unknowns().size() ||
      checkpoint.unknowns_old.size() != state_.unknowns_old().size()) {
    throw std::runtime_error(
        "TimeLoop::restore: field size mismatch (different mesh?)");
  }
  if (checkpoint.step_reports.size() !=
      static_cast<std::size_t>(checkpoint.next_step)) {
    throw std::runtime_error(
        "TimeLoop::restore: step report count disagrees with the cursor");
  }
  if (checkpoint.phase_counters.size() !=
      static_cast<std::size_t>(kNumInstrumentedPhases) + 1) {
    throw std::runtime_error(
        "TimeLoop::restore: per-phase counter count mismatch");
  }

  std::copy(checkpoint.unknowns.begin(), checkpoint.unknowns.end(),
            state_.unknowns().begin());
  std::copy(checkpoint.unknowns_old.begin(), checkpoint.unknowns_old.end(),
            state_.unknowns_old().begin());
  time_ = checkpoint.time;
  carried_.steps = checkpoint.step_reports;
  carried_.all_converged = checkpoint.all_converged;
  carried_.total = checkpoint.total_counters;
  carried_.phase = checkpoint.phase_counters;
  carried_.pressure_makespan_cycles = checkpoint.pressure_makespan_cycles;
}

double TimeLoop::divergence_norm(const std::vector<double>& div) const {
  double s = 0.0;
  for (std::size_t a = 0; a < div.size(); ++a) {
    s += div[a] * div[a] * lumped_inv_[a];
  }
  return std::sqrt(s);
}

TimeLoopResult TimeLoop::run(sim::Vpu& vpu) {
  vpu.reset();
  const fem::Physics& phys = state_.physics();
  const fem::ShapeTable& shape = app_.shape();
  const int nn = mesh_->num_nodes();
  const std::size_t un = static_cast<std::size_t>(nn);
  const int vs = cfg_.vector_size;
  const double rho_dt = phys.density / phys.dt;

  // Operator mirrors in the configured storage format; SELL slices at the
  // strip the solve kernels actually run (solver::solve_effective_strip).
  const int slice_c = solver::solve_effective_strip(vs, vpu.config());
  solver::OperatorMirror dtmass_op;
  dtmass_op.assign(dtmass_, cfg_.format, slice_c);

  // Sharded pressure context (DESIGN.md §9): built fresh per run so the
  // shard Vpus' memory hierarchies start from a deterministic first-touch
  // state, null when the configuration falls back to the legacy path.
  const std::unique_ptr<solver::ShardedCg> sharded = make_sharded(vpu, slice_c);
  const auto shard_cycles = [&sharded]() {
    double c = 0.0;
    if (sharded) {
      for (int p = 0; p < sharded->shards(); ++p) {
        c += sharded->shard_vpu(p).counters().total_cycles();
      }
    }
    return c;
  };

  // The run so far: empty, or the prefix restore() rebuilt (whose step
  // count it checked against the cursor).
  TimeLoopResult res = std::exchange(carried_, {});
  const int first_step = static_cast<int>(res.steps.size());
  res.steps.reserve(static_cast<std::size_t>(cfg_.steps));
  res.phase.resize(static_cast<std::size_t>(kNumInstrumentedPhases) + 1);

  // The one summation of the run's counters — @p acc, the coordinator, then
  // shard 0..P−1 — behind the checkpoint capture, the epoch drain and the
  // final totals, so all three associate alike and a resumed run matches
  // bit for bit.  Phase-10 critical path: the carried makespan plus this
  // epoch's, or the serial phase-10 cycles on the single-Vpu path.
  const auto so_far = [&](TimeLoopResult acc) {
    const auto add = [&acc](const sim::Vpu& v) {
      acc.total += v.counters();
      for (int p = 0; p <= kNumInstrumentedPhases; ++p) {
        acc.phase[static_cast<std::size_t>(p)] += v.profiler().phase(p);
      }
    };
    add(vpu);
    if (sharded) {
      for (int s = 0; s < sharded->shards(); ++s) add(sharded->shard_vpu(s));
      acc.pressure_makespan_cycles += sharded->makespan_cycles();
    } else {
      acc.pressure_makespan_cycles = acc.phase[kPressurePhase].total_cycles();
    }
    return acc;
  };

  // Everything the Vpu touches is allocated once, before the first step,
  // and reused in place: the deterministic memory model renames host lines
  // in first-touch order, so mid-measurement free/realloc churn of touched
  // buffers would couple cache behaviour to allocator history (see
  // mem/memory_hierarchy.h).  The Krylov workspaces extend the same
  // guarantee into the solvers.
  std::vector<double> vel_now(un * fem::kDim);
  // Node-major component blocks (column d spans [d·nn, (d+1)·nn)): the
  // layout the phase-9/11 multi kernels stream.  They run on groups of
  // `group` columns: all kDim at once when blocked_momentum, else one
  // component at a time (k = 1, where every multi kernel and
  // vbicgstab_multi is its single-RHS counterpart).
  const int group = cfg_.blocked_momentum ? fem::kDim : 1;
  const auto ug = static_cast<std::size_t>(group);
  std::vector<double> u_blk(un * fem::kDim), b_blk(un * fem::kDim);
  std::vector<double> tmp_blk(un * fem::kDim), ustar_blk(un * fem::kDim);
  const auto col = [un](std::vector<double>& blk, int d) {
    return std::span<double>(blk).subspan(static_cast<std::size_t>(d) * un,
                                          un);
  };
  const auto ccol = [un](const std::vector<double>& blk, int d) {
    return std::span<const double>(blk).subspan(
        static_cast<std::size_t>(d) * un, un);
  };
  // the group of columns starting at component d0
  const auto cols = [un, ug](std::vector<double>& blk, int d0) {
    return std::span<double>(blk).subspan(static_cast<std::size_t>(d0) * un,
                                          ug * un);
  };
  std::array<double, fem::kDim> ones;
  ones.fill(1.0);
  std::array<double, fem::kDim> minus_ones;
  minus_ones.fill(-1.0);
  std::array<double, fem::kDim> corr_scale;
  corr_scale.fill(-1.0 / rho_dt);
  const auto ones_g = std::span<const double>(ones).first(ug);
  const auto minus_ones_g = std::span<const double>(minus_ones).first(ug);
  const auto corr_scale_g = std::span<const double>(corr_scale).first(ug);
  std::vector<double> phi(un), b_p(un);
  std::vector<double> div, grad;
  MiniAppResult ar;
  ElementChunk ch(cfg_.vector_size, /*with_matrix=*/true);
  solver::CsrMatrix k_bc;
  solver::OperatorMirror k_op;
  solver::KrylovWorkspace momentum_ws, pressure_ws;
  std::vector<char> fixed(un, 0);
  std::vector<std::array<double, fem::kDim>> bc(un);

  // RCM solve-space marshalling (host-side, uncounted — the operator-setup
  // policy of solver/vkernels.h): the solvers see permuted systems through
  // these buffers, which are Vpu-touched inside the solves and therefore
  // hoisted like every other measured buffer.
  std::vector<double> bp_blk, xp_blk, bp_p, phi_p;
  if (cfg_.rcm_renumber) {
    bp_blk.assign(un * fem::kDim, 0.0);
    xp_blk.assign(un * fem::kDim, 0.0);
    bp_p.assign(un, 0.0);
    phi_p.assign(un, 0.0);
  }
  const auto to_solve_order = [&](std::span<const double> src,
                                  std::span<double> dst) {
    for (int q = 0; q < nn; ++q) {
      dst[static_cast<std::size_t>(q)] =
          src[static_cast<std::size_t>(rcm_perm_[static_cast<std::size_t>(q)])];
    }
  };
  const auto from_solve_order = [&](std::span<const double> src,
                                    std::span<double> dst) {
    for (int q = 0; q < nn; ++q) {
      dst[static_cast<std::size_t>(rcm_perm_[static_cast<std::size_t>(q)])] =
          src[static_cast<std::size_t>(q)];
    }
  };
  // Refresh P·K·Pᵀ values in place from the freshly assembled (and
  // Dirichlet-imposed) K — pattern and buffers stay fixed across steps.
  const auto refresh_mom_perm = [&](const solver::CsrMatrix& src) {
    const auto sv = src.vals();
    const auto pv = mom_perm_.vals();
    for (std::size_t i = 0; i < mom_value_map_.size(); ++i) {
      pv[i] = sv[static_cast<std::size_t>(mom_value_map_[i])];
    }
  };

  for (int step = first_step; step < cfg_.steps; ++step) {
    const double cycles0 = vpu.counters().total_cycles();
    const double shard_cycles0 = shard_cycles();
    const double t_next = time_ + phys.dt;
    StepReport rep;
    rep.time = t_next;

    // Sync time levels: old ← current, so the assembled residual is the
    // Picard residual at uⁿ and b = rhs + (K − Mdt)·uⁿ is exactly the
    // backward-Euler RHS Mdt·uⁿ + F + Ĝᵀpⁿ (see header).
    for (int n = 0; n < nn; ++n) {
      for (int d = 0; d < fem::kDim; ++d) {
        vel_now[static_cast<std::size_t>(n) * fem::kDim +
                static_cast<std::size_t>(d)] = state_.velocity(n, d);
      }
    }
    state_.push_time_level(vel_now);

    // ---- phases 1–8: semi-implicit assembly of K and the residual rhs --
    app_.assemble_into(vpu, ar, ch);

    // Scenario Dirichlet data at the solution time t^{n+1}.
    std::fill(fixed.begin(), fixed.end(), 0);
    for (int n = 0; n < nn; ++n) {
      std::array<double, fem::kDim> val;
      if (scen_.velocity_bc(*mesh_, n, t_next, val)) {
        fixed[static_cast<std::size_t>(n)] = 1;
        bc[static_cast<std::size_t>(n)] = val;
      }
    }
    k_bc = ar.matrix;
    impose_dirichlet_rows(k_bc, fixed);
    if (cfg_.fault.fires(sim::FaultKind::kZeroDiagonal, step)) {
      inject_zero_diagonal(k_bc);
    }
    k_op.assign(ar.matrix, cfg_.format, slice_c);

    // ---- phase 9: multi-RHS momentum BiCGStab ---------------------------
    // The kDim component systems share the operator K, so the RHS block is
    // formed and solved with the multi-RHS kernels (one value/index slab
    // load per strip feeding kDim gather streams).  blocked_momentum = false
    // runs the same code one component at a time — the sequential 9a–9c
    // reference, bit-identical per component (DESIGN.md §5).
    {
      sim::ScopedPhase scope(vpu.profiler(), kSolvePhase);
      for (int d = 0; d < fem::kDim; ++d) {
        solver::vpack_strided(vpu, state_.unknowns_data() + d, fem::kDofs,
                              col(u_blk, d), vs);
        solver::vpack_strided(vpu, ar.rhs.data() + d, fem::kDim,
                              col(b_blk, d), vs);
      }
      if (cfg_.rcm_renumber) refresh_mom_perm(k_bc);
      const solver::CsrMatrix& k_solve =
          cfg_.rcm_renumber ? mom_perm_ : k_bc;
      for (int d0 = 0; d0 < fem::kDim; d0 += group) {
        const std::span<double> u = cols(u_blk, d0), tmp = cols(tmp_blk, d0);
        const std::span<double> b = cols(b_blk, d0);
        const std::span<double> ustar = cols(ustar_blk, d0);
        k_op.apply_multi(vpu, u, tmp, group, vs);
        solver::vaxpy_multi(vpu, ones_g, tmp, b, group, vs);
        dtmass_op.apply_multi(vpu, u, tmp, group, vs);
        solver::vaxpy_multi(vpu, minus_ones_g, tmp, b, group, vs);
        for (int n = 0; n < nn; ++n) {  // Dirichlet rows per component (host)
          if (!fixed[static_cast<std::size_t>(n)]) continue;
          for (int d = d0; d < d0 + group; ++d) {
            b_blk[static_cast<std::size_t>(d) * un +
                  static_cast<std::size_t>(n)] =
                bc[static_cast<std::size_t>(n)][static_cast<std::size_t>(d)];
          }
        }
        solver::vcopy_multi(vpu, u, ustar, group, vs);
        // with rcm, b/u* are marshalled into solve order around the solve
        std::span<const double> b_solve = b;
        std::span<double> x_solve = ustar;
        if (cfg_.rcm_renumber) {
          for (int d = d0; d < d0 + group; ++d) {
            to_solve_order(ccol(b_blk, d), col(bp_blk, d));
            to_solve_order(ccol(ustar_blk, d), col(xp_blk, d));
          }
          b_solve = cols(bp_blk, d0);
          x_solve = cols(xp_blk, d0);
        }
        std::vector<solver::SolveReport> mreps = solver::vbicgstab_multi(
            vpu, k_solve, b_solve, x_solve, group, cfg_.momentum, vs,
            &momentum_ws, cfg_.format);
        for (int d = d0; d < d0 + group; ++d) {
          if (cfg_.rcm_renumber) {
            from_solve_order(ccol(xp_blk, d), col(ustar_blk, d));
          }
          solver::SolveReport& m = rep.momentum[static_cast<std::size_t>(d)];
          m = std::move(mreps[static_cast<std::size_t>(d - d0)]);
          res.all_converged &= m.converged;
        }
      }
    }

    // ---- phase 10: pressure-Poisson CG ----------------------------------
    for (int n = 0; n < nn; ++n) {
      for (int d = 0; d < fem::kDim; ++d) {
        vel_now[static_cast<std::size_t>(n) * fem::kDim +
                static_cast<std::size_t>(d)] =
            ustar_blk[static_cast<std::size_t>(d) * un +
                      static_cast<std::size_t>(n)];
      }
    }
    fem::assemble_weak_divergence_into(*mesh_, shape, vel_now, div);
    if (cfg_.fault.fires(sim::FaultKind::kNanRhs, step)) {
      // nan-rhs fault: poison the host-assembled divergence, so NaN must
      // travel the full b_p → solve → correction → diagnostics pipeline.
      std::fill(div.begin(), div.end(),
                std::numeric_limits<double>::quiet_NaN());
    }
    rep.div_before = divergence_norm(div);
    {
      sim::ScopedPhase scope(vpu.profiler(), kPressurePhase);
      // breakdown fault: a copy of the pressure options with the injection
      // armed, routed through the legacy vcg — its instrumented failure
      // exit is the one the sharded path falls back to anyway.
      const bool inject_breakdown =
          cfg_.fault.fires(sim::FaultKind::kSolverBreakdown, step);
      solver::SolveOptions popts_injected;
      if (inject_breakdown) {
        popts_injected = cfg_.pressure;
        popts_injected.inject_breakdown = true;
      }
      const solver::SolveOptions& popts =
          inject_breakdown ? popts_injected : cfg_.pressure;
      const bool use_sharded = sharded != nullptr && !inject_breakdown;
      solver::vfill(vpu, b_p, 0.0, vs);
      solver::vaxpy(vpu, -rho_dt, div, b_p, vs);  // b = −(ρ/Δt)·D u*
      for (int r : pressure_pins_) b_p[static_cast<std::size_t>(r)] = 0.0;
      std::fill(phi.begin(), phi.end(), 0.0);
      // poisson_ was permuted once at construction; with rcm, b/φ are
      // marshalled into solve order around the one solve below.
      std::span<const double> b_solve = b_p;
      std::span<double> phi_solve = phi;
      if (cfg_.rcm_renumber) {
        to_solve_order(b_p, bp_p);
        std::fill(phi_p.begin(), phi_p.end(), 0.0);
        b_solve = bp_p;
        phi_solve = phi_p;
      }
      rep.pressure = use_sharded
                         ? sharded->solve(vpu, b_solve, phi_solve, popts)
                         : solver::vcg(vpu, poisson_, b_solve, phi_solve,
                                       popts, vs, &pressure_ws, cfg_.format);
      if (cfg_.rcm_renumber) from_solve_order(phi_p, phi);
      res.all_converged &= rep.pressure.converged;
    }

    // ---- phase 11: BLAS-1 velocity correction ---------------------------
    fem::assemble_weak_gradient_into(*mesh_, shape, phi, grad);
    {
      sim::ScopedPhase scope(vpu.profiler(), kCorrectionPhase);
      for (int d = 0; d < fem::kDim; ++d) {
        solver::vpack_strided(vpu, grad.data() + d, fem::kDim,
                              col(b_blk, d), vs);
      }
      // M_L⁻¹ Ĝφ, one fused pass per kernel for each component group
      for (int d0 = 0; d0 < fem::kDim; d0 += group) {
        solver::vjacobi_apply_multi(vpu, lumped_inv_, cols(b_blk, d0),
                                    cols(tmp_blk, d0), group, vs);
        solver::vaxpy_multi(vpu, corr_scale_g, cols(tmp_blk, d0),
                            cols(ustar_blk, d0), group, vs);
      }
    }

    // Write uⁿ⁺¹ (with Dirichlet data re-imposed) and pⁿ⁺¹ = pⁿ + φ back
    // into the state; measure the projected divergence.
    for (int n = 0; n < nn; ++n) {
      for (int d = 0; d < fem::kDim; ++d) {
        vel_now[static_cast<std::size_t>(n) * fem::kDim +
                static_cast<std::size_t>(d)] =
            ustar_blk[static_cast<std::size_t>(d) * un +
                      static_cast<std::size_t>(n)];
      }
    }
    apply_velocity_bc(vel_now, t_next);
    fem::assemble_weak_divergence_into(*mesh_, shape, vel_now, div);
    rep.div_after = divergence_norm(div);

    auto unk = state_.unknowns();
    for (int n = 0; n < nn; ++n) {
      for (int d = 0; d < fem::kDim; ++d) {
        unk[static_cast<std::size_t>(n) * fem::kDofs +
            static_cast<std::size_t>(d)] =
            vel_now[static_cast<std::size_t>(n) * fem::kDim +
                    static_cast<std::size_t>(d)];
      }
      unk[static_cast<std::size_t>(n) * fem::kDofs + fem::kDim] +=
          phi[static_cast<std::size_t>(n)];
    }

    time_ = t_next;
    rep.cycles = vpu.counters().total_cycles() - cycles0 + shard_cycles() -
                 shard_cycles0;
    res.steps.push_back(std::move(rep));

    // Epoch boundary of the checkpoint/restart protocol (DESIGN.md §10):
    // capture the run so far for the sink, then drain the machine — every
    // hierarchy flushed, canonical first-touch map forgotten — so the next
    // epoch starts exactly like a restarted process would.  The final
    // boundary (done == steps) captures without draining, so a completed
    // point replays identically under --resume.
    const int done = step + 1;
    if (cfg_.checkpoint_every > 0 &&
        (done % cfg_.checkpoint_every == 0 || done == cfg_.steps)) {
      if (ckpt_sink_) {
        TimeLoopResult now = so_far(res);
        const auto now_u = state_.unknowns(), old_u = state_.unknowns_old();
        ckpt_sink_({.config_hash = ckpt_hash_,
                    .next_step = done,
                    .time = time_,
                    .unknowns = {now_u.begin(), now_u.end()},
                    .unknowns_old = {old_u.begin(), old_u.end()},
                    .step_reports = std::move(now.steps),
                    .total_counters = now.total,
                    .phase_counters = std::move(now.phase),
                    .all_converged = now.all_converged,
                    .pressure_makespan_cycles = now.pressure_makespan_cycles});
      }
      if (done < cfg_.steps && done % cfg_.checkpoint_every == 0) {
        // Fold the epoch into the base, then reset the machine outright.
        res = so_far(std::move(res));
        if (sharded) sharded->reset();
        vpu.reset();
      }
    }
  }

  // Whole-run totals aggregate ALL Vpus — the coordinator plus every shard
  // — so the conservation invariants (Σ step cycles == run cycles, Σ phase
  // counters == totals) hold regardless of the shard count.
  res = so_far(std::move(res));
  res.cycles = res.total.total_cycles();
  return res;
}

}  // namespace vecfd::miniapp
