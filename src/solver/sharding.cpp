#include "solver/sharding.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/parallel.h"
#include "solver/cg_recurrence.h"

namespace vecfd::solver {

int ShardPlan::owner(int g) const {
  // Last p with bounds[p] <= g: empty shards share their neighbour's bound
  // and can never contain g, so upper_bound lands on the real owner.
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), g);
  int p = static_cast<int>(it - bounds.begin()) - 1;
  if (p < 0) p = 0;
  if (p >= shards) p = shards - 1;
  return p;
}

int ShardPlan::local_index(int p, int g) const {
  const std::size_t sp = static_cast<std::size_t>(p);
  if (g >= bounds[sp] && g < bounds[sp + 1]) return g - bounds[sp];
  const auto& gh = ghosts[sp];
  const auto it = std::lower_bound(gh.begin(), gh.end(), g);
  if (it != gh.end() && *it == g) {
    return num_owned(p) + static_cast<int>(it - gh.begin());
  }
  return -1;
}

std::vector<int> strip_bounds(int n, int shards, int quantum) {
  if (n < 0 || shards < 1 || quantum < 1) {
    throw std::invalid_argument("strip_bounds: need n >= 0, shards >= 1, "
                                "quantum >= 1");
  }
  std::vector<int> b(static_cast<std::size_t>(shards) + 1, 0);
  for (int p = 1; p < shards; ++p) {
    // round-half-up of p*n / (shards*quantum), in exact integer arithmetic
    const long long num = 2LL * p * n + 1LL * shards * quantum;
    const long long den = 2LL * shards * quantum;
    long long bp = static_cast<long long>(quantum) * (num / den);
    if (bp > n) bp = n;
    if (bp < b[static_cast<std::size_t>(p) - 1]) {
      bp = b[static_cast<std::size_t>(p) - 1];
    }
    b[static_cast<std::size_t>(p)] = static_cast<int>(bp);
  }
  b[static_cast<std::size_t>(shards)] = n;
  return b;
}

ShardedCg::ShardedCg(ShardPlan plan, const CsrMatrix& a,
                     const sim::MachineConfig& machine, int strip, int phase,
                     int num_phases)
    : plan_(std::move(plan)), phase_(phase) {
  if (!machine.vector_enabled) {
    throw std::invalid_argument(
        "ShardedCg: vector machines only (the scalar dot recurrence is a "
        "sequential sfma chain and does not decompose over shards)");
  }
  strip_ = solve_effective_strip(strip, machine);
  if (plan_.quantum != strip_) {
    throw std::invalid_argument(
        "ShardedCg: plan quantum must equal the effective strip so global "
        "strips never straddle shards");
  }
  if (plan_.size() != a.rows() ||
      static_cast<int>(plan_.ghosts.size()) != plan_.shards ||
      static_cast<int>(plan_.bounds.size()) != plan_.shards + 1) {
    throw std::invalid_argument("ShardedCg: malformed plan");
  }
  // Global inverse diagonal FIRST: a zero diagonal throws here, before any
  // shard state exists, so the caller can fall back to the legacy path and
  // reproduce its instrumented SolveReport::failure exit bit for bit.
  const std::vector<double> dinv_global = jacobi_inverse_diagonal(a);

  const int line_bytes = machine.memory.l1.line_bytes;
  shards_.resize(static_cast<std::size_t>(plan_.shards));
  std::vector<std::vector<sim::HaloBlock>> blocks(
      static_cast<std::size_t>(plan_.shards));
  for (int p = 0; p < plan_.shards; ++p) {
    Shard& sh = shards_[static_cast<std::size_t>(p)];
    sh.vpu = std::make_unique<sim::Vpu>(machine, num_phases);
    const int owned = plan_.num_owned(p);
    const int base = plan_.bounds[static_cast<std::size_t>(p)];
    const std::size_t rows = static_cast<std::size_t>(owned);
    const std::size_t lsize = static_cast<std::size_t>(plan_.local_size(p));
    sh.x.assign(lsize, 0.0);
    sh.p.assign(lsize, 0.0);
    sh.b.assign(rows, 0.0);
    sh.r.assign(rows, 0.0);
    sh.z.assign(rows, 0.0);
    sh.ap.assign(rows, 0.0);
    sh.dinv.assign(dinv_global.begin() + base,
                   dinv_global.begin() + base + owned);
    sh.partials.reserve(rows == 0 ? 0 : (rows - 1) / strip_ + 1);
    // Throws std::invalid_argument on a column outside the ghost closure.
    sh.a.assign(a, base, base + owned, plan_.local_size(p),
                [&](int g) { return plan_.local_index(p, g); });

    // Ghosts are sorted by global id and ownership ranges ascend, so each
    // owner's contribution is one contiguous run of the ghost list.
    const auto& gh = plan_.ghosts[static_cast<std::size_t>(p)];
    std::size_t i = 0;
    while (i < gh.size()) {
      const int owner = plan_.owner(gh[i]);
      sim::HaloBlock blk;
      blk.src_shard = owner;
      blk.dst_begin = owned + static_cast<int>(i);
      const int src_base = plan_.bounds[static_cast<std::size_t>(owner)];
      while (i < gh.size() && plan_.owner(gh[i]) == owner) {
        blk.src_local.push_back(gh[i] - src_base);
        ++i;
      }
      blocks[static_cast<std::size_t>(p)].push_back(std::move(blk));
    }
  }
  halo_ = std::make_unique<sim::HaloExchange>(std::move(blocks), line_bytes);
  vpu_ptrs_.assign(static_cast<std::size_t>(plan_.shards), nullptr);
  local_ptrs_.assign(static_cast<std::size_t>(plan_.shards), nullptr);
  epoch_last_.assign(static_cast<std::size_t>(plan_.shards), 0.0);
}

void ShardedCg::reset() {
  for (Shard& sh : shards_) sh.vpu->reset();
  std::fill(epoch_last_.begin(), epoch_last_.end(), 0.0);
  makespan_ = 0.0;
}

/// cg_recurrence's sharded execution space.  Every vector operation is one
/// BSP epoch over the shard Vpus (owned rows only; x and p carry ghost
/// slots); reductions record raw per-strip partials on the shards and fold
/// them on the coordinator in global strip order; ghosts are refreshed
/// through HaloExchange before every operator application.
struct ShardedCg::Space {
  ShardedCg& cg;
  sim::Vpu& coord;
  std::span<double> x;
  const double coord0;  ///< coordinator cycles at solve entry

  sim::Vpu& scalar() { return coord; }
  double norm2_b() { return norm2(&Shard::b); }
  double norm2_r() { return norm2(&Shard::r); }

  void zero_x() {
    epoch([&](Shard& sh, sim::Vpu& vpu) {
      vfill(vpu, owned(sh, sh.x), 0.0, cg.strip_);
    });
  }

  // Shard vectors and Jacobi slices are built once, in the constructor.
  void prepare() {}
  void setup_precond(const SolveOptions&) {}

  void residual() {
    exchange_into(&Shard::x);
    epoch([&](Shard& sh, sim::Vpu& vpu) {
      vspmv(vpu, sh.a, sh.x, sh.ap, cg.strip_);
      vsub(vpu, sh.b, sh.ap, sh.r, cg.strip_);
    });
  }

  double precond(bool init) {
    epoch([&](Shard& sh, sim::Vpu& vpu) {
      vjacobi_apply(vpu, sh.dinv, sh.r, sh.z, cg.strip_);
      if (init) vcopy(vpu, sh.z, owned(sh, sh.p), cg.strip_);
    });
    epoch([&](Shard& sh, sim::Vpu& vpu) {
      dot_partials(sh, vpu, sh.r, sh.z);
    });
    return fold_sum();
  }

  double apply_p() {
    exchange_into(&Shard::p);
    epoch([&](Shard& sh, sim::Vpu& vpu) {
      vspmv(vpu, sh.a, sh.p, sh.ap, cg.strip_);
      dot_partials(sh, vpu, sh.p, sh.ap);
    });
    return fold_sum();
  }

  void update_xr(double alpha) {
    epoch([&](Shard& sh, sim::Vpu& vpu) {
      vaxpy(vpu, alpha, owned(sh, sh.p), owned(sh, sh.x), cg.strip_);
      vaxpy(vpu, -alpha, sh.ap, sh.r, cg.strip_);
    });
  }

  void update_p(double beta) {
    epoch([&](Shard& sh, sim::Vpu& vpu) {
      vxpby(vpu, sh.z, beta, owned(sh, sh.p), cg.strip_);
    });
  }

  /// Gather owned x back to the caller; the coordinator's cycles join the
  /// makespan (they are serial by construction).
  SolveReport finish(SolveReport& rep) {
    for (std::size_t p = 0; p < cg.shards_.size(); ++p) {
      const Shard& sh = cg.shards_[p];
      std::copy(sh.x.begin(), sh.x.begin() + sh.a.rows(),
                x.begin() + cg.plan_.bounds[p]);
    }
    cg.makespan_ += coord.counters().total_cycles() - coord0;
    return checked(rep);
  }

  static std::span<double> owned(const Shard& sh, std::vector<double>& v) {
    return std::span<double>(v).first(static_cast<std::size_t>(sh.a.rows()));
  }

  /// One BSP epoch: fn(shard, vpu) on every shard in parallel inside the
  /// solve phase, then the slowest shard's cycle delta joins the makespan.
  /// Shards are independent, so at most one OS thread per core runs them
  /// (jobs 0): a shard count above the core count, or above the strip
  /// count (empty shards), must not start one thread per shard.
  template <class Fn>
  void epoch(Fn&& fn) {
    std::vector<Shard>& shards = cg.shards_;
    core::parallel_for_index(shards.size(), 0, [&](std::size_t p) {
      sim::Vpu& vpu = *shards[p].vpu;
      sim::ScopedPhase scope(vpu.profiler(), cg.phase_);
      fn(shards[p], vpu);
    });
    double mx = 0.0;
    for (std::size_t p = 0; p < shards.size(); ++p) {
      const double now = shards[p].vpu->counters().total_cycles();
      mx = std::max(mx, now - cg.epoch_last_[p]);
      cg.epoch_last_[p] = now;
    }
    cg.makespan_ += mx;
  }

  /// Raw per-strip partials of one shard's owned rows; strip(i) issues the
  /// reduction of the strip starting at i.
  template <class Strip>
  void partials(Shard& sh, sim::Vpu& vpu, Strip&& strip) {
    sh.partials.clear();
    for_strips(vpu, sh.a.rows(), cg.strip_,
               [&](int i, int) { sh.partials.push_back(strip(i)); });
  }

  void dot_partials(Shard& sh, sim::Vpu& vpu, const std::vector<double>& a,
                    const std::vector<double>& b) {
    partials(sh, vpu, [&](int i) {
      const sim::Vec va = vpu.vload(a.data() + i);
      const sim::Vec vb = vpu.vload(b.data() + i);
      return vpu.vredsum(vpu.vmul(va, vb));
    });
  }

  /// Global-strip-order sadd fold: shard partial lists concatenate in
  /// shard order because ownership ranges ascend — vdot's exact recurrence.
  double fold_sum() {
    double s = 0.0;
    for (const Shard& sh : cg.shards_) {
      for (const double part : sh.partials) s = coord.sadd(s, part);
    }
    return s;
  }

  /// vnorm2 split over the shards' owned slices of @p v.
  double norm2(std::vector<double> Shard::*v) {
    const auto sum_sq = [&] {
      epoch([&](Shard& sh, sim::Vpu& vpu) {
        dot_partials(sh, vpu, sh.*v, sh.*v);
      });
      return fold_sum();
    };
    const auto abs_max = [&](auto&& max_into) {
      epoch([&](Shard& sh, sim::Vpu& vpu) {
        partials(sh, vpu, [&](int i) {
          const double sm =
              vpu.vredmax(vpu.vabs(vpu.vload((sh.*v).data() + i)));
          vpu.sarith(1);  // running-max combine, as in vnorm2
          return sm;
        });
      });
      // The combine runs over the global strip sequence, host-side as in
      // vnorm2 (no instruction charged).
      for (const Shard& sh : cg.shards_) {
        for (const double sm : sh.partials) max_into(sm);
      }
    };
    const auto scaled_sum_sq = [&](double m) {
      epoch([&](Shard& sh, sim::Vpu& vpu) {
        partials(sh, vpu, [&](int i) {
          const sim::Vec q =
              vpu.vdiv(vpu.vload((sh.*v).data() + i), vpu.vsplat(m));
          return vpu.vredsum(vpu.vmul(q, q));
        });
      });
      return fold_sum();
    };
    return norm2_rescan(coord, sum_sq, abs_max, scaled_sum_sq);
  }

  /// Refresh the ghost slots of every shard's @p vec from their owners.
  void exchange_into(std::vector<double> Shard::*vec) {
    for (std::size_t p = 0; p < cg.shards_.size(); ++p) {
      cg.vpu_ptrs_[p] = cg.shards_[p].vpu.get();
      cg.local_ptrs_[p] = (cg.shards_[p].*vec).data();
      cg.vpu_ptrs_[p]->profiler().begin(cg.phase_);
    }
    cg.halo_->exchange(cg.vpu_ptrs_, cg.local_ptrs_);
    for (std::size_t p = 0; p < cg.shards_.size(); ++p) {
      cg.vpu_ptrs_[p]->profiler().end(cg.phase_);
    }
  }
};

SolveReport ShardedCg::solve(sim::Vpu& coord, std::span<const double> b,
                             std::span<double> x, const SolveOptions& opts) {
  const std::size_t n = b.size();
  if (static_cast<int>(n) != plan_.size() || x.size() != n) {
    throw std::invalid_argument("ShardedCg::solve: dimension mismatch");
  }
  if (opts.precond.kind != PrecondKind::kJacobi) {
    throw std::invalid_argument(
        "ShardedCg::solve: only the kJacobi rung is sharded (other rungs "
        "take the legacy single-Vpu path)");
  }
  // Initial owned-data distribution: host-side marshalling, deliberately
  // uncounted (it is data placement, not halo traffic).
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    Shard& sh = shards_[p];
    const int base = plan_.bounds[p];
    std::copy(b.begin() + base, b.begin() + base + sh.a.rows(), sh.b.begin());
    std::copy(x.begin() + base, x.begin() + base + sh.a.rows(), sh.x.begin());
  }
  Space sp{*this, coord, x, coord.counters().total_cycles()};
  return cg_recurrence(sp, opts);
}

}  // namespace vecfd::solver
