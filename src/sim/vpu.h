// vecfd::sim — the long-vector machine.
//
// A Vpu executes kernels written against an explicit scalar/vector
// instruction API.  Every call does two things at once:
//   1. performs the real double-precision computation on real host memory
//      (so results are exact and testable against a golden reference), and
//   2. charges cycles and updates hardware counters according to the
//      TimingModel and the cache hierarchy — reproducing the
//      counter-based analysis the paper performs with PAPI/Vehave.
//
// The instruction vocabulary is what the kernels issue, a subset of the
// RISC-V vector extension: vsetvl, unit-stride / strided / indexed loads
// and stores, elementwise arithmetic (incl. FMA, div, sqrt), reductions and
// broadcasts, plus the scalar core.  Each instruction class has one body
// (vpu.cpp) that checks the operands, computes the lanes and charges the
// counters, and every charge goes through charge() or tally().
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

#include "mem/memory_hierarchy.h"
#include "sim/counters.h"
#include "sim/machine_config.h"
#include "sim/phase_profiler.h"
#include "sim/timing_model.h"
#include "sim/vec.h"

namespace vecfd::sim {

/// Observer hook for per-instruction tracing (implemented by
/// vecfd::trace::VehaveTrace; kept abstract here to avoid a cycle).
class InstrObserver {
 public:
  virtual ~InstrObserver() = default;
  virtual void on_instr(int phase, InstrKind kind, int vl, double cycles) = 0;
};

class Vpu {
 public:
  explicit Vpu(MachineConfig cfg, int num_phases = kDefaultNumPhases);

  // ---- configuration & state ------------------------------------------
  const MachineConfig& config() const { return cfg_; }
  mem::MemoryHierarchy& memory() { return mem_; }
  const mem::MemoryHierarchy& memory() const { return mem_; }
  PhaseProfiler& profiler() { return profiler_; }
  const PhaseProfiler& profiler() const { return profiler_; }
  const Counters& counters() const { return total_; }

  void set_observer(InstrObserver* obs) { observer_ = obs; }

  /// Reset counters, phases and caches for an independent measurement.
  void reset();

  /// Wall-clock seconds implied by the accumulated cycles at the modelled
  /// core frequency.
  double seconds() const {
    return total_.total_cycles() / (cfg_.frequency_mhz * 1e6);
  }

  // ---- vector configuration -------------------------------------------
  /// vsetvl: request @p n elements; the granted vl is min(n, vlmax).
  int set_vl(int n);
  int vl() const { return vl_; }
  int vlmax() const { return cfg_.vlmax; }

  // ---- vector memory -----------------------------------------------------
  Vec vload(const double* p);
  Vec vload_strided(const double* p, std::ptrdiff_t stride_elems);
  /// Unit-stride load of 32-bit indices (values returned widened to double).
  Vec vload_i32(const std::int32_t* p);
  /// Indexed load of base[idx[i]].  A NEGATIVE index is a masked-off lane
  /// (the storage-format pad convention of solver ELL/SELL mirrors): the
  /// lane reads +0.0 and generates no memory traffic, exactly like a
  /// mask-disabled element of a real vluxei — it still occupies its issue
  /// slot, so the instruction's cycle law is unchanged.  Real lanes are
  /// accounted in `gather_lanes` and the distinct cache lines they touch in
  /// `gather_lines_touched`; masked lanes count into `pad_lanes`.
  Vec vgather(const double* base, const Vec& idx);
  void vstore(double* p, const Vec& v);
  void vstore_strided(double* p, std::ptrdiff_t stride_elems, const Vec& v);
  void vscatter(double* base, const Vec& idx, const Vec& v);

  // ---- vector arithmetic (elementwise over the operand length) ---------
  Vec vadd(const Vec& a, const Vec& b);
  Vec vsub(const Vec& a, const Vec& b);
  Vec vmul(const Vec& a, const Vec& b);
  Vec vdiv(const Vec& a, const Vec& b);
  Vec vfma(const Vec& a, const Vec& b, const Vec& c);   ///< a*b + c
  Vec vfnma(const Vec& a, const Vec& b, const Vec& c);  ///< c - a*b (vfnmsac)
  Vec vsqrt(const Vec& a);
  Vec vcbrt(const Vec& a);  ///< vectorized libm cbrt (EPI vector-math call)
  Vec vabs(const Vec& a);

  // vector-scalar forms (vfadd.vf / vfmul.vf / vfmacc.vf ...)
  Vec vadd_s(const Vec& a, double s);
  Vec vmul_s(const Vec& a, double s);
  Vec vfma_s(const Vec& a, double s, const Vec& c);  ///< a*s + c

  // integer-flavoured vector arithmetic for index computation (no FLOPs)
  Vec viadd_s(const Vec& a, double s);
  Vec vimul_s(const Vec& a, double s);

  /// Ordered sum reduction (vfredsum); result returned to the scalar core.
  double vredsum(const Vec& a);

  /// Max reduction (vfredmax); result returned to the scalar core.  NaN
  /// operands propagate to the result.  Used by the overflow-safe scaled
  /// norm of solver/vkernels.h.
  double vredmax(const Vec& a);

  // ---- control-lane instructions -------------------------------------------
  Vec vsplat(double s);  ///< broadcast (vmv.v.f)

  // ---- scalar core ------------------------------------------------------------
  double sload(const double* p);
  std::int32_t sload_i32(const std::int32_t* p);
  void sstore(double* p, double v);
  void sstore_i32(std::int32_t* p, std::int32_t v);

  /// Count @p n generic scalar ALU instructions (loop control, addressing,
  /// comparisons) without an associated data value.
  void sarith(std::uint64_t n = 1);

  // ---- kernel annotations (no instruction issued) ----------------------
  /// Lanes whose x-gather was served by the coalescing fast path: the SpMV
  /// kernel detected a contiguous column run at assembly time and issued a
  /// unit-stride vload (already counted as such) in place of the vgather.
  /// Keeps the gathered/coalesced/pad lane taxonomy complete in the CSV.
  void note_coalesced_lanes(std::uint64_t n);
  /// Pad lanes skipped by a SCALAR SpMV fallback (vector pads are counted
  /// inside vgather itself).
  void note_pad_lanes(std::uint64_t n);
  /// Distinct owner cache lines read to serve a ghost transfer out of this
  /// shard (sim::HaloExchange on the owning shard's Vpu).
  void note_halo_lines_sent(std::uint64_t n);
  /// Distinct ghost-slot cache lines written into this shard's local
  /// vectors by a ghost transfer (HaloExchange on the receiving Vpu).
  void note_halo_lines_recv(std::uint64_t n);
  /// Point-to-point ghost-exchange messages received by this shard.
  void note_halo_messages(std::uint64_t n);

  // convenience scalar FP helpers: compute, count one instruction + FLOPs
  double sadd(double a, double b);
  double ssub(double a, double b);
  double smul(double a, double b);
  double sdiv(double a, double b);
  double sfma(double a, double b, double c);
  double sfnma(double a, double b, double c);  ///< c - a*b
  double ssqrt(double a);
  double scbrt(double a);

 private:
  /// The one charge path of an instruction: records it (class, @p cycles,
  /// @p vl, @p flops) into the run total and into the open phase, then
  /// notifies the observer.
  void charge(InstrKind kind, double cycles, int vl, std::uint64_t flops = 0);
  /// Adds @p n to one counter of the run total and of the open phase,
  /// without issuing an instruction (annotations, gather lanes, caches).
  template <class T>
  void tally(T Counters::*field, std::type_identity_t<T> n);
  Counters& open_phase() { return profiler_.phase(profiler_.current()); }

  /// Touch whole lines of [p, p + bytes) and tally the cache counters;
  /// returns the miss penalty.
  double touch_range(const void* p, std::size_t bytes);
  /// Tally @p r's line accesses and misses; returns its penalty.
  double tally_cache(const mem::RangeAccess& r);

  void require_vector(const char* what) const;
  void require_operands(const Vec& a, const char* what) const;

  /// Miss-latency exposure of a unit-stride access of length @p vl.
  double unit_overlap(int vl) const;

  // ---- one body per instruction class (vpu.cpp) ------------------------
  /// Elementwise arithmetic: r[i] = lane(a[i], more[i]...).  @p a must be
  /// non-empty; further operands must match its length.
  template <class Lane, class... More>
  Vec varith(const char* what, ArithOp op, unsigned flops_per_lane, Lane lane,
             const Vec& a, const More&... more);
  /// Reduction of a non-empty @p a to the scalar core: fold(a).
  template <class Fold>
  double vreduce(const char* what, const Vec& a, Fold fold);
  /// Unit-stride access of @p n lanes over [p, p + bytes).
  void vmem_unit(const void* p, std::size_t bytes, int n);
  /// Strided or indexed access of @p n lanes: lane(i) moves lane i and
  /// returns the element it touched, or nullptr for a masked-off lane.
  template <class Lane>
  void vmem_elems(InstrKind kind, int n, Lane lane);
  /// Scalar load or store of @p bytes at @p p.
  void smem(const void* p, std::size_t bytes);
  /// Scalar FP instruction: charges @p cycle_factor ALU cycles and @p flops,
  /// returns @p result.
  double sfp(double result, std::uint64_t flops, double cycle_factor = 1.0);

  MachineConfig cfg_;
  TimingModel timing_;
  mem::MemoryHierarchy mem_;
  PhaseProfiler profiler_;
  Counters total_;
  InstrObserver* observer_ = nullptr;
  int vl_ = 0;
};

}  // namespace vecfd::sim
