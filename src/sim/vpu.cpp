#include "sim/vpu.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace vecfd::sim {

namespace {
std::uintptr_t addr(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

void check_same_size(const Vec& a, const Vec& b, const char* what) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string("Vpu: operand length mismatch in ") +
                                what);
  }
}
}  // namespace

Vpu::Vpu(MachineConfig cfg, int num_phases)
    : cfg_(std::move(cfg)),
      timing_(cfg_),
      mem_(cfg_.memory),
      profiler_(num_phases) {
  if (cfg_.vlmax <= 0 || cfg_.lanes <= 0) {
    throw std::invalid_argument("Vpu: vlmax and lanes must be positive");
  }
  vl_ = cfg_.vlmax;
}

void Vpu::reset() {
  total_ = Counters{};
  profiler_.reset();
  mem_.flush();
  vl_ = cfg_.vlmax;
}

// ------------------------------------------------------------ charge path

void Vpu::charge(InstrKind kind, double cycles, int vl, std::uint64_t flops) {
  const auto lanes = static_cast<std::uint64_t>(vl);
  for (Counters* c : {&total_, &open_phase()}) {
    c->record(kind, cycles, lanes);
    c->flops += flops;
  }
  if (observer_ != nullptr) {
    observer_->on_instr(profiler_.current(), kind, vl, cycles);
  }
}

template <class T>
void Vpu::tally(T Counters::*field, std::type_identity_t<T> n) {
  total_.*field += n;
  open_phase().*field += n;
}

double Vpu::tally_cache(const mem::RangeAccess& r) {
  tally(&Counters::l1_accesses, r.lines);
  tally(&Counters::l1_misses, r.l1_misses);
  tally(&Counters::l2_misses, r.l2_misses);
  return r.penalty;
}

double Vpu::touch_range(const void* p, std::size_t bytes) {
  return tally_cache(mem_.touch_range(addr(p), bytes));
}

void Vpu::require_vector(const char* what) const {
  if (!cfg_.vector_enabled) {
    throw std::logic_error(std::string("Vpu: vector instruction '") + what +
                           "' issued on a scalar-only machine configuration");
  }
}

void Vpu::require_operands(const Vec& a, const char* what) const {
  if (a.empty()) {
    throw std::invalid_argument(std::string("Vpu: empty operand for '") +
                                what + "'");
  }
}

// ---------------------------------------------------------------- vconfig

int Vpu::set_vl(int n) {
  require_vector("vsetvl");
  if (n <= 0) throw std::invalid_argument("Vpu::set_vl: n must be positive");
  vl_ = cfg_.clamp_vl(n);
  charge(InstrKind::kVConfig, timing_.vconfig_cycles(), 0);
  return vl_;
}

// ------------------------------------------------------------ vector memory

// Streaming (long unit-stride) accesses overlap outstanding line fills
// almost completely; short vectors behave like scalar accesses and expose
// the latency.  Interpolate between the two regimes with 1/vl scaling.
double Vpu::unit_overlap(int vl) const {
  const double scaled =
      cfg_.miss_overlap_unit * static_cast<double>(cfg_.vlmax) / vl;
  return scaled < cfg_.miss_overlap_indexed ? scaled
                                            : cfg_.miss_overlap_indexed;
}

void Vpu::vmem_unit(const void* p, std::size_t bytes, int n) {
  double cycles = timing_.vmem_unit_cycles(n);
  cycles += unit_overlap(n) * touch_range(p, bytes);
  charge(InstrKind::kVMemUnit, cycles, n);
}

// Each lane touches the line of its own element, in lane order.
template <class Lane>
void Vpu::vmem_elems(InstrKind kind, int n, Lane lane) {
  mem::RangeAccess lines;
  for (int i = 0; i < n; ++i) {
    if (const void* q = lane(i)) lines += mem_.touch_range(addr(q), 8);
  }
  const bool strided = kind == InstrKind::kVMemStrided;
  double cycles = strided ? timing_.vmem_strided_cycles(n)
                          : timing_.vmem_indexed_cycles(n);
  cycles += (strided ? cfg_.miss_overlap_strided : cfg_.miss_overlap_indexed) *
            tally_cache(lines);
  charge(kind, cycles, n);
}

Vec Vpu::vload(const double* p) {
  require_vector("vload");
  Vec r(vl_);
  for (int i = 0; i < vl_; ++i) r[i] = p[i];
  vmem_unit(p, 8u * vl_, vl_);
  return r;
}

Vec Vpu::vload_i32(const std::int32_t* p) {
  require_vector("vload_i32");
  Vec r(vl_);
  for (int i = 0; i < vl_; ++i) r[i] = static_cast<double>(p[i]);
  vmem_unit(p, 4u * vl_, vl_);
  return r;
}

Vec Vpu::vload_strided(const double* p, std::ptrdiff_t stride_elems) {
  require_vector("vload_strided");
  Vec r(vl_);
  vmem_elems(InstrKind::kVMemStrided, vl_, [&](int i) {
    const double* q = p + stride_elems * i;
    r[i] = *q;
    return q;
  });
  return r;
}

Vec Vpu::vgather(const double* base, const Vec& idx) {
  require_vector("vgather");
  require_operands(idx, "vgather");
  const int n = idx.size();
  Vec r(n);
  std::uint64_t pads = 0;
  // The hierarchy's census counts the distinct lines the real lanes touch.
  mem_.begin_census();
  vmem_elems(InstrKind::kVMemIndexed, n, [&](int i) -> const double* {
    const std::ptrdiff_t k = static_cast<std::ptrdiff_t>(idx[i]);
    if (k < 0) {  // masked-off pad lane: +0.0, zero memory traffic
      r[i] = 0.0;
      ++pads;
      return nullptr;
    }
    const double* q = base + k;
    r[i] = *q;
    return q;
  });
  tally(&Counters::gather_lanes, static_cast<std::uint64_t>(n) - pads);
  tally(&Counters::gather_lines_touched, mem_.census_lines());
  tally(&Counters::pad_lanes, pads);
  return r;
}

void Vpu::vstore(double* p, const Vec& v) {
  require_vector("vstore");
  require_operands(v, "vstore");
  const int n = v.size();
  for (int i = 0; i < n; ++i) p[i] = v[i];
  vmem_unit(p, 8u * n, n);
}

void Vpu::vstore_strided(double* p, std::ptrdiff_t stride_elems,
                         const Vec& v) {
  require_vector("vstore_strided");
  require_operands(v, "vstore_strided");
  vmem_elems(InstrKind::kVMemStrided, v.size(), [&](int i) {
    double* q = p + stride_elems * i;
    *q = v[i];
    return q;
  });
}

void Vpu::vscatter(double* base, const Vec& idx, const Vec& v) {
  require_vector("vscatter");
  require_operands(v, "vscatter");
  if (idx.size() != v.size()) {
    throw std::invalid_argument("Vpu::vscatter: index/value length mismatch");
  }
  vmem_elems(InstrKind::kVMemIndexed, v.size(), [&](int i) {
    double* q = base + static_cast<std::ptrdiff_t>(idx[i]);
    *q = v[i];
    return q;
  });
}

// --------------------------------------------------------- vector arithmetic

template <class Lane, class... More>
Vec Vpu::varith(const char* what, ArithOp op, unsigned flops_per_lane,
                Lane lane, const Vec& a, const More&... more) {
  require_vector(what);
  require_operands(a, what);
  (check_same_size(a, more, what), ...);
  const int n = a.size();
  Vec r(n);
  for (int i = 0; i < n; ++i) r[i] = lane(a[i], more[i]...);
  charge(InstrKind::kVArith, timing_.varith_cycles(n, op), n,
         std::uint64_t{flops_per_lane} * static_cast<std::uint64_t>(n));
  return r;
}

Vec Vpu::vadd(const Vec& a, const Vec& b) {
  return varith("vadd", ArithOp::kSimple, 1,
                [](double x, double y) { return x + y; }, a, b);
}

Vec Vpu::vsub(const Vec& a, const Vec& b) {
  return varith("vsub", ArithOp::kSimple, 1,
                [](double x, double y) { return x - y; }, a, b);
}

Vec Vpu::vmul(const Vec& a, const Vec& b) {
  return varith("vmul", ArithOp::kSimple, 1,
                [](double x, double y) { return x * y; }, a, b);
}

Vec Vpu::vdiv(const Vec& a, const Vec& b) {
  return varith("vdiv", ArithOp::kDivSqrt, 1,
                [](double x, double y) { return x / y; }, a, b);
}

Vec Vpu::vfma(const Vec& a, const Vec& b, const Vec& c) {
  return varith("vfma", ArithOp::kSimple, 2,
                [](double x, double y, double z) { return x * y + z; }, a, b,
                c);
}

Vec Vpu::vfnma(const Vec& a, const Vec& b, const Vec& c) {
  return varith("vfnma", ArithOp::kSimple, 2,
                [](double x, double y, double z) { return z - x * y; }, a, b,
                c);
}

Vec Vpu::vsqrt(const Vec& a) {
  return varith("vsqrt", ArithOp::kDivSqrt, 1,
                [](double x) { return std::sqrt(x); }, a);
}

Vec Vpu::vcbrt(const Vec& a) {
  return varith("vcbrt", ArithOp::kDivSqrt, 1,
                [](double x) { return std::cbrt(x); }, a);
}

Vec Vpu::vabs(const Vec& a) {
  return varith("vabs", ArithOp::kSimple, 1,
                [](double x) { return std::fabs(x); }, a);
}

// The vector-scalar forms are the unary (binary for vfma_s) body with the
// scalar operand captured in the lane expression.
Vec Vpu::vadd_s(const Vec& a, double s) {
  return varith("vadd_s", ArithOp::kSimple, 1,
                [s](double x) { return x + s; }, a);
}

Vec Vpu::vmul_s(const Vec& a, double s) {
  return varith("vmul_s", ArithOp::kSimple, 1,
                [s](double x) { return x * s; }, a);
}

Vec Vpu::vfma_s(const Vec& a, double s, const Vec& c) {
  return varith("vfma_s", ArithOp::kSimple, 2,
                [s](double x, double z) { return x * s + z; }, a, c);
}

Vec Vpu::viadd_s(const Vec& a, double s) {
  return varith("viadd_s", ArithOp::kSimple, 0,
                [s](double x) { return x + s; }, a);
}

Vec Vpu::vimul_s(const Vec& a, double s) {
  return varith("vimul_s", ArithOp::kSimple, 0,
                [s](double x) { return x * s; }, a);
}

template <class Fold>
double Vpu::vreduce(const char* what, const Vec& a, Fold fold) {
  require_vector(what);
  require_operands(a, what);
  const int n = a.size();
  const double r = fold(a);
  charge(InstrKind::kVArith, timing_.varith_cycles(n, ArithOp::kReduce), n,
         static_cast<std::uint64_t>(n));
  return r;
}

double Vpu::vredsum(const Vec& a) {
  return vreduce("vredsum", a, [](const Vec& v) {
    double s = 0.0;
    for (int i = 0; i < v.size(); ++i) s += v[i];
    return s;
  });
}

double Vpu::vredmax(const Vec& a) {
  return vreduce("vredmax", a, [](const Vec& v) {
    // NaN-propagating max: a poisoned operand must not yield a clean scale
    // (the scaled norm would otherwise report 0 for an all-NaN vector).
    double m = v[0];
    for (int i = 1; i < v.size(); ++i) {
      const double x = v[i];
      m = (x > m || x != x) ? x : m;
    }
    return m;
  });
}

// --------------------------------------------------------------- control lane

Vec Vpu::vsplat(double s) {
  require_vector("vsplat");
  charge(InstrKind::kVCtrl, timing_.vctrl_cycles(vl_), vl_);
  return Vec(vl_, s);
}

// ---------------------------------------------------------------- scalar core

void Vpu::smem(const void* p, std::size_t bytes) {
  charge(InstrKind::kScalarMem,
         timing_.scalar_mem_cycles() + touch_range(p, bytes), 0);
}

double Vpu::sload(const double* p) {
  smem(p, 8);
  return *p;
}

std::int32_t Vpu::sload_i32(const std::int32_t* p) {
  smem(p, 4);
  return *p;
}

void Vpu::sstore(double* p, double v) {
  *p = v;
  smem(p, 8);
}

void Vpu::sstore_i32(std::int32_t* p, std::int32_t v) {
  *p = v;
  smem(p, 4);
}

// A bulk count: one addition of n·cycles, no per-instruction observer call.
void Vpu::sarith(std::uint64_t n) {
  if (n == 0) return;
  tally(&Counters::scalar_alu_instrs, n);
  tally(&Counters::scalar_cycles,
        timing_.scalar_alu_cycles() * static_cast<double>(n));
}

void Vpu::note_coalesced_lanes(std::uint64_t n) {
  tally(&Counters::coalesced_lanes, n);
}

void Vpu::note_pad_lanes(std::uint64_t n) { tally(&Counters::pad_lanes, n); }

void Vpu::note_halo_lines_sent(std::uint64_t n) {
  tally(&Counters::halo_lines_sent, n);
}

void Vpu::note_halo_lines_recv(std::uint64_t n) {
  tally(&Counters::halo_lines_recv, n);
}

void Vpu::note_halo_messages(std::uint64_t n) {
  tally(&Counters::halo_messages, n);
}

double Vpu::sfp(double result, std::uint64_t flops, double cycle_factor) {
  charge(InstrKind::kScalarAlu, cycle_factor * timing_.scalar_alu_cycles(), 0,
         flops);
  return result;
}

double Vpu::sadd(double a, double b) { return sfp(a + b, 1); }
double Vpu::ssub(double a, double b) { return sfp(a - b, 1); }
double Vpu::smul(double a, double b) { return sfp(a * b, 1); }
// Divide, sqrt and cbrt take several cycles even on the in-order core.
double Vpu::sdiv(double a, double b) { return sfp(a / b, 1, 4.0); }
double Vpu::sfma(double a, double b, double c) { return sfp(a * b + c, 2); }
double Vpu::sfnma(double a, double b, double c) { return sfp(c - a * b, 2); }
double Vpu::ssqrt(double a) { return sfp(std::sqrt(a), 1, 4.0); }
double Vpu::scbrt(double a) { return sfp(std::cbrt(a), 1, 4.0); }

}  // namespace vecfd::sim
