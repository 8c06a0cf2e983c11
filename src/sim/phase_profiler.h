// vecfd::sim — per-phase counter attribution (Extrae-style regions).
//
// The mini-app is instrumented into 8 phases (§2.3); every counter update
// is attributed both to the run total and to the currently open phase, so
// per-phase metrics (Tables 3–5, Figures 4, 8–10) fall out as plain reads.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/counters.h"

namespace vecfd::sim {

/// Default phase-id range of a fresh profiler / Vpu: the mini-app's eight
/// assembly phases plus the solve-stage phases of the transient loop —
/// momentum BiCGStab (9), pressure-Poisson CG (10) and the BLAS-1 velocity
/// correction (11); see miniapp::kSolvePhase et al.
inline constexpr int kDefaultNumPhases = 11;

class PhaseProfiler {
 public:
  /// @param num_phases phase ids are 1..num_phases; 0 means "outside".
  explicit PhaseProfiler(int num_phases = kDefaultNumPhases)
      : phases_(static_cast<std::size_t>(num_phases) + 1) {}

  int num_phases() const { return static_cast<int>(phases_.size()) - 1; }

  void begin(int phase) {
    if (phase < 1 || phase > num_phases()) {
      throw std::out_of_range("PhaseProfiler::begin: bad phase id " +
                              std::to_string(phase));
    }
    if (current_ != 0) {
      throw std::logic_error("PhaseProfiler::begin: phase " +
                             std::to_string(current_) + " still open");
    }
    current_ = phase;
  }

  void end(int phase) {
    if (phase != current_) {
      throw std::logic_error("PhaseProfiler::end: phase " +
                             std::to_string(phase) + " is not open");
    }
    current_ = 0;
  }

  int current() const { return current_; }

  /// Counters attributed to @p phase (0 = outside any phase).
  const Counters& phase(int p) const { return phases_.at(p); }
  Counters& phase(int p) { return phases_.at(p); }

  void reset() {
    for (Counters& c : phases_) c = Counters{};
    current_ = 0;
  }

 private:
  std::vector<Counters> phases_;
  int current_ = 0;
};

/// RAII phase region.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler& prof, int phase) : prof_(prof), phase_(phase) {
    prof_.begin(phase_);
  }
  ~ScopedPhase() { prof_.end(phase_); }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler& prof_;
  int phase_;
};

}  // namespace vecfd::sim
