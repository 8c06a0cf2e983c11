// vecfd::trace — Vehave-style per-instruction vector trace.
//
// The paper's RISC-V vector emulator (Vehave, §2.1.2) records every vector
// instruction executed — its type and vector length — which is how the
// authors measure AVL and diagnose the VEC2 regression (AVL = 4).  This
// class plays that role: it observes the simulated instruction stream and
// keeps a bounded record suitable for AVL queries and Paraver export.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/vpu.h"

namespace vecfd::trace {

struct TraceRecord {
  std::uint32_t seq = 0;    ///< instruction sequence number
  std::int16_t phase = 0;   ///< mini-app phase (0 = outside)
  sim::InstrKind kind{};    ///< instruction class
  std::int32_t vl = 0;      ///< vector length (0 for scalar/vconfig)
  float cycles = 0.0f;      ///< modelled execution cycles
};

class VehaveTrace final : public sim::InstrObserver {
 public:
  /// @param capacity maximum retained records; further records are counted
  ///        but dropped (`dropped()`), keeping memory bounded on big runs.
  explicit VehaveTrace(std::size_t capacity = 1u << 20)
      : capacity_(capacity) {
    records_.reserve(capacity_ < 4096 ? capacity_ : 4096);
  }

  /// Records VPU instructions only (Vehave's behaviour); scalar ones just
  /// advance the sequence number.
  void on_instr(int phase, sim::InstrKind kind, int vl,
                double cycles) override {
    ++seq_;
    if (sim::is_vector(kind)) {
      if (records_.size() < capacity_) {
        records_.push_back(TraceRecord{seq_, static_cast<std::int16_t>(phase),
                                       kind, vl,
                                       static_cast<float>(cycles)});
      } else {
        ++dropped_;
      }
    }
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  std::uint64_t dropped() const { return dropped_; }

  void clear() {
    records_.clear();
    dropped_ = 0;
    seq_ = 0;
  }

  /// Average vector length over recorded vector instructions, optionally
  /// restricted to one phase (phase < 0 means all phases).
  double avl(int phase = -1) const;

  /// Number of recorded vector instructions of a given kind / phase.
  std::uint64_t count(sim::InstrKind kind, int phase = -1) const;

 private:
  std::size_t capacity_;
  std::vector<TraceRecord> records_;
  std::uint64_t dropped_ = 0;
  std::uint32_t seq_ = 0;
};

}  // namespace vecfd::trace
