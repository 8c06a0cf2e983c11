// vecfd_bench — end-to-end and per-layer benchmark of the vecfd toolkit.
//
// Shared declarations of the benchmark binary: the metric tables (the ONE
// list of names BENCHMARK.json is checked against), robust summaries of
// repeated host timings, the span recorder of the traced pass, and the
// workload interface the four workloads implement.  See README.md for the
// workloads, the metric definitions and how to run the passes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "miniapp/scenarios.h"
#include "miniapp/time_loop.h"
#include "sim/counters.h"
#include "sim/machine_config.h"

namespace vecfd::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- metric tables ------------------------------------------------------

enum class Better { kLower, kHigher };

inline const char* to_string(Better b) {
  return b == Better::kLower ? "lower" : "higher";
}

struct MetricDef {
  std::string name;
  std::string unit;
  Better better;
};

/// Metrics of the untraced pass (`--trace 0`), reported for every workload.
const std::vector<MetricDef>& end_to_end_metrics();

/// Metrics of the traced pass (`--trace 1`), reported for every workload.
/// The per-phase cycle names are generated from kNumInstrumentedPhases.
const std::vector<MetricDef>& per_layer_metrics();

/// Median and quartiles of repeated host timings.  The quartiles follow
/// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
/// a reader can reproduce them from the raw samples.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  int n = 0;
};

Summary summarize(std::vector<double> values);

/// One reported metric: a single modelled value (n == 0) or a summary of
/// host samples.
struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
  Summary host;  ///< host.n == 0 for a single (modelled) value
};

/// Collects the metrics of one pass, refusing names outside its table so
/// the emitted set cannot drift from the table the self-check compares
/// against BENCHMARK.json.
class MetricSink {
 public:
  explicit MetricSink(const std::vector<MetricDef>& table) : table_(&table) {}

  void put(const std::string& name, double value);
  void put(const std::string& name, const Summary& host);

  /// Table names not emitted yet.
  std::vector<std::string> missing() const;
  const std::vector<MetricValue>& values() const { return values_; }

 private:
  const MetricDef& def(const std::string& name) const;

  const std::vector<MetricDef>* table_;
  std::vector<MetricValue> values_;
};

// ---- spans ----------------------------------------------------------------

/// Spans of the traced pass, kept in memory and written at exit.  Every
/// span is opened and closed from the benchmark's own code around a call
/// into one layer; nothing inside the library is instrumented.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index into spans(), -1 for a root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
  };

  /// Open a span under the innermost open one; returns its index.
  int open(const std::string& name);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (s) of every closed span called @p name.
  std::vector<double> durations(const std::string& name) const;

  /// Write the spans as a JSON array tagged with @p workload; self_ns is
  /// the span's duration minus the durations of its direct children.
  void write_json(const std::string& path, const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), index_(rec.open(name)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

// ---- workloads ------------------------------------------------------------

/// What one repetition produced, derived after the timed run.
struct RepOutcome {
  double modelled_cycles = 0.0;
  /// Σ over phases ≠ 10 of the phase cycles plus the phase-10 critical
  /// path (the sharded makespan, or the serial phase-10 total).
  double critical_path_cycles = 0.0;
  std::uint64_t instrs = 0;  ///< modelled instructions, every Vpu of the rep
  sim::Counters total;               ///< counters behind modelled_cycles
  std::vector<sim::Counters> phase;  ///< 0..kNumInstrumentedPhases
  /// Registered counters of every simulated run of the repetition; each
  /// repetition must reproduce the first one's exactly.
  std::vector<sim::Counters> fingerprint;
  int attempted = 0;  ///< operations (runs, solves or campaign points)
  int failed = 0;
  int attempts = 0;  ///< campaign attempts, retries included
  int degraded = 0;  ///< campaign points that finished on a degraded rung
  std::string error;  ///< first failed correctness check; empty when correct
};

/// The layer configuration the traced pass rebuilds the workload's layers
/// from: mesh and scenario, machine, loop and assembly settings.
struct LayerConfig {
  miniapp::Scenario scenario;  ///< scenario.mesh is the workload's mesh
  sim::MachineConfig machine;
  miniapp::TimeLoopConfig loop;
  /// Assembly as the workload runs it: the explicit Figure 11 pass on the
  /// default State (assembly_paper) or the semi-implicit pass on the
  /// scenario's initial state (the time-loop workloads).
  bool transient = true;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every object of one repetition from scratch (timed: setup_s).
  virtual void setup() = 0;
  /// The measured run (timed: run_s).
  virtual void run() = 0;
  /// Derive the repetition's results and check them (untimed).
  virtual RepOutcome outcome() = 0;

  virtual LayerConfig layers() const = 0;
  /// Checkpoint files the last run wrote (none for most workloads).
  virtual std::vector<std::string> checkpoint_files() const { return {}; }
};

/// The workloads in run order (BENCHMARK.json says why each was chosen).
const std::vector<std::string>& workload_names();

/// @p scratch is a directory the workload may write into (campaign_ft's
/// checkpoints and CSV).  Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch);

/// campaign_ft's grid without faults or checkpoints, and its fan-out
/// width: the campaign the core probes of every workload run.
struct CleanCampaign {
  std::unique_ptr<core::Campaign> campaign;
  std::vector<core::CampaignPoint> points;  ///< grid order
  int jobs = 1;
};

CleanCampaign clean_campaign();

/// splitmix64: the benchmark's only random source, portable across
/// standard libraries so a seed names the same inputs everywhere.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---- traced pass ----------------------------------------------------------

/// Run the per-layer probes of @p w for about @p seconds, recording spans
/// into @p rec and per-layer metrics into @p sink.  @p e2e is the outcome
/// of the traced end-to-end repetition.  Probe solves count into
/// @p attempted / @p failed; a failed correctness check returns its text.
std::string run_layer_probes(Workload& w, const RepOutcome& e2e,
                             std::uint64_t seed, double seconds,
                             const std::string& scratch, SpanRecorder& rec,
                             MetricSink& sink, int& attempted, int& failed);

}  // namespace vecfd::bench
