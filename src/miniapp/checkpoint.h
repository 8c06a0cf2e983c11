// vecfd::miniapp — versioned, CRC-guarded TimeLoop checkpoint/restart.
//
// ROADMAP item 2 wants campaigns to behave like a long-lived service, and
// a service must be able to snapshot a transient run mid-flight and replay
// it after a crash BIT-IDENTICALLY — fields, residual histories and every
// registered counter.  The numerics side is free: the cache model is
// tag-only (contents are always exact, mem/cache.h), so fields and Krylov
// histories never depend on machine state.  The counters are the hard
// part: they depend on cache warmth and on the canonical first-touch line
// renaming of mem/memory_hierarchy.h, which a fresh process cannot
// reproduce mid-stream.  The protocol therefore makes checkpointing a
// MEASURED EVENT with epoch semantics (DESIGN.md §10):
//
//   * with TimeLoopConfig::checkpoint_every = N, every N-th step boundary
//     captures the accumulated state below and then FLUSHES every memory
//     hierarchy (coordinator and shard Vpus alike) — caches invalidated,
//     canonical map forgotten;
//   * each epoch hence starts cold with an empty canonical map, so its
//     counter stream is a pure function of the (bit-identical) fields and
//     the config — a restarted process reproduces it exactly;
//   * checkpoint_every = 0 (the default) touches nothing: the historic
//     instruction stream, golden CSVs and BENCH baselines are bit-for-bit
//     unchanged.
//
// The serialized state is TimeLoopCheckpoint itself: serialize_state() and
// deserialize_state() read it through a structured binding that names
// every field, as timeloop_config_hash() reads the config structs.  A
// field added to the struct fails to compile in both functions until each
// binds it, so it cannot silently skip one direction and corrupt restarts.
//
// File format: an 8-byte magic+version header, the payload byte count, a
// CRC-32 of the payload, then the payload.  save_checkpoint() writes
// `<path>.tmp` and renames — an interrupted writer never leaves a
// truncated file under the real name, and `vecfd-run --resume` rejects
// leftover `.tmp` files loudly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "miniapp/time_loop.h"
#include "sim/counters.h"
#include "sim/machine_config.h"

namespace vecfd::miniapp {

/// Full resumable TimeLoop state at an epoch boundary: both time levels of
/// the fields, the step cursor, every StepReport produced so far (with
/// residual histories), and the accumulated counters of ALL Vpus
/// (coordinator + shards, total and per phase).
struct TimeLoopCheckpoint {
  /// FNV-1a digest of the (scenario, mesh, config, machine) tuple that
  /// wrote the checkpoint (timeloop_config_hash).  restore() refuses a
  /// mismatch: resuming under different knobs would break the bit-identity
  /// contract silently.
  std::uint64_t config_hash = 0;
  std::int64_t next_step = 0;  ///< first step the resumed run executes
  double time = 0.0;           ///< simulated time at the boundary
  std::vector<double> unknowns;      ///< [node][kDofs], current level
  std::vector<double> unknowns_old;  ///< [node][kDofs], previous level
  std::vector<StepReport> step_reports;  ///< steps [0, next_step)
  sim::Counters total_counters;          ///< Σ all Vpus, run so far
  /// Per-phase counters 0..kNumInstrumentedPhases, Σ all Vpus.
  std::vector<sim::Counters> phase_counters;
  bool all_converged = true;
  /// Accumulated phase-10 critical-path cycles (ShardedCg makespan carry;
  /// the legacy path re-derives it from phase_counters).
  double pressure_makespan_cycles = 0.0;
};

/// On-disk format version (the byte after the magic).  Bump on any payload
/// layout change; load_checkpoint rejects other versions by name.
inline constexpr std::uint8_t kCheckpointVersion = 1;

/// Serialize @p c to the versioned payload (header excluded).  Every
/// field, in declaration order; appending fields keeps old readers failing
/// cleanly on the version byte rather than misparsing.
std::vector<std::uint8_t> serialize_state(const TimeLoopCheckpoint& c);

/// Inverse of serialize_state.
/// @throws std::runtime_error on truncated payloads or a counter-registry
/// shape mismatch (a checkpoint from a different registry generation).
TimeLoopCheckpoint deserialize_state(const std::vector<std::uint8_t>& buf);

/// Write @p c to @p path atomically: serialize, frame with magic/version/
/// size/CRC-32, write `<path>.tmp`, rename.  @throws std::runtime_error on
/// I/O failure (the `.tmp` is removed best-effort).
void save_checkpoint(const std::string& path, const TimeLoopCheckpoint& c);

/// Read and verify a checkpoint file: magic, version, payload size and
/// CRC-32 must all match before deserialize_state runs.
/// @throws std::runtime_error naming the failure (missing file, foreign
/// magic, version skew, truncation, CRC mismatch).
TimeLoopCheckpoint load_checkpoint(const std::string& path);

/// CRC-32 (IEEE 802.3, reflected) of @p data — the checkpoint frame
/// integrity check, exposed for tests.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

/// FNV-1a digest of the configuration a checkpoint was written under:
///   * the scenario, by name only (its physics and fields are not hashed);
///   * every MeshConfig field (shape, lengths, distortion, numbering);
///   * every TimeLoopConfig field, with both SolveOptions and their
///     PrecondOptions, including checkpoint_every (the epoch cadence
///     changes the counter stream);
///   * every MachineConfig field, with its HierarchyConfig and both
///     CacheConfigs.
/// Three fields are skipped, each with its reason in the source: the
/// one-shot TimeLoopConfig::fault, SolveOptions::inject_breakdown (set per
/// solve from the fault) and PrecondOptions::aggregates (built by the loop
/// from the mesh).  Each struct is read through a structured binding that
/// names all its fields, so a new field fails to compile until it is
/// hashed or skipped.  Campaign code computes the digest once per point and
/// threads it through save/restore opaquely.
std::uint64_t timeloop_config_hash(const std::string& scenario_name,
                                   const fem::Mesh& mesh,
                                   const TimeLoopConfig& cfg,
                                   const sim::MachineConfig& machine);

}  // namespace vecfd::miniapp
