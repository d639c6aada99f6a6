#pragma once
// Shared result/trace types for protocol runs.

#include <cstddef>
#include <cstdint>

namespace tlb::obs {
class Registry;
class TraceWriter;
}  // namespace tlb::obs

namespace tlb::dsan {
class StepProbe;
}  // namespace tlb::dsan

namespace tlb::core {

/// Outcome of one protocol execution (one trial).
struct RunResult {
  /// Rounds executed until balance (or until the cap if !balanced).
  long rounds = 0;
  /// True iff every load was <= threshold when the run stopped.
  bool balanced = false;
  /// Total task migrations over the whole run.
  std::uint64_t migrations = 0;
  /// Threshold in force.
  double threshold = 0.0;
  /// Maximum load at the end of the run.
  double final_max_load = 0.0;
};

/// Engine-construction knobs shared by the engines: worker threads and the
/// observability sinks. The loop's knobs (round cap, paranoid audits) are
/// engine::DriveOptions'; per-round traces are observers attached to
/// engine::drive (engine::PotentialTrace, OverloadedTrace, ...).
struct EngineOptions {
  /// Worker threads for the parallel phase-1 departure sampling in the
  /// user-protocol engines (exact / grouped / dynamic): 1 = sample on the
  /// calling thread, 0 = hardware concurrency, k = a pool of k workers.
  /// Results are bitwise identical for every value — sampling is sharded
  /// with per-(round, shard) RNG streams, so the thread count only decides
  /// who runs a shard, never what it computes.
  std::size_t threads = 1;

  // --- Observability (all optional, none owned, all determinism-neutral:
  // probes only read clocks) ---

  /// Metrics registry the engine reports its phase timers and work
  /// counters into. nullptr (the default) = fully detached: no handles
  /// registered, no timestamps taken.
  obs::Registry* registry = nullptr;
  /// Trace-event writer for per-phase spans (chrome://tracing). nullptr =
  /// no spans recorded.
  obs::TraceWriter* trace = nullptr;
  /// Determinism-sanitizer step probe (RNG draw accounting + phase
  /// sub-digests). nullptr = fully detached: the engines' probe hooks are
  /// single pointer tests. The probe is stateful and strictly
  /// single-engine: never share one instance across concurrent trials.
  dsan::StepProbe* dsan = nullptr;
};

}  // namespace tlb::core
