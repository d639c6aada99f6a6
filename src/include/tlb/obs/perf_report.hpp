#pragma once
// Perf-trajectory analysis behind the tlb_report CLI.
//
// BENCH_perf.json is a JSON array of {label, set, report} entries — one per
// recorded baseline of the perf suite. This module parses that trajectory
// and compares two entries (base vs head) preset by preset:
//
//  - Deterministic counters (n, m, rounds, migrations, balanced,
//    final_overloaded) must match *bit-identically*. They are compared as
//    the raw number text from the file (util::JsonValue::raw), so a report
//    that went through any double round-trip can never mask a drift. Any
//    difference on a shared preset is a counter drift; a preset present in
//    base but missing from head is a coverage regression. Both fail the
//    gate when GateOptions::counters is set.
//
//  - Wall-clock throughput (migrations_per_sec) is compared against a
//    configurable noise threshold: head < base * (1 - wall_threshold) on a
//    preset where both entries carry timings marks a wall regression.
//    Wall-clock is inherently noisy — the default threshold is generous,
//    and --no-wall disables the check entirely (e.g. when comparing runs
//    from different machines).
//
//  - A declared re-baseline: an entry may carry
//    "rebaseline": {"presets": [...], "reason": "..."} when it changes some
//    presets' counters on purpose (a sampler with the same law but a new
//    stream). When that entry is the head, counter drift on a listed preset
//    is reported as REBASELINED with the reason and does not fail the gate.
//    Drift on any preset not listed still fails, and so do a listed preset
//    that did not drift and a missing or empty reason.
//
// evaluate_gate never throws on content (only the parser throws on broken
// JSON); missing timings simply skip the wall check for that preset, so
// deterministic-only entries (--timings=false) gate on counters alone.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tlb::obs {

/// One preset's record from a trajectory entry. Counter fields hold the
/// exact number text from the file; empty means the key was absent.
struct PresetRecord {
  std::string name;
  std::string scenario;
  /// (field name, raw text) for every deterministic counter, in report
  /// order — n, m, rounds, migrations, balanced, final_overloaded.
  std::vector<std::pair<std::string, std::string>> counters;
  bool has_timings = false;       ///< wall-clock fields present
  double run_ms = 0.0;
  double migrations_per_sec = 0.0;
  double rounds_per_sec = 0.0;
  double tail_speedup = 0.0;
};

/// An entry's declared counter changes: the presets whose counters it
/// changes on purpose, and why.
struct Rebaseline {
  std::vector<std::string> presets;
  std::string reason;
};

/// One {label, set, report} element of the trajectory array.
struct TrajectoryEntry {
  std::string label;
  std::string set;
  std::uint64_t seed = 0;
  bool deterministic = false;  ///< report emitted with --timings=false
  std::vector<PresetRecord> presets;
  std::optional<Rebaseline> rebaseline;  ///< the entry's "rebaseline" field

  /// Pointer into `presets` by name, nullptr when absent.
  const PresetRecord* find(const std::string& name) const;
};

/// Parse the full BENCH_perf.json text. Throws util::JsonParseError on
/// malformed JSON and std::runtime_error on a structurally wrong document
/// (not an array, entry without label/report, ...).
std::vector<TrajectoryEntry> parse_trajectory(const std::string& text);

/// One bit-level counter difference on a shared preset.
struct CounterDrift {
  std::string field;
  std::string base;  ///< raw text in the base entry
  std::string head;  ///< raw text in the head entry
};

/// Per-preset comparison of base vs head.
struct PresetDelta {
  std::string name;
  bool in_base = false;
  bool in_head = false;
  std::vector<CounterDrift> drifts;  ///< empty = counters bit-identical
  bool rebaselined = false;  ///< drifts declared by the head's rebaseline
  bool has_wall = false;  ///< both sides carry timings
  double base_mps = 0.0;  ///< migrations/sec
  double head_mps = 0.0;
  double wall_ratio = 0.0;      ///< head_mps / base_mps
  bool wall_regressed = false;  ///< ratio below 1 - wall_threshold
};

/// What the gate enforces.
struct GateOptions {
  /// Allowed fractional throughput drop before a wall regression fires
  /// (0.25 = head may be up to 25% slower than base).
  double wall_threshold = 0.25;
  bool counters = true;  ///< fail on counter drift / missing preset
  bool wall = true;      ///< fail on wall regression
};

/// Full comparison outcome; ok() is the gate verdict under `options`.
struct GateReport {
  std::string base_label;
  std::string head_label;
  GateOptions options;
  std::vector<PresetDelta> deltas;  ///< union of preset names, base order
  std::size_t shared = 0;           ///< presets present in both entries
  std::size_t counter_drifts = 0;   ///< undeclared drifts (shared presets)
  std::size_t missing_in_head = 0;  ///< base presets absent from head
  std::size_t wall_regressions = 0;
  /// The head entry's rebaseline, if it declares one.
  std::optional<Rebaseline> rebaseline;
  std::size_t rebaselined = 0;  ///< declared drifts, not failures
  /// Presets the rebaseline lists that did not drift against base.
  std::vector<std::string> undrifted_rebaseline;

  /// A declared rebaseline holds: it gives a reason and every preset it
  /// lists drifted. True when none is declared.
  bool rebaseline_ok() const;
  bool counters_ok() const {
    return counter_drifts == 0 && missing_in_head == 0 && shared > 0 &&
           rebaseline_ok();
  }
  bool wall_ok() const { return wall_regressions == 0; }
  bool ok() const {
    return (!options.counters || counters_ok()) &&
           (!options.wall || wall_ok());
  }
};

/// Compare two trajectory entries preset by preset (see file comment for
/// the exact semantics). Pure function of its inputs.
GateReport evaluate_gate(const TrajectoryEntry& base,
                         const TrajectoryEntry& head,
                         const GateOptions& options);

/// Human-facing markdown: verdict, per-preset table (counters + wall
/// ratio), and a drift detail section when anything failed.
std::string render_markdown(const GateReport& report);

/// Machine-facing JSON mirror of GateReport (util::Json bytes).
std::string render_json(const GateReport& report);

}  // namespace tlb::obs
