#pragma once
// Scenario-driven throughput benchmark — the repo's recorded perf
// trajectory.
//
// Each preset composes a workload scenario (protocol × topology × weights ×
// arrivals) at production scale (full set: n up to 10^6, m up to 10^7) and
// drives the engine through engine::drive — batch engines built by the same
// builder Scenario::run uses, churn in measure mode — measuring rounds/sec,
// migrations/sec, per-phase wall-clock (util::Timer) and — the number the
// O(active) round core is judged by — the ratio between the cost of round 1
// (everything overloaded, everything moving) and the near-balanced tail
// rounds. With O(n)-per-round engines that ratio is ~1; with incremental
// overloaded-set tracking it is orders of magnitude. Round times bracket
// step() alone: a timing observer wraps every other observer.
//
// Output is a util::Json report. All counter fields (rounds, migrations,
// final state) are deterministic in the seed; wall-clock fields can be
// omitted (include_timings = false), leaving a byte-identical report across
// runs — the property CI's determinism smoke test checks. The committed
// BENCH_perf.json at the repo root is the growing trajectory: one entry per
// recorded baseline, timings included.

#include <cstdint>
#include <string>
#include <vector>

#include "tlb/graph/graph.hpp"

namespace tlb::obs {
class TraceWriter;
}  // namespace tlb::obs

namespace tlb::dsan {
class FingerprintObserver;
class StepProbe;
}  // namespace tlb::dsan

namespace tlb::workload {

/// The util::derive_seed streams every preset draws from, so the graph, the
/// churn class table and the task set plus round loop never alias (they
/// mirror the Scenario streams). Part of each preset's stream definition:
/// changing one changes every recorded counter and golden trace. The
/// values spell "perf g", "perf c" and "perf r".
inline constexpr std::uint64_t kPerfGraphStream = 0x70657266'67ULL;
inline constexpr std::uint64_t kPerfClassesStream = 0x70657266'63ULL;
inline constexpr std::uint64_t kPerfRunStream = 0x70657266'72ULL;

/// Above-average threshold slack shared by every preset (tlb_sim's default).
inline constexpr double kPerfEps = 0.25;

/// One benchmark configuration. `scenario` is any spec string
/// ScenarioSpec::parse accepts; batch specs run to balance (capped at
/// max_rounds), churn specs run warmup + measure rounds. Two special
/// scenarios: "arena:churn[:<weights>]" is a Balancer whose round evicts
/// random subsets from random resources and scatters them (remove_marked /
/// scatter on a SystemState, warmup + measure rounds) to benchmark the
/// mem::TaskArena's allocation behaviour under sustained churn, and
/// "baselines:suite[:<weights>]" drives the six baseline balancers back to
/// back over one task set.
struct PerfPreset {
  std::string name;          ///< stable identifier in the JSON report
  std::string scenario;      ///< workload spec string
  graph::Node n = 0;         ///< resources (family may round up)
  std::size_t load_factor = 8;  ///< batch: m = load_factor * n
  long max_rounds = 100000;  ///< batch safety cap
  long warmup = 200;         ///< churn: unrecorded rounds
  long measure = 400;        ///< churn: recorded rounds
  /// Engine-level phase-1 sampling threads (user-protocol family): 1 =
  /// inline, 0 = hardware concurrency. Never changes the deterministic
  /// counter fields — only wall-clock — so it lives outside the scenario
  /// identity and is reported only alongside the timing fields.
  std::size_t threads = 1;
};

/// Everything one preset run produced.
struct PerfResult {
  PerfPreset preset;
  graph::Node n = 0;         ///< actual resource count
  std::size_t m = 0;         ///< tasks (batch) or final population (churn)
  long rounds = 0;           ///< timed rounds executed
  std::uint64_t migrations = 0;
  bool balanced = false;
  std::uint32_t final_overloaded = 0;

  // Wall-clock (excluded from deterministic reports).
  double setup_ms = 0.0;       ///< graph + tasks + engine construction
  double run_ms = 0.0;         ///< total time in the round loop
  double round1_ms = 0.0;      ///< cost of the first timed round
  double tail_avg_ms = 0.0;    ///< mean cost of the last (<=16) rounds
  double tail_speedup = 0.0;   ///< round1_ms / tail_avg_ms
  double rounds_per_sec = 0.0;
  double migrations_per_sec = 0.0;
  /// Per-phase breakdown from util::Timer (first-start order).
  std::vector<std::pair<std::string, double>> phases;

  // Observability (all empty unless the matching collection was requested;
  // a fresh obs::Registry / LoadStatsObserver is attached per preset).
  std::string metrics_json;         ///< deterministic counter snapshot
  std::string metrics_timing_json;  ///< wall-clock metric snapshot
  /// Deterministic per-round load-distribution snapshots (--analytics):
  /// one obs::LoadStatsObserver block per preset, an object of one block
  /// per baseline for "baselines:suite".
  std::string analytics_json;
};

/// Run-wide options of run_perf_set and run_perf_preset; each function
/// ignores the fields that belong to the other.
struct PerfOptions {
  std::string set = "smoke";  ///< run_perf_set: "smoke" | "full"
  std::string only;           ///< run_perf_set: one preset name, or all
  std::uint64_t seed = 42;    ///< master seed; all randomness derives from it
  /// run_perf_set: keep the wall-clock fields in the report (false makes
  /// the bytes a pure function of the presets and the seed).
  bool include_timings = true;
  /// run_perf_set: >= 0 overrides every preset's engine-level thread count
  /// (the --engine-threads flag); -1 keeps the preset values.
  long engine_threads = -1;
  /// A fresh obs::Registry per preset, snapshotted into
  /// PerfResult::metrics_json / metrics_timing_json.
  bool collect_metrics = false;
  obs::TraceWriter* trace = nullptr;  ///< per-phase spans (not owned)
  /// >= 1 attaches a fresh obs::LoadStatsObserver sampling every k-th
  /// round into PerfResult::analytics_json.
  long analytics_every = 0;
  /// run_perf_set: dsan golden trace to write / to check against (see
  /// dsan::TraceFiles); empty = off.
  std::string dsan_record;
  std::string dsan_check;
  /// run_perf_preset: determinism sanitizer (not owned, fresh per preset
  /// — the probe is stateful). The probe is wired into the preset's engine
  /// (user-protocol family; other engines ignore it) and the observer
  /// records one fingerprint row per measured round plus a final-state
  /// row.
  dsan::StepProbe* dsan_probe = nullptr;
  dsan::FingerprintObserver* dsan_obs = nullptr;
};

/// Production-scale presets (n up to 10^6, m up to 10^7; unit/zipf/bimodal/
/// uniform weights × batch/poisson arrivals; grouped, exact and resource
/// engines). Minutes of wall-clock; used to record BENCH_perf.json.
const std::vector<PerfPreset>& perf_presets();

/// CI-sized presets (same shapes, n <= 4096). Seconds of wall-clock.
const std::vector<PerfPreset>& perf_smoke_presets();

/// Run one preset. All randomness derives from `opt.seed`; counters are
/// deterministic in (preset, seed). Metrics, trace spans, analytics and
/// dsan attach per `opt`; none of them changes any counter field
/// (observers never draw from the RNG), and the observer hooks run outside
/// the per-round stopwatch so the recorded round times stay clean. Every
/// preset, arena churn and the baseline suite included, is a drive of a
/// Balancer, so every preset yields analytics and fingerprint rows.
PerfResult run_perf_preset(const PerfPreset& preset, const PerfOptions& opt);

/// Resolve `opt.set`, run every preset in it (or just `opt.only`), with
/// progress on stderr, and return the suite JSON (the driver behind
/// bench/perf_suite). The deterministic metrics block is emitted under a
/// "metrics" key per preset (additive-only), the timing block under
/// "metrics_timing" only when include_timings is also set, and the
/// load-distribution snapshots under an "analytics" key (additive-only,
/// deterministic — byte-identical across engine-thread counts).
/// `dsan_record` writes a dsan golden trace — one section of per-round
/// fingerprints per preset — and `dsan_check` compares the same structure
/// against the golden at that path, throwing std::runtime_error naming the
/// first divergent (section, round) on mismatch. Both paths are validated
/// before the first preset runs. The trace obeys the same --timings=false
/// discipline as the report, so a trace recorded at one engine-thread
/// count must check clean at every other. Throws std::invalid_argument on
/// an unknown set or no match.
std::string run_perf_set(const PerfOptions& opt);

/// Serialise a suite run. include_timings = false omits every wall-clock
/// field, making the bytes a pure function of (presets, seed).
std::string perf_suite_json(const std::vector<PerfResult>& results,
                            std::uint64_t seed, bool include_timings);

/// Append `{"label": ..., "set": ..., "report": <report_json>}` to the JSON
/// array in the file at `path` (created if missing or empty), preserving
/// the existing entries — the mechanics behind `--append=BENCH_perf.json`,
/// so trajectory entries land in the file without hand-editing JSON.
/// Throws std::runtime_error if the file exists but is not a JSON array.
void append_bench_entry(const std::string& path, const std::string& label,
                        const std::string& set,
                        const std::string& report_json);

/// Throw std::runtime_error unless the file at `path` is missing, empty or
/// a JSON array: append_bench_entry's precondition, checked before a long
/// run instead of after it.
void check_bench_file(const std::string& path);

}  // namespace tlb::workload
