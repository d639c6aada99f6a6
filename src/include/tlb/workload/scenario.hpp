#pragma once
// Scenario composition: protocol × graph topology × weight model × arrival
// process, parsed from one spec string and run through sim::run_trials.
//
// Spec grammar (colon-separated, later fields optional):
//   <protocol>:<topology>[:<weights>[:<arrivals>]]
// e.g.
//   user:complete:twopoint(10,50)
//   resource:hypercube:pareto(2.5,64)
//   graphuser:regular:zipf(1.1,64):batch
//   mixed(0.5):torus:octaves(6)
//   user:complete:mix(1:0.9,8:0.1):poisson(20,0.02)
//
// Protocols: user (Algorithm 6.1, complete graph; grouped engine when the
// weight classes allow, exact otherwise), resource (Algorithm 5.1, any
// graph), graphuser (Algorithm 6.1 with one P-step per migration, any
// graph; the exact engine's graph constructor), mixed(beta) (the same
// engine at blend beta: resource with probability beta, else user). Churn
// arrivals (poisson/burst) currently require user:complete — they run the
// grouped dynamic engine with the weight model reduced to a class table.
//
// Baseline protocols (the engine::Balancer baselines of
// engine/baseline_balancers.hpp; all require the complete topology and
// batch arrivals): seqthresh ([5] retry-until-fits), parthresh ([4]
// synchronous propose/accept rounds), twochoice(d) ([9] greedy d-choice,
// default d = 2), onebeta(beta) ([11] (1+beta)-choice, default
// beta = 0.5), selfish ([12] threshold-free reallocation, stopped at the
// same threshold the paper's protocols use), firstfit (the centralized
// proper-assignment yardstick), e.g.
//   seqthresh:complete:uniform(8)
//   twochoice(2):complete:zipf(1.1,64)
//
// Determinism: every run derives all randomness from (seed, trial index)
// via util::derive_seed, and randomised graphs are built once from a
// dedicated stream — so results (and the JSON report) are identical
// regardless of the number of worker threads.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/sim/config.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/weights.hpp"

namespace tlb::workload {

class ArrivalProcess;

/// Which migration protocol a scenario runs. The first four are the
/// paper's engines; the rest are the related-work baselines, promoted to
/// first-class protocols through the engine::Balancer wrappers so they run
/// head-to-head with the paper's protocols from the same spec grammar.
enum class ProtocolKind {
  kUser,       ///< Algorithm 6.1 on the complete graph
  kResource,   ///< Algorithm 5.1 on an arbitrary graph
  kGraphUser,  ///< user-controlled, one P-step per migration (exact, β = 0)
  kMixed,      ///< blend: resource w.p. beta, user otherwise (exact engine)
  kSeqThresh,  ///< [5] sequential threshold allocation (retry until fits)
  kParThresh,  ///< [4] parallel threshold rounds (propose/accept/retry)
  kTwoChoice,  ///< [9] greedy d-choice sequential allocation
  kOneBeta,    ///< [11] (1+beta)-choice sequential allocation
  kSelfish,    ///< [12] threshold-free selfish reallocation rounds
  kFirstFit,   ///< centralized first-fit proper assignment (one round)
};

/// Canonical protocol name ("user", "resource", "graphuser", "mixed",
/// "seqthresh", "parthresh", "twochoice", "onebeta", "selfish",
/// "firstfit").
const char* protocol_name(ProtocolKind kind);

/// True iff `kind` is one of the comparison baselines (they run on the
/// complete bin model and reject churn arrivals).
bool is_baseline(ProtocolKind kind);

/// True iff `kind` walks its topology (resource, graphuser, mixed), so a
/// run needs the graph built. The user protocol's complete graph is built
/// into its engines, and the baselines run on the complete bin model.
bool walks_graph(ProtocolKind kind);

/// Parsed scenario spec. weights/arrivals are stored canonicalised (the
/// sub-model parsers round-trip them), so canonical() is stable.
struct ScenarioSpec {
  ProtocolKind protocol = ProtocolKind::kUser;
  double mixed_beta = 0.5;     ///< kMixed only
  int twochoice_d = 2;         ///< kTwoChoice only: candidate bins per ball
  double onebeta_beta = 0.5;   ///< kOneBeta only: uniform-throw probability
  sim::GraphFamily family = sim::GraphFamily::kComplete;
  std::string weights = "unit";
  std::string arrivals = "batch";

  /// Parse a spec string (grammar above). Throws std::invalid_argument with
  /// a message naming the offending field.
  static ScenarioSpec parse(const std::string& text);

  /// Canonical spec string; parse(canonical()) == *this.
  std::string canonical() const;

  /// True iff the arrival process is not the static batch.
  bool is_churn() const;
};

/// Size/tuning knobs that are not part of the scenario identity.
struct ScenarioParams {
  graph::Node n = 256;            ///< requested resources (family may round)
  std::size_t load_factor = 8;    ///< batch mode: m = load_factor * n
  double alpha = 1.0;             ///< user-side migration dampening
  double eps = 0.25;              ///< above-average threshold slack
  core::ThresholdKind threshold = core::ThresholdKind::kAboveAverage;
  long max_rounds = 2000000;      ///< batch mode round cap
  long warmup = 2000;             ///< churn mode unrecorded rounds
  long measure = 4000;            ///< churn mode recorded rounds
  graph::Node degree = 8;         ///< regular family degree
  /// Audit every round, warmup included: structural invariants plus
  /// incremental-overloaded-set == brute-force-rescan. Slow; for tests and
  /// debug runs. The round cap, window and audits reach the engines as one
  /// engine::DriveOptions.
  bool paranoid = false;
  /// Engine-level round threads for the user-protocol family (exact, which
  /// also runs graphuser and mixed; grouped; dynamic): 1 = inline,
  /// 0 = hardware concurrency.
  /// Orthogonal to the trial-level `threads` argument of Scenario::run, and
  /// — like it — never changes results (per-(round, shard) seeding).
  std::size_t engine_threads = 1;

  // --- Observability (optional, not owned, determinism-neutral) ---

  /// Metrics registry every trial's engine and driver report into (shared —
  /// the registry merges per-thread shards; counters aggregate over all
  /// trials). nullptr = detached, no timestamps taken anywhere.
  obs::Registry* registry = nullptr;
  /// Trace-event writer for per-phase spans across the run.
  obs::TraceWriter* trace = nullptr;
  /// Round observer attached to trial 0 only (per-round data for `trials`
  /// engines at once would interleave meaninglessly). Observers never draw
  /// from the RNG, so attaching one changes no results.
  engine::RoundObserver* round_observer = nullptr;
  /// Determinism-sanitizer step probe, attached to trial 0's engine only —
  /// the probe is stateful and trials run concurrently. Honoured by the
  /// user-protocol family (exact, which also runs graphuser and mixed;
  /// grouped; dynamic); the resource engine and the baselines ignore it
  /// (their fingerprints are state-only).
  dsan::StepProbe* dsan = nullptr;
};

/// Everything a run produced, ready for table or JSON emission.
struct ScenarioResult {
  ScenarioSpec spec;
  ScenarioParams params;
  graph::Node n = 0;    ///< actual node count after family rounding
  std::size_t m = 0;    ///< batch task count (0 in churn mode)
  std::size_t trials = 0;
  std::uint64_t seed = 0;
  sim::TrialStats stats;

  /// Deterministic JSON object. In churn mode `rounds` counts measured
  /// rounds per trial, `migrations` the migrations over the measured
  /// window, and `final_max_load` the mean max/avg load ratio.
  ///
  /// The optional raw-JSON blocks are appended as "metrics" (deterministic
  /// counters), "metrics_timing" (wall-clock metrics) and "analytics"
  /// (trial-0 per-round load-distribution snapshots from
  /// obs::LoadStatsObserver — deterministic) keys when non-empty —
  /// additive-only, so default output is byte-identical to a run with
  /// observability detached.
  [[nodiscard]] std::string json(const std::string& metrics_raw = "",
                   const std::string& metrics_timing_raw = "",
                   const std::string& analytics_raw = "") const;
};

/// A runnable scenario. Construction validates the spec/params combination
/// (e.g. churn requires user:complete) and parses the sub-models.
class Scenario {
 public:
  Scenario(ScenarioSpec spec, ScenarioParams params);
  ~Scenario();
  Scenario(Scenario&&) noexcept;
  Scenario& operator=(Scenario&&) noexcept;

  /// Run `trials` independent trials (threads == 0: hardware concurrency).
  /// Deterministic in (trials, seed) regardless of `threads`.
  ScenarioResult run(std::size_t trials, std::uint64_t seed,
                     std::size_t threads = 0) const;

  const ScenarioSpec& spec() const noexcept { return spec_; }
  const ScenarioParams& params() const noexcept { return params_; }

 private:
  ScenarioSpec spec_;
  ScenarioParams params_;
  std::unique_ptr<tasks::WeightModel> model_;
  std::unique_ptr<ArrivalProcess> process_;
};

/// A named preset in the registry.
struct NamedScenario {
  std::string name;
  std::string spec;
  std::string description;
};

/// Try to construct the grouped engine for (ts, n, cfg): nullopt when the
/// task set is not applicable or the constructor rejects it. The single
/// engine-selection policy — the batch engine builder behind Scenario::run
/// and the perf suite uses it, and so does run_user_trial, so benchmarks
/// always exercise the engine real scenario runs pick.
std::optional<core::GroupedUserEngine> try_grouped_user_engine(
    const tasks::TaskSet& ts, graph::Node n,
    const core::UserProtocolConfig& cfg);

/// Assemble the DynamicUserEngine config for a churn run: the weight model
/// reduced to a class table (randomness from `class_rng`) and the arrival
/// hook bound to `process`, which must outlive the engine. The single
/// config-assembly path shared by Scenario::run and the perf suite, so
/// benchmarks measure exactly the engine real churn scenarios build.
/// `threads` is the engine's phase-1 sampling thread count (see
/// ScenarioParams::engine_threads).
core::DynamicConfig make_dynamic_config(const tasks::WeightModel& model,
                                        const ArrivalProcess& process,
                                        graph::Node n, double eps,
                                        double alpha, std::size_t threads,
                                        util::Rng& class_rng);

/// Run one user-protocol trial from `start`, choosing the grouped engine
/// when the task set allows (it is hundreds of times faster) and the exact
/// per-task-coin engine otherwise — including when the grouped constructor
/// itself rejects the task set, so a weight model that overflows
/// kMaxClasses degrades to the exact engine instead of aborting the run.
/// Shared by the benches; `opt` carries the round cap.
core::RunResult run_user_trial(const tasks::TaskSet& ts, graph::Node n,
                               const core::UserProtocolConfig& cfg,
                               const tasks::Placement& start, util::Rng& rng,
                               const engine::DriveOptions& opt = {});

/// Built-in presets covering every protocol and the main weight families.
const std::vector<NamedScenario>& scenario_registry();

/// Resolve a --scenario argument: a registered preset name or a raw spec.
ScenarioSpec resolve_scenario(const std::string& arg);

}  // namespace tlb::workload
