#include "tlb/workload/perf_suite.hpp"

// tlb-lint: allow-file(D4): progress lines and --append confirmations go to
// stderr so they interleave with long runs; the JSON report itself is
// returned as a string and printed by the apps/bench drivers.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "batch_engine.hpp"
#include "tlb/core/dynamic.hpp"
#include "tlb/core/potential.hpp"
#include "tlb/core/system_state.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/dsan/observer.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/trace.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/engine/observer.hpp"
#include "tlb/obs/analytics.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/sim/config.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/json.hpp"
#include "tlb/util/timer.hpp"
#include "tlb/workload/arrival.hpp"
#include "tlb/workload/scenario.hpp"
#include "tlb/workload/weight_models.hpp"

namespace tlb::workload {

namespace {

/// Times each measured round's step() for the report. It wraps the
/// preset's observers: its start stamp follows their on_round hooks and its
/// stop stamp precedes their on_round_end hooks, so observation never lands
/// in a round time. With `rounds_phase` it also opens that timer's "rounds"
/// phase at the first measured round, which is where a measure-mode
/// drive's unobserved warm-up ends.
class StepTimer final : public engine::RoundObserver {
 public:
  StepTimer(engine::RoundObserver* inner, std::vector<double>& round_ms,
            util::Timer* rounds_phase)
      : inner_(inner), round_ms_(round_ms), rounds_phase_(rounds_phase) {}

  void on_round(const engine::BalancerView& view, long round) override {
    if (round == 0 && rounds_phase_ != nullptr) rounds_phase_->start("rounds");
    if (inner_ != nullptr) inner_->on_round(view, round);
    watch_.reset();
  }
  void on_round_end(const engine::BalancerView& view, long round,
                    std::size_t migrations) override {
    round_ms_.push_back(watch_.elapsed_ms());
    if (inner_ != nullptr) inner_->on_round_end(view, round, migrations);
  }
  void on_finish(const engine::BalancerView& view) override {
    if (inner_ != nullptr) inner_->on_finish(view);
  }

 private:
  engine::RoundObserver* inner_;
  std::vector<double>& round_ms_;
  util::Timer* rounds_phase_;
  util::Stopwatch watch_;
};

/// engine::drive with the preset's observers — analytics, then dsan, both
/// optional — behind a StepTimer appending to `round_ms`.
template <engine::Balancer B>
core::RunResult timed_drive(B& balancer, util::Rng& rng,
                            const engine::DriveOptions& opt,
                            std::optional<obs::LoadStatsObserver>& analytics,
                            dsan::FingerprintObserver* dsan_obs,
                            std::vector<double>& round_ms,
                            util::Timer* rounds_phase = nullptr) {
  engine::ObserverList observers;
  if (analytics) observers.add(&*analytics);
  if (dsan_obs != nullptr) observers.add(dsan_obs);
  StepTimer timer(observers.or_null(), round_ms, rounds_phase);
  return engine::drive(balancer, rng, opt, &timer);
}

/// Derive round1/tail/throughput numbers from the per-round times.
void finish_timing(const std::vector<double>& round_ms, PerfResult& out) {
  if (round_ms.empty()) return;
  out.round1_ms = round_ms.front();
  // Tail window never includes round 1 (it is the thing the tail is
  // compared against); a one-round run reports speedup 1 by definition.
  const std::size_t tail =
      std::min<std::size_t>(16, round_ms.size() - 1);
  if (tail == 0) {
    out.tail_avg_ms = out.round1_ms;
    out.tail_speedup = 1.0;
  } else {
    double tail_sum = 0.0;
    for (std::size_t i = round_ms.size() - tail; i < round_ms.size(); ++i) {
      tail_sum += round_ms[i];
    }
    out.tail_avg_ms = tail_sum / static_cast<double>(tail);
    out.tail_speedup =
        out.tail_avg_ms > 0.0 ? out.round1_ms / out.tail_avg_ms : 0.0;
  }
  double total = 0.0;
  for (double t : round_ms) total += t;
  if (total > 0.0) {
    out.rounds_per_sec = static_cast<double>(out.rounds) * 1e3 / total;
    out.migrations_per_sec =
        static_cast<double>(out.migrations) * 1e3 / total;
  }
}

/// The optional weight-model component of "<prefix>:<weights>" ("unit"
/// when absent), e.g. "arena:churn:uniform(8)".
std::string weights_after(const std::string& scenario,
                          const std::string& prefix) {
  return scenario.size() > prefix.size() ? scenario.substr(prefix.size())
                                         : "unit";
}

/// Optional per-preset analytics observer.
std::optional<obs::LoadStatsObserver> make_analytics(const PerfOptions& opt) {
  std::optional<obs::LoadStatsObserver> analytics;
  if (opt.analytics_every > 0) analytics.emplace(opt.analytics_every);
  return analytics;
}

void run_batch_preset(const ScenarioSpec& spec, const PerfPreset& preset,
                      const PerfOptions& opt, obs::Registry* registry,
                      util::Timer& timer, PerfResult& out) {
  timer.start("setup");
  std::optional<obs::LoadStatsObserver> analytics = make_analytics(opt);
  sim::GraphSpec gspec;
  gspec.family = spec.family;
  gspec.n = preset.n;
  // Only the graph-walking protocols get a real topology: materialising
  // K_n at n = 10^6 would need ~4TB of edges.
  graph::Graph g;
  BatchEngineInputs in;
  in.n = preset.n;
  in.graph = &g;
  in.walk = gspec.recommended_walk();
  if (walks_graph(spec.protocol)) {
    util::Rng graph_rng(util::derive_seed(opt.seed, kPerfGraphStream));
    g = gspec.build(graph_rng);
    in.n = g.num_nodes();
  }
  const std::size_t m = preset.load_factor * static_cast<std::size_t>(in.n);
  util::Rng rng(util::derive_seed(opt.seed, kPerfRunStream));
  const tasks::TaskSet ts = parse_weight_model(spec.weights)->make(m, rng);
  in.tasks = &ts;
  in.threshold = core::threshold_value(core::ThresholdKind::kAboveAverage,
                                       ts, in.n, kPerfEps);
  in.options.threads = preset.threads;
  in.options.registry = registry;
  in.options.trace = opt.trace;
  in.options.dsan = opt.dsan_probe;
  out.n = in.n;
  out.m = m;

  // The loop-level sinks stay off: the engines report through their
  // configs, and the report never carried drive.* metrics.
  engine::DriveOptions drive_opt;
  drive_opt.max_rounds = preset.max_rounds;
  std::vector<double> round_ms;
  with_batch_engine(spec, in, [&](auto& balancer) {
    // Allocator baselines start with every ball unplaced: no place phase.
    if constexpr (StartsFromPlacement<decltype(balancer)>) {
      timer.start("place");
      balancer.reset(tasks::all_on_one(ts));
    }
    timer.start("rounds");
    const core::RunResult r = timed_drive(balancer, rng, drive_opt, analytics,
                                          opt.dsan_obs, round_ms);
    timer.start("finish");
    out.rounds = r.rounds;
    out.migrations = r.migrations;
    out.balanced = r.balanced;
    out.final_overloaded = balancer.overloaded_count();
  });
  timer.stop();
  if (analytics) out.analytics_json = analytics->json();
  finish_timing(round_ms, out);
}

/// Synthetic arena churn (scenario "arena:churn[:<weights>]") as a
/// Balancer: every round evicts random subsets from ~n/64 random resources
/// through SystemState::remove_marked and scatters the movers to uniform
/// destinations with SystemState::scatter — the mutation mix the protocol
/// engines apply, but at a fixed rate, so the mem::TaskArena's allocation
/// behaviour (span relocations, compactions, slab growth) under sustained
/// churn is a recorded point on the perf trajectory instead of an
/// assumption. state() makes it observable like the SystemState-backed
/// engines (analytics, dsan); its potential is the user protocol's Φ.
class ArenaChurn {
 public:
  ArenaChurn(const tasks::TaskSet& ts, graph::Node n, double threshold)
      : state_(ts, n, threshold, "ArenaChurn"),
        victims_per_round_(std::max<graph::Node>(1, n / 64)) {}

  /// Initial placement, without acceptance bookkeeping.
  void place(const tasks::Placement& start) {
    state_.place(start);
  }

  /// One churn round; returns the number of tasks moved.
  std::size_t step(util::Rng& rng) {
    const graph::Node n = state_.num_resources();
    movers_.clear();
    for (graph::Node k = 0; k < victims_per_round_; ++k) {
      const auto r = static_cast<graph::Node>(rng.uniform_below(n));
      const std::size_t count = state_.arena().count(r);
      if (count == 0) continue;
      leave_.assign(count, 0);
      bool any = false;
      for (auto& bit : leave_) {
        if (rng.bernoulli(0.5)) {
          bit = 1;
          any = true;
        }
      }
      if (!any) continue;
      state_.remove_marked(r, leave_, movers_);
    }
    dst_.resize(movers_.size());
    for (graph::Node& d : dst_) {
      d = static_cast<graph::Node>(rng.uniform_below(n));
    }
    state_.scatter(dst_, movers_);
    return movers_.size();
  }

  [[nodiscard]] bool balanced() const { return state_.balanced(); }
  [[nodiscard]] std::uint32_t overloaded_count() const {
    return static_cast<std::uint32_t>(state_.overloaded_count());
  }
  [[nodiscard]] double max_load() const { return state_.max_load(); }
  [[nodiscard]] double potential() const {
    return core::user_potential(state_);
  }
  [[nodiscard]] double reported_threshold() const noexcept {
    return state_.thresholds().max();
  }
  void audit() const { state_.check_invariants(); }
  [[nodiscard]] const core::SystemState& state() const noexcept {
    return state_;
  }

 private:
  core::SystemState state_;
  graph::Node victims_per_round_;
  std::vector<std::uint8_t> leave_;  // per-round scratch
  std::vector<tasks::TaskId> movers_;
  std::vector<graph::Node> dst_;
};

void run_arena_churn_preset(const PerfPreset& preset, const PerfOptions& opt,
                            util::Timer& timer, PerfResult& out) {
  timer.start("setup");
  std::optional<obs::LoadStatsObserver> analytics = make_analytics(opt);
  const graph::Node n = preset.n;
  const std::size_t m = preset.load_factor * static_cast<std::size_t>(n);
  util::Rng rng(util::derive_seed(opt.seed, kPerfRunStream));
  const tasks::TaskSet ts =
      parse_weight_model(weights_after(preset.scenario, "arena:churn:"))
          ->make(m, rng);
  ArenaChurn arena(ts, n,
                   core::threshold_value(core::ThresholdKind::kAboveAverage,
                                         ts, n, kPerfEps));
  out.n = n;
  out.m = m;

  timer.start("place");
  arena.place(tasks::uniform_random(ts, n, rng));

  timer.start("warmup");
  engine::DriveOptions drive_opt;
  drive_opt.warmup = preset.warmup;
  drive_opt.measure = preset.measure;
  std::vector<double> round_ms;
  const core::RunResult r = timed_drive(arena, rng, drive_opt, analytics,
                                        opt.dsan_obs, round_ms, &timer);

  timer.start("finish");
  out.rounds = r.rounds;
  out.migrations = r.migrations;
  const core::SystemState& state = arena.state();
  out.final_overloaded = arena.overloaded_count();
  out.balanced = static_cast<double>(out.final_overloaded) <=
                 0.05 * static_cast<double>(n);
  std::fprintf(stderr,
               "perf_suite:   arena: %zu slots, %zu dead, "
               "%llu relocations, %llu compactions\n",
               state.arena().slab_size(), state.arena().dead_slots(),
               static_cast<unsigned long long>(state.arena().relocations()),
               static_cast<unsigned long long>(state.arena().compactions()));
  timer.stop();
  if (analytics) out.analytics_json = analytics->json();
  finish_timing(round_ms, out);
}

/// Composite baseline driver (scenario "baselines:suite[:<weights>]"): one
/// task set, one above-average threshold, all six baseline balancers built
/// by with_batch_engine and driven back to back — seqthresh, parthresh,
/// twochoice(2), onebeta(0.5), selfish (from the all-on-one start the paper
/// protocols use) and firstfit — with one timer phase per baseline. The
/// counters (rounds, migrations, balanced, final_overloaded) aggregate over
/// the whole suite and are deterministic in the seed, so the preset rides
/// the same byte-determinism CI checks as every other one.
void run_baselines_suite_preset(const PerfPreset& preset,
                                const PerfOptions& opt, util::Timer& timer,
                                PerfResult& out) {
  timer.start("setup");
  const graph::Node n = preset.n;
  const std::size_t m = preset.load_factor * static_cast<std::size_t>(n);
  util::Rng rng(util::derive_seed(opt.seed, kPerfRunStream));
  const tasks::TaskSet ts =
      parse_weight_model(weights_after(preset.scenario, "baselines:suite:"))
          ->make(m, rng);
  BatchEngineInputs in;
  in.tasks = &ts;
  in.n = n;
  in.threshold = core::threshold_value(core::ThresholdKind::kAboveAverage,
                                       ts, n, kPerfEps);
  out.n = n;
  out.m = m;
  out.balanced = true;

  std::vector<double> round_ms;
  // With --analytics the suite report carries one observer block per
  // baseline, keyed by the baseline name (a fresh observer per balancer so
  // the per-round rows never interleave across protocols). The six drives
  // share the one fingerprint observer: their rows (each ending with a
  // final-state row) concatenate in drive order, which is itself part of
  // the deterministic surface the trace pins.
  util::Json analytics_parts;
  for (const ProtocolKind kind :
       {ProtocolKind::kSeqThresh, ProtocolKind::kParThresh,
        ProtocolKind::kTwoChoice, ProtocolKind::kOneBeta,
        ProtocolKind::kSelfish, ProtocolKind::kFirstFit}) {
    ScenarioSpec spec;  // default twochoice(2) and onebeta(0.5)
    spec.protocol = kind;
    const char* const name = protocol_name(kind);
    timer.start(name);
    std::optional<obs::LoadStatsObserver> analytics = make_analytics(opt);
    engine::DriveOptions drive_opt;
    drive_opt.max_rounds = preset.max_rounds;
    if (kind == ProtocolKind::kSelfish) {
      // Selfish reallocation never stops migrating on its own and its
      // stochastic equilibrium can hover right at the threshold at large
      // n, so the suite bounds it separately instead of letting it burn
      // the whole preset.max_rounds budget; `balanced` honestly reports
      // whether it got under T within the window.
      constexpr long kSelfishRoundCap = 512;
      drive_opt.max_rounds = std::min(kSelfishRoundCap, preset.max_rounds);
    }
    with_batch_engine(spec, in, [&](auto& balancer) {
      if constexpr (StartsFromPlacement<decltype(balancer)>) {
        balancer.reset(tasks::all_on_one(ts));
      }
      const core::RunResult r = timed_drive(balancer, rng, drive_opt,
                                            analytics, opt.dsan_obs, round_ms);
      out.rounds += r.rounds;
      out.migrations += r.migrations;
      out.balanced = out.balanced && r.balanced;
      out.final_overloaded += balancer.overloaded_count();
    });
    if (analytics) analytics_parts.add_raw(name, analytics->json());
  }
  timer.stop();
  if (opt.analytics_every > 0) out.analytics_json = analytics_parts.str();
  for (double t : round_ms) out.run_ms += t;
  finish_timing(round_ms, out);
}

void run_churn_preset(const ScenarioSpec& spec, const PerfPreset& preset,
                      const PerfOptions& opt, obs::Registry* registry,
                      util::Timer& timer, PerfResult& out) {
  timer.start("setup");
  std::optional<obs::LoadStatsObserver> analytics = make_analytics(opt);
  auto model = parse_weight_model(spec.weights);
  auto process = parse_arrival_process(spec.arrivals);
  util::Rng class_rng(util::derive_seed(opt.seed, kPerfClassesStream));
  // Same config-assembly path as Scenario::run (process outlives engine).
  core::DynamicConfig cfg =
      make_dynamic_config(*model, *process, preset.n, kPerfEps,
                          /*alpha=*/1.0, preset.threads, class_rng);
  cfg.registry = registry;
  cfg.trace = opt.trace;
  cfg.dsan = opt.dsan_probe;
  core::DynamicUserEngine engine(cfg);
  util::Rng rng(util::derive_seed(opt.seed, kPerfRunStream));
  out.n = preset.n;

  // A bare drive, not DynamicUserEngine::run: the window aggregates that
  // run() attaches would add an overloaded flush and a max_load() to every
  // measured round, and the report measures the round alone.
  timer.start("warmup");
  engine::DriveOptions drive_opt;
  drive_opt.warmup = preset.warmup;
  drive_opt.measure = preset.measure;
  std::vector<double> round_ms;
  const core::RunResult r = timed_drive(engine, rng, drive_opt, analytics,
                                        opt.dsan_obs, round_ms, &timer);

  timer.start("finish");
  out.rounds = r.rounds;
  out.migrations = r.migrations;
  out.m = engine.population();
  out.final_overloaded = engine.overloaded_count();
  out.balanced = static_cast<double>(out.final_overloaded) <=
                 0.05 * static_cast<double>(preset.n);
  timer.stop();
  if (analytics) out.analytics_json = analytics->json();
  finish_timing(round_ms, out);
}

}  // namespace

const std::vector<PerfPreset>& perf_presets() {
  // n up to 10^6 and m up to 10^7, covering the grouped, exact and
  // resource engines and the churn path. max_rounds is a safety cap only —
  // every batch preset balances far below it.
  static const std::vector<PerfPreset> presets = {
      {"grouped-unit-1m", "user:complete:unit:batch", 1000000, 10, 100000,
       0, 0},
      {"exact-uniform-1m", "user:complete:uniform(8):batch", 1000000, 8,
       100000, 0, 0},
      {"grouped-zipf-256k", "user:complete:zipf(1.1,64):batch", 262144, 10,
       100000, 0, 0},
      {"resource-hypercube-256k", "resource:hypercube:bimodal(8,0.1):batch",
       262144, 8, 100000, 0, 0},
      {"churn-poisson-64k", "user:complete:bimodal(8,0.1):poisson(640,0.01)",
       65536, 0, 0, 300, 600},
      // Threshold-churn stressor: Poisson arrivals move W (and with it the
      // recomputed threshold) every round at n = 10^6 and touch ~20% of
      // the resources, so every threshold move takes the tracker's dense
      // path (one sweep over all n, no LoadIndex upkeep).
      {"threshold-churn-1m",
       "user:complete:bimodal(8,0.1):poisson(100000,0.01)", 1000000, 0, 0,
       100, 200},
      {"arena-churn-1m", "arena:churn:uniform(8)", 1000000, 8, 0, 12, 36},
      // Same workload as exact-uniform-1m with the phase-1 sampler on a
      // hardware-concurrency pool: the deterministic counters must match
      // that preset exactly (the counters are thread-invariant); only the
      // wall-clock fields may differ.
      {"parallel-1m", "user:complete:uniform(8):batch", 1000000, 8, 100000,
       0, 0, /*threads=*/0},
      // All six baseline protocols back to back over one 10^6-task set
      // (per-baseline timer phases); the related-work yardsticks ride the
      // same perf trajectory as the paper's engines.
      {"baselines-1m", "baselines:suite:uniform(8)", 125000, 8, 100000, 0,
       0},
  };
  return presets;
}

const std::vector<PerfPreset>& perf_smoke_presets() {
  static const std::vector<PerfPreset> presets = {
      {"smoke-grouped-unit", "user:complete:unit:batch", 4096, 10, 100000,
       0, 0},
      {"smoke-exact-uniform", "user:complete:uniform(8):batch", 4096, 8,
       100000, 0, 0},
      {"smoke-grouped-zipf", "user:complete:zipf(1.1,64):batch", 4096, 10,
       100000, 0, 0},
      {"smoke-resource-hypercube", "resource:hypercube:bimodal(8,0.1):batch",
       4096, 8, 100000, 0, 0},
      {"smoke-churn-poisson", "user:complete:bimodal(8,0.1):poisson(40,0.01)",
       4096, 0, 0, 100, 200},
      // Small-n copy of threshold-churn-1m (heavier per-resource arrival
      // rate, so the threshold moves every round): every move sweeps, which
      // keeps the tracker's dense path under the sanitizer jobs and gives
      // the metrics parity check non-zero dynamic.sweeps. The sanitizer
      // jobs reach the LoadIndex band path through smoke-churn-poisson.
      {"smoke-threshold-churn",
       "user:complete:bimodal(8,0.1):poisson(400,0.01)", 4096, 0, 0, 100,
       200},
      {"smoke-arena-churn", "arena:churn:uniform(8)", 4096, 8, 0, 20, 40},
      // Keeps the pooled phase-1 path under the sanitizer jobs (which run
      // the smoke set) even when no --engine-threads override is given.
      {"smoke-parallel-exact", "user:complete:uniform(8):batch", 4096, 8,
       100000, 0, 0, /*threads=*/2},
      {"smoke-baselines", "baselines:suite:uniform(8)", 4096, 8, 100000, 0,
       0},
  };
  return presets;
}

PerfResult run_perf_preset(const PerfPreset& preset, const PerfOptions& opt) {
  PerfResult out;
  out.preset = preset;
  // Fresh registry per preset so the snapshots do not aggregate across
  // presets; engines hold a raw pointer, so it outlives the runner calls.
  std::optional<obs::Registry> registry;
  if (opt.collect_metrics) registry.emplace();
  obs::Registry* const reg = registry ? &*registry : nullptr;
  util::Timer timer;
  // The baseline suite times one phase per balancer and sums its round
  // times into run_ms itself; every other preset has a "rounds" phase.
  const bool suite = preset.scenario.rfind("baselines:suite", 0) == 0;
  if (suite) {
    run_baselines_suite_preset(preset, opt, timer, out);
  } else if (preset.scenario.rfind("arena:churn", 0) == 0) {
    run_arena_churn_preset(preset, opt, timer, out);
  } else {
    const ScenarioSpec spec = resolve_scenario(preset.scenario);
    if (spec.is_churn()) {
      run_churn_preset(spec, preset, opt, reg, timer, out);
    } else {
      run_batch_preset(spec, preset, opt, reg, timer, out);
    }
  }
  out.phases = timer.phases();
  out.setup_ms = timer.ms("setup");
  if (!suite) out.run_ms = timer.ms("rounds");
  if (registry) {
    const obs::Snapshot snap = registry->snapshot();
    out.metrics_json = snap.json(obs::Snapshot::Part::kDeterministic);
    out.metrics_timing_json = snap.json(obs::Snapshot::Part::kTiming);
  }
  return out;
}

std::string run_perf_set(const PerfOptions& opt) {
  const std::vector<PerfPreset>* presets = nullptr;
  if (opt.set == "smoke") {
    presets = &perf_smoke_presets();
  } else if (opt.set == "full") {
    presets = &perf_presets();
  } else {
    throw std::invalid_argument("perf suite: unknown set '" + opt.set +
                                "' (want smoke | full)");
  }
  // Reads the golden and creates the record file now, so a bad path fails
  // before the first preset instead of after the last.
  const dsan::TraceFiles dsan_files(opt.dsan_record, opt.dsan_check);
  std::vector<PerfResult> results;
  std::vector<dsan::TraceSection> sections;
  for (PerfPreset preset : *presets) {
    if (!opt.only.empty() && preset.name != opt.only) continue;
    if (opt.engine_threads >= 0) {
      preset.threads = static_cast<std::size_t>(opt.engine_threads);
    }
    std::fprintf(stderr, "perf_suite: running %-26s (%s) ...\n",
                 preset.name.c_str(), preset.scenario.c_str());
    // Fresh sanitizer pair per preset: the probe is stateful (step counter,
    // draw slots), and a fresh observer keeps each trace section's rows
    // scoped to exactly one preset run.
    std::optional<dsan::StepProbe> probe;
    std::optional<dsan::FingerprintObserver> fp;
    PerfOptions preset_opt = opt;
    if (dsan_files.active()) {
      probe.emplace();
      fp.emplace(&*probe);
      preset_opt.dsan_probe = &*probe;
      preset_opt.dsan_obs = &*fp;
    }
    results.push_back(run_perf_preset(preset, preset_opt));
    if (fp) sections.push_back(dsan::make_section(preset.name, fp->rows()));
    const PerfResult& r = results.back();
    std::fprintf(stderr,
                 "perf_suite:   %ld rounds, %.1fms round1, %.3fms tail "
                 "(x%.0f), %.0f mig/s\n",
                 r.rounds, r.round1_ms, r.tail_avg_ms, r.tail_speedup,
                 r.migrations_per_sec);
  }
  if (results.empty()) {
    throw std::invalid_argument("perf suite: no preset named '" + opt.only +
                                "'");
  }
  dsan_files.finish(sections, opt.seed);
  if (!opt.dsan_record.empty()) {
    std::fprintf(stderr, "perf_suite: dsan trace recorded to %s\n",
                 opt.dsan_record.c_str());
  }
  if (!opt.dsan_check.empty()) {
    std::fprintf(stderr, "perf_suite: dsan check passed against %s\n",
                 opt.dsan_check.c_str());
  }
  return perf_suite_json(results, opt.seed, opt.include_timings);
}

std::string perf_suite_json(const std::vector<PerfResult>& results,
                            std::uint64_t seed, bool include_timings) {
  std::string presets = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PerfResult& r = results[i];
    util::Json j;
    j.add("name", r.preset.name)
        .add("scenario", r.preset.scenario)
        .add("n", static_cast<std::uint64_t>(r.n))
        .add("m", static_cast<std::uint64_t>(r.m))
        .add("rounds", static_cast<std::int64_t>(r.rounds))
        .add("migrations", r.migrations)
        .add("balanced", r.balanced)
        .add("final_overloaded", static_cast<std::uint64_t>(r.final_overloaded));
    // Additive-only: these keys appear only when the matching collection
    // was requested, and hold seed-pure values — byte-identical across
    // thread counts.
    if (!r.analytics_json.empty()) j.add_raw("analytics", r.analytics_json);
    if (!r.metrics_json.empty()) j.add_raw("metrics", r.metrics_json);
    if (include_timings) {
      // Reported with the wall-clock fields (and only there): the thread
      // count is a performance knob that cannot change the counters above,
      // so the deterministic report stays byte-identical across it.
      j.add("engine_threads",
            static_cast<std::uint64_t>(r.preset.threads))
          .add("setup_ms", r.setup_ms)
          .add("run_ms", r.run_ms)
          .add("round1_ms", r.round1_ms)
          .add("tail_avg_ms", r.tail_avg_ms)
          .add("tail_speedup", r.tail_speedup)
          .add("rounds_per_sec", r.rounds_per_sec)
          .add("migrations_per_sec", r.migrations_per_sec);
      util::Json phases;
      for (const auto& [name, ms] : r.phases) phases.add(name, ms);
      j.add_raw("phases", phases.str());
      if (!r.metrics_timing_json.empty()) {
        j.add_raw("metrics_timing", r.metrics_timing_json);
      }
    }
    if (i) presets += ",";
    presets += j.str();
  }
  presets += "]";

  util::Json root;
  root.add("suite", "perf")
      .add("seed", seed)
      .add("deterministic", !include_timings)
      .add_raw("presets", presets);
  return root.str();
}

namespace {

bool is_space(char c) {
  return c == '\n' || c == '\r' || c == ' ' || c == '\t';
}

/// The file at `path` with surrounding whitespace trimmed ("" when missing
/// or empty). Throws std::runtime_error unless that is "" or a JSON array
/// (the brackets are the first and last characters).
std::string read_bench_array(const std::string& path) {
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      content.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
  }
  // Trim both ends so the brackets are the first and last characters even
  // in hand-edited files.
  while (!content.empty() && is_space(content.back())) content.pop_back();
  std::size_t lead = 0;
  while (lead < content.size() && is_space(content[lead])) ++lead;
  content.erase(0, lead);
  if (!content.empty() && (content.front() != '[' || content.back() != ']')) {
    throw std::runtime_error("append_bench_entry: " + path +
                             " is not a JSON array");
  }
  return content;
}

}  // namespace

void check_bench_file(const std::string& path) {
  (void)read_bench_array(path);
}

void append_bench_entry(const std::string& path, const std::string& label,
                        const std::string& set,
                        const std::string& report_json) {
  util::Json entry;
  entry.add("label", label).add("set", set).add_raw("report", report_json);

  std::string content = read_bench_array(path);
  std::string merged;
  if (content.empty()) {
    merged = "[\n " + entry.str() + "\n]\n";
  } else {
    content.pop_back();  // drop the closing bracket
    while (!content.empty() && is_space(content.back())) content.pop_back();
    // An empty array ("[") gets no separating comma.
    merged = content;
    if (merged != "[") merged += ",";
    merged += "\n " + entry.str() + "\n]\n";
  }
  // Write-to-temp + rename so a crash or full disk mid-write cannot destroy
  // the committed trajectory file.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("append_bench_entry: cannot write " + tmp);
    }
    out << merged;
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("append_bench_entry: write to " + tmp +
                               " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("append_bench_entry: cannot rename " + tmp +
                             " to " + path);
  }
}

}  // namespace tlb::workload
