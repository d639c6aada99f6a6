#include "tlb/workload/perf_suite.hpp"

// tlb-lint: allow-file(D4): progress lines and --append confirmations go to
// stderr so they interleave with long runs; the JSON report itself is
// returned as a string and printed by the apps/bench drivers.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "tlb/baselines/selfish_realloc.hpp"
#include "tlb/core/dynamic.hpp"
#include "tlb/core/graph_user_protocol.hpp"
#include "tlb/core/mixed_protocol.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/threshold.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/dsan/observer.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/trace.hpp"
#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/engine/observer.hpp"
#include "tlb/obs/analytics.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/obs/trace_event.hpp"
#include "tlb/sim/config.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/timer.hpp"
#include "tlb/workload/arrival.hpp"
#include "tlb/workload/scenario.hpp"
#include "tlb/workload/weight_models.hpp"

namespace tlb::workload {

namespace {

/// Dedicated randomness streams so the perf suite's graph, class table and
/// round loop never alias (mirrors the Scenario streams).
constexpr std::uint64_t kPerfGraphStream = 0x70657266'67ULL;    // "perf g"
constexpr std::uint64_t kPerfClassesStream = 0x70657266'63ULL;  // "perf c"
constexpr std::uint64_t kPerfRunStream = 0x70657266'72ULL;      // "perf r"

/// Threshold slack shared by every preset (tlb_sim's default).
constexpr double kEps = 0.25;

/// Round loop shared by every batch engine: time each round, stop where
/// engine::drive would (done() for the one-shot baselines, balanced()
/// otherwise) or at the cap. Returns per-round wall-clock in ms. The
/// optional observer gets engine::drive's hook sequence (on_round /
/// on_round_end / on_finish), invoked outside the stopwatch so observation
/// cost never pollutes the recorded round times.
template <class Engine>
std::vector<double> drive_batch(Engine& engine, long max_rounds,
                                util::Rng& rng, PerfResult& out,
                                tlb::engine::RoundObserver* observer =
                                    nullptr) {
  std::vector<double> round_ms;
  tlb::engine::detail::ViewOf<Engine> view(engine);
  util::Stopwatch watch;
  while (!tlb::engine::is_done(engine) && out.rounds < max_rounds) {
    if (observer) observer->on_round(view, out.rounds);
    watch.reset();
    const std::size_t moved = engine.step(rng);
    round_ms.push_back(watch.elapsed_ms());
    out.migrations += moved;
    ++out.rounds;
    if (observer) observer->on_round_end(view, out.rounds - 1, moved);
  }
  out.balanced = engine.balanced();
  if (observer) observer->on_finish(view);
  return round_ms;
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

void run_batch_preset(const ScenarioSpec& spec, const PerfPreset& preset,
                      std::uint64_t seed, util::Timer& timer,
                      obs::Registry* registry, obs::TraceWriter* trace,
                      long analytics_every, dsan::StepProbe* dsan_probe,
                      dsan::FingerprintObserver* dsan_obs, PerfResult& out) {
  timer.start("setup");
  std::optional<obs::LoadStatsObserver> analytics;
  if (analytics_every > 0) analytics.emplace(analytics_every);
  sim::GraphSpec gspec;
  gspec.family = spec.family;
  gspec.n = preset.n;
  // The user protocol's complete-graph semantics are built into the engine
  // and the baselines run on the complete bin model; materialising K_n at
  // n = 10^6 would need ~4TB of edges. Only the graph-walking protocols
  // get a real topology.
  graph::Graph g;
  graph::Node n = preset.n;
  randomwalk::WalkKind walk = gspec.recommended_walk();
  if (spec.protocol != ProtocolKind::kUser && !is_baseline(spec.protocol)) {
    util::Rng graph_rng(util::derive_seed(seed, kPerfGraphStream));
    g = gspec.build(graph_rng);
    n = g.num_nodes();
  }
  const std::size_t m = preset.load_factor * static_cast<std::size_t>(n);
  util::Rng rng(util::derive_seed(seed, kPerfRunStream));
  const tasks::TaskSet ts = parse_weight_model(spec.weights)->make(m, rng);
  const double T = core::threshold_value(core::ThresholdKind::kAboveAverage,
                                         ts, n, kEps);
  // Only the migration protocols start from a placement; the allocator
  // baselines below start with every ball unplaced, so the O(m) vector is
  // built where it is consumed.
  const auto start = [&ts] { return tasks::all_on_one(ts); };
  out.n = n;
  out.m = m;

  // One timing scaffold for every engine type; `final_over` extracts the
  // end-state overloaded count (engine APIs differ).
  std::vector<double> round_ms;
  tlb::engine::ObserverList obs_list;
  if (analytics) obs_list.add(&*analytics);
  if (dsan_obs != nullptr) obs_list.add(dsan_obs);
  tlb::engine::RoundObserver* const obs_ptr = obs_list.or_null();
  const auto timed_drive = [&](auto& engine, auto&& final_over) {
    timer.start("place");
    engine.reset(start());
    timer.start("rounds");
    round_ms = drive_batch(engine, preset.max_rounds, rng, out, obs_ptr);
    timer.start("finish");
    out.final_overloaded = final_over(engine);
  };
  const auto state_over = [](const auto& engine) {
    return static_cast<std::uint32_t>(engine.state().overloaded_count());
  };
  // Baseline allocators: balls start unplaced, so there is no placement
  // phase to time.
  const auto timed_alloc = [&](auto& balancer) {
    timer.start("rounds");
    round_ms = drive_batch(balancer, preset.max_rounds, rng, out, obs_ptr);
    timer.start("finish");
    out.final_overloaded = balancer.overloaded_count();
  };

  switch (spec.protocol) {
    case ProtocolKind::kUser: {
      core::UserProtocolConfig cfg;
      cfg.threshold = T;
      cfg.options.max_rounds = preset.max_rounds;
      cfg.options.threads = preset.threads;
      cfg.options.registry = registry;
      cfg.options.trace = trace;
      cfg.options.dsan = dsan_probe;
      // Shared engine-selection policy (run_user_trial uses the same
      // helper), including the degrade-to-exact fallback.
      std::optional<core::GroupedUserEngine> grouped =
          try_grouped_user_engine(ts, n, cfg);
      if (grouped) {
        timed_drive(*grouped, [n](const core::GroupedUserEngine& engine) {
          std::uint32_t over = 0;
          for (graph::Node r = 0; r < n; ++r) {
            over += engine.load(r) > engine.threshold(r);
          }
          return over;
        });
      } else {
        core::UserControlledEngine engine(ts, n, cfg);
        timed_drive(engine, state_over);
      }
      break;
    }
    case ProtocolKind::kResource: {
      core::ResourceProtocolConfig cfg;
      cfg.threshold = T;
      cfg.walk = walk;
      cfg.options.max_rounds = preset.max_rounds;
      cfg.options.registry = registry;
      cfg.options.trace = trace;
      core::ResourceControlledEngine engine(g, ts, cfg);
      timed_drive(engine, state_over);
      break;
    }
    case ProtocolKind::kGraphUser: {
      core::GraphUserConfig cfg;
      cfg.threshold = T;
      cfg.walk = walk;
      cfg.options.max_rounds = preset.max_rounds;
      cfg.options.registry = registry;
      cfg.options.trace = trace;
      core::GraphUserEngine engine(g, ts, cfg);
      timed_drive(engine, state_over);
      break;
    }
    case ProtocolKind::kMixed: {
      core::MixedProtocolConfig cfg;
      cfg.threshold = T;
      cfg.resource_probability = spec.mixed_beta;
      cfg.walk = walk;
      cfg.options.max_rounds = preset.max_rounds;
      cfg.options.registry = registry;
      cfg.options.trace = trace;
      core::MixedProtocolEngine engine(g, ts, cfg);
      timed_drive(engine, state_over);
      break;
    }
    case ProtocolKind::kSeqThresh: {
      tlb::engine::SequentialThresholdBalancer balancer(ts, n, T);
      timed_alloc(balancer);
      break;
    }
    case ProtocolKind::kParThresh: {
      tlb::engine::ParallelThresholdBalancer balancer(ts, n, T);
      timed_alloc(balancer);
      break;
    }
    case ProtocolKind::kTwoChoice: {
      tlb::engine::GreedyChoiceBalancer balancer(ts, n, spec.twochoice_d, T);
      timed_alloc(balancer);
      break;
    }
    case ProtocolKind::kOneBeta: {
      tlb::engine::OnePlusBetaBalancer balancer(ts, n, spec.onebeta_beta, T);
      timed_alloc(balancer);
      break;
    }
    case ProtocolKind::kSelfish: {
      baselines::SelfishConfig cfg;
      cfg.stop_threshold = T;
      cfg.options.max_rounds = preset.max_rounds;
      cfg.options.registry = registry;
      cfg.options.trace = trace;
      baselines::SelfishReallocEngine engine(ts, n, cfg);
      timed_drive(engine, [](const baselines::SelfishReallocEngine& e) {
        return e.overloaded_count();
      });
      break;
    }
    case ProtocolKind::kFirstFit: {
      tlb::engine::FirstFitBalancer balancer(ts, n, T);
      timed_alloc(balancer);
      break;
    }
  }
  timer.stop();
  if (analytics) out.analytics_json = analytics->json();
  finish_timing(round_ms, out);
}

/// Synthetic arena-churn driver (scenario "arena:churn[:<weights>]"): after
/// a uniform-random bulk placement, every round evicts random subsets from
/// ~n/64 random resources through SystemState::remove_marked and scatters
/// the movers to uniform destinations with SystemState::scatter — exactly
/// the mutation mix the protocol engines apply, but at a fixed rate, so
/// the mem::TaskArena's allocation behaviour (span relocations,
/// compactions, slab growth) under sustained churn is a recorded point on
/// the perf trajectory instead of an assumption.
void run_arena_churn_preset(const PerfPreset& preset, std::uint64_t seed,
                            util::Timer& timer, PerfResult& out) {
  timer.start("setup");
  const graph::Node n = preset.n;
  const std::size_t m = preset.load_factor * static_cast<std::size_t>(n);
  // "arena:churn" optionally carries a weight-model spec as its third
  // component ("arena:churn:uniform(8)").
  std::string weights = "unit";
  const std::string prefix = "arena:churn:";
  if (preset.scenario.size() > prefix.size()) {
    weights = preset.scenario.substr(prefix.size());
  }
  util::Rng rng(util::derive_seed(seed, kPerfRunStream));
  const tasks::TaskSet ts = parse_weight_model(weights)->make(m, rng);
  const double T = core::threshold_value(core::ThresholdKind::kAboveAverage,
                                         ts, n, kEps);
  core::SystemState state(ts, n);
  state.set_thresholds(T);
  out.n = n;
  out.m = m;

  timer.start("place");
  const tasks::Placement start = tasks::uniform_random(ts, n, rng);
  state.place(start, /*threshold=*/-1.0);

  const graph::Node victims_per_round =
      std::max<graph::Node>(1, n / 64);
  std::vector<std::uint8_t> leave;
  std::vector<tasks::TaskId> movers;
  std::vector<graph::Node> dst;
  const auto churn_round = [&] {
    movers.clear();
    for (graph::Node k = 0; k < victims_per_round; ++k) {
      const auto r = static_cast<graph::Node>(rng.uniform_below(n));
      const std::size_t count = state.stack(r).count();
      if (count == 0) continue;
      leave.assign(count, 0);
      bool any = false;
      for (auto& bit : leave) {
        if (rng.bernoulli(0.5)) {
          bit = 1;
          any = true;
        }
      }
      if (!any) continue;
      state.remove_marked(r, leave, movers);
    }
    dst.resize(movers.size());
    for (graph::Node& d : dst) {
      d = static_cast<graph::Node>(rng.uniform_below(n));
    }
    state.scatter(dst, movers);
    return movers.size();
  };

  timer.start("warmup");
  for (long t = 0; t < preset.warmup; ++t) churn_round();

  timer.start("rounds");
  std::vector<double> round_ms;
  round_ms.reserve(static_cast<std::size_t>(preset.measure));
  util::Stopwatch watch;
  for (long t = 0; t < preset.measure; ++t) {
    watch.reset();
    out.migrations += churn_round();
    round_ms.push_back(watch.elapsed_ms());
    ++out.rounds;
  }

  timer.start("finish");
  const graph::Node over = state.overloaded_count();
  out.final_overloaded = over;
  out.balanced =
      static_cast<double>(over) <= 0.05 * static_cast<double>(n);
  std::fprintf(stderr,
               "perf_suite:   arena: %zu slots, %zu dead, "
               "%llu relocations, %llu compactions\n",
               state.arena().slab_size(), state.arena().dead_slots(),
               static_cast<unsigned long long>(state.arena().relocations()),
               static_cast<unsigned long long>(state.arena().compactions()));
  timer.stop();
  finish_timing(round_ms, out);
}

/// Composite baseline driver (scenario "baselines:suite[:<weights>]"): one
/// task set, one above-average threshold, all six baseline balancers driven
/// back to back through the timed round loop — seqthresh, parthresh,
/// twochoice(2), onebeta(0.5), selfish (from the all-on-one start the paper
/// protocols use) and firstfit — with one timer phase per baseline. The
/// counters (rounds, migrations, balanced, final_overloaded) aggregate over
/// the whole suite and are deterministic in the seed, so the preset rides
/// the same byte-determinism CI checks as every other one.
void run_baselines_suite_preset(const PerfPreset& preset, std::uint64_t seed,
                                util::Timer& timer, long analytics_every,
                                dsan::FingerprintObserver* dsan_obs,
                                PerfResult& out) {
  timer.start("setup");
  const graph::Node n = preset.n;
  const std::size_t m = preset.load_factor * static_cast<std::size_t>(n);
  std::string weights = "unit";
  const std::string prefix = "baselines:suite:";
  if (preset.scenario.size() > prefix.size()) {
    weights = preset.scenario.substr(prefix.size());
  }
  util::Rng rng(util::derive_seed(seed, kPerfRunStream));
  const tasks::TaskSet ts = parse_weight_model(weights)->make(m, rng);
  const double T = core::threshold_value(core::ThresholdKind::kAboveAverage,
                                         ts, n, kEps);
  out.n = n;
  out.m = m;
  out.balanced = true;

  std::vector<double> round_ms;
  // With --analytics the suite report carries one observer block per
  // baseline, keyed by the baseline name (a fresh observer per balancer so
  // the per-round rows never interleave across protocols).
  sim::Json analytics_parts;
  const auto drive_one = [&](const char* name, auto& balancer,
                             long max_rounds) {
    timer.start(name);
    std::optional<obs::LoadStatsObserver> analytics;
    if (analytics_every > 0) analytics.emplace(analytics_every);
    PerfResult one;
    // The six balancers share one fingerprint observer: their rows (each
    // ending with a final-state row) concatenate in drive order, which is
    // itself part of the deterministic surface the trace pins.
    tlb::engine::ObserverList obs_list;
    if (analytics) obs_list.add(&*analytics);
    if (dsan_obs != nullptr) obs_list.add(dsan_obs);
    std::vector<double> ms =
        drive_batch(balancer, max_rounds, rng, one, obs_list.or_null());
    round_ms.insert(round_ms.end(), ms.begin(), ms.end());
    out.rounds += one.rounds;
    out.migrations += one.migrations;
    out.balanced = out.balanced && one.balanced;
    out.final_overloaded += balancer.overloaded_count();
    if (analytics) analytics_parts.add_raw(name, analytics->json());
  };

  {
    tlb::engine::SequentialThresholdBalancer b(ts, n, T);
    drive_one("seqthresh", b, preset.max_rounds);
  }
  {
    tlb::engine::ParallelThresholdBalancer b(ts, n, T);
    drive_one("parthresh", b, preset.max_rounds);
  }
  {
    tlb::engine::GreedyChoiceBalancer b(ts, n, /*choices=*/2, T);
    drive_one("twochoice", b, preset.max_rounds);
  }
  {
    tlb::engine::OnePlusBetaBalancer b(ts, n, /*beta=*/0.5, T);
    drive_one("onebeta", b, preset.max_rounds);
  }
  {
    // Selfish reallocation never stops migrating on its own and its
    // stochastic equilibrium can hover right at the threshold at large n,
    // so the suite bounds it separately instead of letting it burn the
    // whole preset.max_rounds budget; `balanced` honestly reports whether
    // it got under T within the window.
    constexpr long kSelfishRoundCap = 512;
    baselines::SelfishConfig cfg;
    cfg.stop_threshold = T;
    cfg.options.max_rounds = std::min(kSelfishRoundCap, preset.max_rounds);
    baselines::SelfishReallocEngine b(ts, n, cfg);
    b.reset(tasks::all_on_one(ts));
    drive_one("selfish", b, cfg.options.max_rounds);
  }
  {
    tlb::engine::FirstFitBalancer b(ts, n, T);
    drive_one("firstfit", b, preset.max_rounds);
  }
  timer.stop();
  if (analytics_every > 0) out.analytics_json = analytics_parts.str();
  for (double t : round_ms) out.run_ms += t;
  finish_timing(round_ms, out);
}

void run_churn_preset(const ScenarioSpec& spec, const PerfPreset& preset,
                      std::uint64_t seed, util::Timer& timer,
                      obs::Registry* registry, obs::TraceWriter* trace,
                      long analytics_every, dsan::StepProbe* dsan_probe,
                      dsan::FingerprintObserver* dsan_obs, PerfResult& out) {
  timer.start("setup");
  std::optional<obs::LoadStatsObserver> analytics;
  if (analytics_every > 0) analytics.emplace(analytics_every);
  auto model = parse_weight_model(spec.weights);
  auto process = parse_arrival_process(spec.arrivals);
  util::Rng class_rng(util::derive_seed(seed, kPerfClassesStream));
  // Same config-assembly path as Scenario::run (process outlives engine).
  core::DynamicConfig cfg = make_dynamic_config(
      *model, *process, preset.n, kEps, /*alpha=*/1.0,
      /*paranoid=*/false, preset.threads, class_rng);
  cfg.registry = registry;
  cfg.trace = trace;
  cfg.dsan = dsan_probe;
  core::DynamicUserEngine engine(cfg);
  util::Rng rng(util::derive_seed(seed, kPerfRunStream));
  out.n = preset.n;

  timer.start("warmup");
  for (long t = 0; t < preset.warmup; ++t) engine.step(rng);

  timer.start("rounds");
  // The churn loop is hand-rolled (warmup/measure split, no stop
  // condition), so the observer is driven directly: snapshots of the
  // measured rounds only, taken outside the stopwatch like drive_batch.
  tlb::engine::detail::ViewOf<core::DynamicUserEngine> view(engine);
  std::vector<double> round_ms;
  round_ms.reserve(static_cast<std::size_t>(preset.measure));
  util::Stopwatch watch;
  for (long t = 0; t < preset.measure; ++t) {
    if (analytics) analytics->record_round(view, t);
    watch.reset();
    engine.step(rng);
    round_ms.push_back(watch.elapsed_ms());
    out.migrations += engine.last_migrations();
    ++out.rounds;
    // Fingerprints are round-*end* snapshots (on_round_end semantics), so
    // the dsan observer records after the step, unlike the analytics
    // observer's round-start snapshots; the probe record folded in is the
    // one this step just produced.
    if (dsan_obs != nullptr) dsan_obs->record_round(view, t);
  }
  if (analytics) {
    analytics->record_final(view);
    out.analytics_json = analytics->json();
  }
  if (dsan_obs != nullptr) dsan_obs->record_final(view);

  timer.start("finish");
  out.m = engine.population();
  std::uint32_t over = 0;
  for (graph::Node r = 0; r < preset.n; ++r) {
    over += engine.load(r) > engine.current_threshold();
  }
  out.final_overloaded = over;
  out.balanced = static_cast<double>(over) <=
                 0.05 * static_cast<double>(preset.n);
  timer.stop();
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

PerfResult run_perf_preset(const PerfPreset& preset, std::uint64_t seed,
                           bool collect_metrics, obs::TraceWriter* trace,
                           long analytics_every, dsan::StepProbe* dsan_probe,
                           dsan::FingerprintObserver* dsan_obs) {
  PerfResult out;
  out.preset = preset;
  // Fresh registry per preset so the snapshots do not aggregate across
  // presets; engines hold a raw pointer, so it outlives the runner calls.
  std::optional<obs::Registry> registry;
  if (collect_metrics) registry.emplace();
  obs::Registry* const reg = registry ? &*registry : nullptr;
  const auto snapshot_metrics = [&] {
    if (!registry) return;
    const obs::Snapshot snap = registry->snapshot();
    out.metrics_json = snap.json(obs::Snapshot::Part::kDeterministic);
    out.metrics_timing_json = snap.json(obs::Snapshot::Part::kTiming);
  };
  if (preset.scenario.rfind("arena:churn", 0) == 0) {
    // Documented dsan exception: the arena churn driver pumps a raw
    // SystemState, not a Balancer, so it contributes no fingerprint rows.
    util::Timer timer;
    run_arena_churn_preset(preset, seed, timer, out);
    out.phases = timer.phases();
    out.setup_ms = timer.ms("setup");
    out.run_ms = timer.ms("rounds");
    snapshot_metrics();
    return out;
  }
  if (preset.scenario.rfind("baselines:suite", 0) == 0) {
    util::Timer timer;
    run_baselines_suite_preset(preset, seed, timer, analytics_every, dsan_obs,
                               out);
    out.phases = timer.phases();
    out.setup_ms = timer.ms("setup");
    snapshot_metrics();
    return out;
  }
  const ScenarioSpec spec = resolve_scenario(preset.scenario);
  util::Timer timer;
  if (spec.is_churn()) {
    run_churn_preset(spec, preset, seed, timer, reg, trace, analytics_every,
                     dsan_probe, dsan_obs, out);
  } else {
    run_batch_preset(spec, preset, seed, timer, reg, trace, analytics_every,
                     dsan_probe, dsan_obs, out);
  }
  out.phases = timer.phases();
  out.setup_ms = timer.ms("setup");
  out.run_ms = timer.ms("rounds");
  snapshot_metrics();
  return out;
}

std::string run_perf_set(const std::string& set, const std::string& only,
                         std::uint64_t seed, bool include_timings,
                         long engine_threads, bool collect_metrics,
                         obs::TraceWriter* trace, long analytics_every,
                         const std::string& dsan_record,
                         const std::string& dsan_check) {
  const bool want_dsan = !dsan_record.empty() || !dsan_check.empty();
  const std::vector<PerfPreset>* presets = nullptr;
  if (set == "smoke") {
    presets = &perf_smoke_presets();
  } else if (set == "full") {
    presets = &perf_presets();
  } else {
    throw std::invalid_argument("perf suite: unknown set '" + set +
                                "' (want smoke | full)");
  }
  std::vector<PerfResult> results;
  std::vector<dsan::TraceSection> sections;
  for (PerfPreset preset : *presets) {
    if (!only.empty() && preset.name != only) continue;
    if (engine_threads >= 0) {
      preset.threads = static_cast<std::size_t>(engine_threads);
    }
    std::fprintf(stderr, "perf_suite: running %-26s (%s) ...\n",
                 preset.name.c_str(), preset.scenario.c_str());
    // Fresh sanitizer pair per preset: the probe is stateful (step counter,
    // draw slots), and a fresh observer keeps each trace section's rows
    // scoped to exactly one preset run.
    std::optional<dsan::StepProbe> probe;
    std::optional<dsan::FingerprintObserver> fp;
    if (want_dsan) {
      probe.emplace();
      fp.emplace(&*probe);
    }
    results.push_back(run_perf_preset(preset, seed, collect_metrics, trace,
                                      analytics_every,
                                      probe ? &*probe : nullptr,
                                      fp ? &*fp : nullptr));
    if (fp) sections.push_back(dsan::make_section(preset.name, fp->rows()));
    const PerfResult& r = results.back();
    std::fprintf(stderr,
                 "perf_suite:   %ld rounds, %.1fms round1, %.3fms tail "
                 "(x%.0f), %.0f mig/s\n",
                 r.rounds, r.round1_ms, r.tail_avg_ms, r.tail_speedup,
                 r.migrations_per_sec);
  }
  if (results.empty()) {
    throw std::invalid_argument("perf suite: no preset named '" + only + "'");
  }
  if (!dsan_record.empty()) {
    std::ofstream out(dsan_record, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("dsan record: cannot write " + dsan_record);
    }
    out << dsan::render_trace(sections, seed);
    out.flush();
    if (!out.good()) {
      throw std::runtime_error("dsan record: write failed for " + dsan_record);
    }
    std::fprintf(stderr, "perf_suite: dsan trace recorded to %s\n",
                 dsan_record.c_str());
  }
  if (!dsan_check.empty()) {
    std::string golden_text;
    {
      std::ifstream in(dsan_check, std::ios::binary);
      if (!in) {
        throw std::runtime_error("dsan check: cannot read " + dsan_check);
      }
      golden_text.assign(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    }
    const std::vector<dsan::TraceSection> golden =
        dsan::parse_trace(golden_text);
    const dsan::CheckResult check = dsan::check_trace(golden, sections);
    if (!check.ok) {
      throw std::runtime_error("dsan check failed against " + dsan_check +
                               ": " + check.message);
    }
    std::fprintf(stderr, "perf_suite: dsan check passed against %s\n",
                 dsan_check.c_str());
  }
  return perf_suite_json(results, seed, include_timings);
}

std::string perf_suite_json(const std::vector<PerfResult>& results,
                            std::uint64_t seed, bool include_timings) {
  std::string presets = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PerfResult& r = results[i];
    sim::Json j;
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
      sim::Json phases;
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

  sim::Json root;
  root.add("suite", "perf")
      .add("seed", seed)
      .add("deterministic", !include_timings)
      .add_raw("presets", presets);
  return root.str();
}

void append_bench_entry(const std::string& path, const std::string& label,
                        const std::string& set,
                        const std::string& report_json) {
  sim::Json entry;
  entry.add("label", label).add("set", set).add_raw("report", report_json);

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
  const auto is_space = [](char c) {
    return c == '\n' || c == '\r' || c == ' ' || c == '\t';
  };
  while (!content.empty() && is_space(content.back())) content.pop_back();
  std::size_t lead = 0;
  while (lead < content.size() && is_space(content[lead])) ++lead;
  content.erase(0, lead);
  std::string merged;
  if (content.empty()) {
    merged = "[\n " + entry.str() + "\n]\n";
  } else {
    if (content.front() != '[' || content.back() != ']') {
      throw std::runtime_error("append_bench_entry: " + path +
                               " is not a JSON array");
    }
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
