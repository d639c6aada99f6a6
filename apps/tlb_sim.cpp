// tlb_sim — unified scenario driver for the threshold load-balancing
// library.
//
// Runs any scenario the tlb::workload subsystem can compose — protocol ×
// topology × weight model × arrival process — through the deterministic
// multi-trial runner, and reports either a human-readable summary or a
// machine-readable JSON object. The JSON is byte-identical for a fixed
// (scenario, trials, seed) regardless of --threads.
//
//   tlb_sim --scenario=resource:hypercube:pareto(2.5,64) --trials=50 --json
//   tlb_sim --scenario=churn-poisson --n=200 --trials=20
//   tlb_sim --list
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "tlb/dsan/bisect.hpp"
#include "tlb/dsan/observer.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/trace.hpp"
#include "tlb/engine/observer.hpp"
#include "tlb/obs/analytics.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/obs/trace_event.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/util/alloc_tuning.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/util/table.hpp"
#include "tlb/util/timer.hpp"
#include "tlb/workload/arrival.hpp"
#include "tlb/workload/scenario.hpp"
#include "tlb/workload/weight_models.hpp"

namespace {

void print_registry() {
  std::printf("registered scenarios (use the name or any raw spec):\n\n");
  for (const auto& named : tlb::workload::scenario_registry()) {
    std::printf("  %-20s %s\n", named.name.c_str(), named.spec.c_str());
    std::printf("  %-20s   %s\n", "", named.description.c_str());
  }
  std::printf("\nspec grammar: <protocol>:<topology>[:<weights>[:<arrivals>]]\n");
  std::printf("  protocols:  user | resource | graphuser | mixed(beta)\n");
  std::printf("  baselines:  seqthresh | parthresh | twochoice(d) | "
              "onebeta(beta) | selfish | firstfit  (complete topology, "
              "batch arrivals)\n");
  std::printf("  topologies: complete | cycle | torus | grid | hypercube | "
              "regular | erdos_renyi | clique_satellite\n");
  std::printf("  weights:    %s\n",
              tlb::workload::weight_model_grammar().c_str());
  std::printf("  arrivals:   %s\n",
              tlb::workload::arrival_process_grammar().c_str());
}

/// A --dsan-plant at step `plant` is armed only if the probe sees more
/// than `plant` steps; engines without a probe never step it. A plant that
/// never fired proves nothing, so it fails the run: true (after a
/// diagnostic) when `plant` was set and the probe saw at most `plant`
/// steps.
bool plant_missed(long plant, long steps_seen, const std::string& scenario) {
  if (plant < 0 || steps_seen > plant) return false;
  std::fprintf(stderr,
               "tlb_sim: --dsan-plant=%ld planted nothing: scenario %s "
               "stepped the dsan probe %ld times\n",
               plant, scenario.c_str(), steps_seen);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tlb;
  util::tune_allocator_for_throughput();

  util::Cli cli;
  cli.add_flag("scenario", "", "registered scenario name or raw spec string");
  cli.add_flag("list", "false", "list registered scenarios and the grammar");
  cli.add_flag("n", "256", "number of resources (families may round up)");
  cli.add_flag("load_factor", "8", "batch tasks per resource (m = lf*n)");
  cli.add_flag("trials", "50", "independent trials");
  cli.add_flag("seed", "42", "master RNG seed");
  cli.add_flag("threads", "0", "worker threads (0 = hardware concurrency)");
  cli.add_flag("engine-threads", "-1",
               "engine-level phase-1 sampling threads for the user-protocol "
               "family (-1 and 1 both mean inline, 0 = hardware "
               "concurrency); never changes results. Each trial owns its "
               "pool, so combining with --threads multiplies thread counts "
               "— prefer --threads for many trials and --engine-threads "
               "for single-trial runs");
  cli.add_flag("alpha", "1.0", "user-side migration dampening");
  cli.add_flag("eps", "0.25", "above-average threshold slack");
  cli.add_flag("threshold", "above_average",
               "above_average | tight_resource | tight_user");
  cli.add_flag("max_rounds", "2000000", "batch-mode round cap per trial");
  cli.add_flag("warmup", "2000", "churn-mode unrecorded rounds");
  cli.add_flag("measure", "4000", "churn-mode recorded rounds");
  cli.add_flag("degree", "8", "degree for the regular family");
  cli.add_flag("json", "false", "emit one JSON object instead of the table");
  cli.add_flag("timings", "true",
               "with --metrics, include the wall-clock \"metrics_timing\" "
               "block (false => byte-deterministic JSON)");
  cli.add_flag("dsan-record", "",
               "determinism sanitizer: record trial 0's per-round "
               "fingerprints as a golden trace at this path");
  cli.add_flag("dsan-check", "",
               "determinism sanitizer: re-run and compare fingerprints "
               "against the golden trace at this path; first divergent "
               "(section, round) fails the run");
  cli.add_flag("dsan-bisect", "false",
               "scenario mode: run side A (--engine-threads 1) against side "
               "B (the --engine-threads value, plus --dsan-plant if set) and "
               "report the first divergent round/phase/resource; exits 1 on "
               "divergence, 0 when the sides agree");
  cli.add_flag("dsan-plant", "-1",
               "bisector fault injection: consume one extra RNG draw on "
               "side B at this engine step (0-based, warmup steps included; "
               "-1 = none); with --dsan-bisect, --dsan-record or "
               "--dsan-check only, and a plant that never fires fails the "
               "run");
  util::ObsOptions::register_flags(cli, /*with_round_trace=*/true);
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_bool("list")) {
    print_registry();
    return 0;
  }
  const std::string scenario_arg = cli.get_string("scenario");
  if (scenario_arg.empty()) {
    std::fprintf(stderr,
                 "tlb_sim: --scenario is required (try --list)\n");
    return 1;
  }

  try {
    const workload::ScenarioSpec spec =
        workload::resolve_scenario(scenario_arg);

    workload::ScenarioParams params;
    params.n = static_cast<graph::Node>(cli.get_int("n"));
    params.load_factor = static_cast<std::size_t>(cli.get_int("load_factor"));
    params.alpha = cli.get_double("alpha");
    params.eps = cli.get_double("eps");
    params.max_rounds = cli.get_int("max_rounds");
    params.warmup = cli.get_int("warmup");
    params.measure = cli.get_int("measure");
    params.degree = static_cast<graph::Node>(cli.get_int("degree"));
    const std::int64_t engine_threads = cli.get_int("engine-threads");
    params.engine_threads =
        engine_threads < 0 ? 1 : static_cast<std::size_t>(engine_threads);
    const std::string tkind = cli.get_string("threshold");
    if (tkind == "above_average" || tkind == "above") {
      params.threshold = core::ThresholdKind::kAboveAverage;
    } else if (tkind == "tight_resource") {
      params.threshold = core::ThresholdKind::kTightResource;
    } else if (tkind == "tight_user") {
      params.threshold = core::ThresholdKind::kTightUser;
    } else {
      std::fprintf(stderr, "tlb_sim: unknown --threshold '%s'\n",
                   tkind.c_str());
      return 1;
    }

    const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto threads = static_cast<std::size_t>(cli.get_int("threads"));

    if (cli.get_bool("dsan-bisect")) {
      // Divergence bisection: side A is the single-threaded reference, side
      // B the engine-thread count under test (plus the planted fault, if
      // any). Both sides run one trial — the probe and observer are
      // single-engine anyway — so the whole comparison is seed-pure.
      const long plant = cli.get_int("dsan-plant");
      struct SideRun {
        std::vector<dsan::Row> rows;
        std::vector<double> loads;
        long steps_seen = 0;
      };
      const auto run_side = [&](std::size_t side_threads, long plant_step,
                                bool detail, long capture_round) {
        workload::ScenarioParams side = params;
        side.engine_threads = side_threads;
        dsan::StepProbe probe;
        if (plant_step >= 0) probe.set_plant_step(plant_step);
        if (detail) probe.set_detail_step(dsan::StepProbe::kDetailAll);
        dsan::FingerprintObserver fp(&probe);
        fp.set_capture_round(capture_round);
        side.dsan = &probe;
        engine::ObserverList side_obs;
        side_obs.add(&fp);
        side.round_observer = side_obs.or_null();
        const workload::Scenario side_scenario(spec, side);
        (void)side_scenario.run(/*trials=*/1, seed, /*threads=*/1);
        return SideRun{fp.rows(), fp.captured_loads(), probe.steps_seen()};
      };

      const SideRun a = run_side(1, -1, false, -1);
      const SideRun b =
          run_side(params.engine_threads, plant, false, -1);
      if (plant_missed(plant, b.steps_seen, scenario_arg)) return 1;
      const dsan::Divergence div = dsan::first_divergence(a.rows, b.rows);
      dsan::BisectReport report;
      if (div.found) {
        report.diverged = true;
        report.round = div.round;
        report.final_state = div.final_state;
        // Narrowing rerun: per-phase sub-digests everywhere, load vectors
        // captured at the divergent round (final-state divergences have no
        // in-round phases to compare).
        const long cap = div.final_state ? -1 : div.round;
        const SideRun a2 = run_side(1, -1, true, cap);
        const SideRun b2 =
            run_side(params.engine_threads, plant, true, cap);
        if (div.index < a2.rows.size() && div.index < b2.rows.size()) {
          report.phase = dsan::first_divergent_phase(a2.rows[div.index],
                                                     b2.rows[div.index]);
        }
        report.resource = dsan::first_divergent_resource(a2.loads, b2.loads);
      }
      std::printf("%s", report.render().c_str());
      return report.diverged ? 1 : 0;
    }

    // Observability attachments (all optional; results are unchanged by
    // any of them — observers never draw from the RNG).
    const util::ObsOptions obs_opts =
        util::ObsOptions::parse(cli, /*with_round_trace=*/true);
    std::optional<obs::Registry> registry;
    std::optional<obs::TraceWriter> trace;
    std::optional<engine::JsonTraceSink> round_sink;
    std::optional<obs::LoadStatsObserver> analytics;
    engine::ObserverList observers;
    if (obs_opts.metrics) registry.emplace();
    if (!obs_opts.trace_out.empty()) {
      // Fail on an unwritable path before the run, not after it.
      obs::write_text_file(obs_opts.trace_out, "");
      trace.emplace();
    }
    if (!obs_opts.round_trace.empty()) {
      obs::write_text_file(obs_opts.round_trace, "");
      round_sink.emplace();
      observers.add(&*round_sink);
    }
    if (obs_opts.analytics_every > 0) {
      analytics.emplace(obs_opts.analytics_every);
      observers.add(&*analytics);
    }
    // Determinism sanitizer: probe + fingerprint observer ride trial 0
    // alongside the other observers; the trace section is keyed by the
    // canonical spec so a golden file is self-describing. The golden is
    // read and the record file created before the run.
    const dsan::TraceFiles dsan_files(cli.get_string("dsan-record"),
                                      cli.get_string("dsan-check"));
    std::optional<dsan::StepProbe> dsan_probe;
    std::optional<dsan::FingerprintObserver> dsan_fp;
    if (dsan_files.active()) {
      dsan_probe.emplace();
      dsan_probe->set_plant_step(cli.get_int("dsan-plant"));
      dsan_fp.emplace(&*dsan_probe, registry ? &*registry : nullptr);
      observers.add(&*dsan_fp);
      params.dsan = &*dsan_probe;
    } else if (cli.get_int("dsan-plant") >= 0) {
      // No probe to arm: the plant would be silently ignored.
      std::fprintf(stderr,
                   "tlb_sim: --dsan-plant needs --dsan-bisect, --dsan-record "
                   "or --dsan-check\n");
      return 1;
    }
    params.registry = registry ? &*registry : nullptr;
    params.trace = trace ? &*trace : nullptr;
    // All per-round observers ride trial 0 through one fan-out list.
    params.round_observer = observers.or_null();

    const workload::Scenario scenario(spec, params);
    util::Stopwatch timer;
    const workload::ScenarioResult result =
        scenario.run(trials, seed, threads);
    const double elapsed = timer.elapsed_seconds();
    if (dsan_probe && plant_missed(cli.get_int("dsan-plant"),
                                   dsan_probe->steps_seen(), scenario_arg)) {
      return 1;
    }

    if (trace) trace->write(obs_opts.trace_out);
    if (round_sink) {
      obs::write_text_file(obs_opts.round_trace, round_sink->json());
    }
    if (dsan_fp) {
      dsan_files.finish(
          {dsan::make_section(spec.canonical(), dsan_fp->rows())}, seed);
      if (!dsan_files.record_path().empty()) {
        std::fprintf(stderr, "tlb_sim: dsan trace recorded to %s\n",
                     dsan_files.record_path().c_str());
      }
      if (!dsan_files.check_path().empty()) {
        std::fprintf(stderr, "tlb_sim: dsan check passed against %s\n",
                     dsan_files.check_path().c_str());
      }
    }
    std::string metrics_raw;
    std::string metrics_timing_raw;
    std::string analytics_raw;
    if (registry) {
      const obs::Snapshot snap = registry->snapshot();
      metrics_raw = snap.json(obs::Snapshot::Part::kDeterministic);
      if (cli.get_bool("timings")) {
        metrics_timing_raw = snap.json(obs::Snapshot::Part::kTiming);
      }
    }
    if (analytics) analytics_raw = analytics->json();

    if (cli.get_bool("json")) {
      // Wall time and thread count deliberately stay out of the JSON so the
      // bytes only depend on (scenario, params, trials, seed) — the metrics
      // and analytics blocks are additive-only and themselves deterministic;
      // wall-clock metrics ride the separate "metrics_timing" key, dropped
      // by --timings=false.
      std::printf("%s\n", result.json(metrics_raw, metrics_timing_raw,
                                      analytics_raw)
                              .c_str());
      return 0;
    }

    sim::print_banner("tlb_sim", result.spec.canonical());
    sim::print_param("n / m", std::to_string(result.n) + " / " +
                                  std::to_string(result.m));
    sim::print_param("threshold", std::string(core::to_string(
                                      params.threshold)) +
                                      " (eps " + cli.get_string("eps") + ")");
    sim::print_param("trials / seed", std::to_string(trials) + " / " +
                                          std::to_string(seed));
    util::Table table({"metric", "mean", "ci95", "min", "max"});
    auto row = [&table](const char* label, const util::Welford& w) {
      table.add_row({label, util::Table::fmt(w.mean(), 2),
                     util::Table::fmt(w.ci95_halfwidth(), 2),
                     util::Table::fmt(w.count() ? w.min() : 0.0, 2),
                     util::Table::fmt(w.count() ? w.max() : 0.0, 2)});
    };
    row(result.spec.is_churn() ? "measured rounds" : "balancing time",
        result.stats.rounds);
    row("migrations", result.stats.migrations);
    row(result.spec.is_churn() ? "max/avg load" : "final max load",
        result.stats.final_max_load);
    sim::emit_table(table, "");
    if (result.stats.unbalanced > 0) {
      std::printf("   %zu/%zu trials %s\n", result.stats.unbalanced, trials,
                  result.spec.is_churn()
                      ? "stayed above 5% overloaded resources"
                      : "hit the round cap without balancing");
    }
    std::printf("   [%zu trials in %.2fs]\n", trials, elapsed);
    if (!metrics_raw.empty()) {
      std::printf("   metrics: %s\n", metrics_raw.c_str());
    }
    if (!metrics_timing_raw.empty()) {
      std::printf("   metrics_timing: %s\n", metrics_timing_raw.c_str());
    }
    if (!analytics_raw.empty()) {
      std::printf("   analytics: %s\n", analytics_raw.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tlb_sim: %s\n", e.what());
    return 1;
  }
}
