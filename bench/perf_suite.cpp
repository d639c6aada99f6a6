// perf_suite — the repo's recorded throughput benchmark (see
// tlb/workload/perf_suite.hpp).
//
// Runs the scenario-driven perf presets and emits one JSON report on
// stdout. Counter fields are deterministic in --seed; pass --timings=false
// to drop the wall-clock fields entirely, which makes the report
// byte-identical across runs (CI checks exactly that on the smoke set).
//
//   perf_suite --set=smoke --timings=false        # deterministic, seconds
//   perf_suite --set=full > BENCH_perf_run.json   # baseline, minutes
//   perf_suite --set=full --only=grouped-unit-1m  # one preset
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "tlb/obs/trace_event.hpp"
#include "tlb/util/alloc_tuning.hpp"
#include "tlb/util/cli.hpp"
#include "tlb/workload/perf_suite.hpp"

int main(int argc, char** argv) {
  using namespace tlb;
  util::tune_allocator_for_throughput();

  util::Cli cli;
  cli.add_flag("set", "smoke", "preset set: smoke (CI-sized) | full (n up to 1e6)");
  cli.add_flag("only", "", "run only the preset with this name");
  cli.add_flag("seed", "42", "master RNG seed");
  cli.add_flag("timings", "true",
               "include wall-clock fields (false => byte-deterministic)");
  cli.add_flag("engine-threads", "-1",
               "override every preset's engine-level phase-1 threads "
               "(-1 = preset defaults, 0 = hardware concurrency); never "
               "changes the deterministic counters");
  cli.add_flag("label", "",
               "label for the --append entry (default: \"<set>-seed<seed>\")");
  cli.add_flag("append", "",
               "append {label, set, report} to this JSON array file "
               "(e.g. BENCH_perf.json)");
  cli.add_flag("dsan-record", "",
               "determinism sanitizer: record every preset's per-round "
               "fingerprints as a golden trace at this path");
  cli.add_flag("dsan-check", "",
               "determinism sanitizer: compare fingerprints against the "
               "golden trace at this path; first divergent (preset, round) "
               "fails the run");
  util::ObsOptions::register_flags(cli, /*with_round_trace=*/false);
  if (!cli.parse(argc, argv)) return 1;

  try {
    workload::PerfOptions opt;
    opt.set = cli.get_string("set");
    opt.only = cli.get_string("only");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.include_timings = cli.get_bool("timings");
    opt.engine_threads = cli.get_int("engine-threads");
    const util::ObsOptions obs_opts =
        util::ObsOptions::parse(cli, /*with_round_trace=*/false);
    opt.collect_metrics = obs_opts.metrics;
    opt.analytics_every = obs_opts.analytics_every;
    opt.dsan_record = cli.get_string("dsan-record");
    opt.dsan_check = cli.get_string("dsan-check");
    // Output paths fail before the run, not after it (run_perf_set does the
    // same for the dsan paths).
    std::optional<obs::TraceWriter> trace;
    if (!obs_opts.trace_out.empty()) {
      obs::write_text_file(obs_opts.trace_out, "");
      trace.emplace();
    }
    opt.trace = trace ? &*trace : nullptr;
    const std::string path = cli.get_string("append");
    if (!path.empty()) workload::check_bench_file(path);
    const std::string report = workload::run_perf_set(opt);
    std::printf("%s\n", report.c_str());
    if (trace) trace->write(obs_opts.trace_out);
    if (!path.empty()) {
      std::string label = cli.get_string("label");
      if (label.empty()) label = opt.set + "-seed" + std::to_string(opt.seed);
      workload::append_bench_entry(path, label, opt.set, report);
      std::fprintf(stderr, "perf_suite: appended '%s' to %s\n", label.c_str(),
                   path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_suite: %s\n", e.what());
    return 1;
  }
}
