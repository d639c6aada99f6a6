// Tests for the perf suite (tlb::workload::run_perf_preset / run_perf_set):
// the churn presets time the bare churn round — their tracker counters
// equal those of the same engine stepped by hand, so nothing the report
// attaches adds work to a measured round — every smoke preset is a drive
// that analytics and dsan observe, and bad output paths fail before the
// first preset runs.
#include "tlb/workload/perf_suite.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>

#include "tlb/core/dynamic.hpp"
#include "tlb/dsan/observer.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/util/json_parse.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/workload/arrival.hpp"
#include "tlb/workload/scenario.hpp"
#include "tlb/workload/weight_models.hpp"

namespace {

using namespace tlb;
using workload::PerfOptions;
using workload::PerfPreset;
using workload::PerfResult;

constexpr std::uint64_t kSeed = 42;

const PerfPreset& smoke_preset(const std::string& name) {
  for (const PerfPreset& p : workload::perf_smoke_presets()) {
    if (p.name == name) return p;
  }
  throw std::invalid_argument("no smoke preset " + name);
}

/// The deterministic counter snapshot of the preset's churn engine stepped
/// warmup + measure times by hand: the config, the streams and the round
/// the preset runs, with nothing but step() between rounds.
std::string hand_stepped_counters(const PerfPreset& preset) {
  const workload::ScenarioSpec spec =
      workload::resolve_scenario(preset.scenario);
  const auto model = workload::parse_weight_model(spec.weights);
  const auto process = workload::parse_arrival_process(spec.arrivals);
  util::Rng class_rng(util::derive_seed(kSeed, workload::kPerfClassesStream));
  core::DynamicConfig cfg = workload::make_dynamic_config(
      *model, *process, preset.n, workload::kPerfEps, /*alpha=*/1.0,
      preset.threads, class_rng);
  obs::Registry registry;
  cfg.registry = &registry;
  core::DynamicUserEngine engine(cfg);
  util::Rng rng(util::derive_seed(kSeed, workload::kPerfRunStream));
  for (long t = 0; t < preset.warmup + preset.measure; ++t) engine.step(rng);
  return registry.snapshot().json(obs::Snapshot::Part::kDeterministic);
}

TEST(PerfSuiteTest, ChurnPresetsMeasureTheBareRound) {
  for (const char* name : {"smoke-churn-poisson", "smoke-threshold-churn"}) {
    const PerfPreset& preset = smoke_preset(name);
    PerfOptions opt;
    opt.seed = kSeed;
    opt.collect_metrics = true;
    const PerfResult result = workload::run_perf_preset(preset, opt);
    EXPECT_EQ(result.rounds, preset.measure) << name;
    const std::string expected = hand_stepped_counters(preset);
    EXPECT_EQ(result.metrics_json, expected) << name;
    // The comparison covers the tracker's work counters, not just the
    // event counts.
    const util::JsonValue metrics = util::parse_json(result.metrics_json);
    ASSERT_NE(metrics.find("dynamic.flush_checks"), nullptr) << name;
    EXPECT_GT(metrics.at("dynamic.flush_checks").number, 0.0) << name;
    ASSERT_NE(metrics.find("index.reconciled"), nullptr) << name;
  }
}

TEST(PerfSuiteTest, EveryPresetIsObservable) {
  for (const PerfPreset& preset : workload::perf_smoke_presets()) {
    dsan::StepProbe probe;
    dsan::FingerprintObserver fingerprints(&probe);
    PerfOptions opt;
    opt.seed = kSeed;
    opt.analytics_every = 25;
    opt.dsan_probe = &probe;
    opt.dsan_obs = &fingerprints;
    const PerfResult result = workload::run_perf_preset(preset, opt);
    ASSERT_GT(result.rounds, 0) << preset.name;

    // One row per measured round plus a final-state row per drive (the
    // baseline suite drives six balancers).
    const bool suite = preset.scenario.rfind("baselines:suite", 0) == 0;
    const long drives = suite ? 6 : 1;
    EXPECT_EQ(static_cast<long>(fingerprints.rows().size()),
              result.rounds + drives)
        << preset.name;
    EXPECT_TRUE(fingerprints.rows().back().final_state) << preset.name;

    ASSERT_FALSE(result.analytics_json.empty()) << preset.name;
    const util::JsonValue analytics = util::parse_json(result.analytics_json);
    ASSERT_TRUE(analytics.is_object()) << preset.name;
    std::size_t blocks = 0;
    const auto check_block = [&](const util::JsonValue& block) {
      ++blocks;
      EXPECT_TRUE(block.at("supported").boolean) << preset.name;
      ASSERT_NE(block.find("final"), nullptr) << preset.name;
      EXPECT_GE(block.at("final").at("max").number,
                block.at("final").at("p99").number)
          << preset.name;
    };
    if (suite) {
      for (const auto& [name, block] : analytics.members) check_block(block);
    } else {
      check_block(analytics);
    }
    EXPECT_EQ(blocks, static_cast<std::size_t>(drives)) << preset.name;
  }
}

TEST(PerfSuiteTest, ObservationChangesNoCounter) {
  // Arena churn is observed only since it became a Balancer: its counters
  // must not depend on whether analytics and dsan watch it.
  const PerfPreset& preset = smoke_preset("smoke-arena-churn");
  PerfOptions plain;
  plain.seed = kSeed;
  const PerfResult a = workload::run_perf_preset(preset, plain);
  dsan::StepProbe probe;
  dsan::FingerprintObserver fingerprints(&probe);
  PerfOptions observed = plain;
  observed.analytics_every = 1;
  observed.dsan_probe = &probe;
  observed.dsan_obs = &fingerprints;
  const PerfResult b = workload::run_perf_preset(preset, observed);
  EXPECT_EQ(a.rounds, preset.measure);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.balanced, b.balanced);
  EXPECT_EQ(a.final_overloaded, b.final_overloaded);
  EXPECT_EQ(a.m, b.m);
}

TEST(PerfSuiteTest, BadPathsFailBeforeTheFirstPreset) {
  // The full set runs for minutes; each of these must throw without
  // running any of it.
  PerfOptions opt;
  opt.set = "full";
  opt.dsan_check = ::testing::TempDir() + "/tlb_perf_missing_golden.dsan";
  EXPECT_THROW((void)workload::run_perf_set(opt), std::runtime_error);
  opt.dsan_check.clear();
  opt.dsan_record = "/nonexistent-dir-for-tlb-test/golden.dsan";
  EXPECT_THROW((void)workload::run_perf_set(opt), std::runtime_error);
}

TEST(PerfSuiteTest, BenchFileMustBeAJsonArray) {
  const std::string path = ::testing::TempDir() + "/tlb_perf_bench.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"not\": \"an array\"}\n";
  }
  EXPECT_THROW(workload::check_bench_file(path), std::runtime_error);
  {
    std::ofstream out(path, std::ios::trunc);
    out << "  [\n]\n";
  }
  EXPECT_NO_THROW(workload::check_bench_file(path));
  workload::append_bench_entry(path, "a", "smoke", "{}");
  EXPECT_NO_THROW(workload::check_bench_file(path));
  // A missing file is a fresh trajectory.
  EXPECT_NO_THROW(workload::check_bench_file(
      ::testing::TempDir() + "/tlb_perf_bench_missing.json"));
}

}  // namespace
