// Tests for the tlb::workload subsystem: weight-model determinism and
// distribution sanity, arrival processes, spec parsing round-trips and
// error cases, class-table reduction, and scenario runs that must be
// bit-identical regardless of thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "tlb/core/thresholds.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/util/json.hpp"
#include "tlb/workload/arrival.hpp"
#include "tlb/workload/scenario.hpp"
#include "tlb/workload/weight_models.hpp"

namespace {

using namespace tlb;
using tlb::util::Rng;

// ---- weight models --------------------------------------------------------

TEST(WeightModelTest, SameSeedSameTaskSet) {
  for (const char* spec :
       {"unit", "uniform(10)", "bimodal(50,0.1)", "twopoint(5,32)",
        "zipf(1.2,64)", "pareto(2.5,64)", "octaves(8)",
        "mix(1:0.7,4:0.25,16:0.05)"}) {
    const auto model = workload::parse_weight_model(spec);
    Rng a(12345), b(12345);
    const tasks::TaskSet ta = model->make(500, a);
    const tasks::TaskSet tb = model->make(500, b);
    ASSERT_EQ(ta.size(), tb.size()) << spec;
    for (tasks::TaskId i = 0; i < ta.size(); ++i) {
      ASSERT_DOUBLE_EQ(ta.weight(i), tb.weight(i)) << spec;
    }
  }
}

TEST(WeightModelTest, AllWeightsAtLeastOne) {
  for (const char* spec : {"uniform(4)", "zipf(0.5,16)", "pareto(1.5,128)",
                           "octaves(6)", "bimodal(8,0.5)"}) {
    const auto model = workload::parse_weight_model(spec);
    Rng rng(7);
    const tasks::TaskSet ts = model->make(2000, rng);
    EXPECT_GE(ts.min_weight(), 1.0) << spec;
  }
}

TEST(WeightModelTest, TwoPointCompositionIsExact) {
  const workload::TwoPointWeights model(10, 50.0);
  Rng rng(1);
  const tasks::TaskSet ts = model.make(1000, rng);
  EXPECT_EQ(ts.size(), 1000u);
  for (tasks::TaskId i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(ts.weight(i), 50.0);
  for (tasks::TaskId i = 10; i < 1000; ++i) EXPECT_DOUBLE_EQ(ts.weight(i), 1.0);
  EXPECT_THROW(model.make(10, rng), std::invalid_argument);  // no unit room
}

TEST(WeightModelTest, BimodalFractionRoundsToCount) {
  const workload::BimodalWeights model(16.0, 0.25);
  Rng rng(2);
  const tasks::TaskSet ts = model.make(400, rng);
  std::size_t heavies = 0;
  for (tasks::TaskId i = 0; i < ts.size(); ++i) heavies += ts.weight(i) > 1.0;
  EXPECT_EQ(heavies, 100u);
}

TEST(WeightModelTest, ParetoEmpiricalMeanMatchesAnalytic) {
  const workload::ParetoWeights model(2.5, 64.0);
  Rng rng(3);
  const tasks::TaskSet ts = model.make(200000, rng);
  EXPECT_GE(ts.min_weight(), 1.0);
  EXPECT_LE(ts.max_weight(), 64.0);
  EXPECT_NEAR(ts.avg_weight(), model.mean(), 0.02 * model.mean());
}

TEST(WeightModelTest, ZipfEmpiricalMeanAndSupport) {
  const workload::ZipfWeights model(1.1, 64);
  Rng rng(4);
  const tasks::TaskSet ts = model.make(200000, rng);
  EXPECT_NEAR(ts.avg_weight(), model.mean(), 0.02 * model.mean());
  for (tasks::TaskId i = 0; i < 1000; ++i) {
    const double w = ts.weight(i);
    EXPECT_DOUBLE_EQ(w, std::floor(w));
    EXPECT_GE(w, 1.0);
    EXPECT_LE(w, 64.0);
  }
}

TEST(WeightModelTest, OctavesArePowersOfTwo) {
  const workload::OctaveWeights model(8);
  Rng rng(5);
  const tasks::TaskSet ts = model.make(5000, rng);
  for (tasks::TaskId i = 0; i < ts.size(); ++i) {
    const double log2w = std::log2(ts.weight(i));
    EXPECT_DOUBLE_EQ(log2w, std::floor(log2w));
    EXPECT_LE(ts.weight(i), 256.0);
  }
}

TEST(WeightModelTest, TraceReplayCyclesDeterministically) {
  const workload::TraceWeights model({2.0, 3.0, 5.0}, "inline");
  Rng rng(6);
  const tasks::TaskSet ts = model.make(7, rng);
  const double expect[] = {2, 3, 5, 2, 3, 5, 2};
  for (tasks::TaskId i = 0; i < 7; ++i) {
    EXPECT_DOUBLE_EQ(ts.weight(i), expect[i]);
  }
}

TEST(WeightModelTest, TraceFileParsing) {
  const std::string path = ::testing::TempDir() + "tlb_trace_test.csv";
  {
    std::ofstream out(path);
    out << "# object sizes\n1.5, 2.5\n8\n";
  }
  const auto model = workload::parse_weight_model("trace(" + path + ")");
  const auto* trace = dynamic_cast<const workload::TraceWeights*>(model.get());
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->trace_length(), 3u);
  std::remove(path.c_str());
  EXPECT_THROW(workload::parse_weight_model("trace(/nonexistent/file.csv)"),
               std::invalid_argument);
}

// ---- spec parsing ---------------------------------------------------------

TEST(WeightModelTest, SpecRoundTripsThroughName) {
  for (const char* spec :
       {"unit", "uniform(10)", "bimodal(50,0.1)", "twopoint(5,32)",
        "zipf(1.2,64)", "pareto(2.5,64)", "octaves(8)",
        "mix(1:0.5,8:0.5)"}) {
    const auto model = workload::parse_weight_model(spec);
    EXPECT_EQ(model->name(), spec);
    // name() itself must re-parse to the same canonical form.
    EXPECT_EQ(workload::parse_weight_model(model->name())->name(),
              model->name());
  }
}

TEST(WeightModelTest, ParseErrors) {
  for (const char* spec :
       {"nope", "pareto", "pareto(x)", "pareto(2.5", "uniform(0.5)",
        "zipf(1.2)", "twopoint(5)", "mix(1)", "mix(1:0)", "bimodal(50,2)",
        "octaves(99)", ""}) {
    EXPECT_THROW(workload::parse_weight_model(spec), std::invalid_argument)
        << spec;
  }
}

// ---- arrival processes ----------------------------------------------------

TEST(ArrivalTest, SpecRoundTripsThroughName) {
  for (const char* spec :
       {"batch", "poisson(20,0.02)", "burst(50,400,0.02)"}) {
    const auto process = workload::parse_arrival_process(spec);
    EXPECT_EQ(process->name(), spec);
  }
  // Defaulted completion rate renders explicitly.
  EXPECT_EQ(workload::parse_arrival_process("poisson(20)")->name(),
            "poisson(20,0.02)");
}

TEST(ArrivalTest, ParseErrors) {
  for (const char* spec : {"nope", "poisson", "poisson(0)", "poisson(5,2)",
                           "burst(50)", "burst(0,10)", "batch(1)",
                           // Non-finite parameters: NaN fails an ordered
                           // bound only if the bound is written for it, and
                           // an infinite rate or size never ends a round.
                           "poisson(inf,0.01)", "poisson(nan,0.01)",
                           "poisson(20,nan)", "poisson(20,inf)",
                           "burst(50,400,inf)", "burst(50,400,nan)",
                           "burst(50,inf)", "burst(inf,10)", "burst(nan,10)",
                           "burst(50,1e30)"}) {
    EXPECT_THROW(workload::parse_arrival_process(spec), std::invalid_argument)
        << spec;
  }
}

TEST(ArrivalTest, BurstScheduleIsExact) {
  const workload::BurstArrivals burst(50, 400, 0.02);
  Rng rng(1);
  EXPECT_EQ(burst.arrivals(0, rng), 400u);
  EXPECT_EQ(burst.arrivals(1, rng), 0u);
  EXPECT_EQ(burst.arrivals(49, rng), 0u);
  EXPECT_EQ(burst.arrivals(50, rng), 400u);
  EXPECT_DOUBLE_EQ(burst.mean_rate(), 8.0);
}

TEST(ArrivalTest, PoissonSamplerMeanAndDeterminism) {
  Rng rng(42);
  double sum = 0.0;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    sum += static_cast<double>(workload::sample_poisson(rng, 20.0));
  }
  EXPECT_NEAR(sum / draws, 20.0, 0.2);
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(workload::sample_poisson(a, 3.5),
              workload::sample_poisson(b, 3.5));
  }
}

// ---- class-table reduction ------------------------------------------------

TEST(WeightClassTest, MixtureConvertsExactly) {
  const auto model = workload::parse_weight_model("mix(1:0.7,4:0.2,16:0.1)");
  Rng rng(1);
  const auto classes = workload::to_weight_classes(*model, 64, rng);
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_DOUBLE_EQ(classes[0].weight, 1.0);
  EXPECT_NEAR(classes[0].probability, 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(classes[2].weight, 16.0);
}

TEST(WeightClassTest, TwoPointIsRejectedLoudly) {
  // twopoint's heavy count describes one batch, not a per-task
  // distribution; a silent reduction to unit weights would simulate the
  // wrong workload, so the conversion must refuse.
  const workload::TwoPointWeights model(10, 50.0);
  Rng rng(1);
  EXPECT_THROW(workload::to_weight_classes(model, 64, rng),
               std::invalid_argument);
}

TEST(WeightClassTest, OctavesAndZipfConvertExactly) {
  Rng rng(1);
  const auto oct =
      workload::to_weight_classes(workload::OctaveWeights(4), 64, rng);
  ASSERT_EQ(oct.size(), 5u);
  double total = 0.0;
  for (std::size_t g = 0; g < oct.size(); ++g) {
    EXPECT_DOUBLE_EQ(oct[g].weight, std::ldexp(1.0, static_cast<int>(g)));
    total += oct[g].probability;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(oct[0].probability, 0.5);   // P(2^0) = 1/2
  EXPECT_DOUBLE_EQ(oct[4].probability, 1.0 / 16.0);  // truncation mass

  const auto zipf =
      workload::to_weight_classes(workload::ZipfWeights(1.0, 8), 64, rng);
  ASSERT_EQ(zipf.size(), 8u);
  total = 0.0;
  for (const auto& c : zipf) total += c.probability;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // P(1)/P(2) = 2 for s = 1.
  EXPECT_NEAR(zipf[0].probability / zipf[1].probability, 2.0, 1e-9);
}

TEST(WeightClassTest, ContinuousModelDiscretizes) {
  const auto model = workload::parse_weight_model("pareto(2.5,64)");
  Rng rng(2);
  const auto classes = workload::to_weight_classes(*model, 64, rng);
  EXPECT_LE(classes.size(), 64u);
  EXPECT_GE(classes.size(), 8u);
  double total_p = 0.0, mean = 0.0;
  for (const auto& c : classes) {
    EXPECT_GE(c.weight, 1.0);
    total_p += c.probability;
    mean += c.weight * c.probability;
  }
  EXPECT_NEAR(total_p, 1.0, 1e-9);
  const auto* pareto = dynamic_cast<const workload::ParetoWeights*>(model.get());
  ASSERT_NE(pareto, nullptr);
  EXPECT_NEAR(mean, pareto->mean(), 0.05 * pareto->mean());
}

// ---- scenario specs -------------------------------------------------------

TEST(ScenarioSpecTest, ParseRoundTrip) {
  for (const char* text : {
           "user:complete:twopoint(10,50):batch",
           "resource:hypercube:pareto(2.5,64):batch",
           "graphuser:regular:zipf(1.1,64):batch",
           "mixed(0.5):torus:octaves(6):batch",
           "user:complete:mix(1:0.9,8:0.1):poisson(20,0.02)",
           "seqthresh:complete:uniform(8):batch",
           "parthresh:complete:zipf(1.1,64):batch",
           "twochoice(2):complete:unit:batch",
           "twochoice(4):complete:bimodal(8,0.1):batch",
           "onebeta(0.5):complete:uniform(8):batch",
           "selfish:complete:uniform(8):batch",
           "firstfit:complete:pareto(2.5,64):batch",
       }) {
    const auto spec = workload::ScenarioSpec::parse(text);
    EXPECT_EQ(spec.canonical(), text);
    // canonical() must itself re-parse to the identical canonical form.
    EXPECT_EQ(workload::ScenarioSpec::parse(spec.canonical()).canonical(),
              spec.canonical());
  }
}

TEST(ScenarioSpecTest, DefaultsFillWeightsAndArrivals) {
  const auto spec = workload::ScenarioSpec::parse("resource:hypercube");
  EXPECT_EQ(spec.canonical(), "resource:hypercube:unit:batch");
}

TEST(ScenarioSpecTest, ParseErrors) {
  for (const char* text : {
           "user",                          // too few fields
           "bogus:complete",                // unknown protocol
           "user:bogus",                    // unknown family
           "user:hypercube",                // user needs complete graph
           "resource:torus:pareto(2):poisson(5)",  // churn needs user:complete
           "mixed(1.5):torus",              // beta out of range
           "mixed(:torus",                  // malformed mixed
           "user:complete:nope",            // bad weight model
           "user:complete:unit:nope",       // bad arrival process
           "seqthresh:hypercube",           // baselines need complete
           "twochoice:torus",               // baselines need complete
           "selfish:complete:unit:poisson(5,0.02)",  // baselines are batch-only
           "user:complete:unit:poisson(inf,0.01)",   // unbounded arrivals
           "user:complete:unit:poisson(20,nan)",     // NaN completion rate
           "twochoice(0):complete",         // d out of range
           "twochoice(2.5):complete",       // d not an integer
           "twochoice(:complete",           // malformed parameter
           "onebeta(1.5):complete",         // beta out of range
           "onebeta(x):complete",           // beta not a number
           "onebeta(0.5x):complete",        // trailing junk after the number
           "twochoice(2,5):complete",       // trailing junk (second arg)
           "firstfit(1):complete",          // firstfit takes no parameter
       }) {
    EXPECT_THROW(workload::ScenarioSpec::parse(text), std::invalid_argument)
        << text;
  }
}

TEST(ScenarioSpecTest, RegistryEntriesAllParse) {
  for (const auto& named : workload::scenario_registry()) {
    EXPECT_NO_THROW({
      const auto spec = workload::resolve_scenario(named.name);
      EXPECT_EQ(spec.canonical(),
                workload::ScenarioSpec::parse(named.spec).canonical());
    }) << named.name;
  }
}

TEST(ScenarioRunTest, TwoPointChurnFailsLoudly) {
  workload::ScenarioParams params;
  params.n = 16;
  const workload::Scenario scenario(
      workload::ScenarioSpec::parse(
          "user:complete:twopoint(5,8):poisson(5,0.02)"),
      params);
  EXPECT_THROW(scenario.run(2, 1, 1), std::invalid_argument);
}

TEST(ScenarioRunTest, RejectsNonFiniteBatchParameters) {
  // NaN and ±inf slip through ordered `x <= 0` checks: a NaN threshold
  // reads every resource as balanced (0 rounds), a NaN alpha never moves a
  // task (the round cap). Both must fail at construction instead, for every
  // batch protocol family.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* spec :
       {"user:complete:unit", "user:complete:uniform(8)",
        "resource:hypercube:pareto(2.5,64)", "graphuser:regular:zipf(1.1,64)",
        "mixed(0.5):torus:octaves(8)"}) {
    for (const double x : {nan, inf, -inf}) {
      workload::ScenarioParams eps_params;
      eps_params.n = 64;
      eps_params.eps = x;
      EXPECT_THROW(workload::Scenario(workload::ScenarioSpec::parse(spec),
                                      eps_params),
                   std::invalid_argument)
          << spec << " eps=" << x;
      workload::ScenarioParams alpha_params;
      alpha_params.n = 64;
      alpha_params.alpha = x;
      EXPECT_THROW(workload::Scenario(workload::ScenarioSpec::parse(spec),
                                      alpha_params),
                   std::invalid_argument)
          << spec << " alpha=" << x;
    }
  }
  for (const double x : {nan, inf, -inf, 0.0}) {
    EXPECT_THROW((void)core::threshold_value(core::ThresholdKind::kAboveAverage,
                                             100.0, 10, 1.0, x),
                 std::invalid_argument)
        << x;
  }
}

// ---- scenario runs: determinism across thread counts ----------------------

TEST(ScenarioRunTest, BatchRunIdenticalAcrossThreadCounts) {
  workload::ScenarioParams params;
  params.n = 32;
  params.load_factor = 4;
  const workload::Scenario scenario(
      workload::ScenarioSpec::parse("resource:hypercube:pareto(2.5,64)"),
      params);
  const auto one = scenario.run(12, 99, 1);
  const auto four = scenario.run(12, 99, 4);
  ASSERT_EQ(one.stats.rounds_samples.size(), four.stats.rounds_samples.size());
  for (std::size_t i = 0; i < one.stats.rounds_samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(one.stats.rounds_samples[i],
                     four.stats.rounds_samples[i]);
  }
  EXPECT_EQ(one.json(), four.json());
}

TEST(ScenarioRunTest, ChurnRunIdenticalAcrossThreadCounts) {
  workload::ScenarioParams params;
  params.n = 40;
  params.warmup = 100;
  params.measure = 200;
  const workload::Scenario scenario(
      workload::ScenarioSpec::parse(
          "user:complete:mix(1:0.9,8:0.1):poisson(10,0.02)"),
      params);
  const auto one = scenario.run(8, 7, 1);
  const auto four = scenario.run(8, 7, 4);
  EXPECT_EQ(one.json(), four.json());
}

TEST(ScenarioRunTest, UserScenarioBalancesAndReportsJson) {
  workload::ScenarioParams params;
  params.n = 64;
  params.load_factor = 4;
  const workload::Scenario scenario(
      workload::ScenarioSpec::parse("user:complete:twopoint(4,16)"), params);
  const auto result = scenario.run(6, 1, 0);
  EXPECT_EQ(result.stats.unbalanced, 0u);
  const std::string json = result.json();
  EXPECT_NE(json.find("\"scenario\":\"user:complete:twopoint(4,16):batch\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"batch\""), std::string::npos);
  EXPECT_NE(json.find("\"results\":{"), std::string::npos);
}

TEST(RunUserTrialTest, FallsBackToExactEngineBeyondClassLimit) {
  // > kMaxClasses distinct weights: the grouped engine cannot represent the
  // task set; run_user_trial must degrade to the exact engine instead of
  // letting the constructor's throw abort the run.
  const std::size_t m = 200;
  std::vector<double> weights;
  weights.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    weights.push_back(1.0 + static_cast<double>(i) * 0.01);  // all distinct
  }
  const tasks::TaskSet ts(std::move(weights));
  const graph::Node n = 16;
  core::UserProtocolConfig cfg;
  cfg.threshold = core::threshold_value(core::ThresholdKind::kAboveAverage,
                                        ts, n, /*eps=*/0.25);
  ASSERT_FALSE(workload::try_grouped_user_engine(ts, n, cfg));
  Rng rng(5);
  core::RunResult result;
  ASSERT_NO_THROW(result = workload::run_user_trial(
                      ts, n, cfg, tasks::all_on_one(ts), rng,
                      {.max_rounds = 20000}));
  EXPECT_TRUE(result.balanced);
}

// ---- JSON writer ----------------------------------------------------------

TEST(JsonTest, OrderedAndEscaped) {
  util::Json j;
  j.add("b", 2.5).add("a", std::string("x\"y")).add("flag", true);
  EXPECT_EQ(j.str(), "{\"b\":2.5,\"a\":\"x\\\"y\",\"flag\":true}");
}

TEST(JsonTest, NumbersRoundTripShortest) {
  EXPECT_EQ(util::Json::number(0.1), "0.1");
  EXPECT_EQ(util::Json::number(42.0), "42");
  EXPECT_EQ(util::Json::array({1.0, 2.5}), "[1,2.5]");
}

}  // namespace
