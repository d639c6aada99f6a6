// Tests for the perf-trajectory gate stack: the raw-text-preserving JSON
// reader (util::parse_json), BENCH_perf.json trajectory parsing, and
// evaluate_gate's verdicts — pass on identical counters, fail on a single
// bit of counter drift or a preset missing from head, wall regression
// against the threshold, a head entry's declared rebaseline, and the
// renderers' key content.
#include "tlb/obs/perf_report.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "tlb/util/json_parse.hpp"

namespace {

using namespace tlb;
using obs::GateOptions;
using obs::GateReport;
using obs::TrajectoryEntry;
using util::JsonValue;

TEST(JsonParseTest, RoundTripsScalarsAndPreservesRawNumbers) {
  const JsonValue v = util::parse_json(
      R"({"a":1,"b":-2.5e3,"c":"x\n\"yA","d":[true,false,null],)"
      R"("e":{"nested":0.1000}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("a").raw, "1");
  EXPECT_EQ(v.at("a").number, 1.0);
  EXPECT_EQ(v.at("b").raw, "-2.5e3");
  EXPECT_EQ(v.at("b").number, -2500.0);
  EXPECT_EQ(v.at("c").string, "x\n\"yA");
  ASSERT_EQ(v.at("d").items.size(), 3u);
  EXPECT_TRUE(v.at("d").items[0].boolean);
  EXPECT_FALSE(v.at("d").items[1].boolean);
  EXPECT_TRUE(v.at("d").items[2].is_null());
  // Raw text survives even when the double round-trip would normalise it.
  EXPECT_EQ(v.at("e").at("nested").raw, "0.1000");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), std::out_of_range);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_THROW((void)util::parse_json(""), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("{"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("[1,]"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("{\"a\":1} trailing"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("01"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("1."), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("\"unterminated"), util::JsonParseError);
  EXPECT_THROW((void)util::parse_json("nul"), util::JsonParseError);
  try {
    (void)util::parse_json("[1, x]");
    FAIL() << "expected JsonParseError";
  } catch (const util::JsonParseError& e) {
    EXPECT_EQ(e.offset(), 4u);  // byte offset of the bad token
  }
}

/// A minimal but structurally faithful trajectory: two entries, two presets
/// each, timings present.
std::string trajectory_json() {
  return R"([
 {"label":"base","set":"smoke","report":{"suite":"perf","seed":42,"deterministic":false,"presets":[
   {"name":"p1","scenario":"user:complete:unit:batch","n":4096,"m":40960,"rounds":12,"migrations":51234,"balanced":true,"final_overloaded":0,"run_ms":10.0,"rounds_per_sec":1200.0,"migrations_per_sec":5000000.0,"tail_speedup":100.0},
   {"name":"p2","scenario":"arena:churn","n":4096,"m":32768,"rounds":40,"migrations":70000,"balanced":true,"final_overloaded":3,"run_ms":5.0,"rounds_per_sec":8000.0,"migrations_per_sec":14000000.0,"tail_speedup":1.0}]}},
 {"label":"head","set":"smoke","report":{"suite":"perf","seed":42,"deterministic":false,"presets":[
   {"name":"p1","scenario":"user:complete:unit:batch","n":4096,"m":40960,"rounds":12,"migrations":51234,"balanced":true,"final_overloaded":0,"run_ms":9.0,"rounds_per_sec":1300.0,"migrations_per_sec":5500000.0,"tail_speedup":110.0},
   {"name":"p2","scenario":"arena:churn","n":4096,"m":32768,"rounds":40,"migrations":70000,"balanced":true,"final_overloaded":3,"run_ms":5.1,"rounds_per_sec":7900.0,"migrations_per_sec":13900000.0,"tail_speedup":1.0}]}}
])";
}

TEST(TrajectoryParseTest, ParsesLabelsSetsAndCounters) {
  const std::vector<TrajectoryEntry> entries =
      obs::parse_trajectory(trajectory_json());
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].label, "base");
  EXPECT_EQ(entries[0].set, "smoke");
  EXPECT_EQ(entries[0].seed, 42u);
  EXPECT_FALSE(entries[0].deterministic);
  ASSERT_EQ(entries[0].presets.size(), 2u);
  const obs::PresetRecord* p1 = entries[0].find("p1");
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1->scenario, "user:complete:unit:batch");
  EXPECT_TRUE(p1->has_timings);
  EXPECT_EQ(p1->migrations_per_sec, 5000000.0);
  // Counters carry the raw number text, in report order.
  ASSERT_EQ(p1->counters.size(), 6u);
  EXPECT_EQ(p1->counters[0], (std::pair<std::string, std::string>{"n", "4096"}));
  EXPECT_EQ(p1->counters[3].first, "migrations");
  EXPECT_EQ(p1->counters[3].second, "51234");
  EXPECT_EQ(p1->counters[4].second, "true");  // balanced
  EXPECT_EQ(entries[0].find("nope"), nullptr);
}

TEST(TrajectoryParseTest, RejectsStructurallyWrongDocuments) {
  EXPECT_THROW(obs::parse_trajectory("{}"), std::runtime_error);
  EXPECT_THROW(obs::parse_trajectory("[1]"), std::runtime_error);
  EXPECT_THROW(obs::parse_trajectory(R"([{"label":"x"}])"), std::out_of_range);
  EXPECT_THROW(obs::parse_trajectory("[}"), util::JsonParseError);
}

TEST(TrajectoryParseTest, EmptyTrajectoryIsNamedDirectly) {
  // A never-appended file ("" / whitespace) and a bare [] both get the
  // explicit "empty trajectory" diagnostic, not a downstream parse or
  // indexing error.
  for (const char* text : {"", "  \n\t\r\n", "[]", " [ ] \n"}) {
    try {
      (void)obs::parse_trajectory(text);
      ADD_FAILURE() << "expected empty-trajectory throw for: '" << text
                    << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("empty trajectory"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(GateTest, PassesOnIdenticalCountersAndHealthyWall) {
  const auto entries = obs::parse_trajectory(trajectory_json());
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.counters_ok());
  EXPECT_TRUE(report.wall_ok());
  EXPECT_EQ(report.shared, 2u);
  EXPECT_EQ(report.counter_drifts, 0u);
  EXPECT_EQ(report.missing_in_head, 0u);
  EXPECT_EQ(report.wall_regressions, 0u);
  ASSERT_EQ(report.deltas.size(), 2u);
  EXPECT_TRUE(report.deltas[0].has_wall);
  EXPECT_EQ(report.deltas[0].base_mps, 5000000.0);
  EXPECT_EQ(report.deltas[0].head_mps, 5500000.0);
}

TEST(GateTest, FailsOnOneBitOfCounterDrift) {
  // 51234 -> 51235 migrations on p1: bit-level drift, everything else
  // untouched.
  std::string text = trajectory_json();
  const std::string needle = "\"migrations\":51234";
  const std::size_t second = text.rfind(needle);
  text.replace(second, needle.size(), "\"migrations\":51235");

  const auto entries = obs::parse_trajectory(text);
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.counters_ok());
  EXPECT_EQ(report.counter_drifts, 1u);
  ASSERT_EQ(report.deltas[0].drifts.size(), 1u);
  EXPECT_EQ(report.deltas[0].drifts[0].field, "migrations");
  EXPECT_EQ(report.deltas[0].drifts[0].base, "51234");
  EXPECT_EQ(report.deltas[0].drifts[0].head, "51235");
  // The markdown names the drifted field; the JSON flags the failure.
  EXPECT_NE(obs::render_markdown(report).find("p1.migrations"),
            std::string::npos);
  EXPECT_NE(obs::render_json(report).find("\"ok\":false"),
            std::string::npos);
  // Counters gate off: the same drift no longer fails.
  GateOptions lax;
  lax.counters = false;
  EXPECT_TRUE(obs::evaluate_gate(entries[0], entries[1], lax).ok());
}

TEST(GateTest, FailsWhenAPresetDisappearsFromHead) {
  std::string text = trajectory_json();
  // Drop p2 from the head entry.
  const std::size_t p2 = text.rfind(R"(,
   {"name":"p2")");
  const std::size_t end = text.find("]}}", p2);
  text.erase(p2, end - p2);

  const auto entries = obs::parse_trajectory(text);
  ASSERT_EQ(entries[1].presets.size(), 1u);
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing_in_head, 1u);
  EXPECT_EQ(report.shared, 1u);
  EXPECT_NE(obs::render_markdown(report).find("MISSING IN HEAD"),
            std::string::npos);
}

TEST(GateTest, NewPresetInHeadIsReportedNotFailed) {
  // Swap base/head: p-only-in-head becomes new coverage, never a failure.
  std::string text = trajectory_json();
  const std::size_t p2 = text.find(R"(,
   {"name":"p2")");
  const std::size_t end = text.find("]}}", p2);
  text.erase(p2, end - p2);  // base loses p2; head keeps it

  const auto entries = obs::parse_trajectory(text);
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.missing_in_head, 0u);
  ASSERT_EQ(report.deltas.size(), 2u);
  EXPECT_FALSE(report.deltas[1].in_base);
  EXPECT_TRUE(report.deltas[1].in_head);
  EXPECT_NE(obs::render_markdown(report).find("new in head"),
            std::string::npos);
}

TEST(GateTest, WallRegressionRespectsThreshold) {
  // Head p1 throughput drops to 60% of base: fails at the default 25%
  // threshold, passes at 50%, and passes with the wall gate off.
  std::string text = trajectory_json();
  const std::string needle = "\"migrations_per_sec\":5500000.0";
  text.replace(text.find(needle), needle.size(),
               "\"migrations_per_sec\":3000000.0");

  const auto entries = obs::parse_trajectory(text);
  const GateReport strict =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_FALSE(strict.ok());
  EXPECT_TRUE(strict.counters_ok());
  EXPECT_EQ(strict.wall_regressions, 1u);
  EXPECT_TRUE(strict.deltas[0].wall_regressed);
  EXPECT_EQ(strict.deltas[0].wall_ratio, 0.6);
  EXPECT_NE(obs::render_markdown(strict).find("REGRESSED"),
            std::string::npos);

  GateOptions loose;
  loose.wall_threshold = 0.5;
  EXPECT_TRUE(obs::evaluate_gate(entries[0], entries[1], loose).ok());

  GateOptions no_wall;
  no_wall.wall = false;
  EXPECT_TRUE(obs::evaluate_gate(entries[0], entries[1], no_wall).ok());
}

TEST(GateTest, DeterministicEntriesGateOnCountersAlone) {
  // Strip every timing field (deterministic reports): wall checks skip,
  // counters still gate.
  const std::string text = R"([
 {"label":"a","set":"smoke","report":{"suite":"perf","seed":1,"deterministic":true,"presets":[
   {"name":"p","n":64,"m":512,"rounds":7,"migrations":900,"balanced":true,"final_overloaded":0}]}},
 {"label":"b","set":"smoke","report":{"suite":"perf","seed":1,"deterministic":true,"presets":[
   {"name":"p","n":64,"m":512,"rounds":7,"migrations":900,"balanced":true,"final_overloaded":0}]}}
])";
  const auto entries = obs::parse_trajectory(text);
  EXPECT_FALSE(entries[0].presets[0].has_timings);
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.deltas[0].has_wall);
  EXPECT_EQ(report.wall_regressions, 0u);
}

/// trajectory_json() with head's p1 migrations drifted by one (51234 ->
/// 51235) and `rebaseline` (raw JSON, "" for none) added to the head entry.
std::string drifted_trajectory(const std::string& rebaseline) {
  std::string text = trajectory_json();
  const std::string needle = "\"migrations\":51234";
  text.replace(text.rfind(needle), needle.size(), "\"migrations\":51235");
  if (!rebaseline.empty()) {
    const std::string head = R"({"label":"head","set":"smoke",)";
    text.replace(text.find(head), head.size(),
                 head + "\"rebaseline\":" + rebaseline + ",");
  }
  return text;
}

TEST(GateRebaselineTest, DeclaredDriftIsReportedNotFailed) {
  const auto entries = obs::parse_trajectory(drifted_trajectory(
      R"({"presets":["p1"],"reason":"new completion sampler"})"));
  ASSERT_TRUE(entries[1].rebaseline.has_value());
  EXPECT_FALSE(entries[0].rebaseline.has_value());
  EXPECT_EQ(entries[1].rebaseline->presets,
            std::vector<std::string>{"p1"});
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.rebaseline_ok());
  EXPECT_EQ(report.counter_drifts, 0u);
  EXPECT_EQ(report.rebaselined, 1u);
  EXPECT_TRUE(report.deltas[0].rebaselined);
  ASSERT_EQ(report.deltas[0].drifts.size(), 1u);  // still itemised
  EXPECT_FALSE(report.deltas[1].rebaselined);
  const std::string md = obs::render_markdown(report);
  EXPECT_NE(md.find("REBASELINED"), std::string::npos);
  EXPECT_NE(md.find("new completion sampler"), std::string::npos);
  EXPECT_NE(md.find("(rebaselined)"), std::string::npos);
  const std::string json = obs::render_json(report);
  EXPECT_NE(json.find("\"rebaselined\":true"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  // The declaration belongs to the head: as the base it excuses nothing.
  const GateReport reversed =
      obs::evaluate_gate(entries[1], entries[0], GateOptions{});
  EXPECT_FALSE(reversed.ok());
  EXPECT_EQ(reversed.counter_drifts, 1u);
}

TEST(GateRebaselineTest, DriftOnAnUnlistedPresetStillFails) {
  const auto entries = obs::parse_trajectory(drifted_trajectory(
      R"({"presets":["p2"],"reason":"new completion sampler"})"));
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.counter_drifts, 1u);  // p1, undeclared
  EXPECT_EQ(report.rebaselined, 0u);
  // p2 is listed but identical, which fails on its own too.
  EXPECT_EQ(report.undrifted_rebaseline, std::vector<std::string>{"p2"});
  EXPECT_NE(obs::render_markdown(report).find("DRIFT (1 field(s))"),
            std::string::npos);
}

TEST(GateRebaselineTest, ListedPresetThatDidNotDriftFails) {
  // p1 drifted and is declared; p2 and an unknown preset are listed too
  // but did not drift, so the declaration overclaims.
  const auto entries = obs::parse_trajectory(drifted_trajectory(
      R"({"presets":["p1","p2","gone"],"reason":"new completion sampler"})"));
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.rebaseline_ok());
  EXPECT_EQ(report.counter_drifts, 0u);
  EXPECT_EQ(report.rebaselined, 1u);
  EXPECT_EQ(report.undrifted_rebaseline,
            (std::vector<std::string>{"p2", "gone"}));
  const std::string md = obs::render_markdown(report);
  EXPECT_NE(md.find("`p2`, which did not drift"), std::string::npos);
  EXPECT_NE(md.find("INVALID"), std::string::npos);
  EXPECT_NE(obs::render_json(report).find("\"undrifted\":[\"p2\",\"gone\"]"),
            std::string::npos);
}

TEST(GateRebaselineTest, EmptyReasonFails) {
  for (const char* rebaseline :
       {R"({"presets":["p1"],"reason":""})", R"({"presets":["p1"],"reason":" \n"})",
        R"({"presets":["p1"]})"}) {
    const auto entries =
        obs::parse_trajectory(drifted_trajectory(rebaseline));
    const GateReport report =
        obs::evaluate_gate(entries[0], entries[1], GateOptions{});
    EXPECT_FALSE(report.ok()) << rebaseline;
    EXPECT_FALSE(report.rebaseline_ok()) << rebaseline;
    EXPECT_EQ(report.counter_drifts, 0u) << rebaseline;
    EXPECT_TRUE(report.undrifted_rebaseline.empty()) << rebaseline;
    EXPECT_NE(obs::render_markdown(report).find("<no reason>"),
              std::string::npos);
  }
  // A malformed declaration is a parse error, not a silent pass.
  EXPECT_THROW(obs::parse_trajectory(drifted_trajectory(R"(["p1"])")),
               std::runtime_error);
  EXPECT_THROW(
      obs::parse_trajectory(drifted_trajectory(R"({"presets":"p1"})")),
      std::runtime_error);
  EXPECT_THROW(
      obs::parse_trajectory(drifted_trajectory(R"({"presets":[1]})")),
      std::runtime_error);
}

TEST(GateTest, NoSharedPresetsFailsTheCounterGate) {
  const std::string text = R"([
 {"label":"a","set":"smoke","report":{"seed":1,"presets":[
   {"name":"only-in-a","n":1,"m":1,"rounds":1,"migrations":1,"balanced":true,"final_overloaded":0}]}},
 {"label":"b","set":"smoke","report":{"seed":1,"presets":[
   {"name":"only-in-b","n":1,"m":1,"rounds":1,"migrations":1,"balanced":true,"final_overloaded":0}]}}
])";
  const auto entries = obs::parse_trajectory(text);
  const GateReport report =
      obs::evaluate_gate(entries[0], entries[1], GateOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.shared, 0u);
}

}  // namespace
