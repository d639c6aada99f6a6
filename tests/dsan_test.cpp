// Determinism-sanitizer tests: fingerprint byte-identity across
// engine-thread counts for all three user-protocol engines (the property
// the golden traces pin in CI), draw-budget accounting on the StepProbe,
// golden-trace render/parse/check round-trips with their state-vs-work
// verdicts, the record/check file helper both front ends share, and — the
// tool's reason to exist — a planted one-off RNG draw that the bisection
// primitives must narrow to the exact round, phase and resource.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/overloaded_set.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/dsan/bisect.hpp"
#include "tlb/dsan/fingerprint.hpp"
#include "tlb/dsan/observer.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/dsan/trace.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/obs/trace_event.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"

namespace {

using namespace tlb;
using tasks::TaskSet;
using util::Rng;

TaskSet continuous_tasks(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + 7.0 * rng.uniform01();
  return TaskSet(std::move(w));  // continuous weights -> exact engine
}

TaskSet twopoint_tasks(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = rng.uniform01() < 0.9 ? 1.0 : 8.0;
  return TaskSet(std::move(w));  // two classes -> grouped engine
}

core::UserProtocolConfig user_config(const TaskSet& ts, graph::Node n,
                                     std::size_t threads,
                                     dsan::StepProbe* probe) {
  core::UserProtocolConfig cfg;
  cfg.threshold = 1.05 * ts.total_weight() / static_cast<double>(n) +
                  ts.max_weight();
  cfg.options.threads = threads;
  cfg.options.dsan = probe;
  return cfg;
}

/// Drive one exact-engine run to balance and return the fingerprint rows.
std::vector<dsan::Row> exact_rows(std::size_t threads, long plant = -1,
                                  bool detail = false,
                                  long capture_round = -1,
                                  std::vector<double>* loads = nullptr) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0xD5A1);
  dsan::StepProbe probe;
  if (plant >= 0) probe.set_plant_step(plant);
  if (detail) probe.set_detail_step(dsan::StepProbe::kDetailAll);
  core::UserControlledEngine engine(ts, n,
                                    user_config(ts, n, threads, &probe));
  engine.reset(tasks::all_on_one(ts));
  dsan::FingerprintObserver obs(&probe);
  obs.set_capture_round(capture_round);
  Rng rng(29);
  (void)engine::drive(engine, rng, {}, &obs);
  EXPECT_TRUE(probe.violations().empty());
  if (loads != nullptr) *loads = obs.captured_loads();
  return obs.rows();
}

std::vector<dsan::Row> grouped_rows(std::size_t threads) {
  const graph::Node n = 32;
  const TaskSet ts = twopoint_tasks(2048, 0xD5A2);
  dsan::StepProbe probe;
  core::GroupedUserEngine engine(ts, n, user_config(ts, n, threads, &probe));
  engine.reset(tasks::all_on_one(ts));
  dsan::FingerprintObserver obs(&probe);
  Rng rng(31);
  (void)engine::drive(engine, rng, {}, &obs);
  EXPECT_TRUE(probe.violations().empty());
  return obs.rows();
}

std::vector<dsan::Row> dynamic_rows(std::size_t threads) {
  core::DynamicConfig cfg;
  cfg.n = 64;
  cfg.arrival_rate = 20.0;
  cfg.completion_rate = 0.02;
  cfg.eps = 0.2;
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  cfg.threads = threads;
  dsan::StepProbe probe;
  cfg.dsan = &probe;
  core::DynamicUserEngine engine(cfg);
  dsan::FingerprintObserver obs(&probe);
  Rng rng(37);
  engine::DriveOptions opt;
  opt.measure = 200;
  (void)engine::drive(engine, rng, opt, &obs);
  EXPECT_TRUE(probe.violations().empty());
  return obs.rows();
}

std::vector<std::uint64_t> fps(const std::vector<dsan::Row>& rows) {
  std::vector<std::uint64_t> out;
  out.reserve(rows.size());
  for (const dsan::Row& r : rows) out.push_back(r.fp);
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprint engine.

TEST(DigestTest, OrderAndValueSensitive) {
  dsan::Digest a;
  a.u64(1);
  a.u64(2);
  dsan::Digest b;
  b.u64(2);
  b.u64(1);
  EXPECT_NE(a.value(), b.value());
  dsan::Digest c;
  c.f64(0.0);
  dsan::Digest d;
  d.f64(-0.0);
  // bit_cast semantics: -0.0 and +0.0 are *different* states.
  EXPECT_NE(c.value(), d.value());
}

// ---------------------------------------------------------------------------
// Engine fingerprints: byte identity across engine-thread counts.

TEST(DsanEngineTest, ExactEngineFingerprintsIdenticalAcrossThreads) {
  const auto base = fps(exact_rows(1));
  ASSERT_GT(base.size(), 2u);
  EXPECT_EQ(base, fps(exact_rows(2)));
  EXPECT_EQ(base, fps(exact_rows(8)));
  EXPECT_EQ(base, fps(exact_rows(0)));
}

TEST(DsanEngineTest, GroupedEngineFingerprintsIdenticalAcrossThreads) {
  const auto base = fps(grouped_rows(1));
  ASSERT_GT(base.size(), 2u);
  EXPECT_EQ(base, fps(grouped_rows(2)));
  EXPECT_EQ(base, fps(grouped_rows(8)));
  EXPECT_EQ(base, fps(grouped_rows(0)));
}

TEST(DsanEngineTest, DynamicEngineFingerprintsIdenticalAcrossThreads) {
  const auto base = fps(dynamic_rows(1));
  ASSERT_EQ(base.size(), 201u);  // 200 rounds + the final-state row
  EXPECT_EQ(base, fps(dynamic_rows(2)));
  EXPECT_EQ(base, fps(dynamic_rows(8)));
  EXPECT_EQ(base, fps(dynamic_rows(0)));
}

/// The phase names a probed step records in detail mode.
template <class Engine>
std::vector<std::string> detail_phases(Engine& engine,
                                       dsan::StepProbe& probe) {
  Rng rng(43);
  engine.step(rng);
  std::vector<std::string> names;
  if (!probe.has_record()) return names;
  for (const dsan::PhaseDigest& p : probe.take().phases) {
    names.push_back(p.name);
  }
  return names;
}

TEST(DsanEngineTest, DetailPhasesNameEveryProbedEnginesPhases) {
  const graph::Node n = 64;
  {
    const TaskSet ts = continuous_tasks(2048, 0xD5A5);
    dsan::StepProbe probe;
    probe.set_detail_step(dsan::StepProbe::kDetailAll);
    core::UserControlledEngine engine(ts, n, user_config(ts, n, 2, &probe));
    engine.reset(tasks::all_on_one(ts));
    EXPECT_EQ(detail_phases(engine, probe),
              (std::vector<std::string>{"sample", "merge", "apply"}));
  }
  {
    const TaskSet ts = twopoint_tasks(2048, 0xD5A6);
    dsan::StepProbe probe;
    probe.set_detail_step(dsan::StepProbe::kDetailAll);
    core::GroupedUserEngine engine(ts, n, user_config(ts, n, 2, &probe));
    engine.reset(tasks::all_on_one(ts));
    EXPECT_EQ(detail_phases(engine, probe),
              (std::vector<std::string>{"sample", "apply"}));
  }
  {
    // The churn engine's own phases, then the shared grouped round's.
    core::DynamicConfig cfg;
    cfg.n = n;
    cfg.arrival_rate = 20.0;
    cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
    dsan::StepProbe probe;
    probe.set_detail_step(dsan::StepProbe::kDetailAll);
    cfg.dsan = &probe;
    core::DynamicUserEngine engine(cfg);
    EXPECT_EQ(detail_phases(engine, probe),
              (std::vector<std::string>{"arrivals", "completions", "sample",
                                        "apply"}));
  }
}

TEST(DsanEngineTest, RowsCarryDrawAccountingWhenProbed) {
  const auto rows = exact_rows(1);
  ASSERT_GT(rows.size(), 1u);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_TRUE(rows[i].has_draws) << "round " << rows[i].round;
    EXPECT_FALSE(rows[i].final_state);
  }
  // The final-state row is taken outside any step(): state-only.
  EXPECT_TRUE(rows.back().final_state);
  EXPECT_FALSE(rows.back().has_draws);
}

TEST(DsanEngineTest, ProbeDetachedRowsAreStateOnlyAndStillStable) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0xD5A3);
  const auto run = [&] {
    core::UserControlledEngine engine(
        ts, n, user_config(ts, n, 1, /*probe=*/nullptr));
    engine.reset(tasks::all_on_one(ts));
    dsan::FingerprintObserver obs;  // no probe wired at all
    Rng rng(41);
    (void)engine::drive(engine, rng, {}, &obs);
    return obs.rows();
  };
  const auto rows = run();
  ASSERT_GT(rows.size(), 1u);
  for (const dsan::Row& r : rows) EXPECT_FALSE(r.has_draws);
  EXPECT_EQ(fps(rows), fps(run()));
}

// ---------------------------------------------------------------------------
// Draw budgets.

TEST(StepProbeTest, BudgetViolationIsPinpointed) {
  dsan::StepProbe probe;
  Rng rng(1);
  probe.begin_step(rng);
  probe.arm_shards(2);
  {
    Rng srng(2);
    srng.attach_probe(probe.shard_slot(0));
    (void)srng();
    (void)srng();
    (void)srng();
    probe.expect_shard_draws(0, 2);  // declared 2, drew 3
  }
  {
    Rng srng(3);
    srng.attach_probe(probe.shard_slot(1));
    (void)srng();
    probe.expect_shard_draws(1, 1);  // honest
  }
  probe.end_step(rng);
  ASSERT_EQ(probe.violations().size(), 1u);
  const dsan::BudgetViolation& v = probe.violations()[0];
  EXPECT_EQ(v.step, 0);
  EXPECT_EQ(v.shard, 0u);
  EXPECT_EQ(v.expected, 2u);
  EXPECT_EQ(v.actual, 3u);
  EXPECT_NE(v.render().find("shard 0"), std::string::npos);
}

TEST(StepProbeTest, EngineRunsDeclareHonestBudgets) {
  // exact_rows() asserts probe.violations().empty() internally — at every
  // thread count, so the per-shard coin budgets survive resharding.
  (void)exact_rows(1);
  (void)exact_rows(0);
}

// ---------------------------------------------------------------------------
// Golden traces.

TEST(TraceTest, RenderParseCheckRoundTrip) {
  const auto rows = exact_rows(1);
  std::vector<dsan::TraceSection> sections;
  sections.push_back(dsan::make_section("exact", rows));
  const std::string text = dsan::render_trace(sections, 29);
  const std::vector<dsan::TraceSection> parsed = dsan::parse_trace(text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "exact");
  ASSERT_EQ(parsed[0].rows.size(), rows.size());
  EXPECT_TRUE(dsan::check_trace(parsed, sections).ok);
  // Byte-stable: render(parse(render(x))) == render(x).
  EXPECT_EQ(dsan::render_trace(parsed, 29), text);
}

TEST(TraceTest, CheckNamesTheFirstDivergentRow) {
  const auto rows = exact_rows(1);
  std::vector<dsan::TraceSection> golden;
  golden.push_back(dsan::make_section("exact", rows));
  auto current = golden;
  current[0].rows[3].fp[0] = current[0].rows[3].fp[0] == 'a' ? 'b' : 'a';
  const dsan::CheckResult r = dsan::check_trace(golden, current);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.section, "exact");
  EXPECT_EQ(r.round, golden[0].rows[3].round);

  // A run that stops early diverges at its first missing row.
  auto truncated = golden;
  truncated[0].rows.pop_back();
  EXPECT_FALSE(dsan::check_trace(golden, truncated).ok);
}

TEST(TraceTest, WorkOnlyDifferenceGetsTheWorkVerdict) {
  const auto rows = exact_rows(1);
  std::vector<dsan::TraceSection> golden;
  golden.push_back(dsan::make_section("exact", rows));
  golden.push_back(dsan::make_section("exact-again", rows));
  auto current = golden;
  // Only the work digests differ, from row 3 of the first section on.
  for (std::size_t i = 3; i < current[0].rows.size(); ++i) {
    std::string& w = current[0].rows[i].work;
    w[0] = w[0] == 'a' ? 'b' : 'a';
  }
  const dsan::CheckResult r = dsan::check_trace(golden, current);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.section, "exact");
  EXPECT_EQ(r.round, golden[0].rows[3].round);
  EXPECT_EQ(r.message.rfind("state identical; work diverges first at", 0),
            0u)
      << r.message;
}

TEST(TraceTest, StateDifferenceIsReportedBeforeAWorkDifference) {
  const auto rows = exact_rows(1);
  std::vector<dsan::TraceSection> golden;
  golden.push_back(dsan::make_section("first", rows));
  golden.push_back(dsan::make_section("second", rows));
  auto current = golden;
  // A work difference early in the first section, a state difference in
  // the second: the scan goes past the former and reports the latter.
  std::string& w = current[0].rows[1].work;
  w[0] = w[0] == 'a' ? 'b' : 'a';
  std::string& fp = current[1].rows[4].fp;
  fp[0] = fp[0] == 'a' ? 'b' : 'a';
  const dsan::CheckResult r = dsan::check_trace(golden, current);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.section, "second");
  EXPECT_EQ(r.round, golden[1].rows[4].round);
  EXPECT_NE(r.message.find("fingerprint mismatch"), std::string::npos);
}

TEST(TraceTest, TrackerCountersLandInTheWorkDigest) {
  // Two trackers with the same overloaded list, one of which did more
  // re-check work to get there: same state digest, different work digest.
  std::vector<double> loads = {0.0, 3.0, 1.0, 5.0};
  const auto over = [&loads](graph::Node r) { return loads[r] > 2.0; };
  core::OverloadedSet cheap;
  cheap.reset(4);
  cheap.mark_dirty(1);
  cheap.mark_dirty(3);
  cheap.flush(over);
  core::OverloadedSet dear;
  dear.reset(4);
  dear.mark_all_dirty();
  dear.flush(over);
  ASSERT_EQ(cheap.items(), dear.items());
  dsan::Digest cheap_state, cheap_work, dear_state, dear_work;
  dsan::digest_tracker(cheap, cheap_state, cheap_work);
  dsan::digest_tracker(dear, dear_state, dear_work);
  EXPECT_EQ(cheap_state.value(), dear_state.value());
  EXPECT_NE(cheap_work.value(), dear_work.value());
}

TEST(TraceTest, ParseRejectsNonTraces) {
  EXPECT_THROW((void)dsan::parse_trace(""), std::runtime_error);
  EXPECT_THROW((void)dsan::parse_trace("{}"), std::runtime_error);
  // v1 rows carry no work digest: they must be re-recorded, not misread.
  EXPECT_THROW((void)dsan::parse_trace(
                   R"({"dsan":"v1","seed":1,"sections":[{"name":"a",)"
                   R"("rows":[{"round":0,"fp":"0123456789abcdef"}]}]})"),
               std::runtime_error);
  EXPECT_THROW((void)dsan::parse_trace(
                   R"({"dsan":"v2","seed":1,"sections":[{"name":"a",)"
                   R"("rows":[{"round":0,"fp":"0123456789abcdef"}]}]})"),
               std::runtime_error);
  EXPECT_THROW((void)dsan::parse_trace(R"({"dsan":"v3","seed":1,)"
                                       R"("sections":[]})"),
               std::runtime_error);
}

TEST(TraceFilesTest, BadPathsFailAtConstruction) {
  // Construction does every check that can fail before a run: the golden
  // is read and parsed, the record file created.
  EXPECT_FALSE(dsan::TraceFiles("", "").active());
  const std::string dir = ::testing::TempDir();
  EXPECT_THROW(dsan::TraceFiles("", dir + "/tlb_dsan_missing_golden.dsan"),
               std::runtime_error);
  const std::string junk = dir + "/tlb_dsan_junk_golden.dsan";
  obs::write_text_file(junk, "{}");
  try {
    const dsan::TraceFiles files("", junk);
    ADD_FAILURE() << "a non-trace golden was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(junk), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(dsan::TraceFiles("/nonexistent-dir-for-tlb-test/out.dsan", ""),
               std::runtime_error);
}

TEST(TraceFilesTest, RecordThenCheckRoundTrips) {
  std::vector<dsan::TraceSection> sections;
  sections.push_back(dsan::make_section("exact", exact_rows(1)));
  const std::string path = ::testing::TempDir() + "/tlb_dsan_roundtrip.dsan";
  const dsan::TraceFiles record(path, "");
  EXPECT_TRUE(record.active());
  record.finish(sections, 29);

  const dsan::TraceFiles check("", path);
  EXPECT_NO_THROW(check.finish(sections, 29));
  auto current = sections;
  std::string& fp = current[0].rows[2].fp;
  fp[0] = fp[0] == 'a' ? 'b' : 'a';
  try {
    check.finish(current, 29);
    ADD_FAILURE() << "a diverged trace checked clean";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(
                  "dsan check failed against " + path + ": ", 0),
              0u)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Bisection.

TEST(BisectTest, PlantedDrawIsNarrowedToRoundPhaseAndResource) {
  constexpr long kPlant = 7;
  const auto clean = exact_rows(1);
  const auto planted = exact_rows(1, kPlant);
  ASSERT_GT(clean.size(), static_cast<std::size_t>(kPlant) + 1);

  const dsan::Divergence div = dsan::first_divergence(clean, planted);
  ASSERT_TRUE(div.found);
  // Probe steps are 0-based and equal the round index in batch mode, so
  // the planted draw surfaces at exactly its round — not one later.
  EXPECT_EQ(div.round, kPlant);
  EXPECT_FALSE(div.final_state);

  // Detail rerun: the extra master-stream draw shifts round_seed, so the
  // sampled departures — the "sample" phase — are the first to diverge.
  std::vector<double> clean_loads;
  std::vector<double> planted_loads;
  const auto clean_detail =
      exact_rows(1, -1, /*detail=*/true, div.round, &clean_loads);
  const auto planted_detail =
      exact_rows(1, kPlant, /*detail=*/true, div.round, &planted_loads);
  ASSERT_LT(div.index, clean_detail.size());
  ASSERT_LT(div.index, planted_detail.size());
  EXPECT_EQ(dsan::first_divergent_phase(clean_detail[div.index],
                                        planted_detail[div.index]),
            "sample");
  EXPECT_GE(dsan::first_divergent_resource(clean_loads, planted_loads), 0);

  dsan::BisectReport report;
  report.diverged = true;
  report.round = div.round;
  report.phase = "sample";
  report.resource = 0;
  EXPECT_NE(report.render().find("first divergent round: 7"),
            std::string::npos);
}

TEST(BisectTest, IdenticalRunsReportNoDivergence) {
  const dsan::Divergence div =
      dsan::first_divergence(exact_rows(2), exact_rows(8));
  EXPECT_FALSE(div.found);
  dsan::BisectReport report;
  EXPECT_NE(report.render().find("no divergence"), std::string::npos);
}

TEST(BisectTest, ResourceComparatorUsesBitEquality) {
  EXPECT_EQ(dsan::first_divergent_resource({1.0, 2.0}, {1.0, 2.0}), -1);
  EXPECT_EQ(dsan::first_divergent_resource({1.0, 2.0}, {1.0, 3.0}), 1);
  EXPECT_EQ(dsan::first_divergent_resource({0.0}, {-0.0}), 0);
  EXPECT_EQ(dsan::first_divergent_resource({1.0}, {1.0, 2.0}), 1);
}

}  // namespace
