// Metrics-observability tests: the determinism contract of the engine
// metrics — attaching a registry never changes a RunResult, and the
// deterministic snapshot serialises byte-identically across engine-thread
// counts {1, 2, 0}; and the metric surface itself — every engine's metric
// names, classes and registration order, and its trace span names, which
// the registry's serialisation and the benchmark's readers depend on.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/obs/trace_event.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/json_parse.hpp"
#include "tlb/util/rng.hpp"

namespace {

using namespace tlb;
using core::RunResult;
using obs::Registry;
using obs::Snapshot;
using tasks::TaskSet;
using util::Rng;

TaskSet continuous_tasks(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + 7.0 * rng.uniform01();
  return TaskSet(std::move(w));
}

core::UserProtocolConfig user_config(const TaskSet& ts, graph::Node n,
                                     std::size_t threads = 1) {
  core::UserProtocolConfig cfg;
  cfg.threshold = 1.05 * ts.total_weight() / static_cast<double>(n) +
                  ts.max_weight();
  cfg.options.threads = threads;
  return cfg;
}

TEST(EngineMetricsTest, AttachingObservabilityChangesNoResult) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B54);

  core::UserControlledEngine plain(ts, n, user_config(ts, n));
  Rng plain_rng(17);
  const RunResult expected =
      engine::reset_and_run(plain, tasks::all_on_one(ts), plain_rng);

  Registry reg;
  obs::TraceWriter trace;
  core::UserProtocolConfig cfg = user_config(ts, n);
  cfg.options.registry = &reg;
  cfg.options.trace = &trace;
  core::UserControlledEngine observed(ts, n, cfg);
  Rng observed_rng(17);
  const RunResult actual =
      engine::reset_and_run(observed, tasks::all_on_one(ts), observed_rng,
                            {.registry = &reg, .trace = &trace});

  EXPECT_EQ(expected.rounds, actual.rounds);
  EXPECT_EQ(expected.migrations, actual.migrations);
  EXPECT_EQ(expected.balanced, actual.balanced);
  EXPECT_EQ(expected.final_max_load, actual.final_max_load);
  // And the run actually produced metrics + spans.
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("drive.rounds")->value,
            static_cast<std::uint64_t>(actual.rounds));
  EXPECT_GT(snap.find("exact.departures")->value, 0u);
  EXPECT_GT(trace.events(), 0u);
}

TEST(EngineMetricsTest, DeterministicSnapshotIdenticalAcrossEngineThreads) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B55);

  const auto run = [&](std::size_t threads) {
    Registry reg;
    core::UserProtocolConfig cfg = user_config(ts, n, threads);
    cfg.options.registry = &reg;
    core::UserControlledEngine engine(ts, n, cfg);
    Rng rng(23);
    engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                          {.registry = &reg});
    return reg.snapshot().json(Snapshot::Part::kDeterministic);
  };

  const std::string inline_json = run(1);
  EXPECT_NE(inline_json.find("\"exact.coins\""), std::string::npos);
  EXPECT_NE(inline_json.find("\"exact.departures\""), std::string::npos);
  EXPECT_NE(inline_json.find("\"exact.flush_checks\""), std::string::npos);
  // Pool metrics are timing-class: threads=1 has no pool at all, so they
  // must never leak into the deterministic part.
  EXPECT_EQ(inline_json.find("pool."), std::string::npos);
  EXPECT_EQ(inline_json, run(2));
  EXPECT_EQ(inline_json, run(0));
}

// ---- metric surface -------------------------------------------------------

/// What an engine reports through its sinks: every registered metric as
/// "<name> <class>" in registration order, and its trace span names.
struct Surface {
  std::vector<std::string> metrics;
  std::set<std::string> spans;
};

Surface surface_of(const Registry& reg, const obs::TraceWriter& trace) {
  Surface out;
  for (const Snapshot::Entry& e : reg.snapshot().entries) {
    out.metrics.push_back(e.name + (e.timing ? " timing" : " deterministic"));
  }
  const util::JsonValue doc = util::parse_json(trace.json());
  for (const util::JsonValue& event : doc.at("traceEvents").items) {
    if (event.at("ph").string == "X") out.spans.insert(event.at("name").string);
  }
  return out;
}

/// Reset `engine` to all-on-one and step it three rounds.
template <class Engine>
void step_three(Engine& engine, const TaskSet& ts) {
  engine.reset(tasks::all_on_one(ts));
  Rng rng(3);
  for (int round = 0; round < 3; ++round) engine.step(rng);
}

TEST(EngineMetricsTest, MetricSurfaceKeepsNamesClassesAndOrder) {
  // Literal lists: a reordered registration, a renamed metric or span, or
  // a metric in the wrong class fails here.
  const graph::Node n = 64;
  // Three coin shards in round 1, so the two-thread pool runs tasks.
  const TaskSet coins = continuous_tasks(3 * 8192, 5);
  std::vector<double> w(2048, 1.0);
  for (std::size_t i = 0; i < w.size(); i += 10) w[i] = 8.0;
  const TaskSet classes(std::move(w));
  const auto threshold = [n](const TaskSet& ts) {
    return 1.25 * ts.total_weight() / n + ts.max_weight();
  };
  const std::vector<std::string> exact = {
      "exact.sample_ns timing",
      "exact.merge_ns timing",
      "exact.apply_ns timing",
      "exact.coins deterministic",
      "exact.departures deterministic",
      "exact.flush_checks deterministic",
      "exact.dirty_marks deterministic",
      "index.band_size deterministic",
      "index.bucket_moves deterministic",
      "index.reconciled deterministic",
      "exact.sweeps deterministic"};
  const std::vector<std::string> pool = {
      "pool.tasks timing", "pool.busy_ns timing", "pool.idle_ns timing"};

  for (const std::size_t threads : {1, 2}) {
    Registry reg;
    obs::TraceWriter trace;
    core::UserProtocolConfig cfg;
    cfg.threshold = threshold(coins);
    cfg.options = {.threads = threads, .registry = &reg, .trace = &trace};
    core::UserControlledEngine engine(coins, n, cfg);
    step_three(engine, coins);
    const Surface got = surface_of(reg, trace);
    std::vector<std::string> want = exact;
    std::set<std::string> spans = {"exact.sample", "exact.merge",
                                   "exact.apply"};
    if (threads == 2) {
      want.insert(want.end(), pool.begin(), pool.end());
      spans.insert("pool.task");
    }
    EXPECT_EQ(got.metrics, want) << "exact, threads=" << threads;
    EXPECT_EQ(got.spans, spans) << "exact, threads=" << threads;
  }
  {
    // The same engine on a graph, with a blend: graphuser and mixed report
    // exactly the K_n surface.
    Registry reg;
    obs::TraceWriter trace;
    const graph::Graph g = graph::hypercube(6);
    core::UserProtocolConfig cfg;
    cfg.threshold = threshold(coins);
    cfg.walk = randomwalk::WalkKind::kLazy;
    cfg.resource_probability = 0.5;
    cfg.options = {.threads = 2, .registry = &reg, .trace = &trace};
    core::UserControlledEngine engine(g, coins, cfg);
    step_three(engine, coins);
    const Surface got = surface_of(reg, trace);
    std::vector<std::string> want = exact;
    want.insert(want.end(), pool.begin(), pool.end());
    EXPECT_EQ(got.metrics, want) << "exact on a graph";
    EXPECT_EQ(got.spans,
              (std::set<std::string>{"exact.sample", "exact.merge",
                                     "exact.apply", "pool.task"}))
        << "exact on a graph";
  }
  {
    Registry reg;
    obs::TraceWriter trace;
    core::UserProtocolConfig cfg;
    cfg.threshold = threshold(classes);
    cfg.options = {.threads = 2, .registry = &reg, .trace = &trace};
    core::GroupedUserEngine engine(classes, n, cfg);
    step_three(engine, classes);
    const Surface got = surface_of(reg, trace);
    EXPECT_EQ(got.metrics, (std::vector<std::string>{
                               "grouped.sample_ns timing",
                               "grouped.apply_ns timing",
                               "grouped.departure_groups deterministic",
                               "grouped.departures deterministic",
                               "grouped.flush_checks deterministic",
                               "grouped.dirty_marks deterministic",
                               "index.band_size deterministic",
                               "index.bucket_moves deterministic",
                               "index.reconciled deterministic",
                               "grouped.sweeps deterministic",
                               "pool.tasks timing",
                               "pool.busy_ns timing",
                               "pool.idle_ns timing"}));
    EXPECT_EQ(got.spans,
              (std::set<std::string>{"grouped.sample", "grouped.apply"}));
  }
  {
    Registry reg;
    obs::TraceWriter trace;
    core::DynamicConfig cfg;
    cfg.n = n;
    cfg.arrival_rate = 20.0;
    cfg.crash_rate = 0.5;
    cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
    cfg.threads = 2;
    cfg.registry = &reg;
    cfg.trace = &trace;
    core::DynamicUserEngine engine(cfg);
    Rng rng(3);
    for (int round = 0; round < 3; ++round) engine.step(rng);
    const Surface got = surface_of(reg, trace);
    EXPECT_EQ(got.metrics, (std::vector<std::string>{
                               "dynamic.arrivals_ns timing",
                               "dynamic.completions_ns timing",
                               "dynamic.track_ns timing",
                               "dynamic.sample_ns timing",
                               "dynamic.apply_ns timing",
                               "dynamic.arrivals deterministic",
                               "dynamic.completions deterministic",
                               "dynamic.crashes deterministic",
                               "dynamic.threshold_changes deterministic",
                               "dynamic.flush_checks deterministic",
                               "dynamic.dirty_marks deterministic",
                               "index.band_size deterministic",
                               "index.bucket_moves deterministic",
                               "index.reconciled deterministic",
                               "dynamic.sweeps deterministic",
                               "pool.tasks timing",
                               "pool.busy_ns timing",
                               "pool.idle_ns timing"}));
    EXPECT_EQ(got.spans,
              (std::set<std::string>{"dynamic.arrivals", "dynamic.completions",
                                     "dynamic.track", "dynamic.sample",
                                     "dynamic.apply"}));
  }
  {
    Registry reg;
    obs::TraceWriter trace;
    const graph::Graph g = graph::hypercube(6);
    core::ResourceProtocolConfig cfg;
    cfg.threshold = threshold(classes);
    cfg.walk = randomwalk::WalkKind::kLazy;
    cfg.options = {.registry = &reg, .trace = &trace};
    core::ResourceControlledEngine engine(g, classes, cfg);
    step_three(engine, classes);
    const Surface got = surface_of(reg, trace);
    EXPECT_EQ(got.metrics, (std::vector<std::string>{
                               "resource.walk_ns timing",
                               "resource.scatter_ns timing",
                               "resource.evictions deterministic",
                               "resource.flush_checks deterministic",
                               "resource.dirty_marks deterministic",
                               "index.band_size deterministic",
                               "index.bucket_moves deterministic",
                               "index.reconciled deterministic",
                               "resource.sweeps deterministic"}));
    EXPECT_EQ(got.spans,
              (std::set<std::string>{"resource.walk", "resource.scatter"}));
  }
}

}  // namespace
