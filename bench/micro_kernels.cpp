// Google-benchmark micro-kernels for the library's hot paths: walk stepping,
// distribution evolution, stack operations, binomial sampling, and a full
// round of each protocol engine. These quantify the per-operation costs that
// make the Figure-1/2 sweeps tractable (notably grouped vs exact engine).
#include <benchmark/benchmark.h>

#include <cmath>

#include "tlb/core/resource_protocol.hpp"
#include "tlb/tasks/first_fit.hpp"
#include "tlb/core/thresholds.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/mem/task_arena.hpp"
#include "tlb/randomwalk/transition.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/weights.hpp"
#include "tlb/util/binomial.hpp"
#include "tlb/util/rng.hpp"

namespace {

using namespace tlb;

void BM_RngUniform01(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform01());
}
BENCHMARK(BM_RngUniform01);

void BM_RngUniformBelow(benchmark::State& state) {
  util::Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform_below(1000));
}
BENCHMARK(BM_RngUniformBelow);

void BM_BinomialInversion(benchmark::State& state) {
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::binomial(rng, 5000, 0.001));  // np = 5
  }
}
BENCHMARK(BM_BinomialInversion);

void BM_BinomialBtrs(benchmark::State& state) {
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::binomial(rng, 5000, 0.1));  // np = 500
  }
}
BENCHMARK(BM_BinomialBtrs);

void BM_WalkStep(benchmark::State& state) {
  const auto g = graph::grid2d(32, 32, true);
  const randomwalk::TransitionModel walk(g);
  util::Rng rng(5);
  graph::Node v = 0;
  for (auto _ : state) {
    v = walk.step(v, rng);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_WalkStep);

void BM_DistributionEvolve(benchmark::State& state) {
  const auto n = static_cast<graph::Node>(state.range(0));
  const auto side = static_cast<graph::Node>(std::sqrt(double(n)));
  const auto g = graph::grid2d(side, side, true);
  const randomwalk::TransitionModel walk(g, randomwalk::WalkKind::kLazy);
  std::vector<double> dist(g.num_nodes(), 0.0), next;
  dist[0] = 1.0;
  for (auto _ : state) {
    walk.evolve(dist, next);
    dist.swap(next);
    benchmark::DoNotOptimize(dist.data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_DistributionEvolve)->Arg(256)->Arg(1024)->Arg(4096);

void BM_StackPushAccepting(benchmark::State& state) {
  const tasks::TaskSet ts = tasks::uniform_unit(1024);
  for (auto _ : state) {
    mem::TaskArena arena(1);
    for (tasks::TaskId i = 0; i < 1024; ++i) {
      arena.push_accepting(0, i, ts.weight(i), 100.0);
    }
    benchmark::DoNotOptimize(arena.load(0));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_StackPushAccepting);

void BM_StackPhi(benchmark::State& state) {
  const tasks::TaskSet ts = tasks::two_point(1000, 24, 50.0);
  mem::TaskArena arena(1);
  for (tasks::TaskId i = 0; i < ts.size(); ++i) arena.push(0, i, ts.weight(i));
  for (auto _ : state) benchmark::DoNotOptimize(arena.phi(0, 100.0));
}
BENCHMARK(BM_StackPhi);

void BM_ResourceEngineRound(benchmark::State& state) {
  const auto n = static_cast<graph::Node>(state.range(0));
  const auto g = graph::complete(n);
  const tasks::TaskSet ts = tasks::uniform_unit(8 * n);
  core::ResourceProtocolConfig cfg;
  cfg.threshold =
      core::threshold_value(core::ThresholdKind::kAboveAverage, ts, n, 0.25);
  core::ResourceControlledEngine engine(g, ts, cfg);
  util::Rng rng(6);
  const auto placement = tasks::all_on_one(ts);
  for (auto _ : state) {
    state.PauseTiming();
    engine.reset(placement);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine.step(rng));  // the expensive first round
  }
}
BENCHMARK(BM_ResourceEngineRound)->Arg(128)->Arg(512);

void BM_UserEngineExactRun(benchmark::State& state) {
  const graph::Node n = 200;
  const tasks::TaskSet ts = tasks::two_point(1000, 10, 50.0);
  core::UserProtocolConfig cfg;
  cfg.threshold =
      core::threshold_value(core::ThresholdKind::kAboveAverage, ts, n, 0.2);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::Rng rng(++seed);
    core::UserControlledEngine engine(ts, n, cfg);
    benchmark::DoNotOptimize(
        engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                              {.max_rounds = 1000000})
            .rounds);
  }
}
BENCHMARK(BM_UserEngineExactRun)->Unit(benchmark::kMicrosecond);

void BM_UserEngineGroupedRun(benchmark::State& state) {
  const graph::Node n = 200;
  const tasks::TaskSet ts = tasks::two_point(1000, 10, 50.0);
  core::UserProtocolConfig cfg;
  cfg.threshold =
      core::threshold_value(core::ThresholdKind::kAboveAverage, ts, n, 0.2);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::Rng rng(++seed);
    core::GroupedUserEngine engine(ts, n, cfg);
    benchmark::DoNotOptimize(
        engine::reset_and_run(engine, tasks::all_on_one(ts), rng,
                              {.max_rounds = 1000000})
            .rounds);
  }
}
BENCHMARK(BM_UserEngineGroupedRun)->Unit(benchmark::kMicrosecond);

void BM_FirstFit(benchmark::State& state) {
  const tasks::TaskSet ts = tasks::two_point(10000, 100, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tasks::first_fit(ts, 1000).max_load);
  }
  state.SetItemsProcessed(state.iterations() * ts.size());
}
BENCHMARK(BM_FirstFit);

}  // namespace
