// Benchmark harness for the tlb simulator: runs one workload against the
// library for a fixed wall-clock budget and prints the raw samples as one
// JSON object on stdout. perfbench/run.py builds it, runs it and reduces
// the samples to the reported metrics.
//
//   perfbench_harness <workload> <seed> <seconds> <trace: 0|1>
//
// Every workload has the same shape:
//   inputs  task weights or churn parameters, drawn from the seed by the
//           harness's own generator (untimed);
//   set-up  task-set, topology and engine construction (churn: plus the
//           warm-up to the steady population), repeated (see kMinSetups)
//           and timed each time;
//   ops     untimed warm-up ops, then timed ops until the budget is spent.
//           A batch op resets the engine to its start placement and drives
//           it to balance (paper-sweep: one such run per grid point); a
//           churn op is a block of consecutive rounds near the steady
//           population.
// Every op's result is checked against the inputs without trusting the
// engine's own bookkeeping. trace=1 attaches an obs::Registry to the engine
// and the round loop, so the engine's phase times and work counters are
// reported too; end-to-end figures come from trace=0 runs, where nothing is
// attached.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/util/alloc_tuning.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/workload/arrival.hpp"

namespace {

using namespace tlb;
using Clock = std::chrono::steady_clock;

/// Set-ups per run: at least kMinSetups, then more while they have taken
/// less than kSetupBudgetMs in total, so that a cheap set-up still gets a
/// steady median. run.py reports the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetMs = 1000.0;
/// Untimed warm-up before the timed ops.
constexpr double kWarmupMs = 1000.0;
/// Safety cap on the rounds of one batch op; every workload balances far
/// below it, so reaching it is a failed op.
constexpr long kMaxRounds = 1000000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64. Inputs come from this generator rather than the library's
/// Rng, so a change to the program's random streams never changes them.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// The above-average threshold (1+ε)·W/n + w_max of Section 4, computed
/// here so the checks do not rely on the code under test.
double above_average(double total, double n, double w_max, double eps) {
  return (1.0 + eps) * total / n + w_max;
}

/// A batch instance: weights plus the aggregates the checks need.
struct Instance {
  std::vector<double> weights;
  double total = 0.0;
  double w_max = 0.0;
  double threshold = 0.0;
  tasks::Placement start;  // every task on resource 0 (Section 7)

  Instance(std::vector<double> w, graph::Node n, double eps)
      : weights(std::move(w)), start(weights.size(), 0) {
    for (const double x : weights) {
      total += x;
      w_max = std::max(w_max, x);
    }
    threshold = above_average(total, n, w_max, eps);
  }
};

/// Times and work of one op (or of its parts, summed).
struct OpTimes {
  double start_ms = 0.0;  // reset to the start placement
  double loop_ms = 0.0;   // round loop
  std::uint64_t migrations = 0;
  std::uint64_t rounds = 0;

  OpTimes& operator+=(const OpTimes& o) {
    start_ms += o.start_ms;
    loop_ms += o.loop_ms;
    migrations += o.migrations;
    rounds += o.rounds;
    return *this;
  }
};

/// Everything one run records; main() prints it as JSON.
struct Samples {
  std::vector<double> setup_s;       // per set-up
  std::vector<double> construct_ms;  // engine construction, per set-up
  std::vector<double> start_ms;      // reset per op, or churn warm-up per set-up
  std::vector<double> loop_ms;       // round loop, per timed op
  std::vector<double> op_ms;         // per timed op
  std::uint64_t migrations = 0;      // over the timed ops
  std::uint64_t rounds = 0;
  std::uint64_t arena_relocations = 0;
  std::uint64_t attempted = 0;       // every checked run, warm-up included
  std::uint64_t failed = 0;
  std::vector<std::string> errors;   // the first few failures
  obs::Snapshot counters;            // registry delta over the timed ops

  void record(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(error);
  }

  void record_timed(const OpTimes& t) {
    op_ms.push_back(t.start_ms + t.loop_ms);
    loop_ms.push_back(t.loop_ms);
    migrations += t.migrations;
    rounds += t.rounds;
  }

  /// A timed batch op: the reset is a layer of its own.
  void record_batch(const OpTimes& t) {
    start_ms.push_back(t.start_ms);
    record_timed(t);
  }
};

/// Run-wide context shared by the workloads.
struct Bench {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  obs::Registry* registry = nullptr;  // attached only with trace=1
  Samples samples;

  /// The protocol's random stream `id` (the program's own Rng). A batch op
  /// reuses its streams, so every op of a run repeats one computation and
  /// the best op time measures it with the least interference.
  util::Rng stream(std::uint64_t id) const {
    return util::Rng(util::derive_seed(seed, id));
  }

  /// Repeat `set_up` (see kMinSetups); each call rebuilds what the ops
  /// need and records its times through record_setup.
  template <class SetUp>
  void run_setups(SetUp&& set_up) {
    const auto begin = Clock::now();
    for (int rep = 0; rep < kMaxSetups; ++rep) {
      const double spent = ms_between(begin, Clock::now());
      if (rep >= kMinSetups && spent > kSetupBudgetMs) break;
      set_up();
    }
  }

  void record_setup(double setup_ms, double construct_ms) {
    samples.setup_s.push_back(setup_ms / 1e3);
    samples.construct_ms.push_back(construct_ms);
  }

  /// Untimed warm-up ops for at least kWarmupMs, so that caches, the
  /// allocator and the engine's scratch buffers settle, then timed ops
  /// until the budget is spent. op(timed) runs, checks and records one op.
  template <class Op>
  void run_ops(Op&& op) {
    const auto warm = Clock::now();
    do {
      op(false);
    } while (ms_between(warm, Clock::now()) < kWarmupMs);
    obs::Snapshot before;
    if (registry != nullptr) before = registry->snapshot();
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
      op(true);
    } while (Clock::now() < deadline);
    if (registry != nullptr) {
      samples.counters = registry->snapshot().delta(before);
    }
  }
};

/// One batch run: reset to the instance's start placement, drive to
/// balance through engine::drive, then check the result with `check`
/// (the check is recorded, not timed).
template <class Engine, class Check>
OpTimes batch_run(Bench& b, Engine& eng, const Instance& inst,
                  std::uint64_t stream, Check&& check) {
  util::Rng rng = b.stream(stream);
  engine::DriveOptions opt;
  opt.max_rounds = kMaxRounds;
  opt.registry = b.registry;
  const auto t0 = Clock::now();
  eng.reset(inst.start);
  const auto t1 = Clock::now();
  const core::RunResult res = engine::drive(eng, rng, opt);
  const auto t2 = Clock::now();
  std::string error;
  if (!res.balanced) {
    error = "not balanced after " + std::to_string(res.rounds) + " rounds";
  } else if (res.rounds < 1 || res.migrations < 1) {
    error = "no round ran, but every start placement is overloaded";
  } else {
    error = check(eng);
  }
  b.samples.record(error);
  return {ms_between(t0, t1), ms_between(t1, t2), res.migrations,
          static_cast<std::uint64_t>(res.rounds)};
}

/// Check a stack-backed final state: every task on exactly one stack,
/// each resource's load equal to the weights on its stack, and no load
/// above the threshold. Loads are kept by adding and subtracting weights,
/// so resource 0, which starts with all of W, carries rounding error of
/// order ulp(W) per removal; any real discrepancy is at least w_min = 1.
std::string check_stacks(const core::SystemState& st, const Instance& inst,
                         std::vector<std::uint8_t>& seen) {
  const std::size_t m = inst.weights.size();
  const double tolerance = 1e-9 * inst.total;
  seen.assign(m, 0);
  std::size_t placed = 0;
  for (graph::Node r = 0; r < st.num_resources(); ++r) {
    double sum = 0.0;
    for (const tasks::TaskId id : st.stack(r).tasks()) {
      if (id >= m || seen[id] != 0) {
        return "task " + std::to_string(id) + " unknown or on two stacks";
      }
      seen[id] = 1;
      ++placed;
      sum += inst.weights[id];
    }
    if (std::abs(sum - st.load(r)) > tolerance) {
      return "load of resource " + std::to_string(r) +
             " differs from the weights on its stack";
    }
    if (st.load(r) > inst.threshold) {
      return "resource " + std::to_string(r) + " above the threshold";
    }
  }
  if (placed != m) return "tasks lost: " + std::to_string(m - placed);
  return {};
}

/// Check a final load vector (engines without stacks): weight conserved,
/// no negative load, none above the threshold.
std::string check_loads(const std::vector<double>& loads,
                        const Instance& inst) {
  double sum = 0.0;
  for (const double load : loads) {
    if (load < -1e-9) return "negative load";
    if (load > inst.threshold) return "load above threshold";
    sum += load;
  }
  if (std::abs(sum - inst.total) > 1e-9 * inst.total) {
    return "total weight not conserved";
  }
  return {};
}

/// paper-sweep: the grid of the paper's Section 7 at its size (n = 1000,
/// ε = 0.2, α = 1, every task starting on one resource). Figure 1: k tasks
/// of weight 50 plus W − 50k unit tasks; Figure 2: one task of weight
/// w_max plus m − 1 unit tasks. Two-point weights, so the library runs them
/// on its grouped engine, as its Figure 1/2 benches do. One op is one
/// trial at each of the 134 points, in a seeded order.
void paper_sweep(Bench& b) {
  constexpr graph::Node n = 1000;
  constexpr double eps = 0.2;
  std::vector<Instance> points;
  const auto two_point = [&](std::size_t heavies, double heavy,
                             std::size_t units) {
    std::vector<double> w(heavies, heavy);
    w.insert(w.end(), units, 1.0);
    points.emplace_back(std::move(w), n, eps);
  };
  for (const std::size_t k : {1, 5, 10, 20, 50}) {
    for (std::size_t W = 2000; W <= 10000; W += 1000) {
      if (W > 50 * k) two_point(k, 50.0, W - 50 * k);
    }
  }
  for (std::size_t w_max = 1; w_max <= 256; w_max *= 2) {
    for (std::size_t m = 500; m <= 5000; m += 500) {
      two_point(1, static_cast<double>(w_max), m - 1);
    }
  }
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  InputRng in(b.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[in.next() % i]);
  }

  std::vector<std::unique_ptr<tasks::TaskSet>> sets;
  std::vector<std::unique_ptr<core::GroupedUserEngine>> engines;
  b.run_setups([&] {
    engines.clear();
    sets.clear();
    const auto t0 = Clock::now();
    double construct = 0.0;
    for (const Instance& p : points) {
      sets.push_back(std::make_unique<tasks::TaskSet>(p.weights));
      core::UserProtocolConfig cfg;
      cfg.threshold = p.threshold;
      cfg.alpha = 1.0;
      cfg.options.registry = b.registry;
      const auto c0 = Clock::now();
      engines.push_back(
          std::make_unique<core::GroupedUserEngine>(*sets.back(), n, cfg));
      construct += ms_between(c0, Clock::now());
    }
    b.record_setup(ms_between(t0, Clock::now()), construct);
  });

  std::vector<double> loads;
  b.run_ops([&](bool timed) {
    OpTimes sweep;
    for (const std::size_t p : order) {
      sweep += batch_run(b, *engines[p], points[p], p,
                         [&](const core::GroupedUserEngine& eng) {
                           eng.collect_loads(loads);
                           return check_loads(loads, points[p]);
                         });
    }
    if (timed) b.samples.record_batch(sweep);
  });
}

/// exact-128k: the exact (per-task coin) user engine at n = 2^17 with
/// m = 8n ≈ 10^6 tasks of weight uniform on [1, 8] (the perf suite's
/// exact-uniform-1m preset at an eighth of its size: at full size an op is
/// memory-bound and its time swings by ±30% with the load other processes
/// put on the memory system). The all-on-one first round, 8n coins and
/// about as many pushes, dominates every op. `threads` sizes the engine's
/// phase-1 sampling pool (1 = no pool); results are the same for any value.
void exact_128k_threads(Bench& b, std::size_t threads) {
  constexpr graph::Node n = 1 << 17;
  constexpr std::size_t m = 8 * static_cast<std::size_t>(n);
  InputRng in(b.seed);
  std::vector<double> w(m);
  for (double& x : w) x = 1.0 + 7.0 * in.unit();
  const Instance inst(std::move(w), n, /*eps=*/0.25);

  std::optional<tasks::TaskSet> ts;
  std::optional<core::UserControlledEngine> eng;
  b.run_setups([&] {
    eng.reset();
    ts.reset();
    std::vector<double> weights = inst.weights;
    const auto t0 = Clock::now();
    ts.emplace(std::move(weights));
    core::UserProtocolConfig cfg;
    cfg.threshold = inst.threshold;
    cfg.options.threads = threads;
    cfg.options.registry = b.registry;
    const auto t1 = Clock::now();
    eng.emplace(*ts, n, cfg);
    const auto t2 = Clock::now();
    b.record_setup(ms_between(t0, t2), ms_between(t1, t2));
  });

  std::vector<std::uint8_t> seen;
  b.run_ops([&](bool timed) {
    const std::uint64_t before = eng->state().arena().relocations();
    const OpTimes t = batch_run(b, *eng, inst, 0,
                                [&](const core::UserControlledEngine& e) {
                                  return check_stacks(e.state(), inst, seen);
                                });
    if (!timed) return;
    b.samples.record_batch(t);
    b.samples.arena_relocations += eng->state().arena().relocations() - before;
  });
}

void exact_128k(Bench& b) { exact_128k_threads(b, 1); }

/// exact-128k-t4: exact-128k with phase-1 sampling on a pool of four
/// workers (as the perf suite's parallel-1m preset does on four cores), so
/// the pool and the sharded sampler are measured; against exact-128k it
/// shows what the pool buys.
void exact_128k_t4(Bench& b) { exact_128k_threads(b, 4); }

/// resource-hypercube: the resource-controlled protocol (Algorithm 5.1) on
/// the 2^14-node hypercube with the lazy walk (the max-degree walk is
/// periodic on bipartite graphs), m = 8n tasks, each of weight 8 with
/// probability 0.1 and unit otherwise (the perf suite's
/// resource-hypercube preset at a sixteenth of its size, for the same
/// reason as exact-128k). Evicted tasks walk from resource 0 until a
/// resource accepts them. Set-up builds the hypercube too.
void resource_hypercube(Bench& b) {
  constexpr graph::Node dim = 14;
  constexpr graph::Node n = graph::Node{1} << dim;
  InputRng in(b.seed);
  std::vector<double> w(8 * static_cast<std::size_t>(n));
  for (double& x : w) x = in.unit() < 0.1 ? 8.0 : 1.0;
  const Instance inst(std::move(w), n, /*eps=*/0.25);

  std::optional<graph::Graph> g;
  std::optional<tasks::TaskSet> ts;
  std::optional<core::ResourceControlledEngine> eng;
  b.run_setups([&] {
    eng.reset();
    ts.reset();
    g.reset();
    std::vector<double> weights = inst.weights;
    const auto t0 = Clock::now();
    g.emplace(graph::hypercube(dim));
    ts.emplace(std::move(weights));
    core::ResourceProtocolConfig cfg;
    cfg.threshold = inst.threshold;
    cfg.walk = randomwalk::WalkKind::kLazy;
    cfg.options.registry = b.registry;
    const auto t1 = Clock::now();
    eng.emplace(*g, *ts, cfg);
    const auto t2 = Clock::now();
    b.record_setup(ms_between(t0, t2), ms_between(t1, t2));
  });

  std::vector<std::uint8_t> seen;
  b.run_ops([&](bool timed) {
    const std::uint64_t before = eng->state().arena().relocations();
    const OpTimes t = batch_run(b, *eng, inst, 0,
                                [&](const core::ResourceControlledEngine& e) {
                                  return check_stacks(e.state(), inst, seen);
                                });
    if (!timed) return;
    b.samples.record_batch(t);
    b.samples.arena_relocations += eng->state().arena().relocations() - before;
  });
}

/// threshold-churn: the user protocol under churn (core::DynamicUserEngine)
/// with the perf suite's threshold-churn traffic at n = 2^15 (a thirtieth
/// of its size, for the same reason as exact-128k): Poisson arrivals of
/// 0.1·n tasks per round, each of weight 8 with probability 0.1 and unit
/// otherwise, every task completing with probability 0.01 per round
/// (~10 tasks per resource at steady state).
/// W changes every round, so the threshold moves every round. Set-up
/// builds the engine and runs it kWarmup rounds towards the steady
/// population; an op is then a block of kRoundsPerOp consecutive rounds.
/// Only the rounds themselves are timed, and every round is checked.
void threshold_churn(Bench& b) {
  constexpr graph::Node n = 1 << 15;
  constexpr double eps = 0.25;
  constexpr double w_max = 8.0;
  constexpr double rate = 0.1 * n;
  constexpr double mu = 0.01;
  constexpr long kWarmup = 460;  // 0.99^460 < 1% short of steady state
  constexpr long kRoundsPerOp = 50;
  // No per-round bound on overloaded resources is promised; 5% is the perf
  // suite's "balanced" bar for churn and the protocol stays far below it.
  constexpr double kMaxOverloadedShare = 0.05;
  const workload::PoissonArrivals arrivals(rate, mu);
  core::DynamicConfig cfg;
  cfg.n = n;
  cfg.arrival_rate = rate;
  cfg.arrival_fn = [&arrivals](long round, util::Rng& rng) {
    return arrivals.arrivals(round, rng);
  };
  cfg.completion_rate = mu;
  cfg.eps = eps;
  cfg.alpha = 1.0;
  cfg.classes = {{1.0, 0.9}, {w_max, 0.1}};
  cfg.registry = b.registry;

  // A study of the steady state pays for the warm-up before it can measure
  // anything, so the warm-up is part of the set-up.
  std::optional<core::DynamicUserEngine> eng;
  util::Rng rng = b.stream(0);
  b.run_setups([&] {
    eng.reset();
    const auto t0 = Clock::now();
    eng.emplace(cfg);
    const auto t1 = Clock::now();
    rng = b.stream(0);
    for (long t = 0; t < kWarmup; ++t) eng->step(rng);
    const auto t2 = Clock::now();
    b.record_setup(ms_between(t0, t2), ms_between(t0, t1));
    b.samples.start_ms.push_back(ms_between(t1, t2));
  });

  // Only pure reads: a query that reconciles the engine's lazy state would
  // move work out of the next timed round.
  const auto check_round = [&] {
    const double T = eng->current_threshold();
    const double W = eng->total_weight();
    double sum = 0.0;
    graph::Node over = 0;
    for (graph::Node r = 0; r < n; ++r) {
      const double load = eng->load(r);
      if (load < 0.0) return "negative load on resource " + std::to_string(r);
      sum += load;
      over += load > T ? 1 : 0;
    }
    if (std::abs(sum - W) > 1e-9 * std::max(1.0, W)) {
      return std::string("loads do not sum to the total weight");
    }
    if (std::abs(T - above_average(W, n, w_max, eps)) > 1e-12 * T) {
      return std::string("threshold does not follow the total weight");
    }
    if (over > kMaxOverloadedShare * n) {
      return std::to_string(over) + " resources above the threshold";
    }
    return std::string();
  };

  b.run_ops([&](bool timed) {
    OpTimes block;
    for (long i = 0; i < kRoundsPerOp; ++i) {
      const auto t0 = Clock::now();
      const std::size_t moved = eng->step(rng);
      block += {0.0, ms_between(t0, Clock::now()), moved, 1};
      b.samples.record(check_round());
    }
    if (timed) b.samples.record_timed(block);
  });
}

void print_array(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", values[i]);
  }
  std::printf("],");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

void print_samples(const Samples& s, long peak_rss_kb) {
  std::printf("{");
  print_array("setup_s", s.setup_s);
  print_array("construct_ms", s.construct_ms);
  print_array("start_ms", s.start_ms);
  print_array("loop_ms", s.loop_ms);
  print_array("op_ms", s.op_ms);
  std::printf(
      "\"migrations\":%llu,\"rounds\":%llu,\"arena_relocations\":%llu,",
      static_cast<unsigned long long>(s.migrations),
      static_cast<unsigned long long>(s.rounds),
      static_cast<unsigned long long>(s.arena_relocations));
  std::printf("\"attempted\":%llu,\"failed\":%llu,\"peak_rss_kb\":%ld,",
              static_cast<unsigned long long>(s.attempted),
              static_cast<unsigned long long>(s.failed), peak_rss_kb);
  std::printf("\"errors\":[");
  for (std::size_t i = 0; i < s.errors.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ",", json_string(s.errors[i]).c_str());
  }
  std::printf("],\"counters\":{");
  bool first = true;
  for (const obs::Snapshot::Entry& e : s.counters.entries) {
    if (e.kind != obs::Kind::kCounter) continue;
    std::printf("%s%s:%llu", first ? "" : ",", json_string(e.name).c_str(),
                static_cast<unsigned long long>(e.value));
    first = false;
  }
  std::printf("}}\n");
}

struct Workload {
  const char* name;
  void (*run)(Bench&);
};

constexpr Workload kWorkloads[] = {
    {"paper-sweep", paper_sweep},
    {"exact-128k", exact_128k},
    {"exact-128k-t4", exact_128k_t4},
    {"resource-hypercube", resource_hypercube},
    {"threshold-churn", threshold_churn},
};

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  if (argc == 5) {
    for (const Workload& w : kWorkloads) {
      if (std::string(argv[1]) == w.name) workload = &w;
    }
  }
  const double seconds = argc == 5 ? std::atof(argv[3]) : 0.0;
  const std::string trace = argc == 5 ? argv[4] : "";
  if (workload == nullptr || !(seconds > 0.0) ||
      (trace != "0" && trace != "1")) {
    std::fprintf(stderr,
                 "usage: perfbench_harness <paper-sweep|exact-128k|"
                 "exact-128k-t4|resource-hypercube|threshold-churn> <seed> "
                 "<seconds> <trace: 0|1>\n");
    return 2;
  }
  util::tune_allocator_for_throughput();
  std::optional<obs::Registry> registry;
  if (trace == "1") registry.emplace();
  Bench bench;
  bench.seed = std::strtoull(argv[2], nullptr, 10);
  bench.seconds = seconds;
  bench.registry = registry ? &*registry : nullptr;
  try {
    workload->run(bench);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  print_samples(bench.samples, usage.ru_maxrss);
  return 0;
}
