#include "tlb/workload/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>

#include "batch_engine.hpp"
#include "spec_parse.hpp"
#include "tlb/core/dynamic.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/sim/report.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/json.hpp"
#include "tlb/workload/arrival.hpp"
#include "tlb/workload/weight_models.hpp"

namespace tlb::workload {

namespace {

/// Dedicated derive_seed streams so graph construction, class-table
/// discretisation and the trials never share randomness.
constexpr std::uint64_t kGraphStream = 0x6772617068ULL;    // "graph"
constexpr std::uint64_t kClassesStream = 0x636c617373ULL;  // "class"

[[noreturn]] void bad_scenario(const std::string& text,
                               const std::string& why) {
  throw std::invalid_argument("scenario '" + text + "': " + why);
}

/// Split on top-level colons only — colons inside (...) belong to mix()
/// component syntax (mix(1:0.9,...)).
std::vector<std::string> split_fields(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (char c : text) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ':' && depth == 0) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

}  // namespace

const char* protocol_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kUser: return "user";
    case ProtocolKind::kResource: return "resource";
    case ProtocolKind::kGraphUser: return "graphuser";
    case ProtocolKind::kMixed: return "mixed";
    case ProtocolKind::kSeqThresh: return "seqthresh";
    case ProtocolKind::kParThresh: return "parthresh";
    case ProtocolKind::kTwoChoice: return "twochoice";
    case ProtocolKind::kOneBeta: return "onebeta";
    case ProtocolKind::kSelfish: return "selfish";
    case ProtocolKind::kFirstFit: return "firstfit";
  }
  return "?";
}

bool is_baseline(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kUser:
    case ProtocolKind::kResource:
    case ProtocolKind::kGraphUser:
    case ProtocolKind::kMixed:
      return false;
    case ProtocolKind::kSeqThresh:
    case ProtocolKind::kParThresh:
    case ProtocolKind::kTwoChoice:
    case ProtocolKind::kOneBeta:
    case ProtocolKind::kSelfish:
    case ProtocolKind::kFirstFit:
      return true;
  }
  return false;
}

bool walks_graph(ProtocolKind kind) {
  return kind == ProtocolKind::kResource || kind == ProtocolKind::kGraphUser ||
         kind == ProtocolKind::kMixed;
}

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
  const std::vector<std::string> fields = split_fields(text);
  if (fields.size() < 2 || fields.size() > 4) {
    bad_scenario(text,
                 "want <protocol>:<topology>[:<weights>[:<arrivals>]]");
  }
  ScenarioSpec spec;

  const std::string& proto = fields[0];
  // "name(x)" -> x for the parameterised protocols; bare "name" -> no
  // override (the spec keeps its default).
  const auto proto_param = [&](const char* name,
                               const char* param) -> std::optional<double> {
    const std::string prefix = name;
    if (proto == prefix) return std::nullopt;
    if (proto.size() < prefix.size() + 3 || proto[prefix.size()] != '(' ||
        proto.back() != ')') {
      bad_scenario(text, prefix + " takes the form " + prefix + "(" + param +
                             ")");
    }
    const std::string inner =
        proto.substr(prefix.size() + 1, proto.size() - prefix.size() - 2);
    try {
      std::size_t used = 0;
      const double v = std::stod(inner, &used);
      if (used != inner.size()) throw std::invalid_argument("trailing junk");
      return v;
    } catch (const std::exception&) {
      bad_scenario(text, prefix + "(" + param + "): " + param +
                             " is not a number");
    }
  };
  if (proto == "user") {
    spec.protocol = ProtocolKind::kUser;
  } else if (proto == "resource") {
    spec.protocol = ProtocolKind::kResource;
  } else if (proto == "graphuser" || proto == "graph_user") {
    spec.protocol = ProtocolKind::kGraphUser;
  } else if (proto.rfind("mixed", 0) == 0) {
    spec.protocol = ProtocolKind::kMixed;
    spec.mixed_beta = 0.5;
    if (const auto beta = proto_param("mixed", "beta")) {
      spec.mixed_beta = *beta;
      // !(a && b) form so NaN fails the range check too.
      if (!(spec.mixed_beta >= 0.0 && spec.mixed_beta <= 1.0)) {
        bad_scenario(text, "mixed(beta): beta in [0, 1]");
      }
    }
  } else if (proto == "seqthresh") {
    spec.protocol = ProtocolKind::kSeqThresh;
  } else if (proto == "parthresh") {
    spec.protocol = ProtocolKind::kParThresh;
  } else if (proto.rfind("twochoice", 0) == 0) {
    spec.protocol = ProtocolKind::kTwoChoice;
    spec.twochoice_d = 2;
    if (const auto d = proto_param("twochoice", "d")) {
      if (*d < 1.0 || *d != std::floor(*d) || *d > 64.0) {
        bad_scenario(text, "twochoice(d): d is an integer in [1, 64]");
      }
      spec.twochoice_d = static_cast<int>(*d);
    }
  } else if (proto.rfind("onebeta", 0) == 0) {
    spec.protocol = ProtocolKind::kOneBeta;
    spec.onebeta_beta = 0.5;
    if (const auto beta = proto_param("onebeta", "beta")) {
      spec.onebeta_beta = *beta;
      // !(a && b) form so NaN fails the range check too.
      if (!(spec.onebeta_beta >= 0.0 && spec.onebeta_beta <= 1.0)) {
        bad_scenario(text, "onebeta(beta): beta in [0, 1]");
      }
    }
  } else if (proto == "selfish") {
    spec.protocol = ProtocolKind::kSelfish;
  } else if (proto == "firstfit") {
    spec.protocol = ProtocolKind::kFirstFit;
  } else {
    bad_scenario(text, "unknown protocol '" + proto +
                           "' (want user | resource | graphuser | "
                           "mixed(beta) | seqthresh | parthresh | "
                           "twochoice(d) | onebeta(beta) | selfish | "
                           "firstfit)");
  }

  try {
    spec.family = sim::parse_family(fields[1]);
  } catch (const std::exception& e) {
    bad_scenario(text, e.what());
  }

  if (fields.size() >= 3 && !fields[2].empty()) {
    try {
      spec.weights = parse_weight_model(fields[2])->name();
    } catch (const std::exception& e) {
      bad_scenario(text, e.what());
    }
  }
  if (fields.size() >= 4 && !fields[3].empty()) {
    try {
      spec.arrivals = parse_arrival_process(fields[3])->name();
    } catch (const std::exception& e) {
      bad_scenario(text, e.what());
    }
  }

  if (spec.protocol == ProtocolKind::kUser &&
      spec.family != sim::GraphFamily::kComplete) {
    bad_scenario(text,
                 "the user protocol runs on the complete graph; use "
                 "graphuser for other topologies");
  }
  if (is_baseline(spec.protocol) &&
      spec.family != sim::GraphFamily::kComplete) {
    bad_scenario(text,
                 "baseline protocols run on the complete bin model; use "
                 "topology 'complete'");
  }
  if (spec.is_churn() && (spec.protocol != ProtocolKind::kUser ||
                          spec.family != sim::GraphFamily::kComplete)) {
    bad_scenario(text,
                 "churn arrivals (poisson/burst) currently require "
                 "user:complete");
  }
  return spec;
}

std::string ScenarioSpec::canonical() const {
  std::string out = protocol_name(protocol);
  if (protocol == ProtocolKind::kMixed) {
    out.append("(").append(detail::fmt_param(mixed_beta)).append(")");
  } else if (protocol == ProtocolKind::kTwoChoice) {
    out.append("(").append(std::to_string(twochoice_d)).append(")");
  } else if (protocol == ProtocolKind::kOneBeta) {
    out.append("(").append(detail::fmt_param(onebeta_beta)).append(")");
  }
  out.append(":").append(sim::family_name(family));
  out.append(":").append(weights);
  out.append(":").append(arrivals);
  return out;
}

bool ScenarioSpec::is_churn() const {
  return arrivals != "batch";
}

// ---- Scenario -------------------------------------------------------------

Scenario::Scenario(ScenarioSpec spec, ScenarioParams params)
    : spec_(std::move(spec)), params_(params) {
  // Re-validate through the canonical string so programmatically-built
  // specs hit the same checks as parsed ones.
  spec_ = ScenarioSpec::parse(spec_.canonical());
  model_ = parse_weight_model(spec_.weights);
  process_ = parse_arrival_process(spec_.arrivals);
  if (params_.n < 2) throw std::invalid_argument("scenario: n >= 2");
  if (params_.load_factor < 1) {
    throw std::invalid_argument("scenario: load_factor >= 1");
  }
  // Written so NaN and ±inf fail too: an ordered `eps <= 0` lets both
  // through, and a NaN threshold reads every resource as balanced.
  if (params_.threshold == core::ThresholdKind::kAboveAverage &&
      (!(params_.eps > 0.0) || !std::isfinite(params_.eps))) {
    throw std::invalid_argument(
        "scenario: eps finite and > 0 for the above-average threshold");
  }
  if (!(params_.alpha > 0.0) || !std::isfinite(params_.alpha)) {
    throw std::invalid_argument("scenario: alpha finite and > 0");
  }
}

Scenario::~Scenario() = default;
Scenario::Scenario(Scenario&&) noexcept = default;
Scenario& Scenario::operator=(Scenario&&) noexcept = default;

ScenarioResult Scenario::run(std::size_t trials, std::uint64_t seed,
                             std::size_t threads) const {
  ScenarioResult result;
  result.spec = spec_;
  result.params = params_;
  result.trials = trials;
  result.seed = seed;

  if (spec_.is_churn()) {
    // Dynamic mode: grouped dynamic engine, weight model reduced to a class
    // table with a dedicated randomness stream (identical for every trial).
    util::Rng class_rng(util::derive_seed(seed, kClassesStream));
    core::DynamicConfig cfg =
        make_dynamic_config(*model_, *process_, params_.n, params_.eps,
                            params_.alpha, params_.engine_threads, class_rng);
    cfg.registry = params_.registry;
    cfg.trace = params_.trace;
    result.n = params_.n;
    result.m = 0;

    // Warmup/measure are DriveOptions fields now: the churn trials run
    // through the same engine::drive loop as every batch engine.
    engine::DriveOptions drive_opt;
    drive_opt.warmup = params_.warmup;
    drive_opt.measure = params_.measure;
    drive_opt.paranoid_checks = params_.paranoid;
    drive_opt.registry = params_.registry;
    drive_opt.trace = params_.trace;
    engine::RoundObserver* const round_observer = params_.round_observer;
    dsan::StepProbe* const dsan_probe = params_.dsan;
    result.stats = sim::run_trials(
        trials, seed,
        sim::IndexedTrialFn([&cfg, drive_opt, round_observer,
                             dsan_probe](std::size_t trial, util::Rng& rng) {
          // The probe is stateful and strictly single-engine: trial 0 only,
          // like the round observer (trials may run concurrently).
          core::DynamicConfig trial_cfg = cfg;
          trial_cfg.dsan = trial == 0 ? dsan_probe : nullptr;
          core::DynamicUserEngine engine(trial_cfg);
          const core::DynamicMetrics metrics = engine.run(
              drive_opt, rng, trial == 0 ? round_observer : nullptr);
          core::RunResult r;
          r.rounds = drive_opt.measure;
          r.balanced = metrics.overloaded_fraction.mean() <= 0.05;
          r.migrations = static_cast<std::uint64_t>(std::llround(
              metrics.migrations_per_round.mean() *
              static_cast<double>(metrics.migrations_per_round.count())));
          r.final_max_load = metrics.max_over_avg.mean();
          r.threshold = engine.current_threshold();
          return r;
        }),
        threads);
    return result;
  }

  // Batch mode: build the topology once from its own randomness stream,
  // then run trials that each draw a task set from the weight model. Only
  // the protocols that walk the graph get it: K_n is O(n^2) edges, and
  // nothing else reads it.
  sim::GraphSpec gspec;
  gspec.family = spec_.family;
  gspec.n = params_.n;
  gspec.degree = params_.degree;
  util::Rng graph_rng(util::derive_seed(seed, kGraphStream));
  graph::Graph g;
  graph::Node n = params_.n;
  if (walks_graph(spec_.protocol)) {
    g = gspec.build(graph_rng);
    n = g.num_nodes();
  }
  const randomwalk::WalkKind walk = gspec.recommended_walk();
  const std::size_t m = params_.load_factor * static_cast<std::size_t>(n);
  result.n = n;
  result.m = m;

  const tasks::WeightModel& model = *model_;
  const ScenarioParams& p = params_;
  const ScenarioSpec& spec = spec_;

  result.stats = sim::run_trials(
      trials, seed,
      sim::IndexedTrialFn([&model, &p, &g, &spec, walk, n, m](
                              std::size_t trial, util::Rng& rng) {
        const tasks::TaskSet ts = model.make(m, rng);
        BatchEngineInputs in;
        in.tasks = &ts;
        in.n = n;
        in.graph = &g;
        in.walk = walk;
        in.threshold = core::threshold_value(p.threshold, ts, n, p.eps);
        in.alpha = p.alpha;
        in.options.threads = p.engine_threads;
        // The shared registry and trace writer aggregate across all trials
        // (per-thread shards make the counters race-free); the stateful
        // probe and the per-round observer go to trial 0 only.
        in.options.registry = p.registry;
        in.options.trace = p.trace;
        in.options.dsan = trial == 0 ? p.dsan : nullptr;
        const engine::DriveOptions drive_opt{.max_rounds = p.max_rounds,
                                             .paranoid_checks = p.paranoid,
                                             .registry = p.registry,
                                             .trace = p.trace};
        engine::RoundObserver* const observer =
            trial == 0 ? p.round_observer : nullptr;
        return with_batch_engine(spec, in, [&](auto& balancer) {
          if constexpr (StartsFromPlacement<decltype(balancer)>) {
            balancer.reset(tasks::all_on_one(ts));
          }
          return engine::drive(balancer, rng, drive_opt, observer);
        });
      }),
      threads);
  return result;
}

std::string ScenarioResult::json(const std::string& metrics_raw,
                                 const std::string& metrics_timing_raw,
                                 const std::string& analytics_raw) const {
  util::Json j;
  j.add("scenario", spec.canonical())
      .add("protocol", protocol_name(spec.protocol))
      .add("graph", sim::family_name(spec.family))
      .add("weights", spec.weights)
      .add("arrivals", spec.arrivals)
      .add("mode", spec.is_churn() ? "churn" : "batch")
      .add("n", static_cast<std::uint64_t>(n))
      .add("m", m)
      .add("load_factor", params.load_factor)
      .add("threshold_kind", core::to_string(params.threshold))
      .add("eps", params.eps)
      .add("alpha", params.alpha);
  if (spec.protocol == ProtocolKind::kMixed) {
    j.add("beta", spec.mixed_beta);
  } else if (spec.protocol == ProtocolKind::kTwoChoice) {
    j.add("choices", spec.twochoice_d);
  } else if (spec.protocol == ProtocolKind::kOneBeta) {
    j.add("beta", spec.onebeta_beta);
  }
  if (spec.is_churn()) {
    j.add("warmup", static_cast<std::int64_t>(params.warmup))
        .add("measure", static_cast<std::int64_t>(params.measure));
  } else {
    j.add("max_rounds", static_cast<std::int64_t>(params.max_rounds));
  }
  j.add("trials", trials)
      .add("seed", seed)
      .add_raw("results", sim::trial_stats_json(stats));
  // Additive-only: with observability detached every block is empty and
  // the output is byte-identical to the pre-observability format.
  if (!analytics_raw.empty()) j.add_raw("analytics", analytics_raw);
  if (!metrics_raw.empty()) j.add_raw("metrics", metrics_raw);
  if (!metrics_timing_raw.empty()) {
    j.add_raw("metrics_timing", metrics_timing_raw);
  }
  return j.str();
}

core::DynamicConfig make_dynamic_config(const tasks::WeightModel& model,
                                        const ArrivalProcess& process,
                                        graph::Node n, double eps,
                                        double alpha, std::size_t threads,
                                        util::Rng& class_rng) {
  const std::vector<WeightClass> classes = to_weight_classes(
      model, core::GroupedUserEngine::kMaxClasses, class_rng);
  core::DynamicConfig cfg;
  cfg.n = n;
  cfg.arrival_rate = process.mean_rate();
  cfg.completion_rate = process.completion_rate();
  cfg.eps = eps;
  cfg.alpha = alpha;
  cfg.threads = threads;
  cfg.classes.clear();
  for (const WeightClass& c : classes) {
    cfg.classes.push_back({c.weight, c.probability});
  }
  cfg.arrival_fn = [&process](long round, util::Rng& rng) {
    return process.arrivals(round, rng);
  };
  return cfg;
}

std::optional<core::GroupedUserEngine> try_grouped_user_engine(
    const tasks::TaskSet& ts, graph::Node n,
    const core::UserProtocolConfig& cfg) {
  std::optional<core::GroupedUserEngine> grouped;
  // No applicability pre-scan: the constructor's own capped distinct-weight
  // pass rejects oversized class tables as soon as the (kMaxClasses+1)-th
  // distinct weight appears, so the failed attempt is cheap and the task
  // set is scanned once instead of twice.
  try {
    grouped.emplace(ts, n, cfg);
  } catch (const std::invalid_argument&) {
    // The grouped representation rejected the task set (too many classes,
    // or a config it cannot express). The exact engine accepts everything
    // the grouped one does and more — callers degrade gracefully instead
    // of aborting the whole run.
  }
  return grouped;
}

core::RunResult run_user_trial(const tasks::TaskSet& ts, graph::Node n,
                               const core::UserProtocolConfig& cfg,
                               const tasks::Placement& start,
                               util::Rng& rng,
                               const engine::DriveOptions& opt) {
  if (auto grouped = try_grouped_user_engine(ts, n, cfg)) {
    return engine::reset_and_run(*grouped, start, rng, opt);
  }
  core::UserControlledEngine engine(ts, n, cfg);
  return engine::reset_and_run(engine, start, rng, opt);
}

// ---- registry -------------------------------------------------------------

const std::vector<NamedScenario>& scenario_registry() {
  static const std::vector<NamedScenario> registry = {
      {"fig1", "user:complete:twopoint(10,50):batch",
       "the paper's Figure 1 profile: 10 heavies of weight 50 "
       "(user-controlled, complete graph)"},
      {"fig2", "user:complete:twopoint(1,128):batch",
       "Figure 2's single heavy task among units"},
      {"heavy-tail-hypercube", "resource:hypercube:pareto(2.5,64):batch",
       "bounded-Pareto weights (Talwar-Wieder regime) drained by the "
       "resource protocol on the hypercube"},
      {"zipf-expander", "graphuser:regular:zipf(1.1,64):batch",
       "Zipf-weighted tasks, selfish users on a random regular expander"},
      {"storage-torus", "resource:torus:pareto(2.2,64):batch",
       "P2P-storage-shaped object sizes on rack-local torus wiring"},
      {"octave-mixed", "mixed(0.5):torus:octaves(6):batch",
       "power-of-two weight classes under the 50/50 resource/user blend"},
      {"uniform-er", "resource:erdos_renyi:uniform(8):batch",
       "uniform real weights on a connected Erdos-Renyi graph"},
      {"churn-poisson", "user:complete:mix(1:0.9,8:0.1):poisson(20,0.02)",
       "steady Poisson churn with a 90/10 light/heavy mixture"},
      {"churn-burst", "user:complete:bimodal(8,0.1):burst(50,400,0.02)",
       "adversarial arrival spikes: 400 tasks land together every 50 "
       "rounds"},
      {"baseline-seqthresh", "seqthresh:complete:uniform(8):batch",
       "[5] sequential threshold allocation: one ball at a time, retry "
       "until a bin keeps load + w <= T"},
      {"baseline-parthresh", "parthresh:complete:uniform(8):batch",
       "[4] parallel threshold rounds: every unplaced ball proposes one "
       "uniform bin per round"},
      {"baseline-twochoice", "twochoice(2):complete:uniform(8):batch",
       "[9] greedy two-choice sequential allocation (balanced() measured "
       "against the scenario threshold)"},
      {"baseline-onebeta", "onebeta(0.5):complete:uniform(8):batch",
       "[11] (1+beta)-choice: uniform bin w.p. beta, else the lesser of "
       "two choices"},
      {"baseline-selfish", "selfish:complete:uniform(8):batch",
       "[12] threshold-free selfish reallocation, stopped at the same "
       "threshold the paper's protocols use"},
      {"baseline-firstfit", "firstfit:complete:uniform(8):batch",
       "the centralized first-fit proper assignment (one round of global "
       "coordination; the quality yardstick)"},
  };
  return registry;
}

ScenarioSpec resolve_scenario(const std::string& arg) {
  for (const NamedScenario& named : scenario_registry()) {
    if (named.name == arg) return ScenarioSpec::parse(named.spec);
  }
  return ScenarioSpec::parse(arg);
}

}  // namespace tlb::workload
