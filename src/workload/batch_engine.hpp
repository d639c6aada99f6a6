#pragma once
// The one place a batch engine is built from a ScenarioSpec. Scenario::run
// and the perf suite (its batch presets and the six drives of
// "baselines:suite") construct through with_batch_engine, so a benchmark
// always runs the engine, and the configuration, that a scenario run picks.
//
// It is a template over the callback, not a factory returning an erased
// engine: each engine reaches the caller's engine::drive as its own type,
// so a round costs no virtual call.

#include <stdexcept>

#include "tlb/core/metrics.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/baseline_balancers.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/randomwalk/transition.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/workload/scenario.hpp"

namespace tlb::workload {

/// Everything besides the spec that a batch engine is built from.
struct BatchEngineInputs {
  const tasks::TaskSet* tasks = nullptr;  ///< not owned; outlives the engine
  graph::Node n = 0;  ///< resources (the graph's size for graph protocols)
  /// The topology of resource / graphuser / mixed (not owned); the user
  /// protocol and the baselines never read it.
  const graph::Graph* graph = nullptr;
  randomwalk::WalkKind walk = randomwalk::WalkKind::kLazy;
  double threshold = 0.0;  ///< T (the selfish baseline's stop threshold)
  double alpha = 1.0;      ///< user-side migration dampening
  /// Engine threads, obs sinks and the dsan probe of every non-baseline
  /// engine.
  core::EngineOptions options;
};

/// The migration protocols start from a placement (reset); the five
/// allocator baselines start with every ball unplaced and have no reset.
template <class E>
concept StartsFromPlacement = requires(E& e, const tasks::Placement& p) {
  e.reset(p);
};

/// Construct the fresh engine `spec` names and return fn(engine):
///   user                          grouped engine, or the exact one when
///                                 the grouped form rejects the task set
///                                 (try_grouped_user_engine);
///   resource                      on *in.graph;
///   graphuser, mixed              the exact engine on *in.graph, at blend
///                                 β = 0 and the spec's β;
///   the six baselines             on the complete bin model, twochoice
///                                 and onebeta with the spec's d / beta.
/// The caller resets the engine iff StartsFromPlacement, then drives it.
template <class Fn>
decltype(auto) with_batch_engine(const ScenarioSpec& spec,
                                 const BatchEngineInputs& in, Fn&& fn) {
  const tasks::TaskSet& ts = *in.tasks;
  const double T = in.threshold;
  switch (spec.protocol) {
    case ProtocolKind::kUser: {
      core::UserProtocolConfig cfg;
      cfg.threshold = T;
      cfg.alpha = in.alpha;
      cfg.options = in.options;
      if (auto grouped = try_grouped_user_engine(ts, in.n, cfg)) {
        return fn(*grouped);
      }
      core::UserControlledEngine engine(ts, in.n, cfg);
      return fn(engine);
    }
    case ProtocolKind::kResource: {
      core::ResourceProtocolConfig cfg;
      cfg.threshold = T;
      cfg.walk = in.walk;
      cfg.options = in.options;
      core::ResourceControlledEngine engine(*in.graph, ts, cfg);
      return fn(engine);
    }
    case ProtocolKind::kGraphUser:
    case ProtocolKind::kMixed: {
      core::UserProtocolConfig cfg;
      cfg.threshold = T;
      cfg.alpha = in.alpha;
      cfg.walk = in.walk;
      cfg.resource_probability =
          spec.protocol == ProtocolKind::kMixed ? spec.mixed_beta : 0.0;
      cfg.options = in.options;
      core::UserControlledEngine engine(*in.graph, ts, cfg);
      return fn(engine);
    }
    case ProtocolKind::kSeqThresh: {
      engine::SequentialThresholdBalancer balancer(ts, in.n, T);
      return fn(balancer);
    }
    case ProtocolKind::kParThresh: {
      engine::ParallelThresholdBalancer balancer(ts, in.n, T);
      return fn(balancer);
    }
    case ProtocolKind::kTwoChoice: {
      engine::ChoiceBalancer balancer(ts, in.n, spec.twochoice_d, 0.0, T);
      return fn(balancer);
    }
    case ProtocolKind::kOneBeta: {
      engine::ChoiceBalancer balancer(ts, in.n, 2, spec.onebeta_beta, T);
      return fn(balancer);
    }
    case ProtocolKind::kSelfish: {
      engine::SelfishReallocBalancer balancer(ts, in.n, T);
      return fn(balancer);
    }
    case ProtocolKind::kFirstFit: {
      engine::FirstFitBalancer balancer(ts, in.n, T);
      return fn(balancer);
    }
  }
  throw std::logic_error("with_batch_engine: unreachable protocol");
}

}  // namespace tlb::workload
