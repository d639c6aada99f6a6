#include "tlb/core/user_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "tlb/core/departure.hpp"
#include "tlb/core/potential.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/util/parallel.hpp"

namespace tlb::core {

namespace {

/// Uniform destination; optionally excluding the source.
graph::Node sample_destination(graph::Node n, graph::Node src,
                               bool exclude_self, util::Rng& rng) {
  if (!exclude_self) return static_cast<graph::Node>(rng.uniform_below(n));
  auto d = static_cast<graph::Node>(rng.uniform_below(n - 1));
  return d >= src ? d + 1 : d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Exact engine
// ---------------------------------------------------------------------------

UserControlledEngine::UserControlledEngine(const tasks::TaskSet& ts, Node n,
                                           UserProtocolConfig config)
    : tasks_(&ts),
      config_(std::move(config)),
      state_(ts, n, std::move(config_.threshold), "UserControlledEngine"),
      phases_(config_.options) {
  if (!(config_.alpha > 0.0) || !std::isfinite(config_.alpha)) {
    throw std::invalid_argument(
        "UserControlledEngine: alpha must be finite and > 0");
  }
  if (n < 2) throw std::invalid_argument("UserControlledEngine: need n >= 2");
  // Negated, so NaN fails too: a NaN blend would never act resource-mode.
  const double beta = config_.resource_probability;
  if (!(beta >= 0.0 && beta <= 1.0)) {
    throw std::invalid_argument(
        "UserControlledEngine: resource_probability in [0, 1]");
  }
  // No pool at one thread: phase 1 runs inline over the same shards.
  if (config_.options.threads != 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.options.threads);
  }
  sample_phase_ = phases_.phase("exact.sample");
  merge_phase_ = phases_.phase("exact.merge");
  apply_phase_ = phases_.phase("exact.apply");
  m_coins_ = phases_.work_counter("exact.coins");
  m_departures_ = phases_.work_counter("exact.departures");
  tracker_counters_.attach(phases_, "exact", state_.overloaded_tracker());
  if (pool_) phases_.attach(*pool_);
}

UserControlledEngine::UserControlledEngine(const graph::Graph& g,
                                           const tasks::TaskSet& ts,
                                           UserProtocolConfig config)
    : UserControlledEngine(ts, g.num_nodes(), std::move(config)) {
  walk_.emplace(g, config_.walk);
}

void UserControlledEngine::reset(const tasks::Placement& placement) {
  state_.place(placement);
}

std::size_t UserControlledEngine::step(util::Rng& rng) {
  const Node n = state_.num_resources();
  const double w_max = tasks_->max_weight();
  dsan::StepProbe* const probe = phases_.probe();
  phases_.begin_step(rng);
  // Per-round base seed for the sharded sampler, drawn from the caller's
  // stream so a run is still a pure function of the initial seed. Every
  // shard below derives its private stream from (round_seed, shard).
  const std::uint64_t round_seed = rng();

  // Phase 1a: freeze the round-start state the departure decisions are
  // analysed against — per-resource leave probability p_r, and the flat
  // layout of candidate coins: positions coin_prefix_[i]..coin_prefix_[i+1]
  // are the stack positions of over[i]. Only overloaded resources can lose
  // tasks, and the state tracks them incrementally. Mutations later only
  // mark resources dirty; the list stays stable until the next query, so
  // holding the reference across the round is safe. With a blend, each
  // overloaded resource first draws its mode on the caller's stream, in
  // list order, and only the user-mode ones get coins.
  const std::vector<Node>* over = &state_.overloaded();
  std::size_t total = 0;
  {
    const obs::PhaseSpan span = phases_.time(sample_phase_);
    resource_mode_.clear();
    if (const double beta = config_.resource_probability; beta > 0.0) {
      user_mode_.clear();
      for (const Node r : *over) {
        (rng.bernoulli(beta) ? resource_mode_ : user_mode_).push_back(r);
      }
      over = &user_mode_;
    }
    const std::size_t k = over->size();
    coin_prefix_.resize(k + 1);
    leave_p_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
      const Node r = (*over)[i];
      const ResourceStack stack = state_.stack(r);
      coin_prefix_[i] = total;
      total += stack.count();
      const double phi = stack.phi(state_.thresholds()[r]);
      leave_p_[i] = leave_probability(config_.alpha, phi, w_max, stack.count());
    }
    coin_prefix_[k] = total;

    // Phase 1b: flip the coins. Sharding the flat coin index space (rather
    // than the overloaded list) keeps the all-on-one initial round parallel
    // too. Shards only read the frozen arrays and write disjoint mask bytes
    // and their own leaver count, so the pass is race-free and bitwise
    // independent of the thread count.
    flat_mask_.assign(total, 0);
    const std::size_t shards = util::shard_count(total, kCoinShardGrain);
    shard_movers_.assign(shards + 1, 0);
    if (probe != nullptr) probe->arm_shards(shards);
    util::parallel_shard(
        total, kCoinShardGrain, pool_.get(),
        [this, round_seed,
         probe](std::size_t shard, std::size_t lo, std::size_t hi) {
          util::Rng srng(util::derive_seed(round_seed, shard));
          if (probe != nullptr) srng.attach_probe(probe->shard_slot(shard));
          std::uint64_t expected_draws = 0;
          std::size_t leavers = 0;
          // Resource index whose coin range contains lo.
          std::size_t i = static_cast<std::size_t>(
                              std::upper_bound(coin_prefix_.begin(),
                                               coin_prefix_.end(), lo) -
                              coin_prefix_.begin()) -
                          1;
          std::size_t pos = lo;
          while (pos < hi) {
            while (coin_prefix_[i + 1] <= pos) ++i;
            const std::size_t end = std::min(hi, coin_prefix_[i + 1]);
            const double p = leave_p_[i];
            if (p >= 1.0) {
              // Deterministic all-leave: p is a pure function of the frozen
              // round-start state, so skipping the draws is thread-invariant.
              std::fill(flat_mask_.begin() + static_cast<std::ptrdiff_t>(pos),
                        flat_mask_.begin() + static_cast<std::ptrdiff_t>(end),
                        std::uint8_t{1});
              leavers += end - pos;
            } else if (p > 0.0) {
              // Integer-threshold coin: success iff the raw 64-bit draw falls
              // below p * 2^64 (p < 1 keeps the product below 2^64).
              const auto cut = static_cast<std::uint64_t>(p * 0x1.0p64);
              // Exactly one draw per coin with 0 < p < 1 — the one shard
              // budget the stream discipline pins exactly (dsan checks it).
              // Branch-free store: at p near 1/2 a branch on the coin
              // mispredicts half the time.
              expected_draws += end - pos;
              for (std::size_t c = pos; c < end; ++c) {
                const bool leave = srng() < cut;
                flat_mask_[c] = leave;
                leavers += leave;
              }
            }
            pos = end;
          }
          shard_movers_[shard + 1] = leavers;
          if (probe != nullptr) {
            probe->expect_shard_draws(shard, expected_draws);
          }
        });
  }
  phases_.digest(sample_phase_, [&](dsan::Digest& d) {
    d.u64(total);
    for (std::size_t c = 0; c < total; ++c) d.u64(flat_mask_[c]);
  });

  // Phase 1c: the merge, one bulk removal over the flat layout on the same
  // coin shards. The shards' leaver counts place every mover at its final
  // index, so movers_ is in overloaded-list order, stack order within a
  // resource, exactly as a serial pass would leave it. The resource-mode
  // evictees follow, in list order: evict_above sets each load to its kept
  // prefix's height, so a stack that fits is never left one ulp above T.
  {
    const obs::PhaseSpan span = phases_.time(merge_phase_);
    for (std::size_t s = 1; s < shard_movers_.size(); ++s) {
      shard_movers_[s] += shard_movers_[s - 1];
    }
    const mem::FlatMarks marks{*over, coin_prefix_, flat_mask_,
                               kCoinShardGrain, shard_movers_};
    state_.remove_marked(marks, movers_, mover_origin_, pool_.get());
    for (const Node r : resource_mode_) {
      state_.evict_above(r, movers_);
      mover_origin_.resize(movers_.size(), r);
    }
  }
  phases_.digest(merge_phase_, [&](dsan::Digest& d) {
    d.u64(movers_.size());
    for (std::size_t i = 0; i < movers_.size(); ++i) {
      d.u64(movers_[i]);
      d.u64(mover_origin_[i]);
    }
  });

  // Phase 2: scatter to uniformly random resources, or one walk step from
  // each origin on a graph. All destinations are drawn first, in mover
  // order, from the caller's stream, each replacing its mover's origin;
  // then one bucketed bulk append, sharded over the pool. The append draws
  // nothing, so the stream is the same as drawing each destination right
  // before its mover lands.
  {
    const obs::PhaseSpan span = phases_.time(apply_phase_);
    if (walk_) {
      for (Node& slot : mover_origin_) slot = walk_->step(slot, rng);
    } else {
      for (Node& slot : mover_origin_) {
        slot = sample_destination(n, slot, config_.exclude_self, rng);
      }
    }
    state_.scatter(mover_origin_, movers_, pool_.get());
  }
  phases_.digest(apply_phase_, [this](dsan::Digest& d) {
    dsan::digest_loads(state_.loads(), d);
  });
  phases_.end_step(rng);

  m_coins_.add(total);
  m_departures_.add(movers_.size());
  tracker_counters_.export_deltas(state_.overloaded_tracker());
  return movers_.size();
}

bool UserControlledEngine::balanced() const { return state_.balanced(); }

double UserControlledEngine::potential() const {
  return user_potential(state_);
}

std::uint32_t UserControlledEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(state_.overloaded_count());
}

double UserControlledEngine::max_load() const { return state_.max_load(); }

void UserControlledEngine::audit() const { state_.check_invariants(); }

// ---------------------------------------------------------------------------
// Grouped engine
// ---------------------------------------------------------------------------

namespace {

/// The ascending weight-class table of `ts`. One pass and a small sorted
/// insert set instead of sorting all m weights: at kMaxClasses = 64 the
/// lookup is a handful of comparisons per task, and task sets with too
/// many classes are rejected as soon as the 65th distinct weight appears.
std::vector<double> grouped_classes(const tasks::TaskSet& ts) {
  constexpr std::size_t kMax = GroupedUserEngine::kMaxClasses;
  std::vector<double> distinct;
  distinct.reserve(kMax + 1);
  for (double w : ts.weights()) {
    const auto it = std::lower_bound(distinct.begin(), distinct.end(), w);
    if (it != distinct.end() && *it == w) continue;
    if (distinct.size() == kMax) {
      throw std::invalid_argument(
          "GroupedUserEngine: too many distinct weights; use the exact "
          "engine");
    }
    distinct.insert(it, w);
  }
  return distinct;
}

}  // namespace

GroupedUserEngine::GroupedUserEngine(const tasks::TaskSet& ts, Node n,
                                     UserProtocolConfig config)
    : tasks_(&ts),
      config_(std::move(config)),
      core_(n, grouped_classes(ts), std::move(config_.threshold),
            config_.alpha, config_.exclude_self, config_.options.threads),
      phases_(config_.options) {
  core_.thresholds().checked(n, "GroupedUserEngine");
  if (!(config_.alpha > 0.0) || !std::isfinite(config_.alpha)) {
    throw std::invalid_argument(
        "GroupedUserEngine: alpha must be finite and > 0");
  }
  if (config_.resource_probability != 0.0) {
    throw std::invalid_argument(
        "GroupedUserEngine: a blend needs the exact engine");
  }
  if (n < 2) throw std::invalid_argument("GroupedUserEngine: need n >= 2");

  const std::vector<double>& classes = core_.class_weights();
  task_class_.resize(ts.size());
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto it = std::lower_bound(classes.begin(), classes.end(),
                                     ts.weight(i));
    task_class_[i] = static_cast<std::uint32_t>(it - classes.begin());
  }
  const StepPhases::Phase sample = phases_.phase("grouped.sample");
  const StepPhases::Phase apply = phases_.phase("grouped.apply");
  m_departure_groups_ = phases_.work_counter("grouped.departure_groups");
  m_departures_ = phases_.work_counter("grouped.departures");
  core_.attach(phases_, sample, apply, "grouped");
}

void GroupedUserEngine::reset(const tasks::Placement& placement) {
  if (placement.size() != tasks_->size()) {
    throw std::invalid_argument("GroupedUserEngine::reset: placement size mismatch");
  }
  core_.place(placement, task_class_);
}

std::size_t GroupedUserEngine::step(util::Rng& rng) {
  phases_.begin_step(rng);
  const std::size_t migrations = core_.step(rng);
  phases_.end_step(rng);
  m_departure_groups_.add(core_.last_departure_groups());
  m_departures_.add(migrations);
  return migrations;
}

void GroupedUserEngine::collect_fingerprint(dsan::Digest& d,
                                            dsan::Digest& work) const {
  const Node n = core_.num_resources();
  d.u64(n);
  d.u64(core_.num_classes());
  core_.digest_resources(d);
  for (Node r = 0; r < n; ++r) d.f64(core_.thresholds()[r]);
  dsan::digest_tracker(core_.tracker(), d, work);
}

}  // namespace tlb::core
