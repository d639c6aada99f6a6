#include "tlb/core/grouped_state.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "tlb/core/departure.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/util/binomial.hpp"
#include "tlb/util/parallel.hpp"

namespace tlb::core {

GroupedState::GroupedState(graph::Node n, std::vector<double> class_weights,
                           Thresholds thresholds, double alpha,
                           bool exclude_self, std::size_t threads)
    : n_(n),
      class_weights_(std::move(class_weights)),
      w_max_(class_weights_.empty() ? 0.0 : class_weights_.back()),
      alpha_(alpha),
      exclude_self_(exclude_self),
      thresholds_(std::move(thresholds)) {
  if (threads != 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

void GroupedState::shift_threshold(double next) {
  const double prev = thresholds_.max();
  thresholds_ = next;
  over_.shift_threshold(prev, next,
                        [this](graph::Node r) { return loads_[r]; });
}

void GroupedState::attach(const StepPhases& phases, StepPhases::Phase sample,
                          StepPhases::Phase apply, const std::string& engine) {
  phases_ = phases;
  sample_phase_ = sample;
  apply_phase_ = apply;
  tracker_counters_.attach(phases_, engine, over_);
  if (pool_) phases_.attach(*pool_);
}

void GroupedState::place(std::span<const graph::Node> placement,
                         std::span<const std::uint32_t> task_class) {
  counts_.assign(static_cast<std::size_t>(n_) * class_weights_.size(), 0);
  loads_.assign(n_, 0.0);
  task_counts_.assign(n_, 0);
  for (std::size_t i = 0; i < placement.size(); ++i) {
    const graph::Node r = placement[i];
    if (r >= n_) {
      throw std::invalid_argument("GroupedState::place: resource out of range");
    }
    ++counts_[slot(r, task_class[i])];
    loads_[r] += class_weights_[task_class[i]];
    ++task_counts_[r];
  }
  // Counts were rebuilt from scratch: one shared invalidation entry point
  // (every status pending, load index stale).
  over_.rebuild(n_);
}

void GroupedState::clear_resource(graph::Node r) {
  std::fill_n(counts_.begin() + static_cast<std::ptrdiff_t>(slot(r, 0)),
              class_weights_.size(), 0u);
  loads_[r] = 0.0;
  task_counts_[r] = 0;
  over_.mark_dirty(r);
}

const std::vector<graph::Node>& GroupedState::overloaded() const {
  // The predicate runs once per flush check, the round's most frequent
  // threshold read, so the uniform case compares against a hoisted scalar.
  thresholds_.visit([this](const auto T) {
    over_.flush([this, T](graph::Node r) { return loads_[r] > T[r]; });
  });
  return over_.items();
}

double GroupedState::fitted_prefix_weight(graph::Node r) const {
  // Canonical stacking: classes in ascending weight order. Within a class of
  // weight w starting at height h, exactly floor((T - h)/w) tasks (clamped
  // to the class count) still fit completely below the threshold.
  const std::size_t C = class_weights_.size();
  const double T = thresholds_[r];
  double h = 0.0;
  for (std::size_t c = 0; c < C; ++c) {
    const std::uint32_t k = counts_[static_cast<std::size_t>(r) * C + c];
    if (k == 0) continue;
    const double w = class_weights_[c];
    if (h + w > T) break;
    const double room = std::floor((T - h) / w);
    const auto fit = static_cast<std::uint32_t>(
        std::min<double>(room, static_cast<double>(k)));
    h += static_cast<double>(fit) * w;
    if (fit < k) break;
  }
  return h;
}

double GroupedState::phi_of(graph::Node r) const {
  if (loads_[r] <= thresholds_[r]) return 0.0;
  return loads_[r] - fitted_prefix_weight(r);
}

double GroupedState::potential() const {
  double phi = 0.0;
  for (graph::Node r : overloaded()) phi += phi_of(r);
  return phi;
}

std::size_t GroupedState::step(util::Rng& rng) {
  const std::size_t C = class_weights_.size();
  dsan::StepProbe* const probe = phases_.probe();
  // Per-round base seed for the sharded sampler (see the file comment).
  const std::uint64_t round_seed = rng();

  // Phase 1: per overloaded resource, binomial leaver counts per class,
  // decided against the round-start state. The incremental set makes this
  // O(#overloaded) instead of an O(n) sweep. Mutations later only mark
  // resources dirty, so the list stays stable for the whole round.
  const std::vector<graph::Node>& over = overloaded();
  const std::size_t shards = util::shard_count(over.size(), kShardGrain);
  if (shard_bufs_.size() < shards) shard_bufs_.resize(shards);
  if (probe != nullptr) probe->arm_shards(shards);
  {
    const obs::PhaseSpan span = phases_.time(sample_phase_);
    util::parallel_shard(
        over.size(), kShardGrain, pool_.get(),
        [this, &over, C, round_seed,
         probe](std::size_t shard, std::size_t lo, std::size_t hi) {
          std::vector<Departure>& buf = shard_bufs_[shard];
          buf.clear();
          util::Rng srng(util::derive_seed(round_seed, shard));
          // Binomial inversion draws a variable count, so no exact budget
          // is declared — the probe records the actual (deterministic)
          // draw count into the round fingerprint instead.
          if (probe != nullptr) srng.attach_probe(probe->shard_slot(shard));
          for (std::size_t i = lo; i < hi; ++i) {
            const graph::Node r = over[i];
            const double p = leave_probability(alpha_, phi_of(r), w_max_,
                                               task_counts_[r]);
            if (p <= 0.0) continue;
            // One sampler per resource: its classes share p, so they share
            // its log(1 - p) too.
            const util::FixedBinomial leave(p);
            for (std::size_t c = 0; c < C; ++c) {
              const std::uint32_t k =
                  counts_[static_cast<std::size_t>(r) * C + c];
              if (k == 0) continue;
              const auto leavers = static_cast<std::uint32_t>(leave(srng, k));
              if (leavers > 0) {
                buf.push_back({r, static_cast<std::uint32_t>(c), leavers});
              }
            }
          }
        });
  }
  phases_.digest(sample_phase_, [&](dsan::Digest& d) {
    d.u64(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      d.u64(shard_bufs_[s].size());
      for (const Departure& dep : shard_bufs_[s]) {
        d.u64(dep.src);
        d.u64(dep.cls);
        d.u64(dep.count);
      }
    }
  });

  // Phase 2: apply in shard order on the calling thread — remove every
  // departure, then move each leaver to a destination drawn from the
  // caller's stream.
  std::size_t migrations = 0;
  departure_groups_ = 0;
  {
    const obs::PhaseSpan span = phases_.time(apply_phase_);
    for (std::size_t s = 0; s < shards; ++s) {
      departure_groups_ += shard_bufs_[s].size();
      for (const Departure& d : shard_bufs_[s]) {
        counts_[static_cast<std::size_t>(d.src) * C + d.cls] -= d.count;
        loads_[d.src] -= static_cast<double>(d.count) * class_weights_[d.cls];
        task_counts_[d.src] -= d.count;
        over_.mark_dirty(d.src);
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Departure& d : shard_bufs_[s]) {
        const double w = class_weights_[d.cls];
        for (std::uint32_t i = 0; i < d.count; ++i) {
          auto dst = static_cast<graph::Node>(
              rng.uniform_below(exclude_self_ ? n_ - 1 : n_));
          if (exclude_self_ && dst >= d.src) ++dst;
          ++counts_[static_cast<std::size_t>(dst) * C + d.cls];
          loads_[dst] += w;
          ++task_counts_[dst];
          over_.mark_dirty(dst);
          ++migrations;
        }
      }
    }
  }
  phases_.digest(apply_phase_,
                 [this](dsan::Digest& d) { dsan::digest_loads(loads_, d); });
  tracker_counters_.export_deltas(over_);
  return migrations;
}

double GroupedState::max_load() const {
  const auto load = [this](graph::Node r) { return loads_[r]; };
  if (const LoadIndex* idx = over_.query_index(load)) {
    return idx->max_indexed_load();
  }
  return *std::max_element(loads_.begin(), loads_.end());
}

void GroupedState::collect_load_stats(LoadStatsCalc& calc,
                                      LoadStats& out) const {
  const auto load = [this](graph::Node r) { return loads_[r]; };
  if (const LoadIndex* idx = over_.query_index(load)) {
    out = calc.compute_indexed(*idx, n_, thresholds_.max());
  } else {
    out = calc.compute_scan(n_, thresholds_.max(), load);
  }
}

void GroupedState::audit(const char* who) const {
  over_.audit(
      n_, [this](graph::Node r) { return loads_[r] > thresholds_[r]; }, who);
}

void GroupedState::digest_resources(dsan::Digest& d) const {
  const std::size_t C = class_weights_.size();
  for (graph::Node r = 0; r < n_; ++r) {
    d.f64(loads_[r]);
    d.u64(task_counts_[r]);
    for (std::size_t c = 0; c < C; ++c) d.u64(counts_[slot(r, c)]);
  }
}

}  // namespace tlb::core
