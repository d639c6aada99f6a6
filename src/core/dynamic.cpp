#include "tlb/core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tlb/core/completions.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/util/binomial.hpp"
#include "tlb/util/parallel.hpp"

namespace tlb::core {

DynamicUserEngine::DynamicUserEngine(DynamicConfig config)
    : config_(std::move(config)) {
  if (config_.n < 2) throw std::invalid_argument("DynamicUserEngine: n >= 2");
  // Every bound is written so that NaN fails it (an ordered comparison with
  // NaN is false), and infinities are rejected outright: a NaN completion
  // rate or an infinite arrival rate would otherwise hang the first step().
  if (!std::isfinite(config_.arrival_rate) || !(config_.arrival_rate >= 0.0) ||
      !(config_.completion_rate >= 0.0 && config_.completion_rate <= 1.0)) {
    throw std::invalid_argument(
        "DynamicUserEngine: arrival rate finite and >= 0, completion rate "
        "in [0, 1]");
  }
  if (!(config_.crash_rate >= 0.0 && config_.crash_rate <= 1.0)) {
    throw std::invalid_argument("DynamicUserEngine: crash_rate in [0, 1]");
  }
  if (!std::isfinite(config_.eps) || !(config_.eps > 0.0) ||
      !std::isfinite(config_.alpha) || !(config_.alpha > 0.0)) {
    throw std::invalid_argument("DynamicUserEngine: eps, alpha finite and > 0");
  }
  if (config_.classes.empty()) {
    throw std::invalid_argument("DynamicUserEngine: need >= 1 weight class");
  }
  // Normalise and sort the class table (ascending weights, CDF for sampling).
  std::sort(config_.classes.begin(), config_.classes.end(),
            [](const auto& a, const auto& b) { return a.weight < b.weight; });
  double total_p = 0.0;
  for (const auto& c : config_.classes) {
    // NaN fails every ordered comparison, so the bounds are written to
    // reject it explicitly: a non-finite weight would corrupt the sorted
    // class table (lower_bound ordering) and every load sum silently.
    if (!std::isfinite(c.weight) || !(c.weight >= 1.0) ||
        !std::isfinite(c.probability) || !(c.probability > 0.0)) {
      throw std::invalid_argument(
          "DynamicUserEngine: class weights finite and >= 1, "
          "probabilities finite and > 0");
    }
    total_p += c.probability;
  }
  double acc = 0.0;
  for (const auto& c : config_.classes) {
    class_weights_.push_back(c.weight);
    acc += c.probability / total_p;
    class_cdf_.push_back(acc);
    w_max_ = std::max(w_max_, c.weight);
  }
  class_cdf_.back() = 1.0;

  counts_.assign(static_cast<std::size_t>(config_.n) * class_weights_.size(), 0);
  loads_.assign(config_.n, 0.0);
  task_counts_.assign(config_.n, 0);
  // Fresh store, everything pending re-check — the shared rebuild hook, so
  // the initial recompute below registers its value without invalidating
  // anything a second time.
  over_.rebuild(config_.n);
  threshold_ = 0.0;  // force the first recompute to register its value
  recompute_threshold();
  if (config_.threads != 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  }
  sink_.registry = config_.registry;
  sink_.trace = config_.trace;
  if (sink_.registry != nullptr) {
    obs::Registry& reg = *sink_.registry;
    using obs::MetricClass;
    m_arrivals_ns_ = reg.counter("dynamic.arrivals_ns", MetricClass::kTiming);
    m_completions_ns_ =
        reg.counter("dynamic.completions_ns", MetricClass::kTiming);
    m_sample_ns_ = reg.counter("dynamic.sample_ns", MetricClass::kTiming);
    m_apply_ns_ = reg.counter("dynamic.apply_ns", MetricClass::kTiming);
    m_arrivals_ = reg.counter("dynamic.arrivals", MetricClass::kDeterministic);
    m_completions_ =
        reg.counter("dynamic.completions", MetricClass::kDeterministic);
    m_crashes_ = reg.counter("dynamic.crashes", MetricClass::kDeterministic);
    m_threshold_changes_ =
        reg.counter("dynamic.threshold_changes", MetricClass::kDeterministic);
    m_flush_checks_ =
        reg.counter("dynamic.flush_checks", MetricClass::kDeterministic);
    m_dirty_marks_ =
        reg.counter("dynamic.dirty_marks", MetricClass::kDeterministic);
    m_band_size_ = reg.counter("index.band_size", MetricClass::kDeterministic);
    m_bucket_moves_ =
        reg.counter("index.bucket_moves", MetricClass::kDeterministic);
    m_reconciled_ =
        reg.counter("index.reconciled", MetricClass::kDeterministic);
    seen_flush_checks_ = over_.flush_checks();
    seen_dirty_marks_ = over_.dirty_marks();
    seen_band_size_ = over_.load_index().band_size();
    seen_bucket_moves_ = over_.load_index().bucket_moves();
    seen_reconciled_ = over_.load_index().reconciled();
  }
  if (pool_ && sink_.attached()) {
    pool_->attach_probe(sink_.registry, sink_.trace);
  }
}

void DynamicUserEngine::recompute_threshold() {
  // Above-average threshold against the *current* total weight; the +w_max
  // term uses the static class bound (resources know the workload's class
  // table, not the transient maximum).
  const double next = (1.0 + config_.eps) * total_weight_ /
                          static_cast<double>(config_.n) +
                      w_max_;
  // Only a *changed* threshold can flip a resource whose load did not move;
  // quiet rounds (no arrivals, completions or crashes) recompute to exactly
  // the same value, and invalidating anything then would turn the next
  // overloaded_now() into a pointless rescan.
  if (next == threshold_) return;
  const double prev = threshold_;
  threshold_ = next;
  if (prev > 0.0) {
    // A moved threshold flips exactly the resources whose load lies between
    // the old and new value: reconcile only that band through the tracker's
    // bucketed load index (O(#band + #touched) instead of the old
    // mark_all_dirty() O(n) rescan — the number threshold-churn runs are
    // judged by).
    over_.shift_threshold(prev, next,
                          [this](graph::Node r) { return loads_[r]; });
  }
  // prev == 0 is the construction-time registration: the tracker was just
  // rebuilt with every resource pending, so there is nothing to add.
  if (sink_.registry != nullptr) sink_.registry->add(m_threshold_changes_, 1);
}

const std::vector<graph::Node>& DynamicUserEngine::overloaded_now() const {
  over_.flush([this](graph::Node r) { return loads_[r] > threshold_; });
  return over_.items();
}

void DynamicUserEngine::check_overloaded_invariant() const {
  over_.audit(
      config_.n, [this](graph::Node r) { return loads_[r] > threshold_; },
      "DynamicUserEngine");
}

void DynamicUserEngine::do_arrivals(util::Rng& rng) {
  std::uint64_t count = 0;
  if (config_.arrival_fn) {
    count = config_.arrival_fn(round_, rng);
  } else {
    // Dispersed arrival count with the right mean: Binomial(2λ, 1/2).
    const auto budget = static_cast<std::uint64_t>(
        std::llround(2.0 * config_.arrival_rate));
    count = util::binomial(rng, budget, 0.5);
  }
  const std::size_t C = class_weights_.size();
  for (std::uint64_t i = 0; i < count; ++i) {
    const double u = rng.uniform01();
    std::size_t cls = 0;
    while (cls + 1 < C && u > class_cdf_[cls]) ++cls;
    const graph::Node dst =
        config_.hotspot_arrivals
            ? 0
            : static_cast<graph::Node>(rng.uniform_below(config_.n));
    ++counts_[static_cast<std::size_t>(dst) * C + cls];
    loads_[dst] += class_weights_[cls];
    ++task_counts_[dst];
    over_.mark_dirty(dst);
    total_weight_ += class_weights_[cls];
    ++population_;
    if (metrics_) ++metrics_->arrivals;
  }
  if (sink_.registry != nullptr) sink_.registry->add(m_arrivals_, count);
}

void DynamicUserEngine::do_completions(util::Rng& rng) {
  // Geometric skip-sampling over the flat (resource, class) slot order:
  // completions + 1 draws per round, not one per non-empty slot.
  const std::size_t C = class_weights_.size();
  const std::uint64_t total_done = complete_tasks(
      rng, config_.completion_rate, counts_,
      [this, C](std::size_t slot, std::uint32_t done) {
        const auto r = static_cast<graph::Node>(slot / C);
        const double weight =
            static_cast<double>(done) * class_weights_[slot % C];
        loads_[r] -= weight;
        task_counts_[r] -= done;
        over_.mark_dirty(r);
        total_weight_ -= weight;
      });
  population_ -= total_done;
  if (metrics_) metrics_->completions += total_done;
  if (sink_.registry != nullptr) sink_.registry->add(m_completions_, total_done);
}

void DynamicUserEngine::do_crash(util::Rng& rng) {
  if (config_.crash_rate <= 0.0 || !rng.bernoulli(config_.crash_rate)) return;
  const auto victim = static_cast<graph::Node>(rng.uniform_below(config_.n));
  const std::size_t C = class_weights_.size();
  // Fail-over: every task on the victim scatters to a uniform resource
  // (possibly re-landing anywhere but the victim, which rejoins empty).
  for (std::size_t c = 0; c < C; ++c) {
    auto& slot = counts_[static_cast<std::size_t>(victim) * C + c];
    while (slot > 0) {
      --slot;
      auto dst = static_cast<graph::Node>(rng.uniform_below(config_.n - 1));
      if (dst >= victim) ++dst;
      ++counts_[static_cast<std::size_t>(dst) * C + c];
      loads_[dst] += class_weights_[c];
      ++task_counts_[dst];
      over_.mark_dirty(dst);
    }
  }
  loads_[victim] = 0.0;
  task_counts_[victim] = 0;
  over_.mark_dirty(victim);
  if (metrics_) ++metrics_->crashes;
  if (sink_.registry != nullptr) sink_.registry->add(m_crashes_, 1);
}

std::size_t DynamicUserEngine::do_protocol_step(util::Rng& rng) {
  // One grouped Algorithm 6.1 round against the current threshold. The
  // per-round base seed comes from the caller's stream; phase 1 shards the
  // overloaded list, each shard drawing its binomial leaver counts from a
  // private (round_seed, shard) stream into its own buffer while reading
  // only the frozen round-start counts/loads — race-free and bitwise
  // independent of config_.threads.
  const std::size_t C = class_weights_.size();
  dsan::StepProbe* const probe = config_.dsan;
  const std::uint64_t round_seed = rng();
  const std::vector<graph::Node>& over = overloaded_now();
  const std::size_t shards = util::shard_count(over.size(), kShardGrain);
  if (shard_bufs_.size() < shards) shard_bufs_.resize(shards);
  if (probe != nullptr) probe->arm_shards(shards);
  {
    const obs::PhaseSpan span(sink_, m_sample_ns_, "dynamic.sample");
    util::parallel_shard(
        over.size(), kShardGrain, pool_.get(),
        [this, &over, C, round_seed,
         probe](std::size_t shard, std::size_t lo, std::size_t hi) {
          std::vector<Departure>& buf = shard_bufs_[shard];
          buf.clear();
          util::Rng srng(util::derive_seed(round_seed, shard));
          // Binomial inversion draws a variable count — no exact budget;
          // the probe records the actual (deterministic) draw count.
          if (probe != nullptr) srng.attach_probe(probe->shard_slot(shard));
          for (std::size_t i = lo; i < hi; ++i) {
            const graph::Node r = over[i];
            if (task_counts_[r] == 0) continue;
            const double phi = phi_of(r);
            if (phi <= 0.0) continue;
            const double p =
                std::min(1.0, config_.alpha * std::ceil(phi / w_max_) /
                                  static_cast<double>(task_counts_[r]));
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

  // Phase 2: apply in shard order on the calling thread.
  std::size_t migrations = 0;
  const obs::PhaseSpan span(sink_, m_apply_ns_, "dynamic.apply");
  for (std::size_t s = 0; s < shards; ++s) {
    for (const Departure& d : shard_bufs_[s]) {
      counts_[static_cast<std::size_t>(d.src) * C + d.cls] -= d.count;
      loads_[d.src] -= static_cast<double>(d.count) * class_weights_[d.cls];
      task_counts_[d.src] -= d.count;
      over_.mark_dirty(d.src);
    }
  }
  for (std::size_t s = 0; s < shards; ++s) {
    for (const Departure& d : shard_bufs_[s]) {
      for (std::uint32_t i = 0; i < d.count; ++i) {
        const auto dst =
            static_cast<graph::Node>(rng.uniform_below(config_.n));
        ++counts_[static_cast<std::size_t>(dst) * C + d.cls];
        loads_[dst] += class_weights_[d.cls];
        ++task_counts_[dst];
        over_.mark_dirty(dst);
        ++migrations;
      }
    }
  }
  return migrations;
}

double DynamicUserEngine::phi_of(graph::Node r) const {
  if (loads_[r] <= threshold_) return 0.0;
  // Canonical ascending stacking, as in GroupedUserEngine.
  const std::size_t C = class_weights_.size();
  double h = 0.0;
  for (std::size_t c = 0; c < C; ++c) {
    const std::uint32_t k = counts_[static_cast<std::size_t>(r) * C + c];
    if (k == 0) continue;
    const double w = class_weights_[c];
    if (h + w > threshold_) break;
    const double room = std::floor((threshold_ - h) / w);
    const auto fit = static_cast<std::uint32_t>(
        std::min<double>(room, static_cast<double>(k)));
    h += static_cast<double>(fit) * w;
    if (fit < k) break;
  }
  return loads_[r] - h;
}

std::size_t DynamicUserEngine::step(util::Rng& rng) {
  dsan::StepProbe* const probe = config_.dsan;
  if (probe != nullptr) probe->begin_step(rng);
  {
    const obs::PhaseSpan span(sink_, m_arrivals_ns_, "dynamic.arrivals");
    do_arrivals(rng);
  }
  if (probe != nullptr && probe->want_phases()) {
    dsan::Digest d;
    d.u64(population_);
    d.f64(total_weight_);
    dsan::digest_loads(loads_, d);
    probe->phase("arrivals", d.value());
  }
  ++round_;
  {
    const obs::PhaseSpan span(sink_, m_completions_ns_, "dynamic.completions");
    do_completions(rng);
  }
  if (probe != nullptr && probe->want_phases()) {
    dsan::Digest d;
    d.u64(population_);
    d.f64(total_weight_);
    dsan::digest_loads(loads_, d);
    probe->phase("completions", d.value());
  }
  do_crash(rng);
  recompute_threshold();
  last_migrations_ = do_protocol_step(rng);
  if (probe != nullptr && probe->want_phases()) {
    dsan::Digest d;
    d.f64(threshold_);
    d.u64(last_migrations_);
    dsan::digest_loads(loads_, d);
    probe->phase("protocol", d.value());
  }
  if (probe != nullptr) probe->end_step(rng);
  if (sink_.registry != nullptr) {
    obs::Registry& reg = *sink_.registry;
    using obs::MetricClass;
    reg.add(m_flush_checks_, over_.flush_checks() - seen_flush_checks_);
    reg.add(m_dirty_marks_, over_.dirty_marks() - seen_dirty_marks_);
    const LoadIndex& idx = over_.load_index();
    reg.add(m_band_size_, idx.band_size() - seen_band_size_);
    reg.add(m_bucket_moves_, idx.bucket_moves() - seen_bucket_moves_);
    reg.add(m_reconciled_, idx.reconciled() - seen_reconciled_);
    seen_flush_checks_ = over_.flush_checks();
    seen_dirty_marks_ = over_.dirty_marks();
    seen_band_size_ = idx.band_size();
    seen_bucket_moves_ = idx.bucket_moves();
    seen_reconciled_ = idx.reconciled();
  }
  if (config_.paranoid_checks) check_overloaded_invariant();

  if (metrics_) {
    const auto over =
        static_cast<graph::Node>(overloaded_now().size());
    metrics_->overloaded_fraction.add(static_cast<double>(over) /
                                      static_cast<double>(config_.n));
    const double avg = total_weight_ / static_cast<double>(config_.n);
    metrics_->max_over_avg.add(avg > 0.0 ? max_load() / avg : 0.0);
    metrics_->population.add(static_cast<double>(population_));
    metrics_->migrations_per_round.add(static_cast<double>(last_migrations_));
  }
  return last_migrations_;
}

double DynamicUserEngine::max_load() const {
  const auto load = [this](graph::Node r) { return loads_[r]; };
  if (const LoadIndex* idx = over_.query_index(load)) {
    return idx->max_indexed_load();
  }
  double max = 0.0;
  for (graph::Node r = 0; r < config_.n; ++r) {
    max = std::max(max, loads_[r]);
  }
  return max;
}

void DynamicUserEngine::collect_fingerprint(dsan::Digest& d) const {
  const std::size_t C = class_weights_.size();
  d.u64(config_.n);
  d.u64(C);
  d.u64(population_);
  d.f64(total_weight_);
  d.f64(threshold_);
  for (graph::Node r = 0; r < config_.n; ++r) {
    d.f64(loads_[r]);
    d.u64(task_counts_[r]);
    for (std::size_t c = 0; c < C; ++c) {
      d.u64(counts_[static_cast<std::size_t>(r) * C + c]);
    }
  }
  // Tracker bookkeeping: const reads only (see digest_state) — never flush.
  for (const graph::Node r : over_.items()) d.u64(r);
  d.u64(over_.dirty_size());
  d.u64(over_.flush_checks());
  d.u64(over_.dirty_marks());
}

void DynamicUserEngine::collect_load_stats(LoadStatsCalc& calc,
                                           LoadStats& out) const {
  const auto load = [this](graph::Node r) { return loads_[r]; };
  if (const LoadIndex* idx = over_.query_index(load)) {
    out = calc.compute_indexed(*idx, config_.n, threshold_);
  } else {
    out = calc.compute_scan(config_.n, threshold_, load);
  }
}

double DynamicUserEngine::potential() const {
  double phi = 0.0;
  for (graph::Node r : overloaded_now()) phi += phi_of(r);
  return phi;
}

void DynamicUserEngine::begin_measure() {
  metrics_store_ = DynamicMetrics{};
  metrics_ = &metrics_store_;
}

DynamicMetrics DynamicUserEngine::run(const engine::DriveOptions& opt,
                                      util::Rng& rng,
                                      engine::RoundObserver* observer) {
  if (opt.measure < 0) {
    // The churn process never terminates on its own; a run-to-balance drive
    // would race the arrival stream. Callers must bound the window.
    throw std::invalid_argument(
        "DynamicUserEngine::run: DriveOptions::measure must be >= 0");
  }
  metrics_ = nullptr;
  engine::drive(*this, rng, opt, observer);
  return metrics_store_;
}

}  // namespace tlb::core
