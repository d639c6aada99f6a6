#include "tlb/core/user_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "tlb/core/potential.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/util/binomial.hpp"
#include "tlb/util/parallel.hpp"

namespace tlb::core {

namespace {

/// Phase-1 worker pool for an engine: none when threads == 1 (sampling runs
/// inline on the calling thread over the same shard partition), else a pool
/// of `threads` workers (0 = hardware concurrency) reused across rounds.
std::unique_ptr<util::ThreadPool> make_phase1_pool(std::size_t threads) {
  if (threads == 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads);
}

/// Clamp the migration probability α·⌈φ/w_max⌉/b to [0, 1].
double leave_probability(double alpha, double phi, double w_max,
                         std::size_t b) {
  if (b == 0 || phi <= 0.0) return 0.0;
  const double p = alpha * std::ceil(phi / w_max) / static_cast<double>(b);
  return std::min(p, 1.0);
}

/// Uniform destination; optionally excluding the source.
graph::Node sample_destination(graph::Node n, graph::Node src,
                               bool exclude_self, util::Rng& rng) {
  if (!exclude_self) return static_cast<graph::Node>(rng.uniform_below(n));
  auto d = static_cast<graph::Node>(rng.uniform_below(n - 1));
  return d >= src ? d + 1 : d;
}

/// Validate the scalar threshold (shared by the dense resolver below and
/// the exact engine's scalar fast path).
double checked_threshold(double threshold, const char* who) {
  // !(x > 0) also catches NaN, which `x <= 0` would wave through.
  if (!std::isfinite(threshold) || !(threshold > 0.0)) {
    throw std::invalid_argument(std::string(who) +
                                ": threshold must be finite and > 0");
  }
  return threshold;
}

/// Resolve the scalar-or-vector threshold configuration into a dense
/// per-resource vector (shared by both engines).
std::vector<double> resolve_thresholds(const UserProtocolConfig& config,
                                       graph::Node n, const char* who) {
  std::vector<double> out;
  if (config.thresholds.empty()) {
    out.assign(n, checked_threshold(config.threshold, who));
  } else {
    if (config.thresholds.size() != n) {
      throw std::invalid_argument(
          std::string(who) + ": thresholds size must equal resource count");
    }
    for (double t : config.thresholds) {
      if (!std::isfinite(t) || !(t > 0.0)) {
        throw std::invalid_argument(std::string(who) +
                                    ": all thresholds must be finite and > 0");
      }
    }
    out = config.thresholds;
  }
  return out;
}

}  // namespace

std::optional<std::vector<double>> distinct_weights_capped(
    const tasks::TaskSet& ts, std::size_t max_classes) {
  std::vector<double> distinct;
  distinct.reserve(max_classes + 1);
  for (double w : ts.weights()) {
    const auto it = std::lower_bound(distinct.begin(), distinct.end(), w);
    if (it != distinct.end() && *it == w) continue;
    if (distinct.size() == max_classes) return std::nullopt;
    distinct.insert(it, w);
  }
  return distinct;
}

// ---------------------------------------------------------------------------
// Exact engine
// ---------------------------------------------------------------------------

UserControlledEngine::UserControlledEngine(const tasks::TaskSet& ts, Node n,
                                           UserProtocolConfig config)
    : tasks_(&ts), config_(std::move(config)), state_(ts, n) {
  if (config_.thresholds.empty()) {
    uniform_threshold_ =
        checked_threshold(config_.threshold, "UserControlledEngine");
    max_threshold_ = uniform_threshold_;
  } else {
    thresholds_ = resolve_thresholds(config_, n, "UserControlledEngine");
    max_threshold_ = *std::max_element(thresholds_.begin(), thresholds_.end());
  }
  if (!(config_.alpha > 0.0) || !std::isfinite(config_.alpha)) {
    throw std::invalid_argument(
        "UserControlledEngine: alpha must be finite and > 0");
  }
  if (n < 2) throw std::invalid_argument("UserControlledEngine: need n >= 2");
  if (thresholds_.empty()) {
    state_.set_thresholds(uniform_threshold_);
  } else {
    state_.set_thresholds(thresholds_);
  }
  pool_ = make_phase1_pool(config_.options.threads);
  sink_.registry = config_.options.registry;
  sink_.trace = config_.options.trace;
  if (sink_.registry != nullptr) {
    obs::Registry& reg = *sink_.registry;
    using obs::MetricClass;
    m_sample_ns_ = reg.counter("exact.sample_ns", MetricClass::kTiming);
    m_merge_ns_ = reg.counter("exact.merge_ns", MetricClass::kTiming);
    m_apply_ns_ = reg.counter("exact.apply_ns", MetricClass::kTiming);
    m_coins_ = reg.counter("exact.coins", MetricClass::kDeterministic);
    m_departures_ =
        reg.counter("exact.departures", MetricClass::kDeterministic);
    m_flush_checks_ =
        reg.counter("exact.flush_checks", MetricClass::kDeterministic);
    m_dirty_marks_ =
        reg.counter("exact.dirty_marks", MetricClass::kDeterministic);
    m_band_size_ = reg.counter("index.band_size", MetricClass::kDeterministic);
    m_bucket_moves_ =
        reg.counter("index.bucket_moves", MetricClass::kDeterministic);
    m_reconciled_ =
        reg.counter("index.reconciled", MetricClass::kDeterministic);
    seen_flush_checks_ = state_.overloaded_tracker().flush_checks();
    seen_dirty_marks_ = state_.overloaded_tracker().dirty_marks();
    seen_band_size_ = state_.overloaded_tracker().load_index().band_size();
    seen_bucket_moves_ = state_.overloaded_tracker().load_index().bucket_moves();
    seen_reconciled_ = state_.overloaded_tracker().load_index().reconciled();
  }
  if (pool_ && sink_.attached()) {
    pool_->attach_probe(sink_.registry, sink_.trace);
  }
}

void UserControlledEngine::reset(const tasks::Placement& placement) {
  state_.place(placement, /*threshold=*/-1.0);  // plain stacking
}

std::size_t UserControlledEngine::step(util::Rng& rng) {
  const Node n = state_.num_resources();
  const double w_max = tasks_->max_weight();
  dsan::StepProbe* const probe = config_.options.dsan;
  if (probe != nullptr) probe->begin_step(rng);
  // Per-round base seed for the sharded sampler, drawn from the caller's
  // stream so a run is still a pure function of the initial seed. Every
  // shard below derives its private stream from (round_seed, shard).
  const std::uint64_t round_seed = rng();

  // Phase 1a: freeze the round-start state the departure decisions are
  // analysed against — per-resource leave probability p_r, and the flat
  // layout of candidate coins: positions coin_prefix_[i]..coin_prefix_[i+1]
  // are the stack positions of overloaded()[i]. Only overloaded resources
  // can lose tasks, and the state tracks them incrementally. Mutations
  // later only mark resources dirty; the list stays stable until the next
  // query, so holding the reference across the round is safe.
  const std::vector<Node>& over = state_.overloaded();
  const std::size_t k = over.size();
  coin_prefix_.resize(k + 1);
  leave_p_.resize(k);
  std::size_t total = 0;
  {
    const obs::PhaseSpan span(sink_, m_sample_ns_, "exact.sample");
    for (std::size_t i = 0; i < k; ++i) {
      const ResourceStack stack = std::as_const(state_).stack(over[i]);
      coin_prefix_[i] = total;
      total += stack.count();
      const double phi = stack.phi(*tasks_, threshold(over[i]));
      leave_p_[i] = leave_probability(config_.alpha, phi, w_max, stack.count());
    }
    coin_prefix_[k] = total;

    // Phase 1b: flip the coins. Sharding the flat coin index space (rather
    // than the overloaded list) keeps the all-on-one initial round parallel
    // too. Shards only read the frozen arrays and write disjoint mask bytes,
    // so the pass is race-free and bitwise independent of the thread count.
    flat_mask_.assign(total, 0);
    if (probe != nullptr) {
      probe->arm_shards(util::shard_count(total, kCoinShardGrain));
    }
    util::parallel_shard(
        total, kCoinShardGrain, pool_.get(),
        [this, round_seed,
         probe](std::size_t shard, std::size_t lo, std::size_t hi) {
          util::Rng srng(util::derive_seed(round_seed, shard));
          if (probe != nullptr) srng.attach_probe(probe->shard_slot(shard));
          std::uint64_t expected_draws = 0;
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
                flat_mask_[c] = srng() < cut;
              }
            }
            pos = end;
          }
          if (probe != nullptr) {
            probe->expect_shard_draws(shard, expected_draws);
          }
        });
    if (probe != nullptr && probe->want_phases()) {
      dsan::Digest d;
      d.u64(total);
      for (std::size_t c = 0; c < total; ++c) d.u64(flat_mask_[c]);
      probe->phase("sample", d.value());
    }
  }

  // Phase 1c: apply the removals on the calling thread, in overloaded-list
  // order — single-threaded mutation, deterministic merge.
  movers_.clear();
  mover_origin_.clear();
  {
    const obs::PhaseSpan span(sink_, m_merge_ns_, "exact.merge");
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t count = coin_prefix_[i + 1] - coin_prefix_[i];
      if (count == 0) continue;
      const std::uint8_t* mask = flat_mask_.data() + coin_prefix_[i];
      if (std::memchr(mask, 1, count) == nullptr) continue;
      const std::size_t before = movers_.size();
      state_.remove_marked(over[i], mask, count, movers_);
      mover_origin_.insert(mover_origin_.end(), movers_.size() - before,
                           over[i]);
    }
  }
  if (probe != nullptr && probe->want_phases()) {
    dsan::Digest d;
    d.u64(movers_.size());
    for (std::size_t i = 0; i < movers_.size(); ++i) {
      d.u64(movers_[i]);
      d.u64(mover_origin_[i]);
    }
    probe->phase("merge", d.value());
  }

  // Phase 2: scatter to uniformly random resources. All destinations are
  // drawn first, in mover order, from the caller's stream, each replacing
  // its mover's origin; then one bucketed bulk append. The append draws
  // nothing, so the stream is the same as drawing each destination right
  // before its mover lands.
  {
    const obs::PhaseSpan span(sink_, m_apply_ns_, "exact.apply");
    for (Node& slot : mover_origin_) {
      slot = sample_destination(n, slot, config_.exclude_self, rng);
    }
    state_.scatter(mover_origin_, movers_);
  }
  if (probe != nullptr && probe->want_phases()) {
    dsan::Digest d;
    dsan::digest_loads(state_.loads(), d);
    probe->phase("apply", d.value());
  }
  if (probe != nullptr) probe->end_step(rng);

  if (sink_.registry != nullptr) {
    obs::Registry& reg = *sink_.registry;
    using obs::MetricClass;
    reg.add(m_coins_, total);
    reg.add(m_departures_, movers_.size());
    const OverloadedSet& trk = state_.overloaded_tracker();
    reg.add(m_flush_checks_, trk.flush_checks() - seen_flush_checks_);
    reg.add(m_dirty_marks_, trk.dirty_marks() - seen_dirty_marks_);
    const LoadIndex& idx = trk.load_index();
    reg.add(m_band_size_, idx.band_size() - seen_band_size_);
    reg.add(m_bucket_moves_, idx.bucket_moves() - seen_bucket_moves_);
    reg.add(m_reconciled_, idx.reconciled() - seen_reconciled_);
    seen_flush_checks_ = trk.flush_checks();
    seen_dirty_marks_ = trk.dirty_marks();
    seen_band_size_ = idx.band_size();
    seen_bucket_moves_ = idx.bucket_moves();
    seen_reconciled_ = idx.reconciled();
  }
  return movers_.size();
}

bool UserControlledEngine::balanced() const { return state_.balanced(); }

double UserControlledEngine::potential() const {
  return thresholds_.empty() ? user_potential(state_, uniform_threshold_)
                             : user_potential(state_, thresholds_);
}

std::uint32_t UserControlledEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(state_.overloaded_count());
}

double UserControlledEngine::max_load() const { return state_.max_load(); }

void UserControlledEngine::audit() const { state_.check_invariants(); }

RunResult UserControlledEngine::run(util::Rng& rng) {
  return engine::run_with_options(*this, config_.options, rng);
}

RunResult UserControlledEngine::run(const tasks::Placement& placement,
                                    util::Rng& rng) {
  return engine::reset_and_run(*this, placement, rng);
}

// ---------------------------------------------------------------------------
// Grouped engine
// ---------------------------------------------------------------------------

GroupedUserEngine::GroupedUserEngine(const tasks::TaskSet& ts, Node n,
                                     UserProtocolConfig config)
    : tasks_(&ts), config_(std::move(config)), n_(n) {
  thresholds_ = resolve_thresholds(config_, n, "GroupedUserEngine");
  if (!(config_.alpha > 0.0) || !std::isfinite(config_.alpha)) {
    throw std::invalid_argument(
        "GroupedUserEngine: alpha must be finite and > 0");
  }
  if (n < 2) throw std::invalid_argument("GroupedUserEngine: need n >= 2");

  // Build the ascending weight-class table with one pass and a small sorted
  // insert set instead of sorting all m weights: at kMaxClasses = 64 the
  // lookup is a handful of comparisons per task, so unit/two-point profiles
  // at m = 10^7 cost milliseconds where the full sort cost ~0.5s — and task
  // sets with too many classes are rejected as soon as the 65th distinct
  // weight appears instead of after an O(m log m) sort.
  std::optional<std::vector<double>> distinct =
      distinct_weights_capped(ts, kMaxClasses);
  if (!distinct) {
    throw std::invalid_argument(
        "GroupedUserEngine: too many distinct weights; use the exact engine");
  }
  class_weights_ = std::move(*distinct);
  task_class_.resize(ts.size());
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto it = std::lower_bound(class_weights_.begin(),
                                     class_weights_.end(), ts.weight(i));
    task_class_[i] = static_cast<std::uint32_t>(it - class_weights_.begin());
  }
  pool_ = make_phase1_pool(config_.options.threads);
  sink_.registry = config_.options.registry;
  sink_.trace = config_.options.trace;
  if (sink_.registry != nullptr) {
    obs::Registry& reg = *sink_.registry;
    using obs::MetricClass;
    m_sample_ns_ = reg.counter("grouped.sample_ns", MetricClass::kTiming);
    m_apply_ns_ = reg.counter("grouped.apply_ns", MetricClass::kTiming);
    m_departure_groups_ =
        reg.counter("grouped.departure_groups", MetricClass::kDeterministic);
    m_departures_ =
        reg.counter("grouped.departures", MetricClass::kDeterministic);
    m_flush_checks_ =
        reg.counter("grouped.flush_checks", MetricClass::kDeterministic);
    m_dirty_marks_ =
        reg.counter("grouped.dirty_marks", MetricClass::kDeterministic);
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

void GroupedUserEngine::reset(const tasks::Placement& placement) {
  if (placement.size() != tasks_->size()) {
    throw std::invalid_argument("GroupedUserEngine::reset: placement size mismatch");
  }
  const std::size_t C = class_weights_.size();
  counts_.assign(static_cast<std::size_t>(n_) * C, 0);
  loads_.assign(n_, 0.0);
  task_counts_.assign(n_, 0);
  for (TaskId i = 0; i < placement.size(); ++i) {
    const Node r = placement[i];
    if (r >= n_) {
      throw std::invalid_argument("GroupedUserEngine::reset: resource out of range");
    }
    ++counts_[static_cast<std::size_t>(r) * C + task_class_[i]];
    loads_[r] += tasks_->weight(i);
    ++task_counts_[r];
  }
  // Counts were rebuilt from scratch: one shared invalidation entry point
  // (every status pending, load index stale).
  over_.rebuild(n_);
}

const std::vector<Node>& GroupedUserEngine::overloaded() const {
  over_.flush([this](Node r) { return loads_[r] > thresholds_[r]; });
  return over_.items();
}

void GroupedUserEngine::check_overloaded_invariant() const {
  over_.audit(
      n_, [this](Node r) { return loads_[r] > thresholds_[r]; },
      "GroupedUserEngine");
}

double GroupedUserEngine::fitted_prefix_weight(Node r) const {
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

double GroupedUserEngine::phi_of(Node r) const {
  if (loads_[r] <= thresholds_[r]) return 0.0;
  return loads_[r] - fitted_prefix_weight(r);
}

double GroupedUserEngine::potential() const {
  double phi = 0.0;
  for (Node r : overloaded()) phi += phi_of(r);
  return phi;
}

std::size_t GroupedUserEngine::step(util::Rng& rng) {
  const std::size_t C = class_weights_.size();
  const double w_max = tasks_->max_weight();
  dsan::StepProbe* const probe = config_.options.dsan;
  if (probe != nullptr) probe->begin_step(rng);
  // Per-round base seed for the sharded sampler (see the header comment).
  const std::uint64_t round_seed = rng();

  // Phase 1: per overloaded resource, binomial leaver counts per class,
  // decided against the round-start state. The incremental set makes this
  // O(#overloaded) instead of an O(n) sweep, and the overloaded list is
  // sharded: each shard draws from its private (round_seed, shard) stream
  // into its own buffer while only reading the frozen counts/loads, so the
  // pass is race-free and bitwise independent of the thread count.
  const std::vector<Node>& over = overloaded();
  const std::size_t shards = util::shard_count(over.size(), kShardGrain);
  if (shard_bufs_.size() < shards) shard_bufs_.resize(shards);
  if (probe != nullptr) probe->arm_shards(shards);
  {
    const obs::PhaseSpan span(sink_, m_sample_ns_, "grouped.sample");
    util::parallel_shard(
        over.size(), kShardGrain, pool_.get(),
        [this, &over, C, w_max, round_seed,
         probe](std::size_t shard, std::size_t lo, std::size_t hi) {
          std::vector<Departure>& buf = shard_bufs_[shard];
          buf.clear();
          util::Rng srng(util::derive_seed(round_seed, shard));
          // Binomial inversion draws a variable count, so no exact budget
          // is declared — the probe records the actual (deterministic)
          // draw count into the round fingerprint instead.
          if (probe != nullptr) srng.attach_probe(probe->shard_slot(shard));
          for (std::size_t i = lo; i < hi; ++i) {
            const Node r = over[i];
            const double phi = phi_of(r);
            const double p =
                leave_probability(config_.alpha, phi, w_max, task_counts_[r]);
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
  if (probe != nullptr && probe->want_phases()) {
    dsan::Digest d;
    d.u64(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      d.u64(shard_bufs_[s].size());
      for (const Departure& dep : shard_bufs_[s]) {
        d.u64(dep.src);
        d.u64(dep.cls);
        d.u64(dep.count);
      }
    }
    probe->phase("sample", d.value());
  }

  // Phase 2: apply in shard order on the calling thread — remove, then
  // scatter each departing task independently from the caller's stream.
  std::size_t migrations = 0;
  std::size_t departure_groups = 0;
  {
    const obs::PhaseSpan span(sink_, m_apply_ns_, "grouped.apply");
    for (std::size_t s = 0; s < shards; ++s) {
      departure_groups += shard_bufs_[s].size();
      for (const Departure& d : shard_bufs_[s]) {
        counts_[static_cast<std::size_t>(d.src) * C + d.cls] -= d.count;
        const double w = class_weights_[d.cls];
        loads_[d.src] -= static_cast<double>(d.count) * w;
        task_counts_[d.src] -= d.count;
        over_.mark_dirty(d.src);
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Departure& d : shard_bufs_[s]) {
        const double w = class_weights_[d.cls];
        for (std::uint32_t i = 0; i < d.count; ++i) {
          const Node dst =
              sample_destination(n_, d.src, config_.exclude_self, rng);
          ++counts_[static_cast<std::size_t>(dst) * C + d.cls];
          loads_[dst] += w;
          ++task_counts_[dst];
          over_.mark_dirty(dst);
          ++migrations;
        }
      }
    }
  }
  if (probe != nullptr && probe->want_phases()) {
    dsan::Digest d;
    dsan::digest_loads(loads_, d);
    probe->phase("apply", d.value());
  }
  if (probe != nullptr) probe->end_step(rng);

  if (sink_.registry != nullptr) {
    obs::Registry& reg = *sink_.registry;
    using obs::MetricClass;
    reg.add(m_departure_groups_, departure_groups);
    reg.add(m_departures_, migrations);
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
  return migrations;
}

bool GroupedUserEngine::balanced() const { return overloaded().empty(); }

std::uint32_t GroupedUserEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(overloaded().size());
}

double GroupedUserEngine::max_load() const {
  const auto load = [this](graph::Node r) { return loads_[r]; };
  if (const LoadIndex* idx = over_.query_index(load)) {
    return idx->max_indexed_load();
  }
  return *std::max_element(loads_.begin(), loads_.end());
}

void GroupedUserEngine::collect_fingerprint(dsan::Digest& d) const {
  const std::size_t C = class_weights_.size();
  d.u64(n_);
  d.u64(C);
  for (Node r = 0; r < n_; ++r) {
    d.f64(loads_[r]);
    d.u64(task_counts_[r]);
    for (std::size_t c = 0; c < C; ++c) {
      d.u64(counts_[static_cast<std::size_t>(r) * C + c]);
    }
  }
  for (Node r = 0; r < n_; ++r) d.f64(thresholds_[r]);
  // Tracker bookkeeping: const reads only, same surface as digest_state —
  // items() as of the last flush plus the dirty/flush counters. Never
  // flush here: that would shift the per-step counter deltas above.
  for (const Node r : over_.items()) d.u64(r);
  d.u64(over_.dirty_size());
  d.u64(over_.flush_checks());
  d.u64(over_.dirty_marks());
}

void GroupedUserEngine::collect_load_stats(LoadStatsCalc& calc,
                                           LoadStats& out) const {
  const auto load = [this](graph::Node r) { return loads_[r]; };
  const double T = reported_threshold();
  if (const LoadIndex* idx = over_.query_index(load)) {
    out = calc.compute_indexed(*idx, n_, T);
  } else {
    out = calc.compute_scan(n_, T, load);
  }
}

double GroupedUserEngine::reported_threshold() const {
  return *std::max_element(thresholds_.begin(), thresholds_.end());
}

RunResult GroupedUserEngine::run(util::Rng& rng) {
  return engine::run_with_options(*this, config_.options, rng);
}

RunResult GroupedUserEngine::run(const tasks::Placement& placement,
                                 util::Rng& rng) {
  return engine::reset_and_run(*this, placement, rng);
}

}  // namespace tlb::core
