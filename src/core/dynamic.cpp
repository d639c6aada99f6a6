#include "tlb/core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/util/binomial.hpp"

namespace tlb::core {

namespace {

/// Validate a churn configuration and sort its class table ascending.
DynamicConfig checked(DynamicConfig config) {
  if (config.n < 2) throw std::invalid_argument("DynamicUserEngine: n >= 2");
  // Every bound is written so that NaN fails it (an ordered comparison with
  // NaN is false), and infinities are rejected outright: a NaN completion
  // rate or an infinite arrival rate would otherwise hang the first step().
  if (!std::isfinite(config.arrival_rate) || !(config.arrival_rate >= 0.0) ||
      !(config.completion_rate >= 0.0 && config.completion_rate <= 1.0)) {
    throw std::invalid_argument(
        "DynamicUserEngine: arrival rate finite and >= 0, completion rate "
        "in [0, 1]");
  }
  if (!(config.crash_rate >= 0.0 && config.crash_rate <= 1.0)) {
    throw std::invalid_argument("DynamicUserEngine: crash_rate in [0, 1]");
  }
  if (!std::isfinite(config.eps) || !(config.eps > 0.0) ||
      !std::isfinite(config.alpha) || !(config.alpha > 0.0)) {
    throw std::invalid_argument("DynamicUserEngine: eps, alpha finite and > 0");
  }
  if (config.classes.empty()) {
    throw std::invalid_argument("DynamicUserEngine: need >= 1 weight class");
  }
  std::sort(config.classes.begin(), config.classes.end(),
            [](const auto& a, const auto& b) { return a.weight < b.weight; });
  for (const auto& c : config.classes) {
    // NaN fails every ordered comparison, so the bounds are written to
    // reject it explicitly: a non-finite weight would corrupt the sorted
    // class table (lower_bound ordering) and every load sum silently.
    if (!std::isfinite(c.weight) || !(c.weight >= 1.0) ||
        !std::isfinite(c.probability) || !(c.probability > 0.0)) {
      throw std::invalid_argument(
          "DynamicUserEngine: class weights finite and >= 1, "
          "probabilities finite and > 0");
    }
  }
  return config;
}

/// The above-average threshold (1 + eps)·W/n + w_max against total weight
/// W. The +w_max term uses the static class bound (resources know the
/// workload's class table, not the transient maximum).
double above_average_threshold(const DynamicConfig& config,
                               double total_weight) {
  return (1.0 + config.eps) * total_weight / static_cast<double>(config.n) +
         config.classes.back().weight;
}

std::vector<double> weights_of(const std::vector<DynamicWeightClass>& cs) {
  std::vector<double> out;
  for (const auto& c : cs) out.push_back(c.weight);
  return out;
}

/// The measured window's aggregates. run() attaches it first, so its
/// on_round_end reads the round-end state right after step(), before any
/// caller observer. Event counts are deltas of the engine's lifetime
/// counts since the window's first round.
class WindowMetrics final : public engine::RoundObserver {
 public:
  WindowMetrics(const DynamicUserEngine& engine, graph::Node n)
      : engine_(engine), n_(static_cast<double>(n)) {}

  void on_round(const engine::BalancerView&, long round) override {
    if (round != 0) return;
    arrivals0_ = engine_.arrivals();
    completions0_ = engine_.completions();
    crashes0_ = engine_.crashes();
  }
  void on_round_end(const engine::BalancerView&, long,
                    std::size_t migrations) override {
    m_.overloaded_fraction.add(
        static_cast<double>(engine_.overloaded_count()) / n_);
    const double avg = engine_.total_weight() / n_;
    m_.max_over_avg.add(avg > 0.0 ? engine_.max_load() / avg : 0.0);
    m_.population.add(static_cast<double>(engine_.population()));
    m_.migrations_per_round.add(static_cast<double>(migrations));
    m_.arrivals = engine_.arrivals() - arrivals0_;
    m_.completions = engine_.completions() - completions0_;
    m_.crashes = engine_.crashes() - crashes0_;
  }
  const DynamicMetrics& metrics() const noexcept { return m_; }

 private:
  const DynamicUserEngine& engine_;
  double n_;
  std::uint64_t arrivals0_ = 0, completions0_ = 0, crashes0_ = 0;
  DynamicMetrics m_;
};

}  // namespace

DynamicUserEngine::DynamicUserEngine(DynamicConfig config)
    : config_(checked(std::move(config))),
      core_(config_.n, weights_of(config_.classes),
            above_average_threshold(config_, 0.0), config_.alpha,
            /*exclude_self=*/false, config_.threads),
      phases_(config_.registry, config_.trace, config_.dsan) {
  double total_p = 0.0;
  for (const auto& c : config_.classes) total_p += c.probability;
  double acc = 0.0;
  for (const auto& c : config_.classes) {
    acc += c.probability / total_p;
    class_cdf_.push_back(acc);
  }
  class_cdf_.back() = 1.0;

  core_.place({}, {});  // empty, every status pending re-check
  arrivals_phase_ = phases_.phase("dynamic.arrivals");
  completions_phase_ = phases_.phase("dynamic.completions");
  track_phase_ = phases_.phase("dynamic.track");
  const StepPhases::Phase sample = phases_.phase("dynamic.sample");
  const StepPhases::Phase apply = phases_.phase("dynamic.apply");
  m_arrivals_ = phases_.work_counter("dynamic.arrivals");
  m_completions_ = phases_.work_counter("dynamic.completions");
  m_crashes_ = phases_.work_counter("dynamic.crashes");
  m_threshold_changes_ = phases_.work_counter("dynamic.threshold_changes");
  core_.attach(phases_, sample, apply, "dynamic");
}

void DynamicUserEngine::recompute_threshold() {
  const double next = above_average_threshold(config_, total_weight_);
  if (next == core_.thresholds().max()) return;
  core_.shift_threshold(next);
  m_threshold_changes_.add(1);
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
  const std::vector<double>& weights = core_.class_weights();
  const std::size_t C = weights.size();
  for (std::uint64_t i = 0; i < count; ++i) {
    const double u = rng.uniform01();
    std::size_t cls = 0;
    while (cls + 1 < C && u > class_cdf_[cls]) ++cls;
    const graph::Node dst =
        config_.hotspot_arrivals
            ? 0
            : static_cast<graph::Node>(rng.uniform_below(config_.n));
    core_.add_task(dst, static_cast<std::uint32_t>(cls));
    total_weight_ += weights[cls];
    ++population_;
  }
  arrivals_ += count;
  m_arrivals_.add(count);
}

void DynamicUserEngine::do_completions(util::Rng& rng) {
  // Geometric skip-sampling over the flat (resource, class) slot order:
  // completions + 1 draws per round, not one per non-empty slot.
  const std::uint64_t total_done =
      core_.complete(rng, config_.completion_rate,
                     [this](double weight) { total_weight_ -= weight; });
  population_ -= total_done;
  completions_ += total_done;
  m_completions_.add(total_done);
}

void DynamicUserEngine::do_crash(util::Rng& rng) {
  if (config_.crash_rate <= 0.0 || !rng.bernoulli(config_.crash_rate)) return;
  const auto victim = static_cast<graph::Node>(rng.uniform_below(config_.n));
  // Fail-over: every task on the victim scatters to a uniform resource
  // (possibly re-landing anywhere but the victim, which rejoins empty).
  for (std::size_t c = 0; c < core_.num_classes(); ++c) {
    for (std::uint32_t k = core_.count(victim, c); k > 0; --k) {
      auto dst = static_cast<graph::Node>(rng.uniform_below(config_.n - 1));
      if (dst >= victim) ++dst;
      core_.add_task(dst, static_cast<std::uint32_t>(c));
    }
  }
  core_.clear_resource(victim);
  ++crashes_;
  m_crashes_.add(1);
}

std::size_t DynamicUserEngine::step(util::Rng& rng) {
  // Both churn phases digest the population and the loads they leave.
  const auto population = [this](dsan::Digest& d) {
    d.u64(population_);
    d.f64(total_weight_);
    dsan::digest_loads(core_.loads(), d);
  };
  phases_.begin_step(rng);
  {
    const obs::PhaseSpan span = phases_.time(arrivals_phase_);
    do_arrivals(rng);
  }
  phases_.digest(arrivals_phase_, population);
  ++round_;
  {
    const obs::PhaseSpan span = phases_.time(completions_phase_);
    do_completions(rng);
  }
  phases_.digest(completions_phase_, population);
  do_crash(rng);
  {
    // Threshold move plus the flush it leaves due (a band re-check or a
    // dense sweep), so the round's own overloaded() is already clean.
    const obs::PhaseSpan span = phases_.time(track_phase_);
    recompute_threshold();
    (void)core_.overloaded();
  }
  last_migrations_ = core_.step(rng);
  phases_.end_step(rng);
  return last_migrations_;
}

void DynamicUserEngine::collect_fingerprint(dsan::Digest& d,
                                            dsan::Digest& work) const {
  d.u64(config_.n);
  d.u64(core_.num_classes());
  d.u64(population_);
  d.f64(total_weight_);
  d.f64(core_.thresholds().max());
  core_.digest_resources(d);
  dsan::digest_tracker(core_.tracker(), d, work);
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
  WindowMetrics window(*this, config_.n);
  engine::ObserverList observers;
  observers.add(&window);
  if (observer != nullptr) observers.add(observer);
  engine::drive(*this, rng, opt, &observers);
  return window.metrics();
}

}  // namespace tlb::core
