#include "tlb/engine/baseline_balancers.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace tlb::engine {

namespace {

/// Fp-sum tolerance for audit reconciliations: loads are accumulated in a
/// different order than the reference sum, so exact equality is too strict.
bool weights_match(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

}  // namespace

double suggested_threshold(const tasks::TaskSet& ts, graph::Node n) {
  return ts.total_weight() / static_cast<double>(n) + ts.max_weight();
}

// ---- BinLoadBalancer ------------------------------------------------------

BinLoadBalancer::BinLoadBalancer(const tasks::TaskSet& ts, graph::Node n,
                                 double threshold, const char* who)
    : tasks_(&ts), n_(n), threshold_(threshold) {
  if (n == 0) {
    throw std::invalid_argument(std::string(who) + ": need n >= 1");
  }
  if (!(threshold > 0.0)) {  // !(x > 0) also rejects NaN
    throw std::invalid_argument(std::string(who) +
                                ": threshold must be > 0");
  }
  loads_.assign(n, 0.0);
}

bool BinLoadBalancer::balanced() const {
  return std::all_of(loads_.begin(), loads_.end(),
                     [this](double x) { return x <= threshold_; });
}

std::uint32_t BinLoadBalancer::overloaded_count() const {
  std::uint32_t over = 0;
  for (double x : loads_) over += x > threshold_;
  return over;
}

double BinLoadBalancer::max_load() const {
  return *std::max_element(loads_.begin(), loads_.end());
}

double BinLoadBalancer::potential() const {
  double excess = 0.0;
  for (double x : loads_) excess += std::max(0.0, x - threshold_);
  return excess;
}

void BinLoadBalancer::audit() const {
  for (double x : loads_) {
    if (!std::isfinite(x) || x < 0.0) {
      throw std::logic_error("BinLoadBalancer: non-finite or negative load");
    }
  }
}

void BinLoadBalancer::collect_load_stats(core::LoadStatsCalc& calc,
                                         core::LoadStats& out) const {
  out = calc.compute_scan(n_, threshold_,
                          [this](graph::Node r) { return loads_[r]; });
}

void BinLoadBalancer::check_total_weight(double expected_weight,
                                         const char* who) const {
  const double total = std::accumulate(loads_.begin(), loads_.end(), 0.0);
  if (!weights_match(total, expected_weight)) {
    throw std::logic_error(std::string(who) +
                           ": bin loads disagree with placed weight");
  }
}

// ---- SequentialThresholdBalancer ------------------------------------------

SequentialThresholdBalancer::SequentialThresholdBalancer(
    const tasks::TaskSet& ts, graph::Node n, double threshold)
    : BinLoadBalancer(ts, n, threshold, "SequentialThresholdBalancer") {}

std::size_t SequentialThresholdBalancer::step(util::Rng& rng) {
  if (done_) return 0;
  done_ = true;
  completed_ = true;
  for (tasks::TaskId i = 0; i < tasks_->size(); ++i) {
    const double w = tasks_->weight(i);
    bool ball_placed = false;
    for (int attempt = 0; attempt < kMaxRetriesPerBall; ++attempt) {
      const auto bin = static_cast<graph::Node>(rng.uniform_below(n_));
      ++choices_;
      if (loads_[bin] + w <= threshold_) {
        loads_[bin] += w;
        ball_placed = true;
        break;
      }
    }
    if (!ball_placed) {
      completed_ = false;
      break;
    }
    ++placed_;
  }
  return placed_;
}

void SequentialThresholdBalancer::audit() const {
  BinLoadBalancer::audit();
  if (max_load() > threshold_) {
    throw std::logic_error(
        "SequentialThresholdBalancer: a bin exceeds the placement threshold");
  }
  // Balls are placed in id order until the first failure, so the placed set
  // is exactly [0, placed_).
  double expected = 0.0;
  for (tasks::TaskId i = 0; i < placed_; ++i) expected += tasks_->weight(i);
  check_total_weight(expected, "SequentialThresholdBalancer");
}

// ---- ParallelThresholdBalancer --------------------------------------------

ParallelThresholdBalancer::ParallelThresholdBalancer(const tasks::TaskSet& ts,
                                                     graph::Node n,
                                                     double threshold)
    : BinLoadBalancer(ts, n, threshold, "ParallelThresholdBalancer"),
      unplaced_(ts.size()) {
  std::iota(unplaced_.begin(), unplaced_.end(), 0);
}

std::size_t ParallelThresholdBalancer::step(util::Rng& rng) {
  if (unplaced_.empty()) return 0;
  // Random processing order makes the per-bin acceptance race fair.
  for (std::size_t i = unplaced_.size(); i > 1; --i) {
    std::swap(unplaced_[i - 1], unplaced_[rng.uniform_below(i)]);
  }
  still_unplaced_.clear();
  std::size_t placed_this_round = 0;
  for (tasks::TaskId id : unplaced_) {
    const auto bin = static_cast<graph::Node>(rng.uniform_below(n_));
    ++messages_;
    const double w = tasks_->weight(id);
    if (loads_[bin] + w <= threshold_) {
      loads_[bin] += w;
      ++placed_this_round;
    } else {
      still_unplaced_.push_back(id);
    }
  }
  unplaced_.swap(still_unplaced_);
  placed_ += placed_this_round;
  return placed_this_round;
}

void ParallelThresholdBalancer::audit() const {
  BinLoadBalancer::audit();
  if (max_load() > threshold_) {
    throw std::logic_error(
        "ParallelThresholdBalancer: a bin exceeds the placement threshold");
  }
  if (placed_ + unplaced_.size() != tasks_->size()) {
    throw std::logic_error(
        "ParallelThresholdBalancer: placed + unplaced != total balls");
  }
  double expected = tasks_->total_weight();
  for (tasks::TaskId id : unplaced_) expected -= tasks_->weight(id);
  check_total_weight(expected, "ParallelThresholdBalancer");
}

// ---- ChoiceBalancer -------------------------------------------------------

ChoiceBalancer::ChoiceBalancer(const tasks::TaskSet& ts, graph::Node n,
                               int choices, double beta, double threshold)
    : BinLoadBalancer(ts, n, threshold, "ChoiceBalancer"),
      choices_(choices),
      beta_(beta) {
  if (choices < 1) {
    throw std::invalid_argument("ChoiceBalancer: choices >= 1");
  }
  // !(a && b) form so NaN fails the range check too.
  if (!(beta >= 0.0 && beta <= 1.0)) {
    throw std::invalid_argument("ChoiceBalancer: beta in [0, 1]");
  }
}

std::size_t ChoiceBalancer::step(util::Rng& rng) {
  if (done_) return 0;
  done_ = true;
  for (tasks::TaskId i = 0; i < tasks_->size(); ++i) {
    const int choices =
        (beta_ > 0.0 && rng.bernoulli(beta_)) ? 1 : choices_;
    auto best = static_cast<graph::Node>(rng.uniform_below(n_));
    for (int c = 1; c < choices; ++c) {
      const auto candidate = static_cast<graph::Node>(rng.uniform_below(n_));
      if (loads_[candidate] < loads_[best]) best = candidate;
    }
    loads_[best] += tasks_->weight(i);
  }
  return tasks_->size();
}

void ChoiceBalancer::audit() const {
  BinLoadBalancer::audit();
  check_total_weight(done_ ? tasks_->total_weight() : 0.0, "ChoiceBalancer");
}

double ChoiceBalancer::gap() const {
  return max_load() - tasks_->total_weight() / static_cast<double>(n_);
}

// ---- SelfishReallocBalancer -----------------------------------------------

SelfishReallocBalancer::SelfishReallocBalancer(const tasks::TaskSet& ts,
                                               graph::Node n,
                                               double stop_threshold)
    : BinLoadBalancer(ts, n, stop_threshold, "SelfishReallocBalancer") {
  if (n < 2) {
    throw std::invalid_argument("SelfishReallocBalancer: need n >= 2");
  }
}

void SelfishReallocBalancer::reset(const tasks::Placement& placement) {
  if (placement.size() != tasks_->size()) {
    throw std::invalid_argument("SelfishReallocBalancer::reset: size mismatch");
  }
  task_location_ = placement;
  loads_.assign(n_, 0.0);
  for (tasks::TaskId i = 0; i < placement.size(); ++i) {
    loads_[placement[i]] += tasks_->weight(i);
  }
}

std::size_t SelfishReallocBalancer::step(util::Rng& rng) {
  // All decisions read the round-start loads; moves land afterwards.
  const std::vector<double> snapshot = loads_;
  std::size_t migrations = 0;
  for (tasks::TaskId i = 0; i < task_location_.size(); ++i) {
    const graph::Node src = task_location_[i];
    const auto dst = static_cast<graph::Node>(rng.uniform_below(n_));
    if (dst == src || snapshot[src] <= 0.0) continue;
    const double move_prob =
        std::max(0.0, 1.0 - snapshot[dst] / snapshot[src]);
    if (move_prob > 0.0 && rng.bernoulli(move_prob)) {
      const double w = tasks_->weight(i);
      loads_[src] -= w;
      loads_[dst] += w;
      task_location_[i] = dst;
      ++migrations;
    }
  }
  return migrations;
}

void SelfishReallocBalancer::audit() const {
  std::vector<double> expected(n_, 0.0);
  for (tasks::TaskId i = 0; i < task_location_.size(); ++i) {
    expected[task_location_[i]] += tasks_->weight(i);
  }
  for (graph::Node r = 0; r < n_; ++r) {
    if (!weights_match(expected[r], loads_[r])) {
      throw std::logic_error(
          "SelfishReallocBalancer: loads disagree with task locations");
    }
  }
}

// ---- FirstFitBalancer -----------------------------------------------------

FirstFitBalancer::FirstFitBalancer(const tasks::TaskSet& ts, graph::Node n)
    : FirstFitBalancer(ts, n,
                       ts.total_weight() / static_cast<double>(n == 0 ? 1 : n) +
                           ts.max_weight()) {}

FirstFitBalancer::FirstFitBalancer(const tasks::TaskSet& ts, graph::Node n,
                                   double threshold)
    : BinLoadBalancer(ts, n, threshold, "FirstFitBalancer") {}

std::size_t FirstFitBalancer::step(util::Rng& rng) {
  (void)rng;  // a central scheduler draws nothing
  if (done_) return 0;
  done_ = true;
  assignment_ = tasks::first_fit(*tasks_, n_);
  loads_ = assignment_.load;
  return tasks_->size();
}

void FirstFitBalancer::audit() const {
  BinLoadBalancer::audit();
  check_total_weight(done_ ? tasks_->total_weight() : 0.0,
                     "FirstFitBalancer");
}

}  // namespace tlb::engine
