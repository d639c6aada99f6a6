#include "tlb/baselines/selfish_realloc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tlb/engine/driver.hpp"

namespace tlb::baselines {

SelfishReallocEngine::SelfishReallocEngine(const tasks::TaskSet& ts,
                                           graph::Node n, SelfishConfig config)
    : tasks_(&ts), config_(config), n_(n) {
  if (n < 2) throw std::invalid_argument("SelfishReallocEngine: need n >= 2");
  if (config_.stop_threshold <= 0.0) {
    throw std::invalid_argument("SelfishReallocEngine: stop_threshold > 0");
  }
}

void SelfishReallocEngine::reset(const tasks::Placement& placement) {
  if (placement.size() != tasks_->size()) {
    throw std::invalid_argument("SelfishReallocEngine::reset: size mismatch");
  }
  task_location_ = placement;
  loads_.assign(n_, 0.0);
  for (tasks::TaskId i = 0; i < placement.size(); ++i) {
    loads_[placement[i]] += tasks_->weight(i);
  }
}

std::size_t SelfishReallocEngine::step(util::Rng& rng) {
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

bool SelfishReallocEngine::balanced() const {
  return std::all_of(loads_.begin(), loads_.end(), [&](double x) {
    return x <= config_.stop_threshold;
  });
}

double SelfishReallocEngine::potential() const {
  double excess = 0.0;
  for (double x : loads_) {
    excess += std::max(0.0, x - config_.stop_threshold);
  }
  return excess;
}

std::uint32_t SelfishReallocEngine::overloaded_count() const {
  std::uint32_t over = 0;
  for (double x : loads_) over += x > config_.stop_threshold;
  return over;
}

double SelfishReallocEngine::max_load() const {
  return *std::max_element(loads_.begin(), loads_.end());
}

void SelfishReallocEngine::audit() const {
  std::vector<double> expected(n_, 0.0);
  for (tasks::TaskId i = 0; i < task_location_.size(); ++i) {
    expected[task_location_[i]] += tasks_->weight(i);
  }
  for (graph::Node r = 0; r < n_; ++r) {
    const double scale =
        std::max({1.0, std::fabs(expected[r]), std::fabs(loads_[r])});
    if (std::fabs(expected[r] - loads_[r]) > 1e-9 * scale) {
      throw std::logic_error(
          "SelfishReallocEngine: loads disagree with task locations");
    }
  }
}

core::RunResult SelfishReallocEngine::run(util::Rng& rng) {
  return engine::drive(*this, rng,
                       engine::DriveOptions::from(config_.options));
}

core::RunResult SelfishReallocEngine::run(const tasks::Placement& placement,
                                          util::Rng& rng) {
  return engine::reset_and_run(*this, placement, rng);
}

}  // namespace tlb::baselines
