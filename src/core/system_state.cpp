#include "tlb/core/system_state.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace tlb::core {

SystemState::SystemState(const tasks::TaskSet& tasks, Node n,
                         Thresholds thresholds, const char* who)
    : tasks_(&tasks), arena_(n), thresholds_(std::move(thresholds)) {
  if (n == 0) throw std::invalid_argument("SystemState: need n >= 1");
  thresholds_.checked(n, who);
  overloaded_.reset(n);
  overloaded_.mark_all_dirty();
}

void SystemState::place(const tasks::Placement& placement) {
  // BatchPlacer validates sizes and resource range with precise messages,
  // and leaves the arena untouched when it throws.
  placer_.place(arena_, *tasks_, placement);
  overloaded_.mark_all_dirty();
}

void SystemState::place_accepting(const tasks::Placement& placement) {
  placer_.place(arena_, *tasks_, placement, thresholds_);
  overloaded_.mark_all_dirty();
}

void SystemState::scatter(const std::vector<Node>& dst,
                          const std::vector<TaskId>& ids,
                          util::ThreadPool* pool) {
  scatter_.scatter(
      arena_, *tasks_, dst, ids,
      [this](Node r) { overloaded_.mark_dirty(r); }, pool);
}

void SystemState::evict_scatter(const std::vector<Node>& dst) {
  const std::vector<Node>& from = overloaded();
  const auto mark = [this](Node r) { overloaded_.mark_dirty(r); };
  scatter_.evict_scatter(arena_, from, dst, thresholds_, mark, mark);
}

void SystemState::evict_above(Node r, std::vector<TaskId>& out) {
  arena_.evict_above(r, thresholds_[r], out);
  overloaded_.mark_dirty(r);
}

void SystemState::remove_marked(Node r, const std::vector<std::uint8_t>& leave,
                                std::vector<TaskId>& out) {
  arena_.remove_marked(r, leave, out);
  overloaded_.mark_dirty(r);
}

void SystemState::remove_marked(const mem::FlatMarks& marks,
                                std::vector<TaskId>& ids,
                                std::vector<Node>& origin,
                                util::ThreadPool* pool) {
  arena_.remove_marked(marks, *tasks_, ids, origin, pool);
  for (std::size_t i = 0; i < marks.resources.size(); ++i) {
    const Node r = marks.resources[i];
    if (arena_.count(r) != marks.prefix[i + 1] - marks.prefix[i]) {
      overloaded_.mark_dirty(r);
    }
  }
}

const std::vector<Node>& SystemState::overloaded() const {
  // The predicate runs once per flush check, so the uniform case compares
  // against a hoisted scalar.
  thresholds_.visit([this](const auto T) {
    overloaded_.flush([this, T](Node r) { return arena_.load(r) > T[r]; });
  });
  return overloaded_.items();
}

Node SystemState::overloaded_count() const {
  return static_cast<Node>(overloaded().size());
}

bool SystemState::balanced() const { return overloaded().empty(); }

std::vector<double> SystemState::loads() const {
  const Node n = arena_.num_resources();
  std::vector<double> out(n);
  for (Node r = 0; r < n; ++r) out[r] = arena_.load(r);
  return out;
}

double SystemState::max_load() const {
  const Node n = arena_.num_resources();
  double best = 0.0;
  for (Node r = 0; r < n; ++r) best = std::max(best, arena_.load(r));
  return best;
}

LoadStats SystemState::load_stats(LoadStatsCalc& calc) const {
  return calc.compute_scan(arena_.num_resources(), thresholds_.max(),
                           [this](Node r) { return arena_.load(r); });
}

double SystemState::total_load() const {
  const Node n = arena_.num_resources();
  double sum = 0.0;
  for (Node r = 0; r < n; ++r) sum += arena_.load(r);
  return sum;
}

void SystemState::check_invariants() const {
  arena_.check_invariants();
  const Node n = arena_.num_resources();
  std::vector<std::uint8_t> seen(tasks_->size(), 0);
  for (Node r = 0; r < n; ++r) {
    const mem::TaskSpan ids = arena_.tasks(r);
    const double* w = arena_.weights(r);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const TaskId id = ids[i];
      if (id >= tasks_->size()) {
        throw std::logic_error("SystemState: task id out of range");
      }
      if (seen[id]) {
        throw std::logic_error("SystemState: task " + std::to_string(id) +
                               " appears twice");
      }
      seen[id] = 1;
      if (w[i] != tasks_->weight(id)) {
        throw std::logic_error(
            "SystemState: mirrored weight of task " + std::to_string(id) +
            " drifted from the TaskSet");
      }
    }
  }
  for (TaskId id = 0; id < tasks_->size(); ++id) {
    if (!seen[id]) {
      throw std::logic_error("SystemState: task " + std::to_string(id) +
                             " lost");
    }
  }
  overloaded_.audit(
      num_resources(),
      [this](Node r) { return arena_.load(r) > thresholds_[r]; },
      "SystemState");
}

}  // namespace tlb::core
