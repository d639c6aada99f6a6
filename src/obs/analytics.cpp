#include "tlb/obs/analytics.hpp"

#include <stdexcept>

#include "tlb/util/json.hpp"

namespace tlb::obs {

LoadStatsObserver::LoadStatsObserver(long every) : every_(every) {
  if (every < 1) {
    throw std::invalid_argument(
        "LoadStatsObserver: every must be >= 1, got " + std::to_string(every));
  }
}

void LoadStatsObserver::on_round(const engine::BalancerView& view,
                                 long round) {
  if (round % every_ != 0) return;
  record(view, round, /*final_state=*/false);
}

void LoadStatsObserver::on_finish(const engine::BalancerView& view) {
  record(view, /*round=*/0, /*final_state=*/true);
  have_final_ = true;
}

void LoadStatsObserver::record(const engine::BalancerView& view, long round,
                               bool final_state) {
  Row row;
  row.round = round;
  row.final_state = final_state;
  if (!view.collect_load_stats(calc_, row.stats)) {
    supported_ = false;
    return;
  }
  row.potential = view.potential();
  rows_.push_back(row);
}

std::string LoadStatsObserver::json() const {
  const auto stats_fields = [](util::Json& j, const Row& row) {
    j.add("max", row.stats.max_load)
        .add("mean", row.stats.mean_load)
        .add("p50", row.stats.p50)
        .add("p90", row.stats.p90)
        .add("p99", row.stats.p99)
        .add("overload_mass", row.stats.overload_mass)
        .add("overloaded", static_cast<std::uint64_t>(row.stats.overloaded))
        .add("imbalance", row.stats.imbalance)
        .add("threshold", row.stats.threshold)
        .add("potential", row.potential);
  };
  std::string rounds = "[";
  bool first = true;
  std::string final_row;
  for (const Row& row : rows_) {
    util::Json j;
    if (row.final_state) {
      stats_fields(j, row);
      final_row = j.str();
      continue;
    }
    j.add("round", static_cast<std::int64_t>(row.round));
    stats_fields(j, row);
    if (!first) rounds += ",";
    rounds += j.str();
    first = false;
  }
  rounds += "]";

  util::Json out;
  out.add("every", static_cast<std::int64_t>(every_))
      .add("supported", supported_)
      .add_raw("rounds", rounds);
  if (!final_row.empty()) out.add_raw("final", final_row);
  return out.str();
}

}  // namespace tlb::obs
