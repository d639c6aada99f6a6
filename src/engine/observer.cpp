#include "tlb/engine/observer.hpp"

#include "tlb/util/json.hpp"

namespace tlb::engine {

void JsonTraceSink::on_round_end(const BalancerView& view, long round,
                                 std::size_t migrations) {
  rows_.push_back({round, view.potential(), view.overloaded_count(),
                   static_cast<std::uint64_t>(migrations), false});
  ++measured_rounds_;
}

void JsonTraceSink::on_finish(const BalancerView& view) {
  rows_.push_back({rows_.empty() ? 0 : rows_.back().round + 1,
                   view.potential(), view.overloaded_count(), 0, true});
}

std::string JsonTraceSink::json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& row = rows_[i];
    util::Json j;
    j.add("round", static_cast<std::int64_t>(row.round))
        .add("potential", row.potential)
        .add("overloaded", static_cast<std::uint64_t>(row.overloaded));
    if (row.final_state) {
      j.add("final", true);
    } else {
      j.add("migrations", row.migrations);
    }
    if (i) out += ",";
    out += j.str();
  }
  out += "]";
  return out;
}

}  // namespace tlb::engine
