#include "tlb/sim/report.hpp"

// tlb-lint: allow-file(D4): this TU *is* the console report renderer — the
// one library component whose job is stdout. Everything it prints is
// human-facing banners/tables; machine-read JSON goes through util::Json
// strings returned to the caller, never through these printfs.

#include <cstdio>

#include "tlb/util/json.hpp"

namespace tlb::sim {

void print_banner(const std::string& artefact, const std::string& description) {
  std::printf("\n== %s — %s ==\n", artefact.c_str(), description.c_str());
}

void print_param(const std::string& key, const std::string& value) {
  std::printf("   %-22s %s\n", key.c_str(), value.c_str());
}

void emit_table(const util::Table& table, const std::string& csv_path) {
  std::printf("\n%s", table.to_ascii().c_str());
  if (!csv_path.empty()) {
    table.write_csv(csv_path);
    std::printf("[csv written to %s]\n", csv_path.c_str());
  }
}

void print_takeaway(const std::string& text) {
  std::printf("-> %s\n", text.c_str());
}

std::string welford_json(const util::Welford& w) {
  util::Json j;
  j.add("count", w.count())
      .add("mean", w.mean())
      .add("stddev", w.stddev())
      .add("min", w.count() ? w.min() : 0.0)
      .add("max", w.count() ? w.max() : 0.0)
      .add("ci95", w.ci95_halfwidth());
  return j.str();
}

std::string trial_stats_json(const TrialStats& stats) {
  util::Json j;
  j.add_raw("rounds", welford_json(stats.rounds))
      .add_raw("migrations", welford_json(stats.migrations))
      .add_raw("final_max_load", welford_json(stats.final_max_load))
      .add("unbalanced_trials", stats.unbalanced)
      .add_raw("rounds_samples", util::Json::array(stats.rounds_samples));
  return j.str();
}

}  // namespace tlb::sim
