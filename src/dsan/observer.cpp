#include "tlb/dsan/observer.hpp"

#include "tlb/dsan/state_digest.hpp"
#include "tlb/engine/balancer.hpp"

namespace tlb::dsan {

FingerprintObserver::FingerprintObserver(StepProbe* probe,
                                         obs::Registry* registry)
    : probe_(probe), registry_(registry) {}

void FingerprintObserver::push_row(const engine::BalancerView& view,
                                   long round, bool final_state) {
  Row row;
  row.round = round;
  row.final_state = final_state;
  Digest d;
  Digest work;
  view.collect_fingerprint(d, work);
  row.state_fp = d.value();
  row.work_fp = work.value();
  // Fold the probe record only when step() actually refreshed it — the
  // final-state snapshot and probe-less engines (baselines, graph drives)
  // leave the freshness flag down, and a stale record from a *previous*
  // round must never leak into this row.
  if (probe_ != nullptr && probe_->has_record()) {
    const StepRecord& rec = probe_->take();
    row.draw_fp = rec.digest();
    row.has_draws = true;
    row.phases = rec.phases;
  }
  row.fp = row.has_draws ? combine(row.state_fp, row.draw_fp) : row.state_fp;
  rows_.push_back(std::move(row));
}

void FingerprintObserver::on_round_end(const engine::BalancerView& view,
                                       long round, std::size_t migrations) {
  (void)migrations;
  push_row(view, round, /*final_state=*/false);
  if (round == capture_round_) {
    (void)view.collect_loads(captured_loads_);
  }
}

void FingerprintObserver::on_finish(const engine::BalancerView& view) {
  push_row(view, /*round=*/-1, /*final_state=*/true);
  if (registry_ != nullptr) {
    // FingerprintObserver: measured rounds fingerprinted + broken draw
    // budgets. Both are pure functions of the seed — a violation either
    // always fires for a given build+seed or never does.
    const obs::MetricId rounds = registry_->counter(
        "dsan.rounds", obs::MetricClass::kDeterministic);
    const obs::MetricId violations = registry_->counter(
        "dsan.violations", obs::MetricClass::kDeterministic);
    registry_->add(rounds, rows_.empty() ? 0 : rows_.size() - 1);
    registry_->add(violations,
                   probe_ != nullptr ? probe_->violations().size() : 0);
  }
}

std::string FingerprintObserver::json() const { return render_rows(rows_); }

std::string render_rows(const std::vector<Row>& rows) {
  std::string out = "[";
  bool first = true;
  for (const Row& row : rows) {
    if (!first) out += ",";
    first = false;
    out += "{";
    if (row.final_state) {
      out += "\"final\":true";
    } else {
      out += "\"round\":" + std::to_string(row.round);
    }
    out += ",\"fp\":\"" + to_hex(row.fp) + "\",\"work\":\"" +
           to_hex(row.work_fp) + "\"";
    if (!row.phases.empty()) {
      out += ",\"phases\":{";
      bool first_phase = true;
      for (const PhaseDigest& phase : row.phases) {
        if (!first_phase) out += ",";
        first_phase = false;
        out += "\"" + phase.name + "\":\"" + to_hex(phase.digest) + "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace tlb::dsan
