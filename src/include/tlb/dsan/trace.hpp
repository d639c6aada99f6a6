#pragma once
// dsan golden traces — record/check serialization for round fingerprints.
//
// A trace is an ordered list of named sections (one per scenario or perf
// preset), each an ordered list of per-round fingerprint rows plus one
// trailing final-state row. `--dsan-record=FILE` writes one; `--dsan-check`
// re-runs the same workload, renders the same structure, and compares.
//
// Each row carries two fingerprints: the state fingerprint ("fp": state
// digest plus draw accounting) and the work digest ("work": the tracker's
// cost counters). A state mismatch is reported at once, as (section,
// round). A work-only mismatch does not stop the scan: the check reports
// the first state mismatch of any later row if there is one, and only
// otherwise "state identical; work diverges first at (section, round)".
// Either way the check fails.
//
// Fingerprints travel as 16-char lowercase hex *strings*, never JSON
// numbers: util::json_parse stores numbers as doubles, which cannot hold a
// full uint64, and check() compares the raw hex text anyway, so a trace
// checked against itself is trivially byte-stable.
//
// The rendering obeys the --timings=false discipline: no wall-clock, no
// thread counts, no machine identity — a trace recorded at --engine-threads
// 1 must check clean at 2, 8 and 0 by the library's core contract.

#include <cstdint>
#include <string>
#include <vector>

#include "tlb/dsan/observer.hpp"

namespace tlb::dsan {

/// One row of a parsed/parseable trace; `fp` (state) and `work` are the
/// hex text.
struct TraceRow {
  long round = -1;
  bool final_state = false;
  std::string fp;
  std::string work;
};

/// One named run within a trace (a scenario, a perf preset, one baseline).
struct TraceSection {
  std::string name;
  std::vector<TraceRow> rows;
};

/// Convert observer rows into a section (hex-encodes the fingerprints).
[[nodiscard]] TraceSection make_section(std::string name,
                                        const std::vector<Row>& rows);

/// Render the whole trace:
///   {"dsan":"v2","seed":S,"sections":[{"name":...,"rows":[...]},...]}
/// with rows {"round":R,"fp":"<hex16>","work":"<hex16>"}. Deterministic:
/// fixed key order, no whitespace, trailing newline.
[[nodiscard]] std::string render_trace(const std::vector<TraceSection>& sections,
                                       std::uint64_t seed);

/// Parse a rendered trace. Throws std::runtime_error (with a reason) on
/// anything that is not a v2 dsan trace (v1 traces predate the state/work
/// split and must be re-recorded).
[[nodiscard]] std::vector<TraceSection> parse_trace(const std::string& text);

/// Outcome of checking a freshly produced trace against a golden one.
/// On mismatch, `section` names the diverging section and `round` the first
/// divergent round (-1 = the final-state row); `message` is human-readable
/// and starts "state identical; work diverges first at" when only the work
/// digests diverged.
struct CheckResult {
  bool ok = true;
  std::string section;
  long round = -1;
  std::string message;
};

/// First state divergence between golden and current, else the first work
/// divergence, else ok. Structural differences (section count/name/row
/// count) are state divergences — a run that stops one round early
/// diverged at its first missing row.
[[nodiscard]] CheckResult check_trace(const std::vector<TraceSection>& golden,
                                      const std::vector<TraceSection>& current);

/// The file half of a front end's --dsan-record / --dsan-check pair, shared
/// by tlb_sim and perf_suite. Construction does every check that can fail
/// before a run starts: it reads and parses the golden trace at
/// `check_path` and creates (truncates) `record_path`, so a bad path costs
/// no simulation time. Either path may be empty (that half is off).
class TraceFiles {
 public:
  /// Throws std::runtime_error naming the path that cannot be read, parsed
  /// or written.
  TraceFiles(std::string record_path, std::string check_path);

  /// True iff either half is on (the run must collect fingerprints).
  [[nodiscard]] bool active() const noexcept {
    return !record_path_.empty() || !check_path_.empty();
  }
  [[nodiscard]] const std::string& record_path() const noexcept {
    return record_path_;
  }
  [[nodiscard]] const std::string& check_path() const noexcept {
    return check_path_;
  }

  /// After the run: write `sections` to the record path, then check them
  /// against the golden. Throws std::runtime_error on a failed write or
  /// with "dsan check failed against <path>: <CheckResult::message>" on a
  /// mismatch.
  void finish(const std::vector<TraceSection>& sections,
              std::uint64_t seed) const;

 private:
  std::string record_path_;
  std::string check_path_;
  std::vector<TraceSection> golden_;
};

}  // namespace tlb::dsan
