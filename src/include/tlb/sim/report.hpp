#pragma once
// Uniform console reporting for the bench binaries: every bench announces
// which paper artefact it reproduces, prints the parameters actually used,
// renders the results table, and optionally writes CSV. The JSON helpers
// render the sim::run_trials statistics with util::Json.

#include <string>

#include "tlb/sim/runner.hpp"
#include "tlb/util/table.hpp"

namespace tlb::sim {

/// Print a banner naming the reproduced artefact, e.g.
///   == Figure 1 — balancing time vs W (user-controlled) ==
void print_banner(const std::string& artefact, const std::string& description);

/// Print a "key = value" parameter line (indented, aligned-ish).
void print_param(const std::string& key, const std::string& value);

/// Print the table; if csv_path is non-empty also write CSV and say so.
void emit_table(const util::Table& table, const std::string& csv_path);

/// Print a one-line takeaway prefixed with "-> ".
void print_takeaway(const std::string& text);

/// Serialise a Welford accumulator as {"count","mean","stddev","min","max",
/// "ci95"}.
std::string welford_json(const util::Welford& w);

/// Serialise aggregated trial statistics (the sim::run_trials output).
std::string trial_stats_json(const TrialStats& stats);

}  // namespace tlb::sim
