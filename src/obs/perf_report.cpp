#include "tlb/obs/perf_report.hpp"

#include <cstdio>
#include <stdexcept>

#include "tlb/util/json.hpp"
#include "tlb/util/json_parse.hpp"

namespace tlb::obs {

namespace {

/// The deterministic per-preset counter fields, in report order. Compared
/// as raw source text — bit identity, no double round-trip.
constexpr const char* kCounterFields[] = {
    "n", "m", "rounds", "migrations", "balanced", "final_overloaded",
};

/// Raw comparison text for one counter field; "" when absent.
std::string counter_text(const util::JsonValue& preset, const char* field) {
  const util::JsonValue* v = preset.find(field);
  if (!v) return "";
  switch (v->kind) {
    case util::JsonValue::Kind::kNumber:
      return v->raw;
    case util::JsonValue::Kind::kBool:
      return v->boolean ? "true" : "false";
    default:
      throw std::runtime_error(std::string("perf_report: counter '") +
                               field + "' is not a number or bool");
  }
}

PresetRecord parse_preset(const util::JsonValue& p) {
  PresetRecord rec;
  rec.name = p.at("name").string;
  if (const util::JsonValue* s = p.find("scenario")) rec.scenario = s->string;
  for (const char* field : kCounterFields) {
    rec.counters.emplace_back(field, counter_text(p, field));
  }
  if (const util::JsonValue* mps = p.find("migrations_per_sec")) {
    rec.has_timings = true;
    rec.migrations_per_sec = mps->number;
    if (const util::JsonValue* v = p.find("run_ms")) rec.run_ms = v->number;
    if (const util::JsonValue* v = p.find("rounds_per_sec")) {
      rec.rounds_per_sec = v->number;
    }
    if (const util::JsonValue* v = p.find("tail_speedup")) {
      rec.tail_speedup = v->number;
    }
  }
  return rec;
}

/// The entry's optional "rebaseline": {"presets": [...], "reason": "..."}.
/// A missing reason parses as empty, which the gate rejects.
Rebaseline parse_rebaseline(const util::JsonValue& v) {
  if (!v.is_object()) {
    throw std::runtime_error("perf_report: 'rebaseline' is not an object");
  }
  Rebaseline r;
  const util::JsonValue& presets = v.at("presets");
  if (!presets.is_array()) {
    throw std::runtime_error(
        "perf_report: 'rebaseline.presets' is not an array");
  }
  for (const util::JsonValue& p : presets.items) {
    if (!p.is_string()) {
      throw std::runtime_error(
          "perf_report: 'rebaseline.presets' holds a non-string");
    }
    r.presets.push_back(p.string);
  }
  if (const util::JsonValue* reason = v.find("reason")) {
    if (!reason->is_string()) {
      throw std::runtime_error(
          "perf_report: 'rebaseline.reason' is not a string");
    }
    r.reason = reason->string;
  }
  return r;
}

bool blank(const std::string& text) {
  return text.find_first_not_of(" \t\r\n") == std::string::npos;
}

bool lists(const Rebaseline& r, const std::string& preset) {
  for (const std::string& p : r.presets) {
    if (p == preset) return true;
  }
  return false;
}

std::string json_strings(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    out += util::Json::quote(xs[i]);
  }
  return out + "]";
}

double fmt_ratio_clamp(double x) { return x < 0.0 ? 0.0 : x; }

/// %.4g for markdown throughput cells.
std::string fmt(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", x);
  return buf;
}

}  // namespace

bool GateReport::rebaseline_ok() const {
  return !rebaseline ||
         (!blank(rebaseline->reason) && undrifted_rebaseline.empty());
}

const PresetRecord* TrajectoryEntry::find(const std::string& name) const {
  for (const PresetRecord& p : presets) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

std::vector<TrajectoryEntry> parse_trajectory(const std::string& text) {
  // An empty / whitespace-only file or a bare [] means no run was ever
  // appended — name that directly instead of failing later with a cryptic
  // parse or indexing error.
  if (blank(text)) {
    throw std::runtime_error(
        "perf_report: empty trajectory — the file has no entries (record a "
        "run with --append first)");
  }
  const util::JsonValue root = util::parse_json(text);
  if (!root.is_array()) {
    throw std::runtime_error("perf_report: trajectory is not a JSON array");
  }
  if (root.items.empty()) {
    throw std::runtime_error(
        "perf_report: empty trajectory — the JSON array has no entries "
        "(record a run with --append first)");
  }
  std::vector<TrajectoryEntry> out;
  out.reserve(root.items.size());
  for (const util::JsonValue& item : root.items) {
    if (!item.is_object()) {
      throw std::runtime_error("perf_report: trajectory entry is not an object");
    }
    TrajectoryEntry entry;
    entry.label = item.at("label").string;
    if (const util::JsonValue* s = item.find("set")) entry.set = s->string;
    const util::JsonValue& report = item.at("report");
    entry.seed = static_cast<std::uint64_t>(report.at("seed").number);
    if (const util::JsonValue* d = report.find("deterministic")) {
      entry.deterministic = d->boolean;
    }
    const util::JsonValue& presets = report.at("presets");
    if (!presets.is_array()) {
      throw std::runtime_error("perf_report: 'presets' is not an array");
    }
    for (const util::JsonValue& p : presets.items) {
      entry.presets.push_back(parse_preset(p));
    }
    if (const util::JsonValue* r = item.find("rebaseline")) {
      entry.rebaseline = parse_rebaseline(*r);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

GateReport evaluate_gate(const TrajectoryEntry& base,
                         const TrajectoryEntry& head,
                         const GateOptions& options) {
  GateReport report;
  report.base_label = base.label;
  report.head_label = head.label;
  report.options = options;
  report.rebaseline = head.rebaseline;

  // Union of preset names, base order first, head-only presets appended
  // (head-only presets are new coverage — reported, never a failure).
  for (const PresetRecord& b : base.presets) {
    PresetDelta d;
    d.name = b.name;
    d.in_base = true;
    const PresetRecord* h = head.find(b.name);
    d.in_head = h != nullptr;
    if (!h) {
      ++report.missing_in_head;
      report.deltas.push_back(std::move(d));
      continue;
    }
    ++report.shared;
    for (std::size_t i = 0; i < b.counters.size(); ++i) {
      const auto& [field, base_text] = b.counters[i];
      const std::string head_text =
          i < h->counters.size() && h->counters[i].first == field
              ? h->counters[i].second
              : std::string();
      if (base_text != head_text) {
        d.drifts.push_back({field, base_text, head_text});
      }
    }
    if (!d.drifts.empty()) {
      d.rebaselined = head.rebaseline && lists(*head.rebaseline, b.name);
      ++(d.rebaselined ? report.rebaselined : report.counter_drifts);
    }
    if (b.has_timings && h->has_timings) {
      d.has_wall = true;
      d.base_mps = b.migrations_per_sec;
      d.head_mps = h->migrations_per_sec;
      d.wall_ratio =
          b.migrations_per_sec > 0.0
              ? fmt_ratio_clamp(h->migrations_per_sec / b.migrations_per_sec)
              : 0.0;
      d.wall_regressed = b.migrations_per_sec > 0.0 &&
                         h->migrations_per_sec <
                             b.migrations_per_sec *
                                 (1.0 - options.wall_threshold);
      if (d.wall_regressed) ++report.wall_regressions;
    }
    report.deltas.push_back(std::move(d));
  }
  for (const PresetRecord& h : head.presets) {
    if (base.find(h.name)) continue;
    PresetDelta d;
    d.name = h.name;
    d.in_head = true;
    report.deltas.push_back(std::move(d));
  }
  if (head.rebaseline) {
    for (const std::string& name : head.rebaseline->presets) {
      bool drifted = false;
      for (const PresetDelta& d : report.deltas) {
        drifted |= d.rebaselined && d.name == name;
      }
      if (!drifted) report.undrifted_rebaseline.push_back(name);
    }
  }
  return report;
}

std::string render_markdown(const GateReport& r) {
  std::string out;
  out += "# perf gate: " + r.base_label + " -> " + r.head_label + "\n\n";
  out += r.ok() ? "**PASS**" : "**FAIL**";
  out += " — " + std::to_string(r.shared) + " shared preset(s), " +
         std::to_string(r.counter_drifts) + " counter drift(s), " +
         std::to_string(r.missing_in_head) + " missing in head, " +
         std::to_string(r.wall_regressions) + " wall regression(s)";
  if (r.rebaseline) out += ", " + std::to_string(r.rebaselined) + " rebaselined";
  if (!r.options.counters) out += " [counter gate off]";
  if (!r.options.wall) {
    out += " [wall gate off]";
  } else {
    out += " (wall threshold " + fmt(r.options.wall_threshold * 100.0) + "%)";
  }
  out += ".\n\n";
  if (r.rebaseline) {
    const std::string& reason = r.rebaseline->reason;
    out += "Rebaseline declared by " + r.head_label +
           (r.rebaseline_ok() ? "" : " (**INVALID**)") + ": " +
           (blank(reason) ? "<no reason>" : reason) + "\n\n";
    for (const std::string& name : r.undrifted_rebaseline) {
      out += "- the rebaseline lists `" + name + "`, which did not drift\n";
    }
    if (!r.undrifted_rebaseline.empty()) out += "\n";
  }
  out += "| preset | counters | mig/s " + r.base_label + " | mig/s " +
         r.head_label + " | ratio |\n";
  out += "|---|---|---|---|---|\n";
  for (const PresetDelta& d : r.deltas) {
    std::string counters;
    std::string base_mps = "-";
    std::string head_mps = "-";
    std::string ratio = "-";
    if (!d.in_head) {
      counters = "MISSING IN HEAD";
    } else if (!d.in_base) {
      counters = "new in head";
    } else if (d.drifts.empty()) {
      counters = "identical";
    } else {
      counters = std::string(d.rebaselined ? "REBASELINED" : "DRIFT") + " (" +
                 std::to_string(d.drifts.size()) + " field(s))";
    }
    if (d.has_wall) {
      base_mps = fmt(d.base_mps);
      head_mps = fmt(d.head_mps);
      ratio = fmt(d.wall_ratio);
      if (d.wall_regressed) ratio += " REGRESSED";
    }
    out += "| " + d.name + " | " + counters + " | " + base_mps + " | " +
           head_mps + " | " + ratio + " |\n";
  }
  bool any_drift = false;
  for (const PresetDelta& d : r.deltas) any_drift |= !d.drifts.empty();
  if (any_drift) {
    out += "\n## counter drifts\n\n";
    for (const PresetDelta& d : r.deltas) {
      for (const CounterDrift& c : d.drifts) {
        out += "- `" + d.name + "." + c.field + "`: " +
               (c.base.empty() ? "<absent>" : c.base) + " -> " +
               (c.head.empty() ? "<absent>" : c.head) +
               (d.rebaselined ? " (rebaselined)" : "") + "\n";
      }
    }
  }
  return out;
}

std::string render_json(const GateReport& r) {
  std::string deltas = "[";
  for (std::size_t i = 0; i < r.deltas.size(); ++i) {
    const PresetDelta& d = r.deltas[i];
    util::Json j;
    j.add("name", d.name)
        .add("in_base", d.in_base)
        .add("in_head", d.in_head)
        .add("counters_identical", d.in_base && d.in_head && d.drifts.empty())
        .add("rebaselined", d.rebaselined);
    std::string drifts = "[";
    for (std::size_t k = 0; k < d.drifts.size(); ++k) {
      util::Json dj;
      dj.add("field", d.drifts[k].field)
          .add("base", d.drifts[k].base)
          .add("head", d.drifts[k].head);
      if (k) drifts += ",";
      drifts += dj.str();
    }
    drifts += "]";
    j.add_raw("drifts", drifts);
    if (d.has_wall) {
      j.add("base_migrations_per_sec", d.base_mps)
          .add("head_migrations_per_sec", d.head_mps)
          .add("wall_ratio", d.wall_ratio)
          .add("wall_regressed", d.wall_regressed);
    }
    if (i) deltas += ",";
    deltas += j.str();
  }
  deltas += "]";

  util::Json root;
  root.add("base", r.base_label)
      .add("head", r.head_label)
      .add("ok", r.ok())
      .add("counters_ok", r.counters_ok())
      .add("wall_ok", r.wall_ok())
      .add("gate_counters", r.options.counters)
      .add("gate_wall", r.options.wall)
      .add("wall_threshold", r.options.wall_threshold)
      .add("shared", static_cast<std::uint64_t>(r.shared))
      .add("counter_drifts", static_cast<std::uint64_t>(r.counter_drifts))
      .add("missing_in_head", static_cast<std::uint64_t>(r.missing_in_head))
      .add("wall_regressions",
           static_cast<std::uint64_t>(r.wall_regressions));
  if (r.rebaseline) {
    util::Json rb;
    rb.add("ok", r.rebaseline_ok())
        .add_raw("presets", json_strings(r.rebaseline->presets))
        .add("reason", r.rebaseline->reason)
        .add("rebaselined", static_cast<std::uint64_t>(r.rebaselined))
        .add_raw("undrifted", json_strings(r.undrifted_rebaseline));
    root.add_raw("rebaseline", rb.str());
  }
  root.add_raw("presets", deltas);
  return root.str();
}

}  // namespace tlb::obs
