#include "tlb/dsan/trace.hpp"

#include <fstream>
#include <iterator>
#include <stdexcept>

#include "tlb/obs/trace_event.hpp"
#include "tlb/util/json_parse.hpp"

namespace tlb::dsan {

TraceSection make_section(std::string name, const std::vector<Row>& rows) {
  TraceSection section;
  section.name = std::move(name);
  section.rows.reserve(rows.size());
  for (const Row& row : rows) {
    section.rows.push_back(
        {row.round, row.final_state, to_hex(row.fp), to_hex(row.work_fp)});
  }
  return section;
}

std::string render_trace(const std::vector<TraceSection>& sections,
                         std::uint64_t seed) {
  std::string out = "{\"dsan\":\"v2\",\"seed\":" + std::to_string(seed) +
                    ",\"sections\":[";
  bool first_section = true;
  for (const TraceSection& section : sections) {
    if (!first_section) out += ",";
    first_section = false;
    out += "{\"name\":\"" + section.name + "\",\"rows\":[";
    bool first_row = true;
    for (const TraceRow& row : section.rows) {
      if (!first_row) out += ",";
      first_row = false;
      out += row.final_state ? std::string("{\"final\":true")
                             : "{\"round\":" + std::to_string(row.round);
      out += ",\"fp\":\"" + row.fp + "\",\"work\":\"" + row.work + "\"}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

namespace {

std::string hex_field(const util::JsonValue& row, const char* key) {
  const util::JsonValue* v = row.find(key);
  if (v == nullptr || !v->is_string() || v->string.size() != 16) {
    throw std::runtime_error(std::string("dsan trace: row ") + key +
                             " is not a 16-char hex string");
  }
  return v->string;
}

std::string row_label(const TraceRow& row) {
  return row.final_state ? std::string("final state")
                         : "round " + std::to_string(row.round);
}

}  // namespace

std::vector<TraceSection> parse_trace(const std::string& text) {
  const util::JsonValue doc = util::parse_json(text);
  if (!doc.is_object()) {
    throw std::runtime_error("dsan trace: document is not a JSON object");
  }
  const util::JsonValue* version = doc.find("dsan");
  if (version == nullptr || !version->is_string() ||
      version->string != "v2") {
    throw std::runtime_error(
        "dsan trace: missing or unknown \"dsan\" version (v1 traces predate "
        "the state/work split; re-record them)");
  }
  const util::JsonValue* sections = doc.find("sections");
  if (sections == nullptr || !sections->is_array()) {
    throw std::runtime_error("dsan trace: \"sections\" is not an array");
  }
  std::vector<TraceSection> out;
  out.reserve(sections->items.size());
  for (const util::JsonValue& sec : sections->items) {
    if (!sec.is_object()) {
      throw std::runtime_error("dsan trace: section is not an object");
    }
    TraceSection section;
    const util::JsonValue& name = sec.at("name");
    if (!name.is_string()) {
      throw std::runtime_error("dsan trace: section name is not a string");
    }
    section.name = name.string;
    const util::JsonValue& rows = sec.at("rows");
    if (!rows.is_array()) {
      throw std::runtime_error("dsan trace: section rows is not an array");
    }
    section.rows.reserve(rows.items.size());
    for (const util::JsonValue& row : rows.items) {
      if (!row.is_object()) {
        throw std::runtime_error("dsan trace: row is not an object");
      }
      TraceRow parsed;
      parsed.fp = hex_field(row, "fp");
      parsed.work = hex_field(row, "work");
      if (const util::JsonValue* final_flag = row.find("final");
          final_flag != nullptr) {
        if (!final_flag->is_bool() || !final_flag->boolean) {
          throw std::runtime_error("dsan trace: row \"final\" is not true");
        }
        parsed.final_state = true;
        parsed.round = -1;
      } else {
        const util::JsonValue& round = row.at("round");
        if (!round.is_number()) {
          throw std::runtime_error("dsan trace: row round is not a number");
        }
        parsed.round = static_cast<long>(round.number);
      }
      section.rows.push_back(std::move(parsed));
    }
    out.push_back(std::move(section));
  }
  return out;
}

CheckResult check_trace(const std::vector<TraceSection>& golden,
                        const std::vector<TraceSection>& current) {
  CheckResult result;
  if (golden.size() != current.size()) {
    result.ok = false;
    result.message = "section count mismatch: golden has " +
                     std::to_string(golden.size()) + ", current has " +
                     std::to_string(current.size());
    return result;
  }
  // The first work-only mismatch, kept while the scan looks for a state
  // mismatch further on.
  CheckResult work;
  for (std::size_t s = 0; s < golden.size(); ++s) {
    const TraceSection& g = golden[s];
    const TraceSection& c = current[s];
    if (g.name != c.name) {
      result.ok = false;
      result.section = g.name;
      result.message = "section " + std::to_string(s) + " name mismatch: \"" +
                       g.name + "\" vs \"" + c.name + "\"";
      return result;
    }
    const std::size_t common = g.rows.size() < c.rows.size() ? g.rows.size()
                                                             : c.rows.size();
    for (std::size_t r = 0; r < common; ++r) {
      const TraceRow& gr = g.rows[r];
      const TraceRow& cr = c.rows[r];
      if (gr.round != cr.round || gr.final_state != cr.final_state) {
        result.ok = false;
        result.section = g.name;
        result.round = gr.round;
        result.message = "section \"" + g.name + "\": row " +
                         std::to_string(r) + " is " + row_label(gr) +
                         " in golden but " + row_label(cr) + " in current";
        return result;
      }
      if (gr.fp != cr.fp) {
        result.ok = false;
        result.section = g.name;
        result.round = gr.round;
        result.message = "section \"" + g.name + "\": fingerprint mismatch at " +
                         row_label(gr) + ": golden " + gr.fp + ", current " +
                         cr.fp;
        return result;
      }
      if (work.ok && gr.work != cr.work) {
        work.ok = false;
        work.section = g.name;
        work.round = gr.round;
        work.message = "state identical; work diverges first at section \"" +
                       g.name + "\", " + row_label(gr) + ": golden " +
                       gr.work + ", current " + cr.work;
      }
    }
    if (g.rows.size() != c.rows.size()) {
      result.ok = false;
      result.section = g.name;
      const TraceRow& edge = g.rows.size() > c.rows.size() ? g.rows[common]
                                                           : c.rows[common];
      result.round = edge.round;
      result.message = "section \"" + g.name + "\": golden has " +
                       std::to_string(g.rows.size()) + " rows, current has " +
                       std::to_string(c.rows.size()) +
                       " (first extra: " + row_label(edge) + ")";
      return result;
    }
  }
  return work.ok ? result : work;
}

TraceFiles::TraceFiles(std::string record_path, std::string check_path)
    : record_path_(std::move(record_path)),
      check_path_(std::move(check_path)) {
  if (!check_path_.empty()) {
    std::ifstream in(check_path_, std::ios::binary);
    if (!in) {
      throw std::runtime_error("dsan check: cannot read " + check_path_);
    }
    try {
      golden_ = parse_trace(std::string(std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()));
    } catch (const std::exception& e) {
      throw std::runtime_error("dsan check: cannot parse " + check_path_ +
                               ": " + e.what());
    }
  }
  if (!record_path_.empty()) obs::write_text_file(record_path_, "");
}

void TraceFiles::finish(const std::vector<TraceSection>& sections,
                        std::uint64_t seed) const {
  if (!record_path_.empty()) {
    obs::write_text_file(record_path_, render_trace(sections, seed));
  }
  if (!check_path_.empty()) {
    const CheckResult check = check_trace(golden_, sections);
    if (!check.ok) {
      throw std::runtime_error("dsan check failed against " + check_path_ +
                               ": " + check.message);
    }
  }
}

}  // namespace tlb::dsan
