#pragma once
// Internal helpers shared by the workload spec parsers (weight models,
// arrival processes, scenarios). Not installed: lives next to the .cpp
// files on purpose.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace tlb::workload::detail {

/// Render a double the shortest way that round-trips through the parsers
/// (no trailing zeros, no scientific noise for the usual parameter ranges).
inline std::string fmt_param(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// "name(a,b,c)" split into {name, {"a","b","c"}}; bare "name" has no args.
struct ParsedCall {
  std::string name;
  std::vector<std::string> args;
};

[[noreturn]] inline void bad_call(const std::string& kind,
                                  const std::string& spec,
                                  const std::string& why) {
  throw std::invalid_argument(kind + " '" + spec + "': " + why);
}

inline ParsedCall parse_call(const std::string& kind,
                             const std::string& spec) {
  ParsedCall out;
  const auto open = spec.find('(');
  if (open == std::string::npos) {
    out.name = spec;
    return out;
  }
  if (spec.back() != ')') bad_call(kind, spec, "missing closing ')'");
  out.name = spec.substr(0, open);
  const std::string inner = spec.substr(open + 1, spec.size() - open - 2);
  std::string cur;
  for (char c : inner) {
    if (c == ',') {
      out.args.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty() || !out.args.empty()) out.args.push_back(cur);
  return out;
}

inline double arg_double(const std::string& kind, const std::string& spec,
                         const std::string& arg) {
  try {
    std::size_t used = 0;
    const double v = std::stod(arg, &used);
    if (used != arg.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    bad_call(kind, spec, "'" + arg + "' is not a number");
  }
}

inline std::uint64_t arg_uint(const std::string& kind,
                              const std::string& spec,
                              const std::string& arg) {
  const double v = arg_double(kind, spec, arg);
  // !(v < 2^64) also rejects inf and NaN, which the cast below cannot hold.
  if (v < 0.0 || v != std::floor(v) || !(v < 0x1p64)) {
    bad_call(kind, spec, "'" + arg + "' is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

inline void need_args(const std::string& kind, const std::string& spec,
                      const ParsedCall& call, std::size_t lo,
                      std::size_t hi) {
  if (call.args.size() < lo || call.args.size() > hi) {
    bad_call(kind, spec,
             "expects " + std::to_string(lo) +
                 (hi == lo ? "" : ".." + std::to_string(hi)) +
                 " argument(s), got " + std::to_string(call.args.size()));
  }
}

}  // namespace tlb::workload::detail
