#include "tlb/dsan/bisect.hpp"

#include <bit>
#include <cstdint>

namespace tlb::dsan {

Divergence first_divergence(const std::vector<Row>& a,
                            const std::vector<Row>& b) {
  Divergence out;
  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i].round != b[i].round || a[i].final_state != b[i].final_state ||
        a[i].fp != b[i].fp || a[i].work_fp != b[i].work_fp) {
      out.found = true;
      out.index = i;
      out.round = a[i].round;
      out.final_state = a[i].final_state;
      return out;
    }
  }
  if (a.size() != b.size()) {
    const Row& edge = a.size() > b.size() ? a[common] : b[common];
    out.found = true;
    out.index = common;
    out.round = edge.round;
    out.final_state = edge.final_state;
  }
  return out;
}

std::string first_divergent_phase(const Row& a, const Row& b) {
  const std::size_t common =
      a.phases.size() < b.phases.size() ? a.phases.size() : b.phases.size();
  for (std::size_t i = 0; i < common; ++i) {
    if (a.phases[i].name != b.phases[i].name) return a.phases[i].name;
    if (a.phases[i].digest != b.phases[i].digest) return a.phases[i].name;
  }
  if (a.phases.size() != b.phases.size()) {
    const PhaseDigest& edge =
        a.phases.size() > b.phases.size() ? a.phases[common] : b.phases[common];
    return edge.name;
  }
  return "";
}

long first_divergent_resource(const std::vector<double>& a,
                              const std::vector<double>& b) {
  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < common; ++i) {
    // Bit equality, not ==: the fingerprints digest bit patterns, and two
    // loads differing only in -0.0 vs +0.0 would still diverge there.
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return static_cast<long>(i);
    }
  }
  if (a.size() != b.size()) return static_cast<long>(common);
  return -1;
}

std::string BisectReport::render() const {
  if (!diverged) {
    return "dsan bisect: no divergence — both sides byte-identical\n";
  }
  std::string out = "dsan bisect: DIVERGED\n";
  out += "  first divergent round: ";
  out += final_state ? std::string("final state") : std::to_string(round);
  out += "\n";
  out += "  first divergent phase: ";
  out += phase.empty() ? std::string("(outside digested phases)") : phase;
  out += "\n";
  out += "  first divergent resource: ";
  out += resource < 0 ? std::string("(load vectors agree)")
                      : std::to_string(resource);
  out += "\n";
  return out;
}

}  // namespace tlb::dsan
