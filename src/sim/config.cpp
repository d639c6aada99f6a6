#include "tlb/sim/config.hpp"

#include <cmath>
#include <stdexcept>

namespace tlb::sim {

GraphFamily parse_family(const std::string& name) {
  if (name == "complete") return GraphFamily::kComplete;
  if (name == "cycle") return GraphFamily::kCycle;
  if (name == "torus") return GraphFamily::kTorus;
  if (name == "grid") return GraphFamily::kGrid;
  if (name == "hypercube") return GraphFamily::kHypercube;
  if (name == "regular" || name == "expander") return GraphFamily::kRegular;
  if (name == "erdos_renyi" || name == "er") return GraphFamily::kErdosRenyi;
  if (name == "clique_satellite") return GraphFamily::kCliqueSatellite;
  throw std::invalid_argument("unknown graph family: " + name);
}

const char* family_name(GraphFamily family) {
  switch (family) {
    case GraphFamily::kComplete: return "complete";
    case GraphFamily::kCycle: return "cycle";
    case GraphFamily::kTorus: return "torus";
    case GraphFamily::kGrid: return "grid";
    case GraphFamily::kHypercube: return "hypercube";
    case GraphFamily::kRegular: return "regular";
    case GraphFamily::kErdosRenyi: return "erdos_renyi";
    case GraphFamily::kCliqueSatellite: return "clique_satellite";
  }
  return "?";
}

graph::Graph GraphSpec::build(util::Rng& rng) const {
  using graph::Node;
  switch (family) {
    case GraphFamily::kComplete:
      return graph::complete(n);
    case GraphFamily::kCycle:
      return graph::cycle(n);
    case GraphFamily::kTorus: {
      const auto side = static_cast<Node>(
          std::llround(std::sqrt(static_cast<double>(n))));
      return graph::grid2d(std::max<Node>(side, 3), std::max<Node>(side, 3),
                           /*torus=*/true);
    }
    case GraphFamily::kGrid: {
      const auto side = static_cast<Node>(
          std::llround(std::sqrt(static_cast<double>(n))));
      return graph::grid2d(std::max<Node>(side, 2), std::max<Node>(side, 2),
                           /*torus=*/false);
    }
    case GraphFamily::kHypercube: {
      Node dim = 1;
      while ((Node{1} << (dim + 1)) <= n) ++dim;
      return graph::hypercube(dim);
    }
    case GraphFamily::kRegular: {
      Node nn = n;
      if ((static_cast<std::uint64_t>(nn) * degree) % 2 != 0) ++nn;
      return graph::random_regular(nn, degree, rng);
    }
    case GraphFamily::kErdosRenyi: {
      // p = 4·ln(n)/n: four times the connectivity threshold.
      constexpr double kPFactor = 4.0;
      const double p =
          kPFactor * std::log(static_cast<double>(n)) / static_cast<double>(n);
      return graph::erdos_renyi_connected(n, std::min(p, 1.0), rng);
    }
    case GraphFamily::kCliqueSatellite:
      return graph::clique_plus_satellite(n, degree);
  }
  throw std::logic_error("GraphSpec::build: unreachable");
}

randomwalk::WalkKind GraphSpec::recommended_walk() const {
  switch (family) {
    // Regular bipartite families: the max-degree walk is periodic, so use
    // the lazy walk for anything that needs mixing. (Torus with odd side and
    // odd cycles are aperiodic, but lazy is uniformly safe and changes the
    // mixing time only by a constant factor.)
    case GraphFamily::kHypercube:
    case GraphFamily::kTorus:
    case GraphFamily::kCycle:
    case GraphFamily::kGrid:
      return randomwalk::WalkKind::kLazy;
    default:
      return randomwalk::WalkKind::kMaxDegree;
  }
}

}  // namespace tlb::sim
