#pragma once
// Declarative graph specification used by benches and integration tests so a
// family + size can be chosen from the command line and rebuilt per trial.

#include <string>

#include "tlb/graph/builders.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/randomwalk/transition.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::sim {

/// Graph families exercised by the paper's evaluation.
enum class GraphFamily {
  kComplete,
  kCycle,
  kTorus,     ///< wrap-around grid (regular; paper's "grid" behaviour, no boundary)
  kGrid,      ///< open grid (irregular boundary)
  kHypercube,
  kRegular,   ///< random d-regular expander
  kErdosRenyi,
  kCliqueSatellite,  ///< Observation 8 family
};

/// Parse "complete", "cycle", "torus", "grid", "hypercube", "regular",
/// "erdos_renyi" / "er", "clique_satellite". Throws on unknown names.
GraphFamily parse_family(const std::string& name);

/// Canonical name of the family.
const char* family_name(GraphFamily family);

/// Everything needed to materialise a graph.
struct GraphSpec {
  GraphFamily family = GraphFamily::kComplete;
  graph::Node n = 0;       ///< node count (rounded per family, see build())
  graph::Node degree = 8;  ///< kRegular: degree; kCliqueSatellite: k edges

  /// Build the graph. Randomised families draw from `rng`. The node count
  /// is adjusted to the family's constraint (next square for grids, next
  /// power of two for hypercubes); read back the actual size from the graph.
  graph::Graph build(util::Rng& rng) const;

  /// The walk variant under which this family's max-degree walk mixes:
  /// lazy for regular bipartite families (hypercube, torus/cycle with even
  /// side), max-degree otherwise.
  randomwalk::WalkKind recommended_walk() const;
};

}  // namespace tlb::sim
