// Tests for the max-degree / lazy transition models (Section 4.1): row sums,
// symmetry, uniform stationarity, agreement between step() sampling and
// the matrix probabilities, and the row sampler's draws against the
// uniform-coin formula.
#include "tlb/randomwalk/transition.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "tlb/graph/builders.hpp"

namespace {

using namespace tlb::randomwalk;
using tlb::graph::Graph;
using tlb::util::Rng;

double row_sum(const TransitionModel& walk, Node u) {
  double sum = walk.self_loop_prob(u);
  for (Node v : walk.graph().neighbors(u)) sum += walk.prob(u, v);
  return sum;
}

class TransitionRowTest
    : public ::testing::TestWithParam<std::tuple<const char*, WalkKind>> {
 protected:
  Graph make_graph() const {
    const std::string name = std::get<0>(GetParam());
    Rng rng(5);
    if (name == "complete") return tlb::graph::complete(12);
    if (name == "cycle") return tlb::graph::cycle(9);
    if (name == "grid") return tlb::graph::grid2d(4, 5);
    if (name == "star") return tlb::graph::star(8);
    if (name == "regular") return tlb::graph::random_regular(16, 4, rng);
    return tlb::graph::hypercube(3);
  }
};

TEST_P(TransitionRowTest, RowsSumToOne) {
  const Graph g = make_graph();
  const TransitionModel walk(g, std::get<1>(GetParam()));
  for (Node u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(row_sum(walk, u), 1.0, 1e-12) << "node " << u;
  }
}

TEST_P(TransitionRowTest, MatrixIsSymmetric) {
  const Graph g = make_graph();
  const TransitionModel walk(g, std::get<1>(GetParam()));
  for (Node u = 0; u < g.num_nodes(); ++u) {
    for (Node v : g.neighbors(u)) {
      EXPECT_DOUBLE_EQ(walk.prob(u, v), walk.prob(v, u));
    }
  }
}

TEST_P(TransitionRowTest, UniformIsStationary) {
  const Graph g = make_graph();
  const TransitionModel walk(g, std::get<1>(GetParam()));
  std::vector<double> uniform(g.num_nodes(),
                              1.0 / static_cast<double>(g.num_nodes()));
  std::vector<double> next;
  walk.evolve(uniform, next);
  for (Node v = 0; v < g.num_nodes(); ++v) {
    EXPECT_NEAR(next[v], uniform[v], 1e-12) << "node " << v;
  }
}

TEST_P(TransitionRowTest, EvolvePreservesMass) {
  const Graph g = make_graph();
  const TransitionModel walk(g, std::get<1>(GetParam()));
  std::vector<double> dist(g.num_nodes(), 0.0);
  dist[0] = 0.7;
  dist[g.num_nodes() - 1] = 0.3;
  std::vector<double> next;
  for (int t = 0; t < 5; ++t) {
    walk.evolve(dist, next);
    dist.swap(next);
    EXPECT_NEAR(std::accumulate(dist.begin(), dist.end(), 0.0), 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, TransitionRowTest,
    ::testing::Combine(::testing::Values("complete", "cycle", "grid", "star",
                                         "regular", "hypercube"),
                       ::testing::Values(WalkKind::kMaxDegree,
                                         WalkKind::kLazy)),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param)) + "_" +
             (std::get<1>(param_info.param) == WalkKind::kMaxDegree ? "maxdeg"
                                                              : "lazy");
    });

TEST(TransitionTest, MaxDegreeSelfLoopOnIrregularNodes) {
  // Star: centre has degree n-1 = max degree, leaves degree 1.
  const Graph g = tlb::graph::star(6);
  const TransitionModel walk(g);
  EXPECT_DOUBLE_EQ(walk.self_loop_prob(0), 0.0);
  EXPECT_NEAR(walk.self_loop_prob(1), 4.0 / 5.0, 1e-12);
  EXPECT_NEAR(walk.prob(1, 0), 1.0 / 5.0, 1e-12);
}

TEST(TransitionTest, LazySelfLoopAtLeastHalf) {
  const Graph g = tlb::graph::grid2d(3, 3);
  const TransitionModel walk(g, WalkKind::kLazy);
  for (Node u = 0; u < g.num_nodes(); ++u) {
    EXPECT_GE(walk.self_loop_prob(u), 0.5);
  }
}

TEST(TransitionTest, StepFrequenciesMatchProbabilities) {
  const Graph g = tlb::graph::star(5);  // centre 0, leaves 1..4
  const TransitionModel walk(g);
  Rng rng(31337);
  const int kN = 200000;
  int stayed = 0;
  int to_centre = 0;
  for (int i = 0; i < kN; ++i) {
    const Node next = walk.step(1, rng);
    stayed += (next == 1);
    to_centre += (next == 0);
  }
  // Leaf: move to centre with prob 1/4, stay with 3/4.
  EXPECT_NEAR(static_cast<double>(stayed) / kN, 0.75, 0.01);
  EXPECT_NEAR(static_cast<double>(to_centre) / kN, 0.25, 0.01);
}

TEST(TransitionTest, StepFromCentreUniformOverLeaves) {
  const Graph g = tlb::graph::star(5);
  const TransitionModel walk(g);
  Rng rng(4242);
  std::vector<int> hits(5, 0);
  const int kN = 100000;
  for (int i = 0; i < kN; ++i) ++hits[walk.step(0, rng)];
  EXPECT_EQ(hits[0], 0);  // centre has no self-loop
  for (Node leaf = 1; leaf < 5; ++leaf) {
    EXPECT_NEAR(static_cast<double>(hits[leaf]) / kN, 0.25, 0.01);
  }
}

TEST(TransitionTest, ProbOfNonNeighborIsZero) {
  const Graph g = tlb::graph::cycle(6);
  const TransitionModel walk(g);
  EXPECT_DOUBLE_EQ(walk.prob(0, 3), 0.0);
}

TEST(TransitionTest, RejectsEdgelessGraph) {
  // A single isolated pair cannot happen (from_edges requires
  // well-formed edges), but a 1-node graph has no edges.
  const Graph g = Graph::from_edges(1, {});
  EXPECT_THROW(TransitionModel{g}, std::invalid_argument);
}

TEST(TransitionTest, RowSamplerDrawsWhatTheUniformCoinDrew) {
  // The one walk implementation (row(u).step, which step(u, rng) calls)
  // must consume the stream exactly as the formula it replaced: stay iff
  // uniform01() >= deg(u)·edge_prob(), else move to neighbour
  // uniform_below(deg(u)). A star on nodes 0..5 plus the isolated node 6
  // puts the move probability at 1 (the centre, max-degree walk), 1/2 (the
  // centre, lazy walk), 1/5 and 1/10 (a leaf) and 0 (the isolated node,
  // which must never draw a neighbour).
  std::vector<tlb::graph::Edge> edges;
  for (Node leaf = 1; leaf <= 5; ++leaf) edges.emplace_back(0, leaf);
  const Graph g = Graph::from_edges(7, edges, "star+isolated");
  const auto reference = [&g](const TransitionModel& walk, Node u, Rng& rng) {
    const Node deg = g.degree(u);
    if (rng.uniform01() >= static_cast<double>(deg) * walk.edge_prob()) {
      return u;
    }
    return g.neighbor(u, static_cast<Node>(rng.uniform_below(deg)));
  };
  for (const WalkKind kind : {WalkKind::kMaxDegree, WalkKind::kLazy}) {
    const TransitionModel walk(g, kind);
    for (Node start = 0; start < g.num_nodes(); ++start) {
      const std::string at = std::string(to_string(kind)) + " from " +
                             std::to_string(start);
      Rng by_row(1234), by_step(1234), by_formula(1234);
      Node row_at = start, step_at = start, formula_at = start;
      for (int t = 0; t < 10000; ++t) {
        row_at = walk.row(row_at).step(by_row);
        step_at = walk.step(step_at, by_step);
        formula_at = reference(walk, formula_at, by_formula);
        ASSERT_EQ(row_at, formula_at) << at << " step " << t;
        ASSERT_EQ(step_at, formula_at) << at << " step " << t;
      }
      EXPECT_EQ(by_row.state_hash(), by_formula.state_hash()) << at;
      EXPECT_EQ(by_step.state_hash(), by_formula.state_hash()) << at;
    }
  }
}

}  // namespace
