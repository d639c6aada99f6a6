#pragma once
// The paper's random walk (Section 4.1).
//
// For a graph with maximum degree d, the max-degree walk has
//     P_ij = 1/d            for every edge {i, j},
//     P_ii = (d - d_i)/d    (self-loop that equalises the row sums),
// which makes the stationary distribution uniform on every graph — the
// property all of the paper's results rely on. On *regular bipartite*
// graphs (hypercube, even cycle, torus) this walk is periodic, so the
// library also provides the standard lazy variant P' = (I + P)/2 which is
// aperiodic on every graph and has the same stationary distribution.
//
// Sampling: TransitionModel::row(u) is an inline sampler for row u. A step
// stays put unless the top 53 bits of one draw fall below an integer cut,
// ⌈p·2^53⌉ with p = deg(u)·edge_prob(), and then draws a uniform neighbour.
// That is exactly the test uniform01() < p (for an integer k, k·2^-53 < p
// iff k < ⌈p·2^53⌉, and p·2^53 is exact), so the draws match a uniform01()
// coin, including p = 1 (never stays) and p = 0 (an isolated node, never
// draws a neighbour). step(u, rng) is row(u).step(rng): one implementation
// for the estimators and the graph engines, and the resource engine takes
// each origin's row once for all of its evictees.

#include <cmath>
#include <cstdint>
#include <vector>

#include "tlb/graph/graph.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::randomwalk {

using graph::Graph;
using graph::Node;

/// Which transition matrix to use.
enum class WalkKind {
  kMaxDegree,  ///< P as defined in the paper (Section 4.1)
  kLazy,       ///< (I + P)/2; aperiodic on every graph
};

/// Human-readable name ("max-degree" / "lazy").
const char* to_string(WalkKind kind);

/// Transition model bound to a graph. Cheap to copy (holds a pointer to the
/// graph, which must outlive the model).
class TransitionModel {
 public:
  /// Bind to `g` (not owned). `d` is taken as g.max_degree().
  explicit TransitionModel(const Graph& g, WalkKind kind = WalkKind::kMaxDegree);
  /// Guard against binding a temporary graph (the model keeps a pointer).
  explicit TransitionModel(Graph&&, WalkKind = WalkKind::kMaxDegree) = delete;

  /// The underlying graph.
  const Graph& graph() const noexcept { return *g_; }
  /// Walk variant.
  WalkKind kind() const noexcept { return kind_; }

  /// One-step transition probability P(u -> v). O(log deg) for u != v.
  double prob(Node u, Node v) const noexcept;

  /// Probability of staying put at u.
  double self_loop_prob(Node u) const noexcept;

  /// Per-edge transition mass: P(u -> v) for any existing edge {u, v}
  /// (the same constant for every edge of the graph).
  double edge_prob() const noexcept { return inv_d_; }

  /// Row u of P as an inline sampler: u's degree, its neighbours and the
  /// integer move cut (see the header comment). Valid while the graph is.
  class Row {
   public:
    /// Sample the next node: one draw for the move test, then (when
    /// moving) one uniform_below(degree) for the neighbour.
    Node step(util::Rng& rng) const noexcept {
      if ((rng() >> 11) >= cut_) return u_;
      return nbrs_[rng.uniform_below(deg_)];
    }

   private:
    friend class TransitionModel;
    Row(Node u, Node deg, const Node* nbrs, std::uint64_t cut) noexcept
        : u_(u), deg_(deg), nbrs_(nbrs), cut_(cut) {}
    Node u_;
    Node deg_;
    const Node* nbrs_;
    std::uint64_t cut_;  // move iff the draw's top 53 bits are below it
  };

  /// The sampler for row u. O(1).
  Row row(Node u) const noexcept {
    const Node deg = g_->degree(u);
    const double move_prob = static_cast<double>(deg) * inv_d_;
    return {u, deg, g_->neighbors(u).data(),
            static_cast<std::uint64_t>(std::ceil(move_prob * 0x1.0p53))};
  }

  /// Sample the next node from row u. O(1).
  Node step(Node u, util::Rng& rng) const noexcept { return row(u).step(rng); }

  /// Distribution evolution: out = in * P (one synchronous step of the
  /// chain). O(|E| + n). `out` is resized; `in` must have n entries and may
  /// not alias `out`.
  void evolve(const std::vector<double>& in, std::vector<double>& out) const;

  /// Number of nodes (convenience).
  Node num_nodes() const noexcept { return g_->num_nodes(); }

 private:
  const Graph* g_;
  WalkKind kind_;
  double inv_d_;       // 1/d   (max-degree) or 1/(2d) (lazy) per-edge mass
  double lazy_floor_;  // 0     (max-degree) or 1/2    (lazy) guaranteed stay
};

}  // namespace tlb::randomwalk
