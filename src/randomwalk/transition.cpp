#include "tlb/randomwalk/transition.hpp"

#include <stdexcept>

namespace tlb::randomwalk {

const char* to_string(WalkKind kind) {
  switch (kind) {
    case WalkKind::kMaxDegree: return "max-degree";
    case WalkKind::kLazy: return "lazy";
  }
  return "?";
}

TransitionModel::TransitionModel(const Graph& g, WalkKind kind)
    : g_(&g), kind_(kind) {
  if (g.max_degree() == 0) {
    throw std::invalid_argument("TransitionModel: graph has no edges");
  }
  const double d = static_cast<double>(g.max_degree());
  if (kind_ == WalkKind::kMaxDegree) {
    inv_d_ = 1.0 / d;
    lazy_floor_ = 0.0;
  } else {
    inv_d_ = 0.5 / d;
    lazy_floor_ = 0.5;
  }
}

double TransitionModel::prob(Node u, Node v) const noexcept {
  if (u == v) return self_loop_prob(u);
  return g_->has_edge(u, v) ? inv_d_ : 0.0;
}

double TransitionModel::self_loop_prob(Node u) const noexcept {
  return 1.0 - static_cast<double>(g_->degree(u)) * inv_d_;
}

void TransitionModel::evolve(const std::vector<double>& in,
                             std::vector<double>& out) const {
  const Node n = g_->num_nodes();
  out.assign(n, 0.0);
  // P is symmetric, so out[v] = sum_u in[u] * P(u,v) splits into the per-edge
  // mass (same constant for every edge) plus the diagonal.
  for (Node u = 0; u < n; ++u) {
    const double mass = in[u] * inv_d_;
    for (Node v : g_->neighbors(u)) out[v] += mass;
    out[u] += in[u] * self_loop_prob(u);
  }
}

}  // namespace tlb::randomwalk
