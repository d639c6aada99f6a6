#pragma once
// Deterministic load-distribution snapshot — the analytics layer's unit of
// observation.
//
// The paper's guarantees are statements about the *shape* of the load
// vector over rounds (max load vs threshold, potential decay, how much mass
// sits above T), not just stopping times — and the upcoming async and
// self-learning-threshold work (Hoefer–Sauerwald arXiv:1306.1402,
// Goldsztajn et al. arXiv:2010.15525) is evaluated by load-quantile
// trajectories. LoadStats captures one round's shape: max/mean, exact
// p50/p90/p99, the overload mass Σ max(0, load - T) and the resources
// contributing to it, and the max/mean imbalance ratio.
//
// Two computation paths, bit-identical by construction:
//  * compute_indexed() reads a live core::LoadIndex — quantiles in
//    O(#buckets + |hit buckets|) from the bucket structure (exact order
//    statistics, not approximations), the r-ordered max/sums in O(n).
//  * compute_scan() is the ground-truth fallback when the index is dormant
//    or stale (after a bulk placement or a dense threshold move):
//    O(n) sums in the same resource order plus nth_element selections.
// Both produce the exact k-th order statistic for each quantile and sum in
// ascending resource order, so every field is a pure function of the load
// vector — independent of bucket arrangement, thread count and history.
// The analytics tests differential-check the two paths against an
// O(n log n) sort reference.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tlb/core/load_index.hpp"
#include "tlb/graph/graph.hpp"

namespace tlb::core {

/// One deterministic snapshot of the load distribution against a scalar
/// threshold. All fields are pure functions of (loads, threshold).
struct LoadStats {
  std::uint32_t n = 0;          ///< resources measured
  double max_load = 0.0;        ///< largest load
  double mean_load = 0.0;       ///< Σ load / n (ascending-r summation order)
  double p50 = 0.0;             ///< exact order statistic at rank ⌊0.50(n-1)⌋
  double p90 = 0.0;             ///< exact order statistic at rank ⌊0.90(n-1)⌋
  double p99 = 0.0;             ///< exact order statistic at rank ⌊0.99(n-1)⌋
  double overload_mass = 0.0;   ///< Σ_r max(0, load_r - threshold)
  std::uint32_t overloaded = 0; ///< #{ r : load_r > threshold }
  double imbalance = 0.0;       ///< max_load / mean_load (0 when mean == 0)
  double threshold = 0.0;       ///< the threshold measured against

  /// The 0-based rank a quantile q in [0, 1] selects from n sorted values:
  /// ⌊q·(n-1)⌋ — the "lower" empirical quantile, chosen because it is an
  /// exact order statistic (bit-reproducible, no interpolation arithmetic).
  static std::size_t quantile_rank(double q, std::size_t n) {
    if (n == 0) return 0;
    return static_cast<std::size_t>(q * static_cast<double>(n - 1));
  }
};

/// Reusable computation scratch so per-round snapshots allocate only on the
/// first round. Not thread-safe; one per observer.
class LoadStatsCalc {
 public:
  /// Ground truth: O(n) scan over load(r) for r in [0, n) plus three
  /// nth_element selections on a scratch copy.
  template <class LoadFn>
  LoadStats compute_scan(graph::Node n, double threshold, LoadFn&& load) {
    LoadStats s = sums(n, threshold, load);
    scratch_.resize(n);
    for (graph::Node r = 0; r < n; ++r) scratch_[r] = load(r);
    const auto pick = [this](std::size_t k) {
      const auto nth = scratch_.begin() + static_cast<std::ptrdiff_t>(k);
      std::nth_element(scratch_.begin(), nth, scratch_.end());
      return *nth;
    };
    if (n > 0) {
      s.p50 = pick(LoadStats::quantile_rank(0.50, n));
      s.p90 = pick(LoadStats::quantile_rank(0.90, n));
      s.p99 = pick(LoadStats::quantile_rank(0.99, n));
    }
    return s;
  }

  /// Index-served path: requires index.built() and ensure() since the last
  /// touch, with index.capacity() == n. Quantiles come from the bucket
  /// structure; max and the sums read the reconciled per-resource loads in
  /// the same ascending-r order as compute_scan, so the result is
  /// bit-identical to it.
  LoadStats compute_indexed(const LoadIndex& index, graph::Node n,
                            double threshold) {
    LoadStats s = sums(n, threshold,
                       [&index](graph::Node r) { return index.indexed_load(r); });
    if (n > 0) {
      ranks_ = {LoadStats::quantile_rank(0.50, n),
                LoadStats::quantile_rank(0.90, n),
                LoadStats::quantile_rank(0.99, n)};
      index.rank_values(ranks_, values_);
      s.p50 = values_[0];
      s.p90 = values_[1];
      s.p99 = values_[2];
    }
    return s;
  }

 private:
  template <class LoadFn>
  static LoadStats sums(graph::Node n, double threshold, LoadFn&& load) {
    LoadStats s;
    s.n = n;
    s.threshold = threshold;
    double sum = 0.0;
    for (graph::Node r = 0; r < n; ++r) {
      const double x = load(r);
      s.max_load = std::max(s.max_load, x);
      sum += x;
      if (x > threshold) {
        ++s.overloaded;
        s.overload_mass += x - threshold;
      }
    }
    s.mean_load = n > 0 ? sum / static_cast<double>(n) : 0.0;
    s.imbalance = s.mean_load > 0.0 ? s.max_load / s.mean_load : 0.0;
    return s;
  }

  std::vector<double> scratch_;       // compute_scan selection buffer
  std::vector<std::size_t> ranks_;    // compute_indexed rank list
  std::vector<double> values_;        // compute_indexed rank results
};

}  // namespace tlb::core
