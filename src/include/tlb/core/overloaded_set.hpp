#pragma once
// Incremental overloaded-set bookkeeping.
//
// The paper's protocols (Algorithms 5.1 and 6.1) only ever act on
// *overloaded* resources, yet a naive engine rescans all n resources every
// round — so the long near-balanced tail costs as much per round as the
// first round. OverloadedSet makes the round loop O(#touched + #overloaded):
// mutations mark a resource dirty in O(1), and flush() reconciles only the
// dirty entries plus the current overloaded list against a caller-supplied
// predicate. This is the sparse active-set pattern standard in the
// power-of-d-choices literature (and already used ad hoc by the
// resource-controlled engine's old `is_active_` flags); it now lives in one
// reusable tracker shared by SystemState and the grouped/dynamic engines.
// The one O(n) path is deliberate: a threshold move made while over n/16
// resources are pending re-check sweeps them all (see shift_threshold()).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tlb/core/load_index.hpp"
#include "tlb/graph/graph.hpp"

namespace tlb::core {

/// Tracks { r : over(r) } incrementally. Callers mark a resource dirty
/// whenever anything that could change its overloaded status mutates (its
/// load, or its threshold), then flush() with the authoritative predicate
/// before reading. Between flushes the tracked list is stable, so it is safe
/// to iterate while marking new dirt (e.g. scattering movers mid-round).
///
/// Threshold moves: a changed *global* threshold can flip any resource, but
/// only the ones whose load lies between the old and the new value actually
/// flip. shift_threshold() picks one of two ways to re-check them, per
/// move, from the tracker's own state:
///   * sparse — while at most n/kDenseDivisor resources are pending
///     re-check, an embedded LoadIndex (loads bucketed geometrically, built
///     lazily) confines the invalidation to exactly that band, so the move
///     costs O(#band + #touched);
///   * dense — once more are pending, keeping the index current costs more
///     than the move itself. The index is marked stale (so mark_dirty's
///     feed into it becomes a predicted no-op) and the next flush() rebuilds
///     the list with one ascending pass over all n resources. The first
///     sparse move after a dense one rebuilds the index once.
/// Both ways leave the same sorted list, so every result is the same; only
/// the cost counters differ. This is the push/pull switch of
/// direction-optimizing BFS (Beamer et al., SC'12), cut on frontier size.
/// Engines that never move thresholds pay nothing: the index stays dormant.
class OverloadedSet {
 public:
  /// A threshold move goes dense when more than capacity()/kDenseDivisor
  /// resources are already pending re-check. On the churn workloads the
  /// sweep wins clearly at ~19% touched per round, the band at ~0.2%, and
  /// the two tie at ~2%, which stays on the band (README, "The bucketed
  /// load index", has the measurements).
  static constexpr std::size_t kDenseDivisor = 16;

  /// Reset to n resources, nothing overloaded, nothing dirty.
  void reset(graph::Node n) {
    in_list_.assign(n, 0);
    in_dirty_.assign(n, 0);
    list_.clear();
    dirty_.clear();
    sweep_ = false;
    index_.reset(n);
  }

  /// The single invalidation entry point for "the backing store was rebuilt
  /// from scratch" (bulk placement, engine reset): reset to n resources
  /// with every status pending re-check, and the load index stale.
  void rebuild(graph::Node n) {
    reset(n);
    mark_all_dirty();
  }

  /// O(1) amortised: remember that r's status must be re-checked. Also
  /// feeds the load index (when armed) — by the tracker contract every
  /// load mutation passes through here, so the index's pending queue sees
  /// every resource whose bucket may have moved.
  void mark_dirty(graph::Node r) {
    enqueue_dirty(r);
    index_.touch(r);
  }

  /// Invalidate every resource (O(n)) — used after bulk placement, where
  /// any status may have flipped. Also marks the load index stale: every
  /// load may have changed, so the next shift rebuilds it wholesale
  /// instead of replaying n touches.
  void mark_all_dirty() {
    dirty_.resize(in_dirty_.size());
    for (graph::Node r = 0; r < static_cast<graph::Node>(dirty_.size()); ++r) {
      dirty_[r] = r;
    }
    std::fill(in_dirty_.begin(), in_dirty_.end(), 1);
    dirty_marks_ += dirty_.size();
    index_.invalidate();
  }

  /// The tracked threshold moved from `from` to `to`: only resources whose
  /// load lies in (min, max] can flip when nothing else changed. `load` is
  /// the authoritative per-resource load (same source the flush predicate
  /// reads).
  ///
  /// Sparse (at most capacity()/kDenseDivisor pending): mark that band
  /// dirty through the load index, arming it on first use or after a dense
  /// move (one O(n) build); otherwise the move costs O(#touched since the
  /// last shift + #band). Dense (more pending, or a sweep already due):
  /// mark the index stale and leave the work to the next flush(), which
  /// sweeps all n resources. Either way the next flush() gives the list,
  /// order and query results mark_all_dirty() would have — only cheaper.
  template <class LoadFn>
  void shift_threshold(double from, double to, LoadFn&& load) {
    if (from == to) return;
    if (sweep_ || dirty_.size() > capacity() / kDenseDivisor) {
      sweep_ = true;
      index_.invalidate();
      return;
    }
    index_.ensure(load);
    const double lo = std::min(from, to);
    const double hi = std::max(from, to);
    index_.visit_band(lo, hi, [this](graph::Node r) { enqueue_dirty(r); });
  }

  /// Reconcile the tracked list with `over` (r -> bool). Cost is
  /// O(|dirty| + |list| + a log a) with a = #newly overloaded entries, O(1)
  /// when nothing was marked, and O(n) after a dense threshold move. The
  /// list is kept sorted ascending so iteration order (and hence RNG
  /// consumption order in the engines) is independent of mutation history.
  template <class OverFn>
  void flush(OverFn&& over) {
    if (sweep_) {
      sweep(over);
      return;
    }
    if (dirty_.empty()) return;
    // Drop stale entries first; the surviving prefix stays sorted.
    std::size_t keep = 0;
    for (graph::Node r : list_) {
      ++flush_checks_;
      if (over(r)) {
        list_[keep++] = r;
      } else {
        in_list_[r] = 0;
      }
    }
    list_.resize(keep);
    // Append newly overloaded dirty resources, then merge them in.
    for (graph::Node r : dirty_) {
      in_dirty_[r] = 0;
      if (!in_list_[r]) {
        ++flush_checks_;
        if (over(r)) {
          in_list_[r] = 1;
          list_.push_back(r);
        }
      }
    }
    dirty_.clear();
    if (list_.size() > keep) {
      std::sort(list_.begin() + static_cast<std::ptrdiff_t>(keep),
                list_.end());
      std::inplace_merge(list_.begin(),
                         list_.begin() + static_cast<std::ptrdiff_t>(keep),
                         list_.end());
    }
  }

  /// Paranoid-mode audit: reconcile, then compare the tracked list against
  /// a brute-force rescan of all n resources. Throws std::logic_error
  /// naming `who` on any divergence. O(n); shared by every engine's
  /// paranoid-check path so the verifier logic exists exactly once.
  template <class OverFn>
  void audit(graph::Node n, OverFn&& over, const char* who) {
    flush(over);
    std::size_t cursor = 0;
    for (graph::Node r = 0; r < n; ++r) {
      if (!over(r)) continue;
      if (cursor >= list_.size() || list_[cursor] != r) {
        throw std::logic_error(
            std::string(who) +
            ": incremental overloaded set is missing resource " +
            std::to_string(r));
      }
      ++cursor;
    }
    if (cursor != list_.size()) {
      throw std::logic_error(
          std::string(who) + ": incremental overloaded set has " +
          std::to_string(list_.size()) + " entries, brute force found " +
          std::to_string(cursor));
    }
  }

  /// The overloaded resources as of the last flush(), ascending.
  const std::vector<graph::Node>& items() const noexcept { return list_; }
  /// True iff nothing is pending re-check (the list is authoritative).
  bool clean() const noexcept { return !sweep_ && dirty_.empty(); }
  /// Number of resources tracked by reset().
  std::size_t capacity() const noexcept { return in_list_.size(); }
  /// Lifetime count of predicate evaluations performed by flush(). Tests
  /// use the delta across an operation to assert how much reconciliation it
  /// actually cost — e.g. that a quiet round (no mutations, unchanged
  /// threshold) does no rescan at all. Survives reset() deliberately.
  std::uint64_t flush_checks() const noexcept { return flush_checks_; }
  /// Lifetime count of dirty-set insertions (mark_dirty that actually
  /// enqueued + mark_all_dirty's bulk marks). The obs hooks export the
  /// per-round delta, giving a seed-deterministic measure of how much churn
  /// each round inflicted on the tracker. Survives reset() like
  /// flush_checks().
  std::uint64_t dirty_marks() const noexcept { return dirty_marks_; }
  /// Resources currently awaiting re-check (the pending dirty-set size).
  std::size_t dirty_size() const noexcept { return dirty_.size(); }
  /// Lifetime count of dense flushes (full sweeps after a dense threshold
  /// move). Survives reset() like flush_checks().
  std::uint64_t sweeps() const noexcept { return sweeps_; }
  /// The embedded bucketed load index (dormant until the first sparse
  /// shift_threshold, stale after a dense one). Exposes the deterministic
  /// cost counters the obs hooks export: band_size()/bucket_moves()/
  /// reconciled().
  const LoadIndex& load_index() const noexcept { return index_; }

  /// The index, reconciled and ready for distribution queries
  /// (rank_values/max_indexed_load/visit_buckets) — or nullptr while it is
  /// dormant or stale (callers then scan the loads). Never builds: engines
  /// that never shift a threshold, and dense rounds, keep paying nothing.
  /// Reconciling here only brings forward the exact pending-queue replay
  /// the next sparse shift_threshold would perform (`load` must be the same
  /// authoritative source), so which step a touch is reconciled on
  /// changes, but every touch is still reconciled exactly once —
  /// deterministic, RNG-free, value-neutral.
  template <class LoadFn>
  const LoadIndex* query_index(LoadFn&& load) {
    if (!index_.built()) return nullptr;
    index_.ensure(load);
    return &index_;
  }

 private:
  /// mark_dirty without the index feed — shift_threshold marks the band
  /// through this (the loads did not change, so re-bucketing would be a
  /// guaranteed no-op).
  void enqueue_dirty(graph::Node r) {
    if (!in_dirty_[r]) {
      in_dirty_[r] = 1;
      dirty_.push_back(r);
      ++dirty_marks_;
    }
  }

  /// The dense flush: rebuild the list from one read-only ascending pass
  /// over all n resources. It comes out sorted, exactly as the sparse
  /// flush leaves it. in_list_ is written for the old list and the new
  /// hits only; the pending queue (over n/kDenseDivisor entries) is
  /// dropped wholesale.
  template <class OverFn>
  void sweep(OverFn&& over) {
    for (const graph::Node r : list_) in_list_[r] = 0;
    list_.clear();
    const auto n = static_cast<graph::Node>(capacity());
    for (graph::Node r = 0; r < n; ++r) {
      if (over(r)) list_.push_back(r);
    }
    for (const graph::Node r : list_) in_list_[r] = 1;
    std::fill(in_dirty_.begin(), in_dirty_.end(), 0);
    dirty_.clear();
    flush_checks_ += n;
    ++sweeps_;
    sweep_ = false;
  }

  std::vector<graph::Node> list_;        // current overloaded set (sorted)
  std::vector<graph::Node> dirty_;       // resources awaiting re-check
  std::vector<std::uint8_t> in_list_;    // membership flag per resource
  std::vector<std::uint8_t> in_dirty_;   // dedup flag per resource
  bool sweep_ = false;                   // a dense move is pending flush
  std::uint64_t flush_checks_ = 0;       // predicate calls across flushes
  std::uint64_t dirty_marks_ = 0;        // dirty-set insertions (lifetime)
  std::uint64_t sweeps_ = 0;             // dense flushes (lifetime)
  LoadIndex index_;                      // band-limited threshold shifts
};

}  // namespace tlb::core
