#pragma once
// Bucketed load index: resources grouped by load value, so a *threshold*
// move can be reconciled against only the band of loads between the old and
// new value instead of invalidating all n resources.
//
// Motivation: the incremental OverloadedSet makes load mutations O(1), but a
// changed global threshold used to fall back to mark_all_dirty() — an O(n)
// rescan on the next flush. Under the dynamic/churn workloads the threshold
// is recomputed from the current total weight every round, so every round
// paid O(n) no matter how little actually moved. Self-learning thresholds
// (Goldsztajn–Borst) and concurrent re-thresholding (Hoefer–Sauerwald) have
// the same shape: thresholds drift continuously, loads change sparsely.
// Where many loads change between two moves, keeping the index current
// costs more than rescanning, and OverloadedSet sweeps instead (see
// OverloadedSet::kDenseDivisor).
//
// Layout: geometric buckets over the positive double range — one bucket per
// (binary octave × kSubBuckets linear slice), plus bucket 0 for load <= 0.
// bucket_of() is monotone in the load, so all loads inside the open-closed
// band (lo, hi] live in the contiguous bucket id range
// [bucket_of(lo), bucket_of(hi)]; interior buckets qualify wholesale and
// only the two boundary buckets need the exact per-resource load compare
// (visit_band() simply applies the compare everywhere — it is one branch on
// an already-loaded value).
//
// Maintenance is *lazy*: the index starts dormant and costs nothing until
// the first sparse threshold shift builds it (O(n) once). From then on,
// load mutations enqueue the resource on a deduplicated pending queue
// (touch(), O(1)) and the next band query first re-buckets only the pending
// entries (reconcile, O(#touched)). A bulk invalidation marks the whole
// index stale: a placement rebuild, which changes every load at once, or a
// dense threshold shift, where OverloadedSet sweeps all n resources
// instead of asking for the band. While stale, touch() is free; the next
// sparse shift rebuilds once instead of replaying the touches.
//
// Complexity (amortised, per sparse threshold shift): O(#touched since the
// last shift + #resources in the buckets overlapping the band), plus one
// O(n) build after each stretch of dense shifts.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tlb/graph/graph.hpp"

namespace tlb::core {

/// Geometric load→bucket index with a lazily reconciled pending queue.
/// Deterministic: bucket contents and visit order are pure functions of the
/// touch/build history, never of wall-clock or thread count.
class LoadIndex {
 public:
  /// Linear slices per binary octave. Finer slices shrink the boundary
  /// buckets a band visit must filter exactly (resolution ~1/kSubBuckets of
  /// the load value) at the cost of more (empty) buckets to skip.
  static constexpr int kSubBuckets = 16;
  /// Clamped binary exponent range. Loads are task-weight sums, so their
  /// exponents live comfortably inside [-kExpRange, kExpRange); clamping
  /// only coarsens bucketing at the unreachable extremes, never misplaces
  /// a load (bucket_of stays monotone).
  static constexpr int kExpRange = 512;
  /// Bucket 0 holds load <= 0; ids 1.. hold the geometric buckets.
  static constexpr std::int32_t kNumBuckets =
      1 + 2 * kExpRange * kSubBuckets;

  /// The bucket id of a load value. Monotone non-decreasing in `load`.
  static std::int32_t bucket_of(double load) noexcept {
    if (!(load > 0.0)) return 0;  // zero/negative (and NaN) park in bucket 0
    int e = std::ilogb(load);
    if (e < -kExpRange) return 1;
    if (e >= kExpRange) return kNumBuckets - 1;
    // Mantissa in [1, 2): which of the kSubBuckets linear slices?
    const double m = std::ldexp(load, -e);
    int sub = static_cast<int>((m - 1.0) * kSubBuckets);
    sub = std::clamp(sub, 0, kSubBuckets - 1);
    return 1 + (e + kExpRange) * kSubBuckets + sub;
  }

  /// Reset to n resources, dormant (no buckets built, nothing pending).
  void reset(graph::Node n);

  /// True once build() ran and no bulk invalidation happened since. While
  /// false, touch() is free: the next build reads every load anyway.
  bool built() const noexcept { return built_ && !stale_; }

  /// O(1): remember that r's load may have changed since the last
  /// reconcile. No-op while the index is dormant or stale.
  void touch(graph::Node r) {
    if (!built_ || stale_) return;
    if (!in_pending_[r]) {
      in_pending_[r] = 1;
      pending_.push_back(r);
    }
  }

  /// Every load may have changed at once (bulk placement rebuild), or the
  /// owner stops feeding touches (dense threshold shifts): drop the
  /// incremental state; the next ensure() rebuilds from scratch.
  void invalidate() noexcept { stale_ = true; }

  /// Build or repair the index so every bucket reflects load(r) exactly:
  /// full O(n) build when dormant/stale, O(#pending) re-bucketing
  /// otherwise. `load` is the authoritative load of a resource.
  template <class LoadFn>
  void ensure(LoadFn&& load) {
    if (!built_ || stale_) {
      build(load);
      return;
    }
    for (graph::Node r : pending_) {
      in_pending_[r] = 0;
      ++reconciled_;
      const double now = load(r);
      if (now == load_[r]) continue;
      load_[r] = now;
      const std::int32_t nb = bucket_of(now);
      if (nb != bucket_[r]) move_to_bucket(r, nb);
    }
    pending_.clear();
  }

  /// Visit every resource whose indexed load lies in (lo, hi], in bucket
  /// order (deterministic). Requires ensure() since the last touch — the
  /// stored loads are the values compared. Returns the number visited.
  /// Cost: O(#resources in the buckets overlapping the band) plus the
  /// (cheap, usually empty) scan over bucket ids in between.
  template <class Visit>
  std::size_t visit_band(double lo, double hi, Visit&& visit) {
    std::size_t visited = 0;
    const std::int32_t from = bucket_of(lo);
    const std::int32_t to = bucket_of(hi);
    for (std::int32_t b = from; b <= to; ++b) {
      for (const graph::Node r : buckets_[b]) {
        if (load_[r] > lo && load_[r] <= hi) {
          visit(r);
          ++visited;
        }
      }
    }
    band_size_ += visited;
    return visited;
  }

  // --- Read-only distribution queries (analytics) ---------------------
  //
  // All three require built() and ensure() since the last touch: they read
  // the indexed loads, which are only authoritative once reconciled. None
  // of them mutates the index or the lifetime counters — band_size() counts
  // threshold-shift work, not analytics reads.

  /// Visit the non-empty buckets in ascending bucket-id order — ascending
  /// load order up to the linear slice inside one bucket. `visit` receives
  /// (bucket_id, members); member order within a bucket is maintenance
  /// order, not load order.
  template <class Visit>
  void visit_buckets(Visit&& visit) const {
    if (buckets_.empty()) return;  // dormant: nothing indexed
    for (std::int32_t b = 0; b < kNumBuckets; ++b) {
      const auto& members = buckets_[static_cast<std::size_t>(b)];
      if (!members.empty()) visit(b, members);
    }
  }

  /// Exact order statistics: out[i] = the ranks[i]-th smallest indexed load
  /// (0-based; ranks ascending, each < capacity()). One bucket walk finds
  /// the bucket each rank lands in; an nth_element inside that bucket picks
  /// the exact value — the same double a full sort would put at that rank.
  /// Cost O(#buckets + Σ |hit buckets|) versus the O(n log n) sort, the win
  /// that makes per-round quantile snapshots affordable at n = 10^6.
  /// Throws std::out_of_range on an unsorted or out-of-range rank list.
  void rank_values(const std::vector<std::size_t>& ranks,
                   std::vector<double>& out) const;

  /// Largest indexed load (0.0 when empty): first member scan of the top
  /// non-empty bucket. O(#buckets + |top bucket|) — serves max_load() in
  /// O(#buckets) instead of an O(n) scan while the index is live.
  [[nodiscard]] double max_indexed_load() const;

  /// Number of resources tracked by reset().
  std::size_t capacity() const noexcept { return n_; }
  /// Resources currently queued for re-bucketing.
  std::size_t pending_size() const noexcept { return pending_.size(); }
  /// The indexed load of r (valid while built(); tests/debugging).
  double indexed_load(graph::Node r) const noexcept { return load_[r]; }

  // --- Deterministic lifetime cost counters (survive reset(), like
  // OverloadedSet::flush_checks(): tests and the obs hooks export deltas).

  /// Resources a band visit yielded (= dirty marks a threshold shift
  /// inflicted). The o(n)-per-changed-round acceptance number.
  std::uint64_t band_size() const noexcept { return band_size_; }
  /// Bucket-to-bucket moves performed by reconciliation.
  std::uint64_t bucket_moves() const noexcept { return bucket_moves_; }
  /// Pending entries processed by ensure() (touched-load re-checks).
  std::uint64_t reconciled() const noexcept { return reconciled_; }
  /// Full O(n) builds performed (dormant or stale ensure() calls).
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  template <class LoadFn>
  void build(LoadFn&& load) {
    if (buckets_.empty()) {
      buckets_.resize(static_cast<std::size_t>(kNumBuckets));
    } else {
      // Clear via the occupied buckets only (capacity kept for reuse).
      for (graph::Node r = 0; r < n_; ++r) buckets_[bucket_[r]].clear();
    }
    bucket_.resize(n_);
    pos_.resize(n_);
    load_.resize(n_);
    in_pending_.assign(n_, 0);
    pending_.clear();
    for (graph::Node r = 0; r < n_; ++r) {
      const double now = load(r);
      load_[r] = now;
      const std::int32_t b = bucket_of(now);
      bucket_[r] = b;
      pos_[r] = static_cast<std::uint32_t>(buckets_[b].size());
      buckets_[b].push_back(r);
    }
    built_ = true;
    stale_ = false;
    ++rebuilds_;
  }

  /// Swap-pop r out of its current bucket and append it to `nb`. O(1).
  void move_to_bucket(graph::Node r, std::int32_t nb);

  graph::Node n_ = 0;
  bool built_ = false;  ///< buckets were built at least once
  bool stale_ = false;  ///< bulk invalidation since the last build
  std::vector<std::int32_t> bucket_;       // per-resource bucket id
  std::vector<std::uint32_t> pos_;         // position inside that bucket
  std::vector<double> load_;               // load as of the last reconcile
  std::vector<std::vector<graph::Node>> buckets_;  // bucket id -> members
  std::vector<graph::Node> pending_;       // touched since last reconcile
  std::vector<std::uint8_t> in_pending_;   // dedup flag per resource
  mutable std::vector<double> select_scratch_;  // rank_values nth_element buf
  std::uint64_t band_size_ = 0;            // lifetime band-visit yield
  std::uint64_t bucket_moves_ = 0;         // lifetime bucket moves
  std::uint64_t reconciled_ = 0;           // lifetime pending re-checks
  std::uint64_t rebuilds_ = 0;             // lifetime full builds
};

}  // namespace tlb::core
