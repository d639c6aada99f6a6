#pragma once
// tlb::mem — structure-of-arrays task storage for the whole system.
//
// The per-resource stack semantics of the paper (Sections 5 and 6) used to
// be stored as one std::vector<TaskId> per resource. At n = 10^6 that is a
// million tiny heap allocations, and both bulk placement and the first few
// rounds of every protocol are dominated by allocator traffic instead of
// the algorithm. TaskArena replaces that with flat storage:
//
//   ids_      [ .... resource 0 .... | slack | .. resource 5 .. | slack | .. ]
//   weights_  [ mirrored weight of ids_[k] at every slot k ................ ]
//
// plus per-resource span bookkeeping (begin/count/cap) and the acceptance
// aggregates (load, accepted prefix) the protocols need. Properties:
//
//  * One slab for all task ids, a second for the mirrored weights. Hot
//    loops (phi, eviction, marked removal) scan a contiguous span and never
//    indirect through the TaskSet.
//  * Amortised growth: a full span is relocated to the end of the slab with
//    2x capacity (never less than kMinCap). Relocation leaves a dead hole;
//    when dead slots outnumber the reserved ones the slab is compacted in
//    one O(live) pass, so total memory stays O(live tasks).
//  * BatchPlacer builds every span in two passes over a tasks::Placement
//    (counting sort by destination, then a contiguous fill in task-id
//    order), producing bit-identical stacks and acceptance bookkeeping to
//    pushing the tasks one by one.
//  * BatchScatter is its in-round counterpart: it appends a batch of
//    (destination, task) movers block by block of destinations, growing
//    each touched span once, to at least its final size, again
//    bit-identical to pushing the movers one by one in batch order.
//
// Invariants (checked by check_invariants(), exercised by the randomized
// differential test against a per-vector reference implementation):
//  * spans are disjoint, count <= cap, begin + cap <= slab size
//  * load(r) is the running sum of the span's mirrored weights, snapped
//    bitwise to accepted_load(r) by a full-suffix eviction
//  * the accepted prefix bookkeeping matches sequential push_accepting

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <ostream>
#include <type_traits>
#include <utility>
#include <vector>

#include "tlb/graph/graph.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"

namespace tlb::mem {

using graph::Node;
using tasks::TaskId;

namespace detail {

/// Allocator that default-initialises (i.e. leaves trivial types
/// uninitialised) on container resize. The slabs below are write-before-read
/// by construction — BatchPlacer fills exactly the slots it hands out — so
/// the value-initialisation memset std::vector would otherwise do per
/// resize is pure overhead at 10^7-task scale.
template <class T, class A = std::allocator<T>>
class DefaultInitAllocator : public A {
 public:
  template <class U>
  struct rebind {
    using other =
        DefaultInitAllocator<U, typename std::allocator_traits<
                                    A>::template rebind_alloc<U>>;
  };
  using A::A;

  template <class U>
  void construct(U* ptr) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(ptr)) U;
  }
  template <class U, class... Args>
  void construct(U* ptr, Args&&... args) {
    std::allocator_traits<A>::construct(static_cast<A&>(*this), ptr,
                                        std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Non-owning view of one resource's task ids, bottom of the stack first.
/// Valid until the next mutation of the owning arena.
class TaskSpan {
 public:
  using value_type = TaskId;

  TaskSpan() = default;
  TaskSpan(const TaskId* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  const TaskId* begin() const noexcept { return data_; }
  const TaskId* end() const noexcept { return data_ + size_; }
  const TaskId* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  TaskId operator[](std::size_t i) const noexcept { return data_[i]; }
  TaskId front() const noexcept { return data_[0]; }
  TaskId back() const noexcept { return data_[size_ - 1]; }

  std::vector<TaskId> to_vector() const { return {begin(), end()}; }

  friend bool operator==(const TaskSpan& a, const TaskSpan& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator==(const TaskSpan& a, const std::vector<TaskId>& b) {
    return a == TaskSpan(b.data(), b.size());
  }
  friend bool operator==(const std::vector<TaskId>& a, const TaskSpan& b) {
    return TaskSpan(a.data(), a.size()) == b;
  }

 private:
  const TaskId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// gtest-friendly failure output.
std::ostream& operator<<(std::ostream& os, const TaskSpan& span);

/// Flat SoA storage for every resource's stack. All mutating entry points
/// mirror core::ResourceStack's contracts exactly; ResourceStack is now a
/// (resource, arena) view over this class.
class TaskArena {
 public:
  /// Smallest capacity a non-empty span is ever given.
  static constexpr std::size_t kMinCap = 8;

  TaskArena() = default;
  /// Arena over n resources, all empty.
  explicit TaskArena(Node n) { reset(n); }

  /// Drop everything and re-shape to n resources.
  void reset(Node n);
  /// Hint the total number of tasks the slab should hold without growing.
  void reserve(std::size_t tasks);

  Node num_resources() const noexcept {
    return static_cast<Node>(count_.size());
  }
  /// Live (stored) tasks across all resources.
  std::size_t total_tasks() const noexcept { return live_; }

  // --- Per-resource accessors ----------------------------------------------

  std::size_t count(Node r) const noexcept { return count_[r]; }
  bool empty(Node r) const noexcept { return count_[r] == 0; }
  double load(Node r) const noexcept { return load_[r]; }
  double accepted_load(Node r) const noexcept { return accepted_load_[r]; }
  std::size_t accepted_count(Node r) const noexcept {
    return accepted_count_[r];
  }
  /// Hard cap on slab slots (32-bit span offsets keep the per-resource
  /// bookkeeping at 20 bytes — at 12 bytes per slot the cap corresponds to
  /// a ~48 GB slab, far beyond the scales this library targets).
  static constexpr std::size_t kMaxSlots = 0xffffffffULL;
  /// Task ids bottom-to-top (invalidated by any arena mutation).
  TaskSpan tasks(Node r) const noexcept {
    return {ids_.data() + begin_[r], count_[r]};
  }
  /// Mirrored weights parallel to tasks(r).
  const double* weights(Node r) const noexcept {
    return weights_.data() + begin_[r];
  }

  // --- Mutations (ResourceStack contracts) ---------------------------------

  /// Append a task of weight w (no acceptance bookkeeping).
  void push(Node r, TaskId id, double w);
  /// Append with the paper's acceptance rule: accepted iff every task below
  /// is accepted and load + w <= threshold. Returns true iff accepted.
  bool push_accepting(Node r, TaskId id, double w, double threshold);
  /// Remove the unaccepted suffix, appending evicted ids bottom-to-top.
  /// Snaps load(r) bitwise to accepted_load(r).
  void evict_unaccepted(Node r, std::vector<TaskId>& out);
  /// Height-based eviction of every task crossing or above `threshold`.
  void evict_above(Node r, double threshold, std::vector<TaskId>& out);
  /// Remove the flagged positions (leave[i] maps to span position i),
  /// preserving survivor order and recomputing the accepted prefix.
  /// Throws std::invalid_argument if the mask size mismatches count(r).
  void remove_marked(Node r, const std::vector<std::uint8_t>& leave,
                     std::vector<TaskId>& out);
  /// Same, with the mask given as a raw span — the engines' parallel
  /// phase-1 samplers mark all resources into one flat buffer and hand each
  /// resource its slice without copying.
  void remove_marked(Node r, const std::uint8_t* leave, std::size_t len,
                     std::vector<TaskId>& out);
  /// Empty one resource (keeps its span capacity for reuse).
  void clear(Node r) noexcept;
  /// Empty every resource, release nothing.
  void clear_all() noexcept;

  // --- Paper quantities ----------------------------------------------------

  /// Height (sum of weights below) of the task at span position pos.
  /// Throws std::out_of_range past the top.
  double height_at(Node r, std::size_t pos) const;
  /// User-protocol potential phi_r for the threshold (Section 6).
  double phi(Node r, double threshold) const noexcept;
  /// Observation 9's psi_r = ceil(phi_r / w_max).
  double psi(Node r, double threshold, double w_max) const noexcept;

  // --- Introspection (tests, perf counters) --------------------------------

  /// Current slab size in slots (live + slack + dead).
  std::size_t slab_size() const noexcept { return used_; }
  /// Slots lost to abandoned spans (reclaimed by the next compaction).
  std::size_t dead_slots() const noexcept { return used_ - reserved_; }
  /// Times a span was moved to the slab tail to grow.
  std::uint64_t relocations() const noexcept { return relocations_; }
  /// Times the whole slab was compacted.
  std::uint64_t compactions() const noexcept { return compactions_; }

  /// Structural self-check: span accounting, disjointness, load sums and
  /// acceptance bookkeeping. Throws std::logic_error on violation. O(n + m
  /// + n log n); tests and paranoid-check runs only.
  void check_invariants() const;

 private:
  friend class BatchPlacer;
  friend class BatchScatter;
  friend struct TaskArenaTestPeer;  // tests: states no public op reaches

  /// Grow r's span to hold at least min_cap slots, relocating it to the
  /// slab tail (compacting first when the dead space dominates).
  void grow(Node r, std::size_t min_cap);
  /// Repack every span contiguously, dropping dead slots and trimming
  /// oversized slack.
  void compact();

  template <class T>
  using Slab = std::vector<T, detail::DefaultInitAllocator<T>>;

  Slab<TaskId> ids_;      // slab: task ids
  Slab<double> weights_;  // slab: mirrored weights, parallel to ids_
  // 32-bit span bookkeeping (see kMaxSlots): five 4-byte arrays plus two
  // doubles is 36 bytes per resource, so the n = 10^6 reset and batch-place
  // passes touch half the memory 64-bit offsets would.
  std::vector<std::uint32_t> begin_;           // span start per resource
  std::vector<std::uint32_t> count_;           // live tasks per resource
  std::vector<std::uint32_t> cap_;             // span capacity per resource
  std::vector<double> load_;                   // sum of span weights
  std::vector<double> accepted_load_;          // accepted-prefix weight
  std::vector<std::uint32_t> accepted_count_;  // accepted-prefix length
  std::size_t used_ = 0;      // slots handed out (== slab size)
  std::size_t reserved_ = 0;  // slots inside current spans (sum of cap_)
  std::size_t live_ = 0;      // stored tasks (sum of count_)
  std::uint64_t relocations_ = 0;
  std::uint64_t compactions_ = 0;
};

/// Destination-bucketed bulk placement: builds every resource's span
/// contiguously in two passes over the placement (count, then fill in
/// task-id order). Produces exactly the stacks, loads and acceptance
/// bookkeeping that sequential push / push_accepting calls in task-id order
/// would, without m incremental span growths.
class BatchPlacer {
 public:
  BatchPlacer() = default;

  /// Plain stacking (user-controlled protocols): no acceptance bookkeeping.
  void place(TaskArena& arena, const tasks::TaskSet& ts,
             const tasks::Placement& placement);
  /// Uniform acceptance threshold; a negative threshold means plain
  /// stacking (the SystemState convention).
  void place(TaskArena& arena, const tasks::TaskSet& ts,
             const tasks::Placement& placement, double threshold);
  /// Per-resource acceptance thresholds; an empty vector means plain
  /// stacking. thresholds.size() must otherwise equal the resource count.
  void place(TaskArena& arena, const tasks::TaskSet& ts,
             const tasks::Placement& placement,
             const std::vector<double>& thresholds);

 private:
  enum class Mode { kPlain, kUniform, kPerResource };
  void build(TaskArena& arena, const tasks::TaskSet& ts,
             const tasks::Placement& placement, Mode mode, double threshold,
             const std::vector<double>* thresholds);

  std::vector<std::size_t> cursor_;  // scratch: next write slot per resource
};

/// Destination-bucketed bulk scatter, the in-round counterpart of
/// BatchPlacer: appends ids[i] to resource dst[i] for every i, producing
/// exactly the stacks, loads (bitwise) and acceptance bookkeeping that
/// push / push_accepting calls in index order would — every destination
/// still receives its tasks in index order — without paying several cache
/// misses per task. One stable pass buckets (destination, id, weight)
/// records by destination block of kBlockWidth resources; then, block by
/// block, the arrivals per resource are counted, each touched span is
/// grown once (to at least its final size, by TaskArena's growth rule)
/// and filled in record order.
///
/// Cost per call: O(k + n / kBlockWidth) for k movers, never O(n). The
/// only per-mover scratch is the record buffer, reused across calls.
class BatchScatter {
 public:
  /// Resources per destination block. A block's slices of the per-resource
  /// arrays (a few KB) and its freshly grown spans stay cache-resident
  /// while its records are filled. A constant, not a tuning knob.
  static constexpr Node kBlockWidth = 256;

  /// Plain stacking (user-controlled protocols). `on_touched(r)` is called
  /// exactly once per distinct destination, after r's span is filled, in
  /// block order (ascending block, first arrival within a block). Throws
  /// std::invalid_argument, leaving the arena untouched, when the sizes
  /// differ or a destination is out of range.
  template <class OnTouched>
  void scatter(TaskArena& arena, const tasks::TaskSet& ts,
               const std::vector<Node>& dst, const std::vector<TaskId>& ids,
               OnTouched&& on_touched) {
    run(arena, ts, dst, ids, {Mode::kPlain, 0.0, nullptr}, on_touched);
  }
  /// Acceptance bookkeeping against one uniform threshold; otherwise as
  /// above.
  template <class OnTouched>
  void scatter(TaskArena& arena, const tasks::TaskSet& ts,
               const std::vector<Node>& dst, const std::vector<TaskId>& ids,
               double threshold, OnTouched&& on_touched) {
    run(arena, ts, dst, ids, {Mode::kUniform, threshold, nullptr},
        on_touched);
  }
  /// Acceptance bookkeeping against per-resource thresholds
  /// (thresholds.size() must equal the resource count).
  template <class OnTouched>
  void scatter(TaskArena& arena, const tasks::TaskSet& ts,
               const std::vector<Node>& dst, const std::vector<TaskId>& ids,
               const std::vector<double>& thresholds, OnTouched&& on_touched) {
    run(arena, ts, dst, ids, {Mode::kPerResource, 0.0, &thresholds},
        on_touched);
  }

 private:
  enum class Mode { kPlain, kUniform, kPerResource };
  struct Rule {
    Mode mode;
    double threshold;                      // kUniform
    const std::vector<double>* thresholds;  // kPerResource
  };
  /// One mover, bucketed by destination block. Trivial on purpose: the
  /// buffer is resized without zero-filling, and bucket() writes every
  /// record before fill_block() reads it.
  struct Record {
    Node dst;
    TaskId id;
    double w;
  };

  template <class OnTouched>
  void run(TaskArena& arena, const tasks::TaskSet& ts,
           const std::vector<Node>& dst, const std::vector<TaskId>& ids,
           const Rule& rule, OnTouched& on_touched) {
    const std::size_t blocks = bucket(arena, ts, dst, ids, rule);
    std::size_t lo = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t hi = block_end_[b];
      if (lo == hi) continue;
      const std::size_t touched = fill_block(arena, lo, hi, rule);
      for (std::size_t t = 0; t < touched; ++t) on_touched(touched_[t]);
      lo = hi;
    }
  }
  /// Validate, then stably bucket the movers into records_ by destination
  /// block; block b ends up at [block_end_[b-1], block_end_[b]). Returns
  /// the number of blocks to visit (0 for an empty batch).
  std::size_t bucket(const TaskArena& arena, const tasks::TaskSet& ts,
                     const std::vector<Node>& dst,
                     const std::vector<TaskId>& ids, const Rule& rule);
  /// Append records_[lo, hi) (one block) to their spans; the block's
  /// distinct destinations land in touched_. Returns their number.
  std::size_t fill_block(TaskArena& arena, std::size_t lo, std::size_t hi,
                         const Rule& rule);

  std::vector<Record, detail::DefaultInitAllocator<Record>> records_;
  std::vector<std::size_t> block_end_;  // per block: end offset in records_
  std::array<std::uint32_t, kBlockWidth> arrivals_{};  // per block slot
  std::array<std::size_t, kBlockWidth> cursor_{};      // next write slot
  std::array<Node, kBlockWidth> touched_{};            // distinct dsts
};

}  // namespace tlb::mem
