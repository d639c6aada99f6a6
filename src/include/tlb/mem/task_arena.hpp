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
//    (destination, task) movers bucketed by block of destinations, growing
//    each touched span once, to at least its final size, again
//    bit-identical to pushing the movers one by one in batch order. Its
//    evict_scatter entry is the resource-controlled round: the movers are
//    the unaccepted suffixes of a list of stacks, bucketed straight from
//    their spans (ids and mirrored weights) as the stacks are evicted, and
//    they land with push_accepting's acceptance bookkeeping.
//  * The bulk remove_marked(FlatMarks) is the exact engine's merge: one
//    removal over a whole round's flat departure mask.
//  Both bulk passes shard over an optional util::ThreadPool (inline
//  without one). Shards write disjoint spans; everything whose result
//  depends on order (span growth, relocation, compaction, the load chain
//  of a stack two shards share) stays on the caller in batch order, so the
//  arena ends bit-identical for any pool size.
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
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "tlb/core/thresholds.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"

namespace tlb::util {
class ThreadPool;
}  // namespace tlb::util

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

/// One round's departure marks over a flat coin layout (the exact engine's
/// phase 1): coins [prefix[i], prefix[i+1]) are the stack positions of
/// resources[i], bottom first, and mask[c] == 1 marks coin c's task as
/// leaving (0 keeps it). Resources are strictly ascending (the overloaded
/// list). The coins are cut into shards of `grain`; shard_movers[s] is the
/// number of marked coins before shard s, so shard_movers.back() is the
/// number of movers — the sampler counts each shard's marks as it writes
/// them, which saves the bulk removal a counting pass.
struct FlatMarks {
  std::span<const Node> resources;
  std::span<const std::size_t> prefix;        ///< resources.size() + 1
  std::span<const std::uint8_t> mask;         ///< prefix.back() entries
  std::size_t grain = 1;                      ///< coins per shard
  std::span<const std::size_t> shard_movers;  ///< shards + 1 entries
};

/// Flat SoA storage for every resource's stack. Its mutators are the
/// paper's stack operations (core/resource_stack.hpp has the semantics);
/// core::ResourceStack is a read-only (arena, resource) view over it.
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

  // --- Mutations -----------------------------------------------------------

  /// Append a task of weight w (no acceptance bookkeeping).
  void push(Node r, TaskId id, double w);
  /// Append with the paper's acceptance rule: accepted iff every task below
  /// is accepted and load + w <= threshold. Returns true iff accepted.
  bool push_accepting(Node r, TaskId id, double w, double threshold);
  /// Remove the unaccepted suffix, appending evicted ids bottom-to-top.
  /// Snaps load(r) bitwise to accepted_load(r).
  void evict_unaccepted(Node r, std::vector<TaskId>& out);
  /// Height-based eviction of every task crossing or above `threshold`.
  /// Sets load(r) bitwise to the kept prefix's height, summed bottom up.
  void evict_above(Node r, double threshold, std::vector<TaskId>& out);
  /// Remove the flagged positions (leave[i] maps to span position i),
  /// preserving survivor order and recomputing the accepted prefix.
  /// Throws std::invalid_argument if the mask size mismatches count(r).
  void remove_marked(Node r, const std::vector<std::uint8_t>& leave,
                     std::vector<TaskId>& out);
  /// remove_marked for every resource of a flat layout at once. Mover j in
  /// coin order lands at ids[j] and the resource it left at origin[j]; both
  /// are resized to marks.shard_movers.back(). Every resource ends exactly
  /// as remove_marked(resources[i], its mask slice) leaves it (survivors in
  /// order, load decreased leaver by leaver in stack order, accepted prefix
  /// recomputed); a resource without a mark is not touched. Coin shard s
  /// is one task on `pool` (inline when null): it compacts the survivors of
  /// its slice of each span, writes its movers at shard_movers[s] onwards
  /// and finishes every stack that lies inside it. A stack crossing a shard
  /// boundary is finished on the caller: its slices are joined in shard
  /// order and its load chain runs over its movers' weights from `ts` (the
  /// mirrored ones are overwritten by then). Throws std::invalid_argument,
  /// touching nothing, when the layout does not match the stacks.
  void remove_marked(const FlatMarks& marks, const tasks::TaskSet& ts,
                     std::vector<TaskId>& ids, std::vector<Node>& origin,
                     util::ThreadPool* pool);
  /// Empty one resource (keeps its span capacity for reuse).
  void clear(Node r) noexcept;

  // --- Paper quantities ----------------------------------------------------

  /// Height (sum of weights below) of the task at span position pos.
  /// Throws std::out_of_range past the top.
  double height_at(Node r, std::size_t pos) const;
  /// User-protocol potential phi_r for the threshold (Section 6).
  double phi(Node r, double threshold) const noexcept;

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

  /// push_accepting's rule for the batch fills: the task of weight w just
  /// stored at span position pos of r, before r's load takes it, is
  /// accepted iff nothing unaccepted sits below and it fits entirely below
  /// `threshold`.
  void book_acceptance(Node r, std::size_t pos, double w,
                       double threshold) noexcept {
    if (accepted_count_[r] == pos && load_[r] + w <= threshold) {
      ++accepted_count_[r];
      accepted_load_[r] += w;
    }
  }
  /// Grow r's span to hold at least min_cap slots, relocating it to the
  /// slab tail (compacting first when the dead space dominates).
  void grow(Node r, std::size_t min_cap);
  /// relocate()'s result when compaction made room and r's span stayed
  /// (no span begins there: begins are below kMaxSlots).
  static constexpr std::uint32_t kStayed = 0xffffffffU;
  /// grow() without the copy: books r's new span at the slab tail and
  /// returns the abandoned span's begin, or kStayed. The caller then
  /// fit_slab()s and move_span()s the first count(r) slots over before
  /// anything reads r or compacts.
  std::uint32_t relocate(Node r, std::size_t min_cap);
  /// Size the slab vectors to the booked slots.
  void fit_slab();
  /// Copy `count` task slots from slab offset `from` to r's span.
  void move_span(Node r, std::size_t from, std::size_t count);
  /// Coin shard s, coins [lo, hi), of the flat remove_marked. Returns the
  /// number of marked coins it met; it writes at most the number its
  /// shard_movers entries promise.
  std::size_t remove_marked_shard(const FlatMarks& marks, std::size_t s,
                                  std::size_t lo, std::size_t hi,
                                  TaskId* ids, Node* origin);
  /// The caller's half for resources[i], whose coins cross a shard
  /// boundary: join its compacted slices, then chain its load and accepted
  /// prefix. `movers` are its leavers, in stack order.
  void finish_crossing(const FlatMarks& marks, std::size_t i,
                       const tasks::TaskSet& ts, const TaskId* movers);
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
  /// Stacking with push_accepting's acceptance bookkeeping against
  /// `thresholds`, which must fit the arena's resource count.
  void place(TaskArena& arena, const tasks::TaskSet& ts,
             const tasks::Placement& placement,
             const core::Thresholds& thresholds);

 private:
  /// Passes 1 and 2: validates the placement, then lays out every span
  /// with its count and zeroed loads. When every task goes to one
  /// resource, also fills that span (ids, weights and load) and returns
  /// true; the caller then only books its acceptance.
  bool layout(TaskArena& arena, const tasks::TaskSet& ts,
              const tasks::Placement& placement);
  /// Pass 3: fills every span in task-id order, which the stable counting
  /// sort makes the sequential push order. `accept(arena, r, pos, w)` runs
  /// for each task as in BatchScatter's fill.
  template <class Accept>
  void fill(TaskArena& arena, const tasks::TaskSet& ts,
            const tasks::Placement& placement, const Accept& accept);

  std::vector<std::size_t> cursor_;  // scratch: next write slot per resource
};

/// Destination-bucketed bulk scatter, the in-round counterpart of
/// BatchPlacer: appends ids[i] to resource dst[i] for every i, producing
/// exactly the stacks and loads (bitwise) that push calls in index order
/// would — every destination still receives its tasks in index order —
/// without paying several cache misses per task. evict_scatter() is the
/// resource-controlled protocol's variant: its movers are the unaccepted
/// suffixes of a list of stacks, and they land with push_accepting's
/// acceptance bookkeeping. Four passes:
///   1. bucket: (destination, id, weight) records are stably bucketed by
///      destination block of kBlockWidth resources (per-chunk block
///      counts, then block-major offsets); evict_scatter() writes them
///      straight from the evicted spans, mirrored weights included;
///   2. count: the arrivals per resource of every non-empty block;
///   3. grow: every touched span is grown once, to at least its final
///      size, in block order and first-arrival order within a block —
///      bookkeeping only, the relocated contents are copied by pass 4;
///   4. fill: every block's relocated spans are copied over, then its
///      records land in record order.
/// Passes 1, 2 and 4 are sharded over the optional pool (inline without
/// one): chunks of the batch in pass 1, runs of whole blocks holding about
/// kShardMovers records in passes 2 and 4, so a shard writes only its own
/// records, spans and loads. Pass 3 moves spans around the shared slab and
/// runs on the caller. Every grow precedes every fill, so a grow that
/// throws (std::length_error at the 32-bit slab cap) lands no task.
///
/// Cost per call: O(k + n / kBlockWidth) for k movers, never O(n). The
/// per-mover scratch is the record buffer, reused across calls.
class BatchScatter {
 public:
  /// Resources per destination block. A block's slices of the per-resource
  /// arrays (a few KB) and its spans stay cache-resident while its records
  /// are filled. A constant, not a tuning knob.
  static constexpr Node kBlockWidth = 256;
  /// Records per shard of the bucket, count and fill passes (a shard of
  /// the count and fill passes takes whole blocks until it holds at least
  /// this many). A batch below it runs as one inline shard, so tail rounds
  /// never wake the pool.
  static constexpr std::size_t kShardMovers = 8192;

  /// Plain stacking (user-controlled protocols). `on_touched(r)` is called
  /// on the caller exactly once per distinct destination, after every span
  /// is filled, in block order (ascending block, first arrival within a
  /// block). Throws std::invalid_argument, leaving the arena untouched,
  /// when the sizes differ or a destination is out of range; a
  /// std::length_error from a grow leaves every stack and load unchanged.
  template <class OnTouched>
  void scatter(TaskArena& arena, const tasks::TaskSet& ts,
               const std::vector<Node>& dst, const std::vector<TaskId>& ids,
               OnTouched&& on_touched, util::ThreadPool* pool = nullptr) {
    append(arena, ts, dst, ids, pool);
    report(on_touched);
  }
  /// Algorithm 5.1's evictions and arrivals in one pass over the evicted
  /// spans: evicts the unaccepted suffix of every resource of `from`
  /// (strictly ascending) and appends evictee j — list order, bottom to top
  /// within a stack — to dst[j] with acceptance bookkeeping against
  /// `thresholds`. Bit-identical to evict_unaccepted over `from` in order
  /// followed by push_accepting of evictee j onto dst[j] for j = 0, 1, ...
  /// Pass 1 is replaced: the destinations are counted per block, then each
  /// evictee's record {dst, id, mirrored weight} is written straight to
  /// its bucket slot and its stack is cut back to the accepted prefix (load
  /// snapped to the accepted load). `on_evicted(r)` is then called for
  /// every r of `from`, in list order; passes 2-4 and `on_touched` follow
  /// as in scatter(). Runs on the caller. Throws std::invalid_argument,
  /// leaving the arena untouched, when `thresholds` does not fit the
  /// arena, `from` is not strictly ascending in range, dst.size() is not
  /// the number of unaccepted tasks on `from`, or a destination is out of
  /// range. A std::length_error from a grow lands no task; the evictions
  /// stay, and were reported.
  template <class OnEvicted, class OnTouched>
  void evict_scatter(TaskArena& arena, std::span<const Node> from,
                     const std::vector<Node>& dst,
                     const core::Thresholds& thresholds,
                     OnEvicted&& on_evicted, OnTouched&& on_touched) {
    evict_bucket(arena, from, dst, thresholds);
    for (const Node r : from) on_evicted(r);
    spread_accepting(arena, thresholds);
    report(on_touched);
  }

 private:
  /// One mover, bucketed by destination block. Trivial on purpose: the
  /// buffer is resized without zero-filling, and the bucket pass writes
  /// every record before the count pass reads it.
  struct Record {
    Node dst;
    TaskId id;
    double w;
  };
  /// A non-empty destination block: its records, and its distinct
  /// destinations in first-arrival order with their arrival counts.
  struct Block {
    std::size_t rec_begin, rec_end;      // in records_
    std::size_t touch_begin, touch_end;  // in touched_ / arrivals_
  };

  /// Passes 1-4 (see the class comment).
  void append(TaskArena& arena, const tasks::TaskSet& ts,
              const std::vector<Node>& dst, const std::vector<TaskId>& ids,
              util::ThreadPool* pool);
  /// Pass 1, after validating the batch: records_ holds the movers stably
  /// bucketed by block, blocks_ the non-empty blocks and shard_begin_ the
  /// block runs of passes 2 and 4.
  void bucket(const TaskArena& arena, const tasks::TaskSet& ts,
              const std::vector<Node>& dst, const std::vector<TaskId>& ids,
              util::ThreadPool* pool);
  /// evict_scatter's pass 1: validates, counts the destinations per block,
  /// then writes every evictee's record to its bucket slot and evicts.
  void evict_bucket(TaskArena& arena, std::span<const Node> from,
                    const std::vector<Node>& dst,
                    const core::Thresholds& thresholds);
  /// Turns the per-(chunk, block) counts in chunk_offsets_ into each
  /// chunk's first record slot in each block (block-major, so bucketing in
  /// index order is stable) and lists blocks_, shard_begin_ and the
  /// per-block touched_ room.
  void list_blocks(std::size_t chunks, std::size_t blocks);
  /// Passes 2-4 over the bucketed records. Pass 4 calls
  /// `accept(arena, r, pos, w)` for every record as it lands at span
  /// position pos of r, after its id and weight are stored and before r's
  /// load takes w.
  template <class Accept>
  void spread(TaskArena& arena, util::ThreadPool* pool, const Accept& accept);
  /// evict_scatter's passes 2-4, landing with push_accepting's bookkeeping
  /// against `thresholds`: one fill loop, run through Thresholds::visit.
  void spread_accepting(TaskArena& arena, const core::Thresholds& thresholds);
  /// Pass 2 for blocks_[j].
  void count_block(std::size_t j);
  /// Pass 3. On a throw, rolls back the count bumps of the blocks already
  /// grown, does the span copies booked so far and rethrows.
  void grow_spans(TaskArena& arena);
  /// Pass 4 for blocks_[j].
  template <class Accept>
  void fill_block(TaskArena& arena, std::size_t j, const Accept& accept) const;

  template <class OnTouched>
  void report(OnTouched& on_touched) const {
    for (const Block& b : blocks_) {
      for (std::size_t t = b.touch_begin; t < b.touch_end; ++t) {
        on_touched(touched_[t]);
      }
    }
  }

  std::vector<Record, detail::DefaultInitAllocator<Record>> records_;
  std::vector<std::uint32_t> chunk_offsets_;  // per (chunk, block) cursor
  std::vector<Block> blocks_;                 // non-empty blocks, ascending
  std::vector<std::size_t> shard_begin_;      // first block of each shard
  std::vector<Node> touched_;                 // per block: distinct dsts
  std::vector<std::uint32_t> arrivals_;       // parallel to touched_
  std::vector<std::uint32_t> moved_from_;     // parallel: old span begin
};

}  // namespace tlb::mem
