// mem::BatchPlacer and mem::BatchScatter — the destination-bucketed bulk
// builds must produce stacks bitwise identical (order, loads, acceptance
// bookkeeping) to pushing the same tasks sequentially: in task-id order for
// a placement, in mover order for a scatter — for every placement
// generator, every arena shape and every threshold mode.
#include "tlb/mem/task_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tlb/core/system_state.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/parallel.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/util/thread_pool.hpp"

namespace tlb::mem {

/// Fabricates arena states no public operation reaches.
struct TaskArenaTestPeer {
  /// Hand out `slots` slab slots that no span owns, as if abandoned by
  /// relocations. Doubling growth never lets dead slots outnumber the
  /// reserved ones, so this is the only way to make the next grow compact.
  static void add_dead_slots(TaskArena& a, std::size_t slots) {
    a.used_ += slots;
    a.ids_.resize(a.used_);
    a.weights_.resize(a.used_);
  }
  /// Same, for the arena inside a SystemState (which hands out only a
  /// const view of it).
  static void add_dead_slots(const tlb::core::SystemState& s,
                             std::size_t slots) {
    add_dead_slots(const_cast<TaskArena&>(s.arena()), slots);
  }
  /// Book slots as if spans held them, without allocating any, so that the
  /// slab sits kMinCap - 1 slots below TaskArena::kMaxSlots and the next
  /// relocation throws. Returns the number booked. check_invariants() holds
  /// again only after release_phantom_slots().
  static std::size_t book_phantom_slots(TaskArena& a) {
    const std::size_t slots =
        TaskArena::kMaxSlots - (TaskArena::kMinCap - 1) - a.used_;
    a.used_ += slots;
    a.reserved_ += slots;
    return slots;
  }
  static void release_phantom_slots(TaskArena& a, std::size_t slots) {
    a.used_ -= slots;
    a.reserved_ -= slots;
  }
  /// Span capacity of r.
  static std::size_t cap(const TaskArena& a, Node r) { return a.cap_[r]; }
};

}  // namespace tlb::mem

namespace {

using tlb::core::Thresholds;
using tlb::graph::Node;
using tlb::mem::BatchPlacer;
using tlb::mem::BatchScatter;
using tlb::mem::TaskArena;
using tlb::tasks::Placement;
using tlb::tasks::TaskId;
using tlb::tasks::TaskSet;
using tlb::util::ThreadPool;

/// The pools the sharded passes run on, one per engine-thread count the
/// engines are checked at: none (one thread), 2, 4, 8 and hardware
/// concurrency workers.
class Pools {
 public:
  Pools() {
    for (const std::size_t threads : {2, 4, 8, 0}) {
      owned_.push_back(std::make_unique<ThreadPool>(threads));
      all_.push_back(owned_.back().get());
    }
  }
  const std::vector<ThreadPool*>& all() const { return all_; }
  static std::string name(const ThreadPool* pool) {
    return "pool=" + (pool == nullptr ? std::string("none")
                                      : std::to_string(pool->size()));
  }

 private:
  std::vector<std::unique_ptr<ThreadPool>> owned_;
  std::vector<ThreadPool*> all_{nullptr};
};

TaskSet make_tasks(std::size_t m, std::uint64_t seed) {
  tlb::util::Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + rng.uniform01() * 7.0;
  return TaskSet(std::move(w));
}

/// Sequential reference in task-id order: push, or push_accepting against
/// (*accept)[r] when `accept` is given.
void place_sequentially(TaskArena& arena, const TaskSet& ts,
                        const Placement& p, const Thresholds* accept) {
  for (TaskId i = 0; i < p.size(); ++i) {
    if (accept != nullptr) {
      arena.push_accepting(p[i], i, ts.weight(i), (*accept)[p[i]]);
    } else {
      arena.push(p[i], i, ts.weight(i));
    }
  }
}

void expect_identical(const TaskArena& batch, const TaskArena& seq, Node n,
                      const std::string& what) {
  ASSERT_EQ(batch.total_tasks(), seq.total_tasks()) << what;
  for (Node r = 0; r < n; ++r) {
    ASSERT_EQ(batch.count(r), seq.count(r)) << what << " resource " << r;
    ASSERT_EQ(batch.tasks(r), seq.tasks(r)) << what << " resource " << r;
    ASSERT_EQ(batch.load(r), seq.load(r)) << what << " resource " << r;
    ASSERT_EQ(batch.accepted_count(r), seq.accepted_count(r))
        << what << " resource " << r;
    ASSERT_EQ(batch.accepted_load(r), seq.accepted_load(r))
        << what << " resource " << r;
    for (std::size_t i = 0; i < batch.count(r); ++i) {
      ASSERT_EQ(batch.weights(r)[i], seq.weights(r)[i])
          << what << " resource " << r << " slot " << i;
    }
  }
  batch.check_invariants();
}

void check_all_modes(const TaskSet& ts, const Placement& p, Node n,
                     const std::string& what) {
  const double W = ts.total_weight();
  const double T = 1.2 * W / static_cast<double>(n);
  std::vector<double> per(n);
  for (Node r = 0; r < n; ++r) {
    per[r] = T * (0.5 + static_cast<double>(r % 5) * 0.25);
  }
  BatchPlacer placer;

  const Thresholds uniform = T;
  const Thresholds per_resource = per;

  {  // plain stacking
    TaskArena batch(n), seq(n);
    placer.place(batch, ts, p);
    place_sequentially(seq, ts, p, nullptr);
    expect_identical(batch, seq, n, what + "/plain");
  }
  {  // uniform acceptance threshold
    TaskArena batch(n), seq(n);
    placer.place(batch, ts, p, uniform);
    place_sequentially(seq, ts, p, &uniform);
    expect_identical(batch, seq, n, what + "/uniform");
  }
  {  // per-resource thresholds
    TaskArena batch(n), seq(n);
    placer.place(batch, ts, p, per_resource);
    place_sequentially(seq, ts, p, &per_resource);
    expect_identical(batch, seq, n, what + "/per-resource");
  }
  {  // re-place over a dirty arena (engine reset between trials)
    TaskArena batch(n);
    tlb::util::Rng scatter(99);
    for (TaskId i = 0; i < p.size(); ++i) {
      batch.push(static_cast<Node>(scatter.uniform_below(n)), i,
                 ts.weight(i));
    }
    TaskArena seq(n);
    placer.place(batch, ts, p, uniform);
    place_sequentially(seq, ts, p, &uniform);
    expect_identical(batch, seq, n, what + "/reused-arena");
  }
}

TEST(BatchPlacerTest, AllOnOne) {
  const TaskSet ts = make_tasks(503, 11);
  const Node n = 16;
  check_all_modes(ts, tlb::tasks::all_on_one(ts), n, "all_on_one");
  // Non-default target resource exercises the fast path away from r = 0.
  check_all_modes(ts, tlb::tasks::all_on_one(ts, 7), n, "all_on_one(7)");
}

TEST(BatchPlacerTest, UniformRandom) {
  const TaskSet ts = make_tasks(761, 12);
  const Node n = 32;
  tlb::util::Rng rng(5);
  check_all_modes(ts, tlb::tasks::uniform_random(ts, n, rng), n,
                  "uniform_random");
}

TEST(BatchPlacerTest, RoundRobin) {
  const TaskSet ts = make_tasks(640, 13);
  const Node n = 24;
  check_all_modes(ts, tlb::tasks::round_robin(ts, n, /*k=*/10), n,
                  "round_robin");
}

TEST(BatchPlacerTest, Observation8Adversarial) {
  const TaskSet ts = make_tasks(512, 14);
  const Node n = 17;  // clique-plus-satellite sizing
  check_all_modes(ts, tlb::tasks::observation8_adversarial(ts, n), n,
                  "observation8");
}

// ---------------------------------------------------------------------------
// BatchScatter
// ---------------------------------------------------------------------------

/// The three acceptance modes of a scatter.
enum class ScatterMode { kPlain, kUniform, kPerResource };

/// Sequential reference: push / push_accepting in mover order.
void scatter_sequentially(TaskArena& arena, const TaskSet& ts,
                          const std::vector<Node>& dst,
                          const std::vector<TaskId>& ids, ScatterMode mode,
                          double T, const std::vector<double>& per) {
  for (std::size_t i = 0; i < dst.size(); ++i) {
    const double w = ts.weight(ids[i]);
    switch (mode) {
      case ScatterMode::kPlain: arena.push(dst[i], ids[i], w); break;
      case ScatterMode::kUniform:
        arena.push_accepting(dst[i], ids[i], w, T);
        break;
      case ScatterMode::kPerResource:
        arena.push_accepting(dst[i], ids[i], w, per[dst[i]]);
        break;
    }
  }
}

/// Sequential reference of evict_scatter: evict_unaccepted over `from` in
/// order, then push_accepting of evictee j onto dst[j].
void evict_scatter_sequentially(TaskArena& arena, const TaskSet& ts,
                                const std::vector<Node>& from,
                                const std::vector<Node>& dst, ScatterMode mode,
                                double T, const std::vector<double>& per) {
  std::vector<TaskId> evictees;
  for (const Node r : from) arena.evict_unaccepted(r, evictees);
  ASSERT_EQ(evictees.size(), dst.size());
  scatter_sequentially(arena, ts, dst, evictees, mode, T, per);
}

/// The sorted distinct destinations of a batch.
std::vector<Node> distinct_of(const std::vector<Node>& dst) {
  const std::set<Node> distinct(dst.begin(), dst.end());
  return {distinct.begin(), distinct.end()};
}

/// Plain bulk scatter on `pool`; checks that the touched callback reports
/// every distinct destination exactly once.
void scatter_bulk(BatchScatter& scatter, TaskArena& arena, const TaskSet& ts,
                  const std::vector<Node>& dst, const std::vector<TaskId>& ids,
                  const std::string& what, ThreadPool* pool = nullptr) {
  std::vector<Node> touched;
  scatter.scatter(
      arena, ts, dst, ids, [&touched](Node r) { touched.push_back(r); }, pool);
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, distinct_of(dst)) << what << ": touched destinations";
}

/// evict_scatter in an accepting `mode`; checks that the evicted callback
/// reports `from` in order and the touched one every distinct destination
/// exactly once.
void evict_scatter_bulk(BatchScatter& scatter, TaskArena& arena,
                        const std::vector<Node>& from,
                        const std::vector<Node>& dst, ScatterMode mode,
                        double T, const std::vector<double>& per,
                        const std::string& what) {
  std::vector<Node> evicted, touched;
  const auto on_evicted = [&evicted](Node r) { evicted.push_back(r); };
  const auto on_touched = [&touched](Node r) { touched.push_back(r); };
  if (mode == ScatterMode::kUniform) {
    scatter.evict_scatter(arena, from, dst, T, on_evicted, on_touched);
  } else {
    scatter.evict_scatter(arena, from, dst, per, on_evicted, on_touched);
  }
  EXPECT_EQ(evicted, from) << what << ": evicted resources";
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(touched, distinct_of(dst)) << what << ": touched destinations";
}

/// An arena over n resources populated by a random push/removal trace:
/// spans relocated (dead slots between them) and holes (count < cap) left
/// by removals. `pool` receives every task id the trace left unplaced.
/// With `accept`, the pushes keep acceptance bookkeeping against
/// (*accept)[r], so stacks hold accepted prefixes and unaccepted suffixes.
/// Deterministic in `seed`, so two calls build identical arenas.
TaskArena populated_arena(Node n, const TaskSet& ts, std::uint64_t seed,
                          std::vector<TaskId>& pool,
                          const std::vector<double>* accept = nullptr) {
  tlb::util::Rng rng(seed);
  TaskArena arena(n);
  pool.clear();
  const std::size_t placed = ts.size() / 2;
  for (TaskId id = 0; id < ts.size(); ++id) {
    if (id < placed) {
      const auto r = static_cast<Node>(rng.uniform_below(n));
      if (accept != nullptr) {
        arena.push_accepting(r, id, ts.weight(id), (*accept)[r]);
      } else {
        arena.push(r, id, ts.weight(id));
      }
    } else {
      pool.push_back(id);
    }
  }
  std::vector<std::uint8_t> mask;
  for (Node r = 0; r < n; r += 3) {
    mask.assign(arena.count(r), 0);
    for (auto& bit : mask) bit = rng.bernoulli(0.4);
    arena.remove_marked(r, mask, pool);
  }
  return arena;
}

/// Acceptance thresholds that split spans: a uniform one near the mean
/// load and a per-resource spread around it.
std::pair<double, std::vector<double>> scatter_thresholds(const TaskSet& ts,
                                                          Node n) {
  const double T = 1.2 * ts.total_weight() / static_cast<double>(n);
  std::vector<double> per(n);
  for (Node r = 0; r < n; ++r) {
    per[r] = T * (0.5 + static_cast<double>(r % 5) * 0.25);
  }
  return {T, per};
}

/// Differential check of one plain batch over identical copies of an
/// arena.
void check_scatter(const TaskSet& ts, Node n, std::uint64_t seed,
                   const std::vector<Node>& dst,
                   const std::vector<TaskId>& ids, const std::string& what) {
  BatchScatter scatter;
  std::vector<TaskId> pool;
  TaskArena batch = populated_arena(n, ts, seed, pool);
  TaskArena seq = populated_arena(n, ts, seed, pool);
  scatter_bulk(scatter, batch, ts, dst, ids, what);
  scatter_sequentially(seq, ts, dst, ids, ScatterMode::kPlain, 0.0, {});
  expect_identical(batch, seq, n, what);
}

/// Differential check of evict_scatter over identical copies of an arena
/// populated with acceptance bookkeeping, in both accepting modes: evict
/// the unaccepted suffixes of `from` and send evictee j to
/// make_dst(#evictees)[j].
template <class MakeDst>
void check_evict_scatter(const TaskSet& ts, Node n, std::uint64_t seed,
                         const std::vector<Node>& from, MakeDst&& make_dst,
                         const std::string& what) {
  const auto [T, per] = scatter_thresholds(ts, n);
  BatchScatter scatter;
  for (const ScatterMode mode :
       {ScatterMode::kUniform, ScatterMode::kPerResource}) {
    const std::string label =
        what + "/mode" + std::to_string(static_cast<int>(mode));
    // Populate against a third of the scatter's thresholds, so that many
    // stacks carry an unaccepted suffix.
    std::vector<double> accept =
        mode == ScatterMode::kUniform ? std::vector<double>(n, T) : per;
    for (double& t : accept) t *= 0.3;
    std::vector<TaskId> unused;
    TaskArena batch = populated_arena(n, ts, seed, unused, &accept);
    TaskArena seq = populated_arena(n, ts, seed, unused, &accept);
    std::size_t evictees = 0;
    for (const Node r : from) {
      evictees += batch.count(r) - batch.accepted_count(r);
    }
    const std::vector<Node> dst = make_dst(evictees);
    evict_scatter_bulk(scatter, batch, from, dst, mode, T, per, label);
    evict_scatter_sequentially(seq, ts, from, dst, mode, T, per);
    expect_identical(batch, seq, n, label);
  }
}

/// Random movers: the pool of unplaced ids, shuffled, to uniform
/// destinations.
void random_movers(Node n, std::vector<TaskId> pool, std::uint64_t seed,
                   std::vector<Node>& dst, std::vector<TaskId>& ids) {
  tlb::util::Rng rng(seed);
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.uniform_below(i)]);
  }
  ids = std::move(pool);
  dst.resize(ids.size());
  for (Node& d : dst) d = static_cast<Node>(rng.uniform_below(n));
}

TEST(BatchScatterTest, RandomMoversOverPopulatedArenas) {
  const TaskSet ts = make_tasks(6000, 21);
  // Below, at and across block boundaries; 1000 and 300 are not multiples
  // of the block width.
  for (const Node n : {Node{7}, Node{256}, Node{300}, Node{1000}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string what =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      std::vector<TaskId> pool;
      (void)populated_arena(n, ts, seed, pool);
      std::vector<Node> dst;
      std::vector<TaskId> ids;
      random_movers(n, pool, seed * 31, dst, ids);
      check_scatter(ts, n, seed, dst, ids, what);
      // Two resources in three evict, some of them with nothing pending.
      std::vector<Node> from;
      for (Node r = 0; r < n; ++r) {
        if ((r + seed) % 3 != 0) from.push_back(r);
      }
      check_evict_scatter(
          ts, n, seed, from,
          [n, seed](std::size_t k) {
            tlb::util::Rng rng(seed * 37);
            std::vector<Node> out(k);
            for (Node& d : out) d = static_cast<Node>(rng.uniform_below(n));
            return out;
          },
          what + " evict");
    }
  }
}

TEST(BatchScatterTest, EmptyBatch) {
  const TaskSet ts = make_tasks(400, 22);
  check_scatter(ts, 300, 5, {}, {}, "empty");
  const auto none = [](std::size_t k) { return std::vector<Node>(k, 0); };
  check_evict_scatter(ts, 300, 5, {}, none, "empty evict");
}

TEST(BatchScatterTest, AllMoversToOneResource) {
  const TaskSet ts = make_tasks(3000, 23);
  const Node n = 300;
  std::vector<TaskId> pool;
  (void)populated_arena(n, ts, 6, pool);
  // The last resource of the partial last block, and resource 0.
  for (const Node target : {Node{n - 1}, Node{0}}) {
    const std::vector<Node> dst(pool.size(), target);
    check_scatter(ts, n, 6, dst, pool, "all-to-" + std::to_string(target));
    std::vector<Node> from;
    for (Node r = 0; r < n; ++r) {
      if (r != target) from.push_back(r);
    }
    check_evict_scatter(
        ts, n, 6, from,
        [target](std::size_t k) { return std::vector<Node>(k, target); },
        "evict-all-to-" + std::to_string(target));
  }
}

TEST(BatchScatterTest, CompactionInsideAGrowPassKeepsSpansSized) {
  // Block 0's first destination already has room for its arrivals; its
  // second needs to grow, and that grow compacts the slab — re-slacking the
  // first span below what its arrivals need. The scatter must size it
  // again before filling (the fill would otherwise overrun into the next
  // span). The evicting variant takes its 18 movers from resource 200's
  // stack, in block 0 too.
  const TaskSet ts = make_tasks(200, 24);
  const Node n = 300;
  const auto [T, per] = scatter_thresholds(ts, n);
  const Pools pools;
  const auto build = [&ts](TaskArena& arena, std::vector<TaskId>& freed,
                           bool evicting) {
    for (TaskId id = 0; id < 20; ++id) arena.push(5, id, ts.weight(id));
    for (TaskId id = 20; id < 28; ++id) arena.push(7, id, ts.weight(id));
    for (TaskId id = 28; id < 60; ++id) {
      arena.push(260 + id % 30, id, ts.weight(id));
    }
    std::vector<std::uint8_t> mask(20, 1);
    mask[0] = mask[1] = 0;  // resource 5 keeps 2 tasks in a 32-slot span
    arena.remove_marked(5, mask, freed);
    if (evicting) {
      for (const TaskId id : freed) arena.push(200, id, ts.weight(id));
    }
    tlb::mem::TaskArenaTestPeer::add_dead_slots(
        arena, arena.slab_size() + 4096);
  };
  std::vector<Node> dst(10, 5);      // fits resource 5's current span
  dst.insert(dst.end(), 5, 7);       // resource 7 is full: grow, compact
  dst.insert(dst.end(), 3, 299);     // block 1, the partial last block
  for (ThreadPool* pool : pools.all()) {
    const std::string label = "compaction/plain " + Pools::name(pool);
    TaskArena batch(n), seq(n);
    std::vector<TaskId> freed, unused;
    build(batch, freed, false);
    build(seq, unused, false);
    ASSERT_GE(batch.count(5) + 10, 12u);
    ASSERT_EQ(freed.size(), dst.size());
    const std::uint64_t compactions = batch.compactions();
    BatchScatter scatter;
    scatter_bulk(scatter, batch, ts, dst, freed, label, pool);
    EXPECT_EQ(batch.compactions(), compactions + 1) << label;
    scatter_sequentially(seq, ts, dst, freed, ScatterMode::kPlain, T, per);
    expect_identical(batch, seq, n, label);
  }
  for (const ScatterMode mode :
       {ScatterMode::kUniform, ScatterMode::kPerResource}) {
    const std::string label =
        "compaction/evict mode" + std::to_string(static_cast<int>(mode));
    TaskArena batch(n), seq(n);
    std::vector<TaskId> freed, unused;
    build(batch, freed, true);
    build(seq, unused, true);
    const std::vector<Node> from{200};
    ASSERT_EQ(batch.count(200) - batch.accepted_count(200), dst.size());
    const std::uint64_t compactions = batch.compactions();
    BatchScatter scatter;
    evict_scatter_bulk(scatter, batch, from, dst, mode, T, per, label);
    EXPECT_EQ(batch.compactions(), compactions + 1) << label;
    evict_scatter_sequentially(seq, ts, from, dst, mode, T, per);
    expect_identical(batch, seq, n, label);
  }
}

TEST(BatchScatterTest, ValidatesInputWithoutTouchingTheArena) {
  const TaskSet ts = make_tasks(8, 25);
  TaskArena arena(4);
  arena.push(1, 0, ts.weight(0));
  BatchScatter scatter;
  const auto ignore = [](Node) {};
  EXPECT_THROW(scatter.scatter(arena, ts, {0, 1}, {1}, ignore),
               std::invalid_argument);
  // The bad destination comes last: nothing before it may land either.
  EXPECT_THROW(scatter.scatter(arena, ts, {0, 1, 4}, {1, 2, 3}, ignore),
               std::invalid_argument);
  // evict_scatter: resource 1's one task is unaccepted. A repeated or
  // out-of-range list entry, a destination count other than the evictee
  // count, a bad destination and a short threshold vector all throw
  // before the eviction.
  const std::vector<Node> one{1};
  EXPECT_THROW(scatter.evict_scatter(arena, std::vector<Node>{1, 1}, {0}, 9.0,
                                     ignore, ignore),
               std::invalid_argument);
  EXPECT_THROW(scatter.evict_scatter(arena, std::vector<Node>{1, 4}, {0}, 9.0,
                                     ignore, ignore),
               std::invalid_argument);
  EXPECT_THROW(scatter.evict_scatter(arena, one, {0, 0}, 9.0, ignore, ignore),
               std::invalid_argument);
  EXPECT_THROW(scatter.evict_scatter(arena, one, {4}, 9.0, ignore, ignore),
               std::invalid_argument);
  EXPECT_THROW(scatter.evict_scatter(arena, one, {0},
                                     std::vector<double>(3, 9.0), ignore,
                                     ignore),
               std::invalid_argument);
  EXPECT_EQ(arena.total_tasks(), 1u);
  EXPECT_EQ(arena.count(0), 0u);
  EXPECT_EQ(arena.count(1), 1u);
  arena.check_invariants();
}

/// One round of the exact engine's phase 2 on `state`: the flat merge of
/// `mask` over the overloaded list, on coin shards of `grain` and `pool`.
/// Returns the movers; `origin` gets the resource each one left.
std::vector<TaskId> flat_merge(tlb::core::SystemState& state,
                               const std::vector<std::uint8_t>& mask,
                               std::size_t grain, ThreadPool* pool,
                               std::vector<Node>& origin) {
  const std::vector<Node> over = state.overloaded();
  std::vector<std::size_t> prefix{0};
  for (const Node r : over) {
    prefix.push_back(prefix.back() + state.arena().count(r));
  }
  std::vector<std::size_t> shard_movers(
      tlb::util::shard_count(mask.size(), grain) + 1, 0);
  for (std::size_t c = 0; c < mask.size(); ++c) {
    shard_movers[c / grain + 1] += mask[c];
  }
  for (std::size_t s = 1; s < shard_movers.size(); ++s) {
    shard_movers[s] += shard_movers[s - 1];
  }
  std::vector<TaskId> movers;
  state.remove_marked({over, prefix, mask, grain, shard_movers}, movers,
                      origin, pool);
  return movers;
}

/// The sequential reference for SystemState's bulk entry points: its own
/// arena, changed one stack operation at a time, and its own overloaded
/// tracker, which each operation marks dirty at the resource it touches —
/// the contract SystemState's mutators keep. Placement is the same
/// BatchPlacer call SystemState makes.
struct SequentialState {
  SequentialState(const TaskSet& tasks, Node n, Thresholds thresholds)
      : ts(&tasks), arena(n), thresholds(std::move(thresholds)) {
    tracker.reset(n);
    tracker.mark_all_dirty();  // as SystemState's constructor
  }
  void place(const Placement& p, bool accepting) {
    BatchPlacer placer;
    if (accepting) {
      placer.place(arena, *ts, p, thresholds);
    } else {
      placer.place(arena, *ts, p);
    }
    tracker.mark_all_dirty();
  }
  const std::vector<Node>& overloaded() {
    tracker.flush([this](Node r) { return arena.load(r) > thresholds[r]; });
    return tracker.items();
  }
  void push(Node r, TaskId id) {
    arena.push(r, id, ts->weight(id));
    tracker.mark_dirty(r);
  }
  void push_accepting(Node r, TaskId id) {
    arena.push_accepting(r, id, ts->weight(id), thresholds[r]);
    tracker.mark_dirty(r);
  }
  /// The reference of flat_merge: remove_marked per overloaded resource
  /// that has a mark, in list order.
  void merge(const std::vector<std::uint8_t>& mask) {
    std::size_t c = 0;
    for (const Node r : std::vector<Node>(overloaded())) {
      const std::size_t count = arena.count(r);
      const std::vector<std::uint8_t> leave(
          mask.begin() + static_cast<std::ptrdiff_t>(c),
          mask.begin() + static_cast<std::ptrdiff_t>(c + count));
      c += count;
      if (std::find(leave.begin(), leave.end(), 1) == leave.end()) continue;
      std::vector<TaskId> unused;
      arena.remove_marked(r, leave, unused);
      tracker.mark_dirty(r);
    }
  }

  const TaskSet* ts;
  TaskArena arena;
  Thresholds thresholds;
  tlb::core::OverloadedSet tracker;
};

/// Every SystemState-level observable equal to the reference's: the arena,
/// the tracker's work counters and the overloaded list.
void expect_same_state(const tlb::core::SystemState& bulk,
                       SequentialState& seq, Node n, const std::string& at) {
  expect_identical(bulk.arena(), seq.arena, n, at);
  const tlb::core::OverloadedSet& bt = bulk.overloaded_tracker();
  EXPECT_EQ(bt.dirty_marks(), seq.tracker.dirty_marks()) << at;
  EXPECT_EQ(bt.dirty_size(), seq.tracker.dirty_size()) << at;
  EXPECT_EQ(bulk.overloaded(), seq.overloaded()) << at;
  EXPECT_EQ(bt.flush_checks(), seq.tracker.flush_checks()) << at;
  ASSERT_NO_THROW(bulk.check_invariants()) << at;
}

TEST(BatchScatterTest, SystemStateMatchesSequentialPushes) {
  // The SystemState entry points on top: besides the arena, the tracker's
  // dirty_marks(), its flush_checks() and the overloaded() list must equal
  // what the sequential reference produces, which marks every resource it
  // touches dirty, one operation at a time. Plain legs: the exact engine's
  // round, merged on coin shards of 16 (so most stacks cross a shard
  // boundary) against removal per resource, then scattered against pushes
  // one at a time. Accepting legs: Algorithm 5.1's round, evict_scatter
  // against evicting every overloaded suffix in list order and then
  // push_accepting each evictee.
  const TaskSet ts = make_tasks(4000, 26);
  const Pools pools;
  for (ThreadPool* pool : pools.all()) {
  for (const Node n : {Node{40}, Node{700}}) {
    for (const bool accepting : {false, true}) {
      // evict_scatter runs on the caller: one pass is enough.
      if (accepting && pool != nullptr) continue;
      for (const bool per_resource : {false, true}) {
        const std::string label = "n=" + std::to_string(n) +
                                  (accepting ? " accepting" : " plain") +
                                  (per_resource ? " per-resource " : " ") +
                                  Pools::name(pool);
        const auto [T, per] = scatter_thresholds(ts, n);
        const Thresholds thresholds =
            per_resource ? Thresholds(per) : Thresholds(T);
        tlb::core::SystemState bulk(ts, n, thresholds);
        SequentialState seq(ts, n, thresholds);
        tlb::util::Rng rng(n);
        Placement p(ts.size());
        for (auto& r : p) r = static_cast<Node>(rng.uniform_below(n));
        if (accepting) {
          bulk.place_accepting(p);
        } else {
          bulk.place(p);
        }
        seq.place(p, accepting);
        for (int round = 0; round < 4; ++round) {
          if (accepting) {
            const std::vector<Node> over = seq.overloaded();
            ASSERT_EQ(over, bulk.overloaded()) << label;
            std::vector<TaskId> evictees;
            for (const Node r : over) {
              seq.arena.evict_unaccepted(r, evictees);
              seq.tracker.mark_dirty(r);
            }
            std::vector<Node> dst(evictees.size());
            for (Node& d : dst) d = static_cast<Node>(rng.uniform_below(n));
            bulk.evict_scatter(dst);
            for (std::size_t i = 0; i < dst.size(); ++i) {
              seq.push_accepting(dst[i], evictees[i]);
            }
          } else {
            // The exact engine's phase 1: mark random subsets of the
            // overloaded resources' stacks, merge, then scatter the movers.
            std::size_t coins = 0;
            for (const Node r : bulk.overloaded()) {
              coins += bulk.arena().count(r);
            }
            std::vector<std::uint8_t> mask(coins);
            for (auto& bit : mask) bit = rng.bernoulli(0.5) ? 1 : 0;
            std::vector<Node> origin;
            const std::vector<TaskId> movers =
                flat_merge(bulk, mask, 16, pool, origin);
            seq.merge(mask);
            std::vector<Node> dst(movers.size());
            for (Node& d : dst) d = static_cast<Node>(rng.uniform_below(n));
            bulk.scatter(dst, movers, pool);
            for (std::size_t i = 0; i < dst.size(); ++i) {
              seq.push(dst[i], movers[i]);
            }
          }
          expect_same_state(bulk, seq, n,
                            label + " round " + std::to_string(round));
        }
      }
    }
  }
  }
}

TEST(BatchScatterTest, ShardedRoundsWithACompactingScatterMatchEveryPool) {
  // The exact engine's shapes at a size where every pass has several
  // shards: 40000 tasks start on one resource, so the first merge runs one
  // stack over five coin shards of 8192 and the scatters move 10^4 tasks
  // over 16 destination blocks (two or more runs of kShardMovers). Before
  // the second round, dead slots make its grow pass compact the slab.
  const TaskSet ts = make_tasks(40000, 28);
  const Node n = 4096;
  const double T = 1.2 * ts.total_weight() / n;
  const Pools pools;
  std::vector<std::uint64_t> relocations, compactions;
  for (ThreadPool* pool : pools.all()) {
    const std::string label = Pools::name(pool);
    tlb::core::SystemState bulk(ts, n, T);
    SequentialState seq(ts, n, T);
    bulk.place(Placement(ts.size(), 0));
    seq.place(Placement(ts.size(), 0), /*accepting=*/false);
    tlb::util::Rng rng(17);
    for (int round = 0; round < 3; ++round) {
      if (round == 1) {
        tlb::mem::TaskArenaTestPeer::add_dead_slots(
            bulk, bulk.arena().slab_size() + 4096);
        tlb::mem::TaskArenaTestPeer::add_dead_slots(
            seq.arena, seq.arena.slab_size() + 4096);
      }
      std::size_t coins = 0;
      for (const Node r : bulk.overloaded()) coins += bulk.arena().count(r);
      std::vector<std::uint8_t> mask(coins);
      for (auto& bit : mask) bit = rng.bernoulli(0.5) ? 1 : 0;
      std::vector<Node> origin;
      const std::vector<TaskId> movers =
          flat_merge(bulk, mask, 8192, pool, origin);
      seq.merge(mask);
      std::vector<Node> dst(movers.size());
      for (Node& d : dst) d = static_cast<Node>(rng.uniform_below(n));
      const std::uint64_t before = bulk.arena().compactions();
      bulk.scatter(dst, movers, pool);
      for (std::size_t i = 0; i < dst.size(); ++i) seq.push(dst[i], movers[i]);
      const std::string at = label + " round " + std::to_string(round);
      if (round == 0) {
        ASSERT_GT(coins, 4 * 8192u) << at;
        ASSERT_GT(movers.size(), 2 * BatchScatter::kShardMovers) << at;
      }
      if (round == 1) {
        EXPECT_EQ(bulk.arena().compactions(), before + 1) << at;
      }
      expect_same_state(bulk, seq, n, at);
      EXPECT_EQ(bulk.arena().compactions(), seq.arena.compactions()) << at;
    }
    relocations.push_back(bulk.arena().relocations());
    compactions.push_back(bulk.arena().compactions());
  }
  for (std::size_t i = 1; i < relocations.size(); ++i) {
    EXPECT_EQ(relocations[i], relocations[0]) << "pool " << i;
    EXPECT_EQ(compactions[i], compactions[0]) << "pool " << i;
  }
}

TEST(BatchScatterTest, GrowAtTheSlotCapThrowsCleanly) {
  // Block 0's destinations have room already and block 1's need a grow,
  // which hits the 32-bit slab cap: the scatter must land no task, roll
  // block 0's counts back and keep no stale scratch, so that the next
  // scatter (after the cap is lifted again) is exact.
  const TaskSet ts = make_tasks(600, 29);
  const Node n = 600;
  std::vector<TaskId> pool;
  TaskArena arena = populated_arena(n, ts, 8, pool);
  TaskArena seq = populated_arena(n, ts, 8, pool);
  const TaskArena before = arena;
  using Peer = tlb::mem::TaskArenaTestPeer;
  std::vector<Node> roomy;  // block 0: room for two more tasks
  for (Node r = 0; r < BatchScatter::kBlockWidth && roomy.size() < 3; ++r) {
    if (arena.count(r) > 0 && Peer::cap(arena, r) >= arena.count(r) + 2) {
      roomy.push_back(r);
    }
  }
  ASSERT_EQ(roomy.size(), 3u);
  const Node full = BatchScatter::kBlockWidth + 7;  // block 1
  std::vector<Node> dst;
  for (int i = 0; i < 2; ++i) dst.insert(dst.end(), roomy.begin(), roomy.end());
  dst.insert(dst.end(), Peer::cap(arena, full) + 1, full);
  ASSERT_GE(pool.size(), dst.size());
  pool.resize(dst.size());

  BatchScatter scatter;
  const std::size_t phantom = Peer::book_phantom_slots(arena);
  EXPECT_THROW(scatter.scatter(arena, ts, dst, pool, [](Node) {}),
               std::length_error);
  Peer::release_phantom_slots(arena, phantom);
  ASSERT_NO_THROW(arena.check_invariants());
  expect_identical(arena, before, n, "after the throw");

  // The same batch again, now with room: exactly the sequential pushes.
  std::vector<Node> touched;
  scatter.scatter(arena, ts, dst, pool,
                  [&touched](Node r) { touched.push_back(r); });
  scatter_sequentially(seq, ts, dst, pool, ScatterMode::kPlain, 0.0, {});
  expect_identical(arena, seq, n, "after the retry");
  EXPECT_EQ(touched.size(), std::set<Node>(dst.begin(), dst.end()).size());
}

TEST(BatchScatterTest, EvictScatterGrowAtTheSlotCapKeepsTheEvictions) {
  // The evicting variant of the test above: block 1's destination needs a
  // grow at the slab cap. No evictee may land and block 0's count bumps
  // roll back, but the evictions stay done — and reported, so a
  // SystemState caller's dirty marks still cover them.
  const TaskSet ts = make_tasks(600, 29);
  const Node n = 600;
  std::vector<TaskId> pool;
  TaskArena arena = populated_arena(n, ts, 8, pool);
  TaskArena expected = populated_arena(n, ts, 8, pool);
  using Peer = tlb::mem::TaskArenaTestPeer;
  std::vector<Node> roomy;  // block 0: room for two more tasks
  for (Node r = 0; r < BatchScatter::kBlockWidth && roomy.size() < 3; ++r) {
    if (arena.count(r) > 0 && Peer::cap(arena, r) >= arena.count(r) + 2) {
      roomy.push_back(r);
    }
  }
  ASSERT_EQ(roomy.size(), 3u);
  const Node full = BatchScatter::kBlockWidth + 7;  // block 1
  // Plain pushes leave every task unaccepted: evict whole stacks from 300
  // on until there are enough movers for the roomy slots plus a grow.
  const std::size_t need = 2 * roomy.size() + Peer::cap(arena, full) + 1;
  std::vector<Node> from;
  std::size_t evictees = 0;
  for (Node r = 300; r < n && evictees < need; ++r) {
    if (arena.count(r) == 0) continue;
    from.push_back(r);
    evictees += arena.count(r);
  }
  ASSERT_GE(evictees, need);
  std::vector<Node> dst;
  for (int i = 0; i < 2; ++i) dst.insert(dst.end(), roomy.begin(), roomy.end());
  dst.resize(evictees, full);

  BatchScatter scatter;
  std::vector<Node> evicted, touched;
  const std::size_t phantom = Peer::book_phantom_slots(arena);
  EXPECT_THROW(scatter.evict_scatter(
                   arena, from, dst, 1e9,
                   [&evicted](Node r) { evicted.push_back(r); },
                   [&touched](Node r) { touched.push_back(r); }),
               std::length_error);
  Peer::release_phantom_slots(arena, phantom);
  ASSERT_NO_THROW(arena.check_invariants());
  std::vector<TaskId> gone;
  for (const Node r : from) expected.evict_unaccepted(r, gone);
  expect_identical(arena, expected, n, "after the throw");
  EXPECT_EQ(evicted, from);
  EXPECT_TRUE(touched.empty());
}

TEST(BatchPlacerTest, ValidatesInput) {
  const TaskSet ts = make_tasks(8, 15);
  TaskArena arena(4);
  BatchPlacer placer;
  Placement short_p(4, 0);
  EXPECT_THROW(placer.place(arena, ts, short_p), std::invalid_argument);
  Placement out_of_range(8, 9);
  EXPECT_THROW(placer.place(arena, ts, out_of_range), std::invalid_argument);
  Placement ok(8, 0);
  std::vector<double> wrong_size(3, 1.0);
  EXPECT_THROW(placer.place(arena, ts, ok, wrong_size), std::invalid_argument);
}

}  // namespace
