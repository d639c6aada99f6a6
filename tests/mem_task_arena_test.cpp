// tlb::mem::TaskArena — unit tests plus the randomized differential test:
// the arena-backed stacks and a reference per-vector implementation (the
// pre-arena ResourceStack, reproduced below) are driven through identical
// op traces and must agree on loads, orders and acceptance bookkeeping at
// every step.
#include "tlb/mem/task_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "tlb/tasks/task_set.hpp"
#include "tlb/util/parallel.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/util/thread_pool.hpp"

namespace {

using tlb::graph::Node;
using tlb::mem::FlatMarks;
using tlb::mem::TaskArena;
using tlb::mem::TaskSpan;
using tlb::tasks::TaskId;
using tlb::tasks::TaskSet;

// ---------------------------------------------------------------------------
// Reference implementation: one std::vector per resource, the storage the
// arena replaced. Semantics transcribed from the pre-arena ResourceStack.
// ---------------------------------------------------------------------------

class RefStack {
 public:
  double load() const { return load_; }
  std::size_t count() const { return stack_.size(); }
  const std::vector<TaskId>& tasks() const { return stack_; }
  double accepted_load() const { return accepted_load_; }
  std::size_t accepted_count() const { return accepted_count_; }

  void push(TaskId id, const TaskSet& ts) {
    stack_.push_back(id);
    load_ += ts.weight(id);
  }

  bool push_accepting(TaskId id, const TaskSet& ts, double threshold) {
    const double w = ts.weight(id);
    const bool accept =
        (accepted_count_ == stack_.size()) && (load_ + w <= threshold);
    stack_.push_back(id);
    load_ += w;
    if (accept) {
      ++accepted_count_;
      accepted_load_ += w;
    }
    return accept;
  }

  void evict_unaccepted(std::vector<TaskId>& out) {
    for (std::size_t i = accepted_count_; i < stack_.size(); ++i) {
      out.push_back(stack_[i]);
    }
    stack_.resize(accepted_count_);
    load_ = accepted_load_;
  }

  void evict_above(const TaskSet& ts, double threshold,
                   std::vector<TaskId>& out) {
    double h = 0.0;
    std::size_t keep = 0;
    while (keep < stack_.size()) {
      const double w = ts.weight(stack_[keep]);
      if (h + w > threshold) break;
      h += w;
      ++keep;
    }
    for (std::size_t i = keep; i < stack_.size(); ++i) out.push_back(stack_[i]);
    stack_.resize(keep);
    load_ = h;
    accepted_count_ = std::min(accepted_count_, keep);
    accepted_load_ = std::min(accepted_load_, load_);
  }

  void remove_marked(const std::vector<std::uint8_t>& leave, const TaskSet& ts,
                     std::vector<TaskId>& out) {
    std::size_t keep = 0;
    std::size_t accepted_kept = 0;
    double accepted_load_kept = 0.0;
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      if (leave[i]) {
        out.push_back(stack_[i]);
        load_ -= ts.weight(stack_[i]);
      } else {
        if (i < accepted_count_) {
          ++accepted_kept;
          accepted_load_kept += ts.weight(stack_[i]);
        }
        stack_[keep++] = stack_[i];
      }
    }
    stack_.resize(keep);
    accepted_count_ = accepted_kept;
    accepted_load_ = accepted_load_kept;
  }

  double phi(const TaskSet& ts, double threshold) const {
    if (load_ <= threshold) return 0.0;
    double h = 0.0;
    for (TaskId id : stack_) {
      const double w = ts.weight(id);
      if (h + w > threshold) break;
      h += w;
    }
    return load_ - h;
  }

  void clear() {
    stack_.clear();
    load_ = 0.0;
    accepted_load_ = 0.0;
    accepted_count_ = 0;
  }

 private:
  std::vector<TaskId> stack_;
  double load_ = 0.0;
  double accepted_load_ = 0.0;
  std::size_t accepted_count_ = 0;
};

// ---------------------------------------------------------------------------
// Unit tests
// ---------------------------------------------------------------------------

TEST(TaskArenaTest, StartsEmpty) {
  TaskArena arena(4);
  EXPECT_EQ(arena.num_resources(), 4u);
  EXPECT_EQ(arena.total_tasks(), 0u);
  for (Node r = 0; r < 4; ++r) {
    EXPECT_TRUE(arena.empty(r));
    EXPECT_DOUBLE_EQ(arena.load(r), 0.0);
    EXPECT_TRUE(arena.tasks(r).empty());
  }
  arena.check_invariants();
}

TEST(TaskArenaTest, PushGrowsSpansIndependently) {
  TaskArena arena(3);
  for (TaskId i = 0; i < 100; ++i) arena.push(i % 3, i, 1.0 + i);
  EXPECT_EQ(arena.total_tasks(), 100u);
  EXPECT_EQ(arena.count(0), 34u);
  EXPECT_EQ(arena.count(1), 33u);
  EXPECT_EQ(arena.count(2), 33u);
  // Bottom-to-top order is arrival order.
  EXPECT_EQ(arena.tasks(0)[0], 0u);
  EXPECT_EQ(arena.tasks(0)[1], 3u);
  // Mirrored weights parallel the ids.
  EXPECT_DOUBLE_EQ(arena.weights(1)[0], 2.0);
  arena.check_invariants();
}

TEST(TaskArenaTest, RelocationPreservesOrderAndTriggersCompaction) {
  TaskArena arena(2);
  // Interleave pushes so both spans relocate repeatedly.
  for (TaskId i = 0; i < 5000; ++i) arena.push(i % 2, i, 1.0);
  EXPECT_GT(arena.relocations(), 0u);
  for (std::size_t i = 1; i < arena.count(0); ++i) {
    EXPECT_LT(arena.tasks(0)[i - 1], arena.tasks(0)[i]);
  }
  arena.check_invariants();
  // Dead slots stay bounded by the live data (compaction keeps memory
  // O(live)): after heavy relocation churn the slab is not mostly garbage.
  EXPECT_LE(arena.dead_slots(), arena.slab_size());
}

TEST(TaskArenaTest, ClearKeepsCapacityAndDropsTasks) {
  TaskArena arena(2);
  for (TaskId i = 0; i < 64; ++i) arena.push(0, i, 2.0);
  const std::size_t slab = arena.slab_size();
  arena.clear(0);
  EXPECT_EQ(arena.count(0), 0u);
  EXPECT_DOUBLE_EQ(arena.load(0), 0.0);
  EXPECT_EQ(arena.slab_size(), slab);  // capacity retained for reuse
  arena.check_invariants();
}

TEST(TaskArenaTest, SpanComparesAgainstVectors) {
  TaskArena arena(1);
  arena.push(0, 7, 1.0);
  arena.push(0, 9, 1.0);
  EXPECT_EQ(arena.tasks(0), (std::vector<TaskId>{7, 9}));
  EXPECT_EQ((std::vector<TaskId>{7, 9}), arena.tasks(0));
  EXPECT_FALSE(arena.tasks(0) == (std::vector<TaskId>{7}));
  EXPECT_EQ(arena.tasks(0).to_vector(), (std::vector<TaskId>{7, 9}));
}

TEST(TaskArenaTest, ResetReshapes) {
  TaskArena arena(2);
  arena.push(0, 0, 1.0);
  arena.reset(5);
  EXPECT_EQ(arena.num_resources(), 5u);
  EXPECT_EQ(arena.total_tasks(), 0u);
  EXPECT_EQ(arena.slab_size(), 0u);
  arena.check_invariants();
}

// ---------------------------------------------------------------------------
// Randomized differential test
// ---------------------------------------------------------------------------

/// Drive `arena` and per-resource RefStacks through one random op trace and
/// compare the full state after every mutation batch.
void run_differential_trace(std::uint64_t seed, Node n, std::size_t m,
                            int steps) {
  tlb::util::Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + rng.uniform01() * 9.0;
  const TaskSet ts(std::move(w));
  const double T = 1.5 * ts.total_weight() / static_cast<double>(n);

  TaskArena arena(n);
  std::vector<RefStack> ref(n);

  // Tasks not currently stored anywhere (initially: everyone).
  std::vector<TaskId> pool(m);
  for (TaskId i = 0; i < m; ++i) pool[i] = i;

  const auto compare_all = [&] {
    ASSERT_EQ(arena.total_tasks(), m - pool.size());
    for (Node r = 0; r < n; ++r) {
      ASSERT_EQ(arena.count(r), ref[r].count()) << "resource " << r;
      ASSERT_EQ(arena.tasks(r), ref[r].tasks()) << "resource " << r;
      // Loads must agree bitwise: both sides apply the same FP ops in the
      // same order (including the evict_unaccepted and evict_above load
      // snaps).
      ASSERT_EQ(arena.load(r), ref[r].load()) << "resource " << r;
      ASSERT_EQ(arena.accepted_count(r), ref[r].accepted_count())
          << "resource " << r;
      ASSERT_EQ(arena.accepted_load(r), ref[r].accepted_load())
          << "resource " << r;
      ASSERT_EQ(arena.phi(r, T), ref[r].phi(ts, T)) << "resource " << r;
    }
    arena.check_invariants();
  };

  for (int step = 0; step < steps; ++step) {
    const auto r = static_cast<Node>(rng.uniform_below(n));
    switch (rng.uniform_below(6)) {
      case 0:
      case 1: {  // push a burst of free tasks (plain)
        const std::size_t burst = 1 + rng.uniform_below(8);
        for (std::size_t k = 0; k < burst && !pool.empty(); ++k) {
          const std::size_t pick = rng.uniform_below(pool.size());
          const TaskId id = pool[pick];
          pool[pick] = pool.back();
          pool.pop_back();
          arena.push(r, id, ts.weight(id));
          ref[r].push(id, ts);
        }
        break;
      }
      case 2: {  // push a burst with acceptance bookkeeping
        const std::size_t burst = 1 + rng.uniform_below(8);
        for (std::size_t k = 0; k < burst && !pool.empty(); ++k) {
          const std::size_t pick = rng.uniform_below(pool.size());
          const TaskId id = pool[pick];
          pool[pick] = pool.back();
          pool.pop_back();
          const bool a = arena.push_accepting(r, id, ts.weight(id), T);
          const bool b = ref[r].push_accepting(id, ts, T);
          ASSERT_EQ(a, b);
        }
        break;
      }
      case 3: {  // evict the unaccepted suffix
        std::vector<TaskId> out_a, out_b;
        arena.evict_unaccepted(r, out_a);
        ref[r].evict_unaccepted(out_b);
        ASSERT_EQ(out_a, out_b);
        pool.insert(pool.end(), out_a.begin(), out_a.end());
        break;
      }
      case 4: {  // height-based eviction
        std::vector<TaskId> out_a, out_b;
        arena.evict_above(r, T, out_a);
        ref[r].evict_above(ts, T, out_b);
        ASSERT_EQ(out_a, out_b);
        pool.insert(pool.end(), out_a.begin(), out_a.end());
        break;
      }
      case 5: {  // remove a random marked subset
        std::vector<std::uint8_t> leave(ref[r].count());
        for (auto& bit : leave) bit = rng.bernoulli(0.4) ? 1 : 0;
        std::vector<TaskId> out_a, out_b;
        arena.remove_marked(r, leave, out_a);
        ref[r].remove_marked(leave, ts, out_b);
        ASSERT_EQ(out_a, out_b);
        pool.insert(pool.end(), out_a.begin(), out_a.end());
        break;
      }
    }
    if (step % 16 == 0) compare_all();
  }
  compare_all();
}

TEST(TaskArenaDifferentialTest, SmallDenseTrace) {
  run_differential_trace(/*seed=*/1, /*n=*/4, /*m=*/64, /*steps=*/2000);
}

TEST(TaskArenaDifferentialTest, ManyResourcesSparseTrace) {
  run_differential_trace(/*seed=*/2, /*n=*/64, /*m=*/512, /*steps=*/4000);
}

TEST(TaskArenaDifferentialTest, RelocationHeavyTrace) {
  // Few resources, many tasks: spans grow, relocate and compact repeatedly.
  run_differential_trace(/*seed=*/3, /*n=*/3, /*m=*/2048, /*steps=*/3000);
}

TEST(TaskArenaDifferentialTest, SeedSweep) {
  for (std::uint64_t seed = 10; seed < 18; ++seed) {
    run_differential_trace(seed, /*n=*/8, /*m=*/128, /*steps=*/800);
  }
}

TEST(TaskArenaTest, RemoveMarkedValidatesMaskSize) {
  TaskArena arena(1);
  arena.push(0, 0, 1.0);
  std::vector<TaskId> out;
  EXPECT_THROW(arena.remove_marked(0, {1, 0}, out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Flat remove_marked: the exact engine's sharded merge
// ---------------------------------------------------------------------------

/// Identical arenas: stacks, mirrored weights, loads and acceptance
/// bookkeeping bitwise equal, and the same span accounting.
void expect_same_arena(const TaskArena& a, const TaskArena& b,
                       const std::string& what) {
  ASSERT_EQ(a.num_resources(), b.num_resources()) << what;
  ASSERT_EQ(a.total_tasks(), b.total_tasks()) << what;
  for (Node r = 0; r < a.num_resources(); ++r) {
    ASSERT_EQ(a.tasks(r), b.tasks(r)) << what << " resource " << r;
    ASSERT_EQ(a.load(r), b.load(r)) << what << " resource " << r;
    ASSERT_EQ(a.accepted_count(r), b.accepted_count(r)) << what << " r=" << r;
    ASSERT_EQ(a.accepted_load(r), b.accepted_load(r)) << what << " r=" << r;
    for (std::size_t i = 0; i < a.count(r); ++i) {
      ASSERT_EQ(a.weights(r)[i], b.weights(r)[i]) << what << " r=" << r;
    }
  }
  EXPECT_EQ(a.slab_size(), b.slab_size()) << what;
  EXPECT_EQ(a.relocations(), b.relocations()) << what;
  a.check_invariants();
}

/// A flat layout over `resources` of `arena` with a random mask: each
/// resource leaves with its own probability, drawn from {0, 1, uniform},
/// so stacks without leavers and all-leave stacks both occur.
struct FlatRound {
  std::vector<Node> resources;
  std::vector<std::size_t> prefix{0};
  std::vector<std::uint8_t> mask;
  std::vector<std::size_t> shard_movers;
  std::size_t grain = 1;

  FlatRound(const TaskArena& arena, std::vector<Node> rs, std::size_t g,
            tlb::util::Rng& rng)
      : resources(std::move(rs)), grain(g) {
    for (const Node r : resources) {
      const std::size_t kind = rng.uniform_below(4);
      const double p = kind == 0 ? 0.0 : kind == 1 ? 1.0 : rng.uniform01();
      for (std::size_t i = 0; i < arena.count(r); ++i) {
        mask.push_back(rng.bernoulli(p) ? 1 : 0);
      }
      prefix.push_back(mask.size());
    }
    const std::size_t shards = tlb::util::shard_count(mask.size(), grain);
    shard_movers.assign(shards + 1, 0);
    for (std::size_t c = 0; c < mask.size(); ++c) {
      shard_movers[c / grain + 1] += mask[c];
    }
    for (std::size_t s = 1; s <= shards; ++s) {
      shard_movers[s] += shard_movers[s - 1];
    }
  }

  FlatMarks marks() const {
    return {resources, prefix, mask, grain, shard_movers};
  }
};

TEST(TaskArenaFlatRemoveTest, MatchesPerResourceRemovalOnEveryPool) {
  // Stacks of 0..~60 tasks with accepted prefixes, on grains from one coin
  // per shard (every stack crosses) to larger than the whole layout (one
  // inline shard), with and without pools.
  const Node n = 48;
  const std::size_t m = 1500;
  tlb::util::Rng wr(5);
  std::vector<double> w(m);
  for (double& x : w) x = 1.0 + 7.0 * wr.uniform01();
  const TaskSet ts(std::move(w));
  std::vector<std::unique_ptr<tlb::util::ThreadPool>> owned;
  std::vector<tlb::util::ThreadPool*> pools{nullptr};
  for (const std::size_t threads : {2, 4, 8}) {
    owned.push_back(std::make_unique<tlb::util::ThreadPool>(threads));
    pools.push_back(owned.back().get());
  }
  for (const std::size_t grain : {1, 7, 64, 100000}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      tlb::util::Rng rng(seed * 977 + grain);
      TaskArena base(n);
      for (TaskId id = 0; id < m; ++id) {
        const auto r = static_cast<Node>(rng.uniform_below(n));
        base.push_accepting(r, id, ts.weight(id), 60.0);
      }
      std::vector<Node> rs;
      for (Node r = 0; r < n; ++r) {
        if (rng.bernoulli(0.7)) rs.push_back(r);
      }
      const FlatRound round(base, rs, grain, rng);

      // Reference: remove_marked resource by resource, skipping resources
      // without a mark (as the engine's serial merge did).
      TaskArena ref = base;
      std::vector<TaskId> ref_ids;
      std::vector<Node> ref_origin;
      for (std::size_t i = 0; i < rs.size(); ++i) {
        const std::vector<std::uint8_t> leave(
            round.mask.begin() + static_cast<std::ptrdiff_t>(round.prefix[i]),
            round.mask.begin() +
                static_cast<std::ptrdiff_t>(round.prefix[i + 1]));
        if (std::find(leave.begin(), leave.end(), 1) == leave.end()) continue;
        const std::size_t before = ref_ids.size();
        ref.remove_marked(rs[i], leave, ref_ids);
        ref_origin.insert(ref_origin.end(), ref_ids.size() - before, rs[i]);
      }

      for (tlb::util::ThreadPool* pool : pools) {
        const std::string what =
            "grain=" + std::to_string(grain) + " seed=" +
            std::to_string(seed) + " pool=" +
            std::to_string(pool == nullptr ? 0 : pool->size());
        TaskArena bulk = base;
        std::vector<TaskId> ids{99};  // stale contents are overwritten
        std::vector<Node> origin;
        bulk.remove_marked(round.marks(), ts, ids, origin, pool);
        EXPECT_EQ(ids, ref_ids) << what;
        EXPECT_EQ(origin, ref_origin) << what;
        expect_same_arena(bulk, ref, what);
      }
    }
  }
}

TEST(TaskArenaFlatRemoveTest, RejectsLayoutsThatDoNotMatchTheStacks) {
  const TaskSet ts(std::vector<double>(8, 1.0));
  TaskArena arena(4);
  for (TaskId id = 0; id < 6; ++id) arena.push(id % 3, id, 1.0);
  const TaskArena before = arena;
  std::vector<TaskId> ids;
  std::vector<Node> origin;
  const std::vector<std::uint8_t> mask{1, 0, 1, 0};
  const std::vector<std::size_t> movers{0, 2};
  const auto attempt = [&](std::vector<Node> rs,
                           std::vector<std::size_t> prefix) {
    const FlatMarks marks{rs, prefix, mask, 8, movers};
    arena.remove_marked(marks, ts, ids, origin, nullptr);
  };
  EXPECT_THROW(attempt({0, 1}, {0, 2, 3}), std::invalid_argument);  // size
  EXPECT_THROW(attempt({1, 0}, {0, 2, 4}), std::invalid_argument);  // order
  EXPECT_THROW(attempt({0, 7}, {0, 2, 4}), std::invalid_argument);  // range
  EXPECT_THROW(attempt({0}, {0, 4}), std::invalid_argument);  // count(0) = 2
  expect_same_arena(arena, before, "rejected layouts");
  attempt({0, 1}, {0, 2, 4});
  EXPECT_EQ(ids, (std::vector<TaskId>{0, 1}));
  EXPECT_EQ(origin, (std::vector<Node>{0, 1}));
}

TEST(TaskArenaTest, HeightAtThrowsPastTop) {
  TaskArena arena(1);
  arena.push(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(arena.height_at(0, 0), 0.0);
  EXPECT_THROW(arena.height_at(0, 1), std::out_of_range);
}

}  // namespace
