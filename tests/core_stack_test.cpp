// Tests for the paper's stack semantics on mem::TaskArena, which holds every
// stack: heights, acceptance, the cutting task, φ_r, eviction and marked
// removal. Each case uses resource 0 of a one-resource arena and reads the
// paper's derived quantities through the read-only core::ResourceStack view.
#include "tlb/core/resource_stack.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tlb/mem/task_arena.hpp"
#include "tlb/tasks/task_set.hpp"

namespace {

using tlb::core::ResourceStack;
using tlb::mem::TaskArena;
using tlb::tasks::TaskId;
using tlb::tasks::TaskSet;

/// A one-resource arena whose pushes look their weights up in a TaskSet.
class Stack {
 public:
  explicit Stack(const TaskSet& ts) : ts_(&ts), arena_(1) {}
  bool push_accepting(TaskId id, double threshold) {
    return arena_.push_accepting(0, id, ts_->weight(id), threshold);
  }
  void push(TaskId id) { arena_.push(0, id, ts_->weight(id)); }
  TaskArena& arena() { return arena_; }
  ResourceStack view() const { return {arena_, 0}; }

 private:
  const TaskSet* ts_;
  TaskArena arena_;
};

TEST(ResourceStackTest, PushAcceptingWithinThreshold) {
  const TaskSet ts({2.0, 3.0, 4.0});
  Stack s(ts);
  EXPECT_TRUE(s.push_accepting(0, 10.0));   // h=0, 0+2 <= 10
  EXPECT_TRUE(s.push_accepting(1, 10.0));   // h=2, 2+3 <= 10
  EXPECT_TRUE(s.push_accepting(2, 10.0));   // h=5, 5+4 <= 10... 9 <= 10
  EXPECT_EQ(s.view().accepted_count(), 3u);
  EXPECT_DOUBLE_EQ(s.view().accepted_load(), 9.0);
  EXPECT_DOUBLE_EQ(s.view().pending_load(), 0.0);
}

TEST(ResourceStackTest, PushAcceptingRejectsWhenCutting) {
  const TaskSet ts({6.0, 6.0});
  Stack s(ts);
  EXPECT_TRUE(s.push_accepting(0, 10.0));   // 0+6 <= 10
  EXPECT_FALSE(s.push_accepting(1, 10.0));  // 6+6 > 10: cuts
  EXPECT_EQ(s.view().accepted_count(), 1u);
  EXPECT_DOUBLE_EQ(s.view().pending_load(), 6.0);
}

TEST(ResourceStackTest, BoundaryExactFitIsAccepted) {
  // h + w == T means "completely below" (cutting needs h + w > T).
  const TaskSet ts({4.0, 6.0});
  Stack s(ts);
  EXPECT_TRUE(s.push_accepting(0, 10.0));
  EXPECT_TRUE(s.push_accepting(1, 10.0));  // 4 + 6 == 10 exactly
  EXPECT_EQ(s.view().pending_count(), 0u);
}

TEST(ResourceStackTest, OnceRejectedAlwaysRejectedUntilEviction) {
  // After one unaccepted task, later arrivals must be unaccepted even if
  // tiny (their height includes the pending weight).
  const TaskSet ts({8.0, 8.0, 1.0});
  Stack s(ts);
  EXPECT_TRUE(s.push_accepting(0, 10.0));
  EXPECT_FALSE(s.push_accepting(1, 10.0));
  EXPECT_FALSE(s.push_accepting(2, 10.0));  // 16+1 > 10
  EXPECT_EQ(s.view().pending_count(), 2u);
}

TEST(ResourceStackTest, HeightsArePrefixSums) {
  const TaskSet ts({2.0, 3.0, 5.0});
  Stack s(ts);
  s.push(0);
  s.push(1);
  s.push(2);
  EXPECT_DOUBLE_EQ(s.view().height_at(0), 0.0);
  EXPECT_DOUBLE_EQ(s.view().height_at(1), 2.0);
  EXPECT_DOUBLE_EQ(s.view().height_at(2), 5.0);
  EXPECT_THROW(s.view().height_at(3), std::out_of_range);
}

TEST(ResourceStackTest, EvictUnacceptedTakesExactlyTheSuffix) {
  const TaskSet ts({5.0, 7.0, 2.0});
  Stack s(ts);
  s.push_accepting(0, 10.0);  // accepted
  s.push_accepting(1, 10.0);  // cutting -> pending
  s.push_accepting(2, 10.0);  // above -> pending
  std::vector<TaskId> evicted;
  s.arena().evict_unaccepted(0, evicted);
  EXPECT_EQ(evicted, (std::vector<TaskId>{1, 2}));
  EXPECT_DOUBLE_EQ(s.view().load(), 5.0);
  EXPECT_EQ(s.view().count(), 1u);
  EXPECT_EQ(s.view().pending_count(), 0u);
  // Exactness contract the load-keyed overloaded set relies on: after a
  // full suffix eviction the load is bitwise the accepted bookkeeping (no
  // accumulated subtraction drift), so load <= T holds exactly.
  EXPECT_EQ(s.view().load(), s.view().accepted_load());
}

TEST(ResourceStackTest, EvictUnacceptedSnapsLoadExactly) {
  // Non-dyadic weights whose FP sum-and-subtract would drift: adding many
  // 1.1s and subtracting them again is not bitwise-exact in general. After
  // evicting the whole unaccepted suffix, the load must equal the accepted
  // load bitwise — the termination argument for the resource engine.
  std::vector<double> w(12, 1.1);
  w[0] = 11.0;
  const TaskSet ts(std::move(w));
  Stack s(ts);
  s.push_accepting(0, 11.05);  // accepted: 11.0 <= 11.05
  for (TaskId id = 1; id < 12; ++id) {
    s.push_accepting(id, 11.05);  // all pending (11.0 + 1.1 > 11.05)
  }
  ASSERT_EQ(s.view().pending_count(), 11u);
  std::vector<TaskId> evicted;
  s.arena().evict_unaccepted(0, evicted);
  EXPECT_EQ(evicted.size(), 11u);
  EXPECT_EQ(s.view().load(), s.view().accepted_load());
  EXPECT_EQ(s.view().load(), 11.0);  // bitwise, not just approximately
}

TEST(ResourceStackTest, EvictOnBalancedStackIsNoop) {
  const TaskSet ts({5.0});
  Stack s(ts);
  s.push_accepting(0, 10.0);
  std::vector<TaskId> evicted;
  s.arena().evict_unaccepted(0, evicted);
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(s.view().count(), 1u);
}

TEST(ResourceStackTest, RemoveMarkedPreservesOrder) {
  const TaskSet ts({1.0, 2.0, 3.0, 4.0, 5.0});
  Stack s(ts);
  for (TaskId i = 0; i < 5; ++i) s.push(i);
  std::vector<TaskId> removed;
  s.arena().remove_marked(0, {0, 1, 0, 1, 0}, removed);
  EXPECT_EQ(removed, (std::vector<TaskId>{1, 3}));
  EXPECT_EQ(s.view().tasks(), (std::vector<TaskId>{0, 2, 4}));
  EXPECT_DOUBLE_EQ(s.view().load(), 1.0 + 3.0 + 5.0);
}

TEST(ResourceStackTest, RemoveMarkedKeepsAcceptanceBookkeeping) {
  // Regression: remove_marked used to zero the accepted prefix
  // "defensively", so a mixed-protocol round interleaving user-style
  // departures with acceptance bookkeeping read stale values. Accepted
  // tasks form a prefix and survivors keep their order, so the surviving
  // accepted tasks must remain a (correctly accounted) prefix.
  const TaskSet ts({2.0, 3.0, 4.0, 5.0});
  Stack s(ts);
  EXPECT_TRUE(s.push_accepting(0, 6.0));    // accepted, h=0
  EXPECT_TRUE(s.push_accepting(1, 6.0));    // accepted, h=2
  EXPECT_FALSE(s.push_accepting(2, 6.0));   // rejected (5+4 > 6)
  EXPECT_FALSE(s.push_accepting(3, 6.0));   // rejected
  ASSERT_EQ(s.view().accepted_count(), 2u);

  // Remove one accepted task (position 0) and one pending task (position 2).
  std::vector<TaskId> out;
  s.arena().remove_marked(0, {1, 0, 1, 0}, out);
  EXPECT_EQ(out, (std::vector<TaskId>{0, 2}));
  EXPECT_EQ(s.view().tasks(), (std::vector<TaskId>{1, 3}));
  EXPECT_DOUBLE_EQ(s.view().load(), 8.0);
  EXPECT_EQ(s.view().accepted_count(), 1u);            // task 1 survived
  EXPECT_DOUBLE_EQ(s.view().accepted_load(), 3.0);
  EXPECT_EQ(s.view().pending_count(), 1u);             // task 3 still pending
  EXPECT_DOUBLE_EQ(s.view().pending_load(), 5.0);

  // Removing the remaining accepted task leaves a pending-only stack.
  out.clear();
  s.arena().remove_marked(0, {1, 0}, out);
  EXPECT_EQ(s.view().accepted_count(), 0u);
  EXPECT_DOUBLE_EQ(s.view().accepted_load(), 0.0);
  EXPECT_DOUBLE_EQ(s.view().pending_load(), 5.0);
}

TEST(ResourceStackTest, PhiZeroWhenNotOverloaded) {
  const TaskSet ts({3.0, 3.0});
  Stack s(ts);
  s.push(0);
  s.push(1);
  EXPECT_DOUBLE_EQ(s.view().phi(6.0), 0.0);   // load == T: not overloaded
  EXPECT_DOUBLE_EQ(s.view().phi(10.0), 0.0);  // below
}

TEST(ResourceStackTest, PhiCountsCuttingAndAbove) {
  // Stack (bottom->top): 4, 4, 4 with T = 10. Heights 0, 4, 8.
  // Task 0: 0+4 <= 10 below. Task 1: 4+4 <= 10 below. Task 2: 8+4 > 10 cuts.
  const TaskSet ts({4.0, 4.0, 4.0});
  Stack s(ts);
  for (TaskId i = 0; i < 3; ++i) s.push(i);
  EXPECT_DOUBLE_EQ(s.view().phi(10.0), 4.0);
}

TEST(ResourceStackTest, PhiWithTaskFullyAbove) {
  // Stack: 6, 6, 6 with T = 10: task0 below (6<=10), task1 cuts (6<10<12),
  // task2 fully above (h=12 >= 10). φ = 12.
  const TaskSet ts({6.0, 6.0, 6.0});
  Stack s(ts);
  for (TaskId i = 0; i < 3; ++i) s.push(i);
  EXPECT_DOUBLE_EQ(s.view().phi(10.0), 12.0);
}

TEST(ResourceStackTest, PhiDependsOnStackOrder) {
  // Documented property: φ is defined on heights, so order matters near the
  // threshold. [50, 1] vs [1, 50] with T = 10.
  const TaskSet heavy_first({50.0, 1.0});
  Stack a(heavy_first);
  a.push(0);
  a.push(1);
  EXPECT_DOUBLE_EQ(a.view().phi(10.0), 51.0);

  const TaskSet light_first({1.0, 50.0});
  Stack b(light_first);
  b.push(0);
  b.push(1);
  EXPECT_DOUBLE_EQ(b.view().phi(10.0), 50.0);
}

TEST(ResourceStackTest, ClearResetsEverything) {
  const TaskSet ts({2.0});
  Stack s(ts);
  s.push_accepting(0, 10.0);
  s.arena().clear(0);
  EXPECT_TRUE(s.view().empty());
  EXPECT_DOUBLE_EQ(s.view().load(), 0.0);
  EXPECT_EQ(s.view().accepted_count(), 0u);
}

}  // namespace
