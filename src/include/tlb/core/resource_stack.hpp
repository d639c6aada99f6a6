#pragma once
// The paper's per-resource stack (Sections 5 and 6).
//
// Tasks live in a stack; the *height* of a task is the total weight below it.
// A task *cuts* the threshold T if  h < T < h + w;  it is *completely below*
// if h + w <= T and *completely above* if h >= T.
//
// For the resource-controlled protocol the stack additionally tracks the
// *accepted prefix*: a task is accepted on arrival iff load + w <= T (its
// height is the then-current load); accepted tasks are inactive and never
// move again. Model invariant (checked in tests): the unaccepted suffix is
// exactly the eviction set I^a ∪ I^c, and it is non-empty only when the
// resource is overloaded.
//
// Storage: every resource's ids and mirrored weights live in one
// mem::TaskArena, whose mutators implement the stack operations (push,
// push_accepting, evict_unaccepted, evict_above, remove_marked).
// ResourceStack is a read-only (arena, resource) view for the paper's
// quantities; SystemState::stack(r) hands one out.

#include <cstddef>

#include "tlb/mem/task_arena.hpp"

namespace tlb::core {

using graph::Node;

/// Read-only view of one resource's stack inside a mem::TaskArena, which
/// must outlive the view. Invalidated by any arena mutation.
class ResourceStack {
 public:
  ResourceStack(const mem::TaskArena& arena, Node r) noexcept
      : arena_(&arena), r_(r) {}

  /// Total weight currently on this resource (the load x_r).
  double load() const noexcept { return arena_->load(r_); }
  /// Number of tasks on this resource (b_r in the paper).
  std::size_t count() const noexcept { return arena_->count(r_); }
  /// True iff no tasks are stored.
  bool empty() const noexcept { return arena_->empty(r_); }

  /// Tasks bottom-to-top.
  mem::TaskSpan tasks() const noexcept { return arena_->tasks(r_); }

  /// Weight of the accepted prefix (resource-controlled bookkeeping).
  double accepted_load() const noexcept { return arena_->accepted_load(r_); }
  /// Size of the accepted prefix.
  std::size_t accepted_count() const noexcept {
    return arena_->accepted_count(r_);
  }
  /// Number of unaccepted (active) tasks.
  std::size_t pending_count() const noexcept {
    return count() - accepted_count();
  }
  /// Total weight of unaccepted tasks — this resource's contribution to the
  /// potential Φ of eq. (1).
  double pending_load() const noexcept { return load() - accepted_load(); }

  /// Height of the task at stack position `pos` (sum of weights below).
  /// Throws std::out_of_range past the top.
  double height_at(std::size_t pos) const { return arena_->height_at(r_, pos); }

  /// The user-protocol potential φ_r for threshold T: total weight of the
  /// cutting task plus all tasks above it; 0 if load <= T (Section 6).
  double phi(double threshold) const noexcept {
    return arena_->phi(r_, threshold);
  }

 private:
  const mem::TaskArena* arena_;
  Node r_;
};

}  // namespace tlb::core
