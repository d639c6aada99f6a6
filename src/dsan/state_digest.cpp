#include "tlb/dsan/state_digest.hpp"

#include "tlb/core/overloaded_set.hpp"
#include "tlb/mem/task_arena.hpp"

namespace tlb::dsan {

void digest_state(const core::SystemState& state, Digest& d, Digest& work) {
  const mem::TaskArena& arena = state.arena();
  const graph::Node n = state.num_resources();
  d.u64(n);
  d.u64(arena.total_tasks());
  for (graph::Node r = 0; r < n; ++r) {
    d.f64(arena.load(r));
    const mem::TaskSpan span = arena.tasks(r);
    const double* w = arena.weights(r);
    d.u64(span.size());
    for (std::size_t i = 0; i < span.size(); ++i) {
      d.u64(span[i]);
      d.f64(w[i]);
    }
  }
  for (graph::Node r = 0; r < n; ++r) d.f64(state.thresholds()[r]);
  digest_tracker(state.overloaded_tracker(), d, work);
}

void digest_tracker(const core::OverloadedSet& tracker, Digest& state,
                    Digest& work) {
  // Const reads only — items() is the list as of the last flush,
  // dirty_size() the pending queue; neither reconciles.
  for (const graph::Node r : tracker.items()) state.u64(r);
  work.u64(tracker.dirty_size());
  work.u64(tracker.flush_checks());
  work.u64(tracker.dirty_marks());
}

void digest_loads(const double* loads, std::size_t n, Digest& d) {
  d.u64(n);
  for (std::size_t i = 0; i < n; ++i) d.f64(loads[i]);
}

void digest_loads(const std::vector<double>& loads, Digest& d) {
  digest_loads(loads.data(), loads.size(), d);
}

}  // namespace tlb::dsan
