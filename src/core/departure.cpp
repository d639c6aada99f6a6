#include "tlb/core/departure.hpp"

#include <utility>

#include "tlb/core/system_state.hpp"
#include "tlb/util/rng.hpp"

namespace tlb::core {

void flip_departures(SystemState& state, graph::Node r, double alpha,
                     util::Rng& rng, std::vector<std::uint8_t>& mask,
                     std::vector<tasks::TaskId>& movers,
                     std::vector<graph::Node>& origin) {
  const ResourceStack& stack = std::as_const(state).stack(r);
  const tasks::TaskSet& ts = state.task_set();
  const double p =
      leave_probability(alpha, stack.phi(ts, state.thresholds()[r]),
                        ts.max_weight(), stack.count());
  if (p <= 0.0) return;
  mask.assign(stack.count(), 0);
  bool any = false;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (rng.bernoulli(p)) {
      mask[i] = 1;
      any = true;
    }
  }
  if (!any) return;
  const std::size_t before = movers.size();
  state.remove_marked(r, mask, movers);
  origin.insert(origin.end(), movers.size() - before, r);
}

}  // namespace tlb::core
